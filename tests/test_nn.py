import gc
import math
import pickle
import re
import struct
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim.nn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, ADAM_LEARNING_RATE, LINEAR, RELU,
                         SOFTMAX, AdamState, DenseNetwork, Gradients, Workspace, adam_step,
                         backward, cross_entropy_delta, forward, gather_rows, init_network,
                         input_gradient, load_model, predict, save_model)

from helpers import as_float64, cross_entropy, finite_diff_check, subnormal_count, sure_rows


def small_net(sizes=(7, 6, 5, 3), seed=0):
    return init_network(list(sizes), rng=np.random.default_rng(seed))


def full_backward_d_input(net, cache, loss_gradient):
    """d(loss)/d(input) as one backward pass that also formed every
    parameter gradient reached it: each layer's pre-activation gradient
    times that layer's weights, down to the input. A relu layer's
    pre-activation is positive exactly where its output is; a softmax
    layer's loss gradient is already its pre-activation gradient."""
    outputs = cache.inputs[1:] + [cache.out]
    g = loss_gradient
    for i in range(net.n_layers - 1, -1, -1):
        dz = g * (outputs[i] > 0.0) if net.activations[i] == RELU else g
        g = dz @ net.weights[i]
    return g


def per_tensor_adam(weights, biases, d_weights, d_biases, m, v, step, first_weight_scale):
    """Adam updated one parameter tensor at a time, weights then biases, with
    m and v holding one array per tensor in that order."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1 ** step
    inv_sqrt_corr2 = 1.0 / math.sqrt(1.0 - b2 ** step)
    scale = ADAM_LEARNING_RATE / corr1
    for k, (p, g) in enumerate(zip(weights + biases, d_weights + d_biases)):
        step_scale = scale * first_weight_scale if k == 0 else scale
        m[k] *= b1
        m[k] += (1.0 - b1) * g
        v[k] *= b2
        v[k] += (1.0 - b2) * np.square(g)
        denom = np.sqrt(v[k]) * inv_sqrt_corr2 + ADAM_EPSILON
        p -= m[k] / denom * step_scale


class TestInit:
    def test_classifier_shapes(self):
        net = init_network([800, 50, 50, 50, 2], rng=np.random.default_rng(0))
        assert [w.shape for w in net.weights] == [(50, 800), (50, 50), (50, 50), (2, 50)]
        assert net.activations == [RELU, RELU, RELU, SOFTMAX]
        assert all(np.all(b == 0) for b in net.biases)

    def test_generator_shape(self):
        net = init_network([100, 128, 128, 128, 800],
                           [RELU, RELU, RELU, LINEAR],
                           rng=np.random.default_rng(0))
        assert net.layer_sizes == [100, 128, 128, 128, 800]

    def test_deterministic_under_seed(self):
        a = small_net(seed=3)
        b = small_net(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            init_network([4, 0, 2], rng=np.random.default_rng(0))

    def test_softmax_only_at_output(self):
        with pytest.raises(ValueError):
            DenseNetwork([np.ones((2, 3)), np.ones((2, 2))],
                         [np.zeros(2), np.zeros(2)], [SOFTMAX, SOFTMAX])

    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError):
            DenseNetwork([np.ones((4, 3)), np.ones((2, 5))],
                         [np.zeros(4), np.zeros(2)], [RELU, LINEAR])

    @pytest.mark.parametrize("sizes", [[8, 0, 2], [0, 4, 2], [8, 4, 0]])
    def test_zero_width_layer_rejected(self, sizes):
        weights = [np.ones((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])]
        biases = [np.zeros(n_out) for n_out in sizes[1:]]
        with pytest.raises(ValueError, match="zero width"):
            DenseNetwork(weights, biases, [RELU, SOFTMAX])


class TestForward:
    def test_symmetric_softmax(self):
        net = DenseNetwork([np.zeros((2, 2))], [np.zeros(2)], [SOFTMAX])
        out, _ = forward(net, np.array([[3.0, -1.0]]), Workspace(net, 1))
        npt.assert_allclose(out, [[0.5, 0.5]])

    def test_identity_linear_layer(self):
        net = DenseNetwork([np.eye(4)], [np.zeros(4)], [LINEAR])
        x = np.array([[1.0, -2.0, 3.5, 0.0]])
        out, _ = forward(net, x, Workspace(net, 1))
        npt.assert_array_equal(out, x)

    def test_against_independent_reimplementation(self):
        rng = np.random.default_rng(8)
        net = small_net(seed=8)
        x = rng.standard_normal((1, 7))
        out, _ = forward(net, x, Workspace(net, 1))
        # plain-loop oracle of the same arithmetic
        a = x[0].copy()
        for w, b, act in zip(net.weights, net.biases, net.activations):
            z = np.array([float(np.dot(w[i], a)) + b[i] for i in range(w.shape[0])])
            if act == RELU:
                a = np.array([max(0.0, v) for v in z])
            elif act == SOFTMAX:
                e = np.exp(z - max(z))
                a = e / e.sum()
            else:
                a = z
        npt.assert_allclose(out[0], a, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        net = small_net(seed=1)
        out, _ = forward(net, rng.standard_normal((40, 7)) * 100, Workspace(net, 40))
        npt.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out > 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            net = small_net()
            forward(net, np.zeros((1, 6)), Workspace(net, 1))

    def test_predict_matches_forward(self):
        rng = np.random.default_rng(2)
        for output in (SOFTMAX, LINEAR):
            net = init_network([7, 6, 5, 3], [RELU, RELU, output], rng=rng)
            for shape in ((5, 7), (1, 7)):
                x = rng.standard_normal(shape)
                before = x.copy()
                npt.assert_array_equal(predict(net, x), forward(net, x, Workspace(net, len(x)))[0])
                npt.assert_array_equal(x, before)


class TestBatchOnly:
    @pytest.mark.parametrize("fn", [forward, predict, backward, input_gradient,
                                    cross_entropy_delta, cross_entropy],
                             ids=lambda fn: fn.__name__)
    def test_one_dimensional_input_is_refused_by_its_shape(self, fn):
        # A single sample is one row; its 1-D array is refused.
        net = small_net()
        ws = Workspace(net, 1)
        _, cache = forward(net, np.ones((1, 7)), ws)
        p, y = np.full(3, 1 / 3), np.eye(3)[0]
        args = {forward: (net, np.ones(7), ws), predict: (net, np.ones(7)),
                backward: (net, cache, np.zeros(3)), input_gradient: (net, cache, np.zeros(3)),
                cross_entropy_delta: (p, y), cross_entropy: (p, y)}[fn]
        refused = args[1] if fn is forward else args[-1]  # forward's last is its workspace
        with pytest.raises(ValueError, match=re.escape(str(refused.shape))):
            fn(*args)


def training_loss_gradient(out, label, output):
    """Cross-entropy's gradient with respect to the logits for a softmax
    output, half squared error's with respect to the output for a linear
    one."""
    if output == SOFTMAX:
        return cross_entropy_delta(out, label)
    return (out - label) / len(out)


class TestWorkspace:
    @pytest.mark.parametrize("output", [SOFTMAX, LINEAR])
    def test_reused_workspace_equals_one_shot_passes(self, output):
        # 47 rows in batches of 10: every epoch ends with a batch of 7
        rng = np.random.default_rng(17)
        net = init_network([7, 6, 5, 3], [RELU, RELU, output], rng=rng)
        ref = DenseNetwork(net.weights, net.biases, net.activations)
        x = rng.standard_normal((47, 7))
        y = np.eye(3)[rng.integers(0, 3, 47)]
        ws = Workspace(net, 10)
        state, ref_state = AdamState.for_network(net), AdamState.for_network(ref)
        steps = 0
        for epoch in range(5):
            order = np.random.default_rng(epoch).permutation(47)
            for start in range(0, 47, 10):
                idx = order[start:start + 10]
                out, cache = forward(net, gather_rows(ws, x, idx), ws)
                loss_gradient = training_loss_gradient(out, y[idx], output)
                adam_step(net, backward(net, cache, loss_gradient), state)
                out, cache = forward(ref, x[idx], Workspace(ref, len(idx)))
                loss_gradient = training_loss_gradient(out, y[idx], output)
                adam_step(ref, backward(ref, cache, loss_gradient), ref_state)
                steps += 1
        assert steps == 25
        npt.assert_array_equal(net.params, ref.params)
        npt.assert_array_equal(state.m, ref_state.m)
        npt.assert_array_equal(state.v, ref_state.v)

    def test_one_shot_gradients_survive_later_passes(self):
        rng = np.random.default_rng(18)
        net = small_net(seed=18)
        out, cache = forward(net, rng.standard_normal((4, 7)), Workspace(net, 4))
        grads = backward(net, cache, rng.standard_normal(out.shape))
        kept = grads.flat.copy()
        ws = Workspace(net, 6)
        for _ in range(2):
            out, other = forward(net, rng.standard_normal((6, 7)), ws)
            backward(net, other, rng.standard_normal(out.shape))
            input_gradient(net, other, rng.standard_normal(out.shape))
            out, other = forward(net, rng.standard_normal((4, 7)), Workspace(net, 4))
            backward(net, other, rng.standard_normal(out.shape))
        npt.assert_array_equal(grads.flat, kept)
        adam_step(net, grads, AdamState.for_network(net))

    @pytest.mark.parametrize("later", ["forward", "gather_rows"])
    def test_later_pass_makes_cache_and_gradients_stale(self, later):
        rng = np.random.default_rng(19)
        net = small_net(seed=19)
        x = rng.standard_normal((8, 7))
        ws = Workspace(net, 8)
        out, cache = forward(net, x[:5], ws)
        grads = backward(net, cache, np.ones_like(out))
        if later == "forward":
            forward(net, x, ws)
        else:
            gather_rows(ws, x, np.arange(3))
        with pytest.raises(ValueError, match="stale"):
            backward(net, cache, np.ones_like(out))
        with pytest.raises(ValueError, match="stale"):
            input_gradient(net, cache, np.ones_like(out))
        with pytest.raises(ValueError, match="stale"):
            adam_step(net, grads, AdamState.for_network(net))

    def test_workspace_is_freed_without_the_cycle_collector(self):
        # Its Gradients point back at it weakly, so dropping the last cache
        # frees its buffers at once; the gradients stay usable.
        net = small_net()
        out, cache = forward(net, np.ones((3, 7)), Workspace(net, 3))
        grads = backward(net, cache, np.ones_like(out))
        owner = weakref.ref(cache.workspace)
        collector_was_on = gc.isenabled()
        gc.disable()
        try:
            del out, cache
            assert owner() is None
        finally:
            if collector_was_on:
                gc.enable()
        adam_step(net, grads, AdamState.for_network(net))

    def test_batch_wider_than_rows_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="do not fit"):
            forward(net, np.ones((5, 7)), Workspace(net, 4))

    def test_workspace_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            forward(small_net(), np.ones((2, 7)), Workspace(small_net((7, 4, 3)), 4))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([[1.0, 0.0]], [[1.0, 0.0]]) == 0.0

    def test_uniform_prediction(self):
        npt.assert_allclose(cross_entropy([[0.5, 0.5]], [[1.0, 0.0]]), math.log(2),
                            rtol=1e-12)

    def test_confidently_wrong(self):
        npt.assert_allclose(cross_entropy([[0.9, 0.1]], [[0.0, 1.0]]),
                            -math.log(0.1), rtol=1e-12)

    def test_nonnegative_and_zero_only_at_label(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal((1, 4))
            p = np.exp(z) / np.exp(z).sum()
            y = np.zeros((1, 4))
            y[0, rng.integers(4)] = 1.0
            assert cross_entropy(p, y) >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy([[0.5, 0.5]], [[1.0, 0.0, 0.0]])

    def test_unnormalised_prediction_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy([[0.6, 0.6]], [[1.0, 0.0]])

    def test_non_one_hot_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy([[0.5, 0.5]], [[0.5, 0.5]])

    def test_batch_mean(self):
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        npt.assert_allclose(cross_entropy(p, y), math.log(2) / 2, rtol=1e-12)


def softmax_rows(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestCrossEntropyDelta:
    @pytest.mark.parametrize("shape", [(4, 3)], ids=["batch"])
    def test_matches_central_differences_through_the_softmax(self, shape):
        rng = np.random.default_rng(40)
        z = 2.0 * rng.standard_normal(shape)
        y = np.eye(shape[1])[rng.integers(0, shape[1], shape[0])]
        h = 1e-6
        numeric = np.zeros(shape)
        for idx in np.ndindex(shape):
            step = np.zeros(shape)
            step[idx] = h
            numeric[idx] = (cross_entropy(softmax_rows(z + step), y)
                            - cross_entropy(softmax_rows(z - step), y)) / (2.0 * h)
        delta = cross_entropy_delta(softmax_rows(z), y)
        assert delta.shape == shape and delta.dtype == np.float64
        npt.assert_allclose(delta, numeric, rtol=1e-6, atol=1e-10)

    def test_row_whose_target_probability_is_below_log_eps_is_zero(self):
        # Float64 keeps every entry here, so only the row rule acts: where
        # the target's probability is clamped the loss is flat.
        p = np.array([[1.0 - 1e-13, 1e-13], [1.0 - 1e-11, 1e-11]])
        y = np.array([[0.0, 1.0], [0.0, 1.0]])
        delta = cross_entropy_delta(p, y)
        npt.assert_array_equal(delta[0], [0.0, 0.0])
        npt.assert_array_equal(delta[1], (p[1] - y[1]) / 2)
        assert np.all(delta[1] != 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_entry_below_root_of_smallest_normal_is_zero(self, dtype):
        # Every target's probability is 1, so only the entry rule acts, at
        # about 1e-19 in float32 and 1e-154 in float64.
        p = np.array([[1.0, 1e-30], [1.0, 1e-18]], dtype=dtype)
        y = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=dtype)
        delta = cross_entropy_delta(p, y)
        assert delta.dtype == dtype
        assert delta[0, 1] == (0.0 if dtype == np.float32 else dtype(1e-30) / 2)
        assert delta[1, 1] == dtype(1e-18) / 2
        npt.assert_array_equal(delta[:, 0], [0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            cross_entropy_delta(np.full((2, 2), 0.5), np.eye(3)[:2])


class TestBackward:
    def test_zero_loss_gradient_gives_zero_parameter_gradients(self):
        net = small_net()
        out, cache = forward(net, np.ones((1, 7)), Workspace(net, 1))
        grads = backward(net, cache, np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads.d_weights)
        assert all(np.all(g == 0) for g in grads.d_biases)

    @pytest.mark.parametrize("sizes", [(7, 6, 5, 3), (4, 9, 2), (5, 5, 5, 5, 4)])
    def test_matches_finite_differences(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        net = small_net(sizes, seed=sum(sizes))
        x = rng.standard_normal((1, sizes[0]))
        label = np.zeros((1, sizes[-1]))
        label[0, 0] = 1.0
        assert finite_diff_check(net, x, label, h=1e-5) < 1e-4

    def test_softmax_cross_entropy_composite_equals_residual(self):
        rng = np.random.default_rng(4)
        net = small_net(seed=4)
        x = rng.standard_normal((1, 7))
        label = np.array([[0.0, 1.0, 0.0]])
        out, cache = forward(net, x, Workspace(net, 1))
        grads = backward(net, cache, cross_entropy_delta(out, label))
        # with softmax + cross-entropy, d(loss)/d(last pre-activation) = p - y,
        # so the last bias gradient equals the residual directly
        npt.assert_allclose(grads.d_biases[-1], (out - label)[0], atol=1e-12)

    def test_input_gradient_shape(self):
        net = small_net()
        x = np.ones((4, 7))
        out, cache = forward(net, x, Workspace(net, 4))
        assert input_gradient(net, cache, np.ones_like(out)).shape == x.shape

    def test_stale_cache_rejected(self):
        net = small_net()
        other = small_net((7, 4, 3))
        _, cache = forward(other, np.ones((1, 7)), Workspace(other, 1))
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((1, 3)))


class TestInputGradient:
    @pytest.mark.parametrize("output", [SOFTMAX, LINEAR])
    def test_matches_finite_differences(self, output):
        rng = np.random.default_rng(13)
        net = init_network([6, 5, 4, 3], [RELU, RELU, output], rng=rng)
        x = rng.standard_normal((4, 6))
        out, cache = forward(net, x, Workspace(net, 4))
        if output == SOFTMAX:
            label = np.eye(3)[rng.integers(0, 3, 4)]
            loss_gradient = cross_entropy_delta(out, label)

            def loss(xx):
                return cross_entropy(predict(net, xx), label)
        else:
            loss_gradient = rng.standard_normal(out.shape)

            def loss(xx):
                return float(np.sum(loss_gradient * predict(net, xx)))
        analytic = input_gradient(net, cache, loss_gradient)
        h = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[idx] = h
            numeric[idx] = (loss(x + step) - loss(x - step)) / (2.0 * h)
        npt.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("output", [SOFTMAX, LINEAR])
    @pytest.mark.parametrize("shape", [(5, 7)], ids=["batch"])
    def test_equals_full_backward(self, output, shape):
        rng = np.random.default_rng(14)
        net = init_network([7, 6, 5, 3], [RELU, RELU, output], rng=rng)
        out, cache = forward(net, rng.standard_normal(shape), Workspace(net, shape[0]))
        loss_gradient = rng.standard_normal(out.shape)
        npt.assert_array_equal(input_gradient(net, cache, loss_gradient),
                               full_backward_d_input(net, cache, loss_gradient))

    def test_relu_output_layer_leaves_the_loss_gradient_unchanged(self):
        # The one relu layer whose incoming gradient is the caller's array:
        # its mask must not be applied in place.
        rng = np.random.default_rng(16)
        net = init_network([7, 6, 5, 3], [RELU, RELU, RELU], rng=rng)
        out, cache = forward(net, rng.standard_normal((5, 7)), Workspace(net, 5))
        assert 0 < np.count_nonzero(out) < out.size  # the mask zeroes some entries
        loss_gradient = rng.standard_normal(out.shape)
        kept = loss_gradient.copy()
        backward(net, cache, loss_gradient)
        npt.assert_array_equal(loss_gradient, kept)
        npt.assert_array_equal(input_gradient(net, cache, loss_gradient),
                               full_backward_d_input(net, cache, kept))
        npt.assert_array_equal(loss_gradient, kept)

    def test_stale_cache_rejected(self):
        other = small_net((7, 4, 3))
        _, cache = forward(other, np.ones((1, 7)), Workspace(other, 1))
        with pytest.raises(ValueError):
            input_gradient(small_net(), cache, np.zeros((1, 3)))


class TestAdam:
    @pytest.mark.parametrize("sizes, first_weight_scale",
                             [((32, 50, 50, 50, 2), 100.0), ((100, 128, 128, 128, 8), 1.0)],
                             ids=["classifier", "generator"])
    def test_flat_step_equals_per_tensor_reference(self, sizes, first_weight_scale):
        rng = np.random.default_rng(15)
        net = init_network(list(sizes), rng=rng)
        state = AdamState.for_network(net, first_weight_scale=first_weight_scale)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        m = [np.zeros_like(p) for p in ref_w + ref_b]
        v = [np.zeros_like(p) for p in ref_w + ref_b]
        for step in range(1, 61):
            grads = Gradients(net, rng.standard_normal(net.n_parameters())
                              * 10.0 ** rng.integers(-4, 3))
            adam_step(net, grads, state)
            per_tensor_adam(ref_w, ref_b, grads.d_weights, grads.d_biases, m, v, step,
                            first_weight_scale)
        assert state.step == 60
        for got, want in zip(net.weights + net.biases, ref_w + ref_b):
            npt.assert_array_equal(got, want)
        n = net.n_layers
        for flat, per_tensor in ((state.m, m), (state.v, v)):
            layer_major = [a.ravel() for pair in zip(per_tensor[:n], per_tensor[n:])
                           for a in pair]
            npt.assert_array_equal(flat, np.concatenate(layer_major))

    def test_zero_gradient_is_noop(self):
        net = small_net()
        before = [w.copy() for w in net.weights]
        adam_step(net, Gradients(net, np.zeros(net.n_parameters())),
                  AdamState.for_network(net))
        for w0, w1 in zip(before, net.weights):
            npt.assert_array_equal(w0, w1)

    def test_constant_gradient_step_approaches_learning_rate(self):
        net = DenseNetwork([np.zeros((1, 1))], [np.zeros(1)], [LINEAR])
        state = AdamState.for_network(net)
        grads = Gradients(net, np.full(2, 0.37))
        for _ in range(2000):
            adam_step(net, grads, state)
        last = net.weights[0][0, 0]
        adam_step(net, grads, state)
        npt.assert_allclose(last - net.weights[0][0, 0], ADAM_LEARNING_RATE, rtol=1e-4)

    def test_same_seed_same_trajectory(self):
        def run():
            rng = np.random.default_rng(5)
            net = small_net(seed=5)
            state = AdamState.for_network(net)
            x = rng.standard_normal((20, 7))
            y = np.zeros((20, 3))
            y[np.arange(20), rng.integers(0, 3, 20)] = 1.0
            ws = Workspace(net, 20)
            for _ in range(50):
                out, cache = forward(net, x, ws)
                adam_step(net, backward(net, cache, cross_entropy_delta(out, y)), state)
            return net
        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)

    def test_state_mismatch_rejected(self):
        net = small_net()
        other = small_net((7, 4, 3))
        with pytest.raises(ValueError):
            adam_step(net, Gradients(net, np.zeros(net.n_parameters())),
                      AdamState.for_network(other))

    def test_state_of_same_size_net_with_other_layers_rejected(self):
        net = init_network([3, 2, 2], rng=np.random.default_rng(0))
        other = init_network([5, 1, 4], rng=np.random.default_rng(0))
        assert net.n_parameters() == other.n_parameters()
        with pytest.raises(ValueError):
            adam_step(net, Gradients(net, np.zeros(net.n_parameters())),
                      AdamState.for_network(other))

    def test_linearly_separable_toy_set_reaches_full_accuracy(self):
        rng = np.random.default_rng(6)
        x = np.concatenate([rng.standard_normal((50, 2)) + [3, 3],
                            rng.standard_normal((50, 2)) - [3, 3]])
        labels = np.array([0] * 50 + [1] * 50)
        y = np.zeros((100, 2))
        y[np.arange(100), labels] = 1.0
        net = init_network([2, 8, 2], rng=rng)
        state = AdamState.for_network(net)
        ws = Workspace(net, 100)
        for _ in range(500):
            out, cache = forward(net, x, ws)
            adam_step(net, backward(net, cache, cross_entropy_delta(out, y)), state)
        assert np.all(np.argmax(predict(net, x), axis=1) == labels)


class TestFiniteDiffCheck:
    def test_subsampled_check_is_deterministic_and_small(self):
        net = init_network([30, 16, 8, 2], rng=np.random.default_rng(7))
        x = np.random.default_rng(8).standard_normal((1, 30))
        label = np.array([[1.0, 0.0]])
        err = finite_diff_check(net, x, label, h=1e-5, max_per_tensor=10,
                                rng=np.random.default_rng(9))
        assert err < 1e-4

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(small_net(), np.ones((1, 7)), np.array([[1.0, 0, 0]]), h=0)

    def test_float32_net_rejected(self):
        net = init_network([7, 3], rng=np.random.default_rng(0), dtype=np.float32)
        with pytest.raises(ValueError, match="float64"):
            finite_diff_check(net, np.ones((1, 7)), np.array([[1.0, 0, 0]]))


class TestLayout:
    def test_views_share_memory_with_params(self):
        net = small_net()
        for a in net.weights + net.biases:
            assert np.shares_memory(a, net.params)
        before = net.params.copy()
        net.weights[-1] *= 50.0
        net.biases[0][:] = 7.0
        want = before.copy()
        want[-(3 * 5 + 3):-3] *= 50.0  # the last layer: (3 x 5) weights, then 3 biases
        want[7 * 6:7 * 6 + 6] = 7.0  # the first layer: (6 x 7) weights, then 6 biases
        npt.assert_array_equal(net.params, want)

    def test_gradient_views_share_memory_with_flat(self):
        net = small_net()
        out, cache = forward(net, np.ones((3, 7)), Workspace(net, 3))
        grads = backward(net, cache, np.ones_like(out))
        assert grads.flat.shape == net.params.shape
        for a in grads.d_weights + grads.d_biases:
            assert np.shares_memory(a, grads.flat)
        assert [a.shape for a in grads.d_weights] == [w.shape for w in net.weights]

    def test_copy_shares_no_memory(self):
        net = small_net()
        before = net.params.copy()
        twin = DenseNetwork(net.weights, net.biases, net.activations)
        npt.assert_array_equal(twin.params, net.params)
        for a in [twin.params] + twin.weights + twin.biases:
            assert not np.shares_memory(a, net.params)
        twin.params += 1.0
        npt.assert_array_equal(net.params, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pickle_round_trip_keeps_the_views(self, dtype):
        net = init_network([7, 6, 5, 3], rng=np.random.default_rng(3), dtype=dtype)
        twin = pickle.loads(pickle.dumps(net))
        assert twin.params.dtype == dtype and twin.layer_sizes == net.layer_sizes
        for a in twin.weights + twin.biases:
            assert np.shares_memory(a, twin.params)
        assert not np.shares_memory(twin.params, net.params)
        x = np.random.default_rng(4).standard_normal((9, 7)).astype(dtype)
        assert predict(twin, x).tobytes() == predict(net, x).tobytes()


class TestPersistence:
    def test_file_bytes_are_the_dnetv002_layout(self, tmp_path):
        net = init_network([3, 4, 2], [LINEAR, SOFTMAX], rng=np.random.default_rng(16))
        want = b"DNETV002" + struct.pack("<I", 2) + struct.pack("<3I", 3, 4, 2) + bytes([2, 1])
        for w, b in zip(net.weights, net.biases):
            want += struct.pack(f"<{w.size}d", *w.ravel()) + struct.pack(f"<{b.size}d", *b)
        save_model(net, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes() == want

    def test_round_trip_is_bit_exact(self, tmp_path):
        net = init_network([12, 9, 4], [RELU, SOFTMAX],
                           rng=np.random.default_rng(10))
        path = tmp_path / "model.bin"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.activations == net.activations
        npt.assert_array_equal(loaded.params, net.params)
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            npt.assert_array_equal(a, b)

    def test_all_activation_codes_round_trip(self, tmp_path):
        net = init_network([3, 5, 5, 2], [RELU, LINEAR, SOFTMAX],
                           rng=np.random.default_rng(11))
        save_model(net, tmp_path / "m.bin")
        assert load_model(tmp_path / "m.bin").activations == [RELU, LINEAR, SOFTMAX]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a serialized dense network"):
            load_model(path)

    def test_replicated_width_format_rejected(self, tmp_path):
        # a retired version-1 file (slot-replicated front end) is refused by
        # the magic check
        path = tmp_path / "m.bin"
        save_model(init_network([3, 2], rng=np.random.default_rng(12)), path)
        assert path.read_bytes()[:8] == b"DNETV002"
        path.write_bytes(b"DNETV001" + path.read_bytes()[8:])
        with pytest.raises(ValueError, match="not a serialized dense network"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = init_network([3, 2], rng=np.random.default_rng(12))
        path = tmp_path / "m.bin"
        save_model(net, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("flaw", ["activation code", "layer count", "no layers"])
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path, flaw):
        path = tmp_path / "m.bin"
        save_model(init_network([3, 2], rng=np.random.default_rng(12)), path)
        buf = bytearray(path.read_bytes())
        if flaw == "activation code":
            buf[20] = 7  # past the magic, the layer count and the two sizes
        elif flaw == "layer count":
            buf[8:12] = struct.pack("<I", 1000)
        else:
            buf = buf[:8] + struct.pack("<2I", 0, 3)
        path.write_bytes(bytes(buf))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_model(path)

    def test_file_with_a_zero_width_layer_rejected(self, tmp_path):
        # sizes [8, 0, 2]: the payload is the output layer's 2 biases alone
        path = tmp_path / "m.bin"
        path.write_bytes(b"DNETV002" + struct.pack("<I", 2) + struct.pack("<3I", 8, 0, 2)
                         + bytes([0, 1]) + struct.pack("<2d", 1.0, 0.0))
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*zero width"):
            load_model(path)


class TestDtype:
    def test_float32_arrays_make_a_float32_net(self):
        rng = np.random.default_rng(20)
        net = init_network([5, 4, 2], rng=rng, dtype=np.float32)
        assert net.params.dtype == np.float32
        assert all(a.dtype == np.float32 for a in net.weights + net.biases)
        assert DenseNetwork(net.weights, net.biases, net.activations).params.dtype == np.float32
        ws = Workspace(net, 3)
        assert {a.dtype for a in ws.acts + ws.d_in} == {np.dtype(np.float32)}
        assert ws.grads.flat.dtype == np.float32
        state = AdamState.for_network(net)
        assert state.m.dtype == state.v.dtype == state.work.dtype == np.float32

    def test_anything_else_makes_a_float64_net(self):
        w32 = np.ones((2, 3), dtype=np.float32)
        assert DenseNetwork([w32], [np.zeros(2, np.float32)], [LINEAR]).params.dtype == np.float32
        for b in (np.zeros(2), [0.0, 0.0], np.zeros(2, dtype=np.float16)):
            assert DenseNetwork([w32], [b], [LINEAR]).params.dtype == np.float64
        assert init_network([3, 2], rng=np.random.default_rng(0)).params.dtype == np.float64

    def test_same_draw_at_either_dtype(self):
        n32 = init_network([6, 5, 2], rng=np.random.default_rng(21), dtype=np.float32)
        n64 = init_network([6, 5, 2], rng=np.random.default_rng(21))
        npt.assert_array_equal(n32.params, n64.params.astype(np.float32))

    def test_passes_cast_inputs_and_loss_gradients_to_the_net_dtype(self):
        net = init_network([5, 4, 3], rng=np.random.default_rng(22), dtype=np.float32)
        x = np.random.default_rng(23).standard_normal((6, 5))
        out, cache = forward(net, x, Workspace(net, 6))
        assert out.dtype == predict(net, x).dtype == np.float32
        npt.assert_array_equal(out, predict(net, x.astype(np.float32)))
        label = np.eye(3)[[0, 1, 2, 0, 1, 2]]
        delta = cross_entropy_delta(out.astype(np.float64), label)
        assert delta.dtype == np.float64
        grads = backward(net, cache, delta)
        assert grads.flat.dtype == np.float32
        assert input_gradient(net, cache, delta).dtype == np.float32

    def test_gather_rows_refuses_rows_of_another_dtype(self):
        net = init_network([3, 2], rng=np.random.default_rng(24), dtype=np.float32)
        ws = Workspace(net, 4)
        with pytest.raises(ValueError, match="float64 rows"):
            gather_rows(ws, np.zeros((5, 3)), np.arange(2))
        assert gather_rows(ws, np.zeros((5, 3), np.float32), np.arange(2)).dtype == np.float32

    def test_adam_refuses_state_of_another_dtype(self):
        net = init_network([3, 2], rng=np.random.default_rng(25), dtype=np.float32)
        state = AdamState.for_network(as_float64(net))
        grads = Gradients(net, np.zeros(net.n_parameters(), np.float32))
        with pytest.raises(ValueError, match="does not match"):
            adam_step(net, grads, state)

    def test_float32_adam_trajectory_tracks_float64(self):
        # The same net, data and batches in float32 and float64. Rounding
        # errors of size eps (float32's) per step add up like a random walk,
        # so after k steps the RMS parameter gap and the largest probability
        # gap stay within 4 * sqrt(k) * eps. Hidden layers are linear: a
        # relu pre-activation within rounding of zero switches its unit on
        # in one run and off in the other, a gap of order one that says
        # nothing about how either dtype is handled.
        rng = np.random.default_rng(26)
        n32 = init_network([8, 32, 32, 2], [LINEAR, LINEAR, SOFTMAX], rng=rng, dtype=np.float32)
        n64 = as_float64(n32)
        x = rng.standard_normal((200, 8))
        targets = np.eye(2)[(x[:, :4].sum(axis=1) > x[:, 4:].sum(axis=1)).astype(int)]
        runs = [(net, AdamState.for_network(net), Workspace(net, 20),
                 x.astype(net.params.dtype)) for net in (n32, n64)]
        eps = np.finfo(np.float32).eps
        order = np.random.default_rng(27)
        for k in range(1, 301):
            idx = order.choice(len(x), 20, replace=False)
            for net, state, ws, rows in runs:
                out, cache = forward(net, gather_rows(ws, rows, idx), ws)
                adam_step(net, backward(net, cache, cross_entropy_delta(out, targets[idx])),
                          state)
            if k % 50 == 0:
                tol = 4 * math.sqrt(k) * eps
                assert np.sqrt(np.mean((n32.params - n64.params) ** 2)) <= tol
                assert np.max(np.abs(predict(n32, x) - predict(n64, x))) <= tol
        assert n32.params.dtype == np.float32

    def test_softmax_guard_keeps_subnormals_out_of_the_backward_pass(self):
        # On a batch the net is sure of, the losing class's float32 softmax
        # output is subnormal; its slope must not carry subnormals into any
        # layer's gradients.
        net = init_network([6, 16, 16, 2], rng=np.random.default_rng(28), dtype=np.float32)
        x = sure_rows(net, np.random.default_rng(29).standard_normal((10, 6)))
        out, cache = forward(net, x, Workspace(net, len(x)))
        assert subnormal_count(out) == len(x)
        sure = np.eye(2)[np.argmax(out, axis=1)]
        ws = cache.workspace
        delta = cross_entropy_delta(out, sure)
        assert subnormal_count(delta) == 0
        grads = backward(net, cache, delta)
        assert subnormal_count(grads.flat) == 0
        # backward writes every layer's passed-down gradient but the input's
        assert all(subnormal_count(d) == 0 for d in ws.d_in[1:])
        input_gradient(net, cache, delta)
        assert all(subnormal_count(d) == 0 for d in ws.d_in)

    def test_softmax_guard_leaves_float64_backprop_exact(self):
        # Outputs near e^-40 lie far above float64's subnormals (and below
        # LOG_EPS): the guard keeps them, so the output layer's dz is
        # exactly (out - y) / B, and backward forms its gradients from it
        net = init_network([6, 16, 16, 2], rng=np.random.default_rng(28))
        x = sure_rows(net, np.random.default_rng(29).standard_normal((10, 6)), gap=40.0)
        out, cache = forward(net, x, Workspace(net, len(x)))
        assert np.all(out.min(axis=1) < 1e-17)
        y = np.eye(2)[np.argmax(out, axis=1)]
        dz = cross_entropy_delta(out, y)
        npt.assert_array_equal(dz, (out - y) / len(x))
        assert np.all(dz[y == 0.0] > 0.0)  # each losing output kept
        grads = backward(net, cache, dz)
        npt.assert_array_equal(grads.d_weights[-1], np.dot(dz.T, cache.inputs[-1]))
        npt.assert_array_equal(grads.d_biases[-1], np.dot(np.ones(len(x)), dz))

    def test_moments_of_a_dead_parameter_never_go_subnormal(self):
        # half the parameters' gradients stay zero from step 50 on: their
        # first moments decay by 0.9 a step, and in float32 would go
        # subnormal near step 850 and stay so
        net = init_network([20, 30, 2], rng=np.random.default_rng(30), dtype=np.float32)
        state = AdamState.for_network(net)
        rng = np.random.default_rng(31)
        dead = rng.random(net.n_parameters()) < 0.5
        for k in range(1500):
            g = rng.standard_normal(net.n_parameters()).astype(np.float32)
            if k >= 50:
                g[dead] = 0.0
            adam_step(net, Gradients(net, g), state)
            assert subnormal_count(state.m) == subnormal_count(state.v) == 0
        assert np.all(state.m[dead] == 0.0)

    def test_float32_net_saves_and_loads_as_float64_with_the_same_values(self, tmp_path):
        net = init_network([7, 5, 3], rng=np.random.default_rng(32), dtype=np.float32)
        save_model(net, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin")
        assert loaded.params.dtype == np.float64
        npt.assert_array_equal(loaded.params, net.params)
        save_model(loaded, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "m.bin").read_bytes()
