import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import spoofsim.gan
from spoofsim import (GanConfig, ScenarioConfig, check_convergence,
                      condition_rows, discriminator_loss, generator_loss,
                      generator_phasors, train_gan)
from spoofsim.frontend import (condition_phasors, condition_phasors_vjp, spread_phasors,
                               symbol_phasors)
from spoofsim.gan import (_generator_grads, _PhasorGenerator, _scale_backward,
                          discriminator_layer_sizes, from_t_probability,
                          generator_layer_sizes, init_discriminator, init_generator,
                          scale_to_budget)
from spoofsim.nn import (RELU, SOFTMAX, AdamState, DenseNetwork, backward,
                         cross_entropy, cross_entropy_grad, forward, init_network,
                         predict)
from spoofsim.scenario import substream
from spoofsim.waveform import feature_rows, rows_to_streams

TINY = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=12,
                 synth_per_epoch=12, batch_size=6, max_epochs=2,
                 conv_window=2, conv_threshold=0.05)


def tiny_scenario(seed=0, **kw):
    return ScenarioConfig(seed=seed, samples_per_symbol=5, **kw)


def constant_discriminator(width, p_from_t):
    """Stub whose FROM_T probability is p_from_t for every input."""
    logit = math.log(p_from_t / (1 - p_from_t))
    w = [np.zeros((2, width))]
    b = [np.array([0.0, logit])]
    return DenseNetwork(w, b, ["softmax"])


BUDGET = 0.5  # the power cap binds on some rows of channel_case, not on all


def channel_case(sc):
    """Frozen generator and discriminator, fixed channel, noise and targets."""
    rng = np.random.default_rng(0)
    g = init_generator(sc, TINY, rng)
    d = init_discriminator(sc, TINY, rng)
    z = rng.standard_normal((3, TINY.noise_dim))
    mats = (rng.standard_normal((3, sc.n_r, sc.n_a))
            + 1j * rng.standard_normal((3, sc.n_r, sc.n_a)))
    noise = (rng.standard_normal((3, sc.n_r, sc.n_points))
             + 1j * rng.standard_normal((3, sc.n_r, sc.n_points)))
    _, scale = scale_to_budget(rows_to_streams(predict(g, z), sc.n_a), BUDGET)
    assert np.any(scale < 1.0) and not np.all(scale < 1.0)
    return g, d, z, mats, noise, np.tile([0.0, 1.0], (3, 1))


def raw_row_vjp(grad_out, rows, n_antennas, sps):
    """Gradient w.r.t. raw rows: the conditioning VJP, then the matched filter's adjoint."""
    return spread_phasors(condition_phasors_vjp(grad_out, symbol_phasors(rows, n_antennas, sps)),
                          sps)


def compact_row_grad(sc, d, rx_rows, targets):
    """Loss gradient w.r.t. raw received rows through the compact discriminator."""
    d_out, d_cache = forward(d, condition_rows(rx_rows, sc.n_r, sc.samples_per_symbol))
    d_grads = backward(d, d_cache, cross_entropy_grad(d_out, targets))
    return raw_row_vjp(d_grads.d_input, rx_rows, sc.n_r, sc.samples_per_symbol)


def full_width_generator_grads(sc, g, z, mats, noise, row_grad, budget=BUDGET):
    """Reference generator gradients, every burst at full width: through the
    output layer, the power cap and the channel, given `row_grad(rx_rows)`,
    the loss gradient w.r.t. the received rows."""
    out, g_cache = forward(g, z)
    raw = rows_to_streams(out, sc.n_a)
    tx, _ = scale_to_budget(raw, budget)
    rx_rows = feature_rows(np.einsum("bij,bjk->bik", mats, tx) + noise)
    grad_rx = rows_to_streams(row_grad(rx_rows), sc.n_r)
    grad_tx = np.einsum("bij,bik->bjk", np.conj(mats), grad_rx)
    return backward(g, g_cache, feature_rows(_scale_backward(grad_tx, raw, budget)))


def production_generator_grads(sc, g, d, z, mats, noise, targets, budget=BUDGET):
    """The generator epoch's per-batch gradients on the same bursts: symbol
    domain, exact power cap, received phasors of the noise alone moved by
    mats @ (transmit phasors - 0)."""
    s = sc.samples_per_symbol
    gen = _PhasorGenerator(g, sc.n_a, s, budget)
    rx_noise = symbol_phasors(feature_rows(noise), sc.n_r, s)
    tx_zero = np.zeros((len(z), sc.n_a, rx_noise.shape[-1]), dtype=complex)
    return _generator_grads(gen, d, z, mats, rx_noise, tx_zero, targets)


class TestLosses:
    def test_uncertain_discriminator_has_zero_loss(self):
        d = constant_discriminator(4, 0.5)
        batch = np.ones((3, 4))
        npt.assert_allclose(discriminator_loss(d, batch, batch), 0.0, atol=1e-12)

    def test_generator_loss_at_half(self):
        d = constant_discriminator(4, 0.5)
        npt.assert_allclose(generator_loss(d, np.ones((5, 4))), math.log(0.5),
                            rtol=1e-12)

    def test_generator_loss_approaches_zero_when_fooled_never(self):
        d = constant_discriminator(4, 1e-9)
        loss = generator_loss(d, np.ones((5, 4)))
        assert -1e-8 < loss < 0.0

    def test_losses_match_independent_expression(self):
        rng = np.random.default_rng(0)
        d = init_discriminator(tiny_scenario(), TINY, rng)
        real = rng.standard_normal((7, d.layer_sizes[0]))
        synth = rng.standard_normal((9, d.layer_sizes[0]))
        # independently coded expectation over the two batches
        p_real = predict(d, real)[:, 1]
        p_synth = predict(d, synth)[:, 1]
        expected_d = np.mean(np.log(1 - p_synth)) - np.mean(np.log(p_real))
        expected_g = np.mean(np.log(1 - p_synth))
        npt.assert_allclose(discriminator_loss(d, real, synth), expected_d,
                            atol=1e-12)
        npt.assert_allclose(generator_loss(d, synth), expected_g, atol=1e-12)

    def test_empty_batch_rejected(self):
        d = constant_discriminator(4, 0.5)
        with pytest.raises(ValueError):
            discriminator_loss(d, np.empty((0, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            generator_loss(d, np.empty((0, 4)))


class TestCheckConvergence:
    def test_constant_series_converges(self):
        assert check_convergence([1.5] * 10, 10, 0.05)

    def test_short_series_does_not(self):
        assert not check_convergence([1.5] * 9, 10, 0.05)

    def test_full_perturbation_fails(self):
        series = [1.0] * 99 + [1.0, 2.0]
        assert not check_convergence(series, 100, 0.05)

    def test_small_relative_wiggle_converges(self):
        # every value within 4% of the final one
        series = [1.0, 1.02, 0.99, 1.01, 0.985, 1.0]
        assert check_convergence(series, 6, 0.05)

    def test_near_zero_needs_whole_window_near_zero(self):
        assert check_convergence([0.0] * 5, 5, 0.05)
        assert not check_convergence([1.0, 0.5, 0.0, 0.0, 0.0], 5, 0.05)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            check_convergence([1.0, 1.0], 2, 0.0)


def capped_phasors(g, z, n_adv, sps, budget):
    """Reference for generator_phasors: every burst built at full width,
    capped by scale_to_budget, then matched-filtered."""
    raw = rows_to_streams(np.atleast_2d(predict(g, z)), n_adv)
    tx, scale = scale_to_budget(raw, budget)
    return symbol_phasors(feature_rows(tx), n_adv, sps), tx, scale


class TestSpoofBurst:
    def test_within_budget_unchanged(self):
        rng = np.random.default_rng(1)
        sc = tiny_scenario()
        g = init_generator(sc, TINY, rng)
        z = rng.standard_normal((3, TINY.noise_dim))
        raw = symbol_phasors(predict(g, z), 1, sc.samples_per_symbol)
        got = generator_phasors(g, z, 1, sc.samples_per_symbol, power_budget=1e9)
        npt.assert_allclose(got, raw, rtol=0, atol=1e-12 * np.max(np.abs(raw)))

    def test_over_budget_scaled_down_phase_preserved(self):
        rng = np.random.default_rng(2)
        sc = tiny_scenario()
        g = init_generator(sc, TINY, rng)
        z = rng.standard_normal(TINY.noise_dim)
        raw = rows_to_streams(predict(g, z)[None, :], 1)
        rms = float(np.sqrt(np.mean(np.abs(raw) ** 2)))
        got = generator_phasors(g, z, 1, sc.samples_per_symbol, power_budget=rms / 2)
        want = symbol_phasors(feature_rows(raw), 1, sc.samples_per_symbol) / 2
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_budget_invariant_over_noise_draws(self):
        rng = np.random.default_rng(3)
        sc = tiny_scenario()
        g = init_generator(sc, TINY, rng)
        # crank the output weights so the raw bursts exceed the budget
        g.weights[-1] *= 50.0
        budget = 10.0
        z = rng.standard_normal((50, TINY.noise_dim))
        got = generator_phasors(g, z, 1, sc.samples_per_symbol, budget)
        want, tx, scale = capped_phasors(g, z, 1, sc.samples_per_symbol, budget)
        assert np.count_nonzero(scale < 1.0) > len(z) // 2
        total = np.sqrt(np.mean(np.abs(tx) ** 2, axis=-1)).sum(axis=-1)
        assert np.all(total <= budget + 1e-9)
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_budget_binding_on_some_bursts_matches_full_width_cap(self):
        rng = np.random.default_rng(5)
        sc = tiny_scenario(n_a=2)
        g = init_generator(sc, TINY, rng)
        z = rng.standard_normal((40, TINY.noise_dim))
        want, _, scale = capped_phasors(g, z, 2, sc.samples_per_symbol, 0.9)
        assert 0 < np.count_nonzero(scale < 1.0) < len(z)
        got = generator_phasors(g, z, 2, sc.samples_per_symbol, 0.9)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_equal_split_across_antennas(self):
        streams = np.ones((1, 4, 8), dtype=complex)
        scaled, s = scale_to_budget(streams, 2.0)
        npt.assert_allclose(s, 0.5)
        npt.assert_allclose(np.sqrt(np.mean(np.abs(scaled[0]) ** 2, axis=1)),
                            [0.5] * 4)

    def test_indivisible_output_rejected(self):
        rng = np.random.default_rng(4)
        g = init_generator(tiny_scenario(), TINY, rng)
        with pytest.raises(ValueError):
            generator_phasors(g, rng.standard_normal(TINY.noise_dim), 3, 5, 10.0)


class TestScaleBackward:
    @pytest.mark.parametrize("budget", [1e9, 0.8])
    def test_matches_finite_differences(self, budget):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 2, 6)) + 1j * rng.standard_normal((2, 2, 6))
        g_out = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)

        def loss(x):
            scaled, _ = scale_to_budget(x, budget)
            return float(np.sum(scaled.real * g_out.real + scaled.imag * g_out.imag))

        analytic = _scale_backward(g_out, raw, budget)
        h = 1e-7
        for idx in np.ndindex(raw.shape):
            for part in (1.0, 1j):
                up = raw.copy()
                up[idx] += h * part
                down = raw.copy()
                down[idx] -= h * part
                numeric = (loss(up) - loss(down)) / (2 * h)
                got = analytic[idx].real if part == 1.0 else analytic[idx].imag
                assert abs(got - numeric) < 1e-5 * max(1.0, abs(numeric))


class TestArchitectures:
    def test_contract_widths(self):
        sc = ScenarioConfig(n_r=4, n_a=2)
        cfg = GanConfig()
        assert generator_layer_sizes(sc, cfg) == [100, 128, 128, 128, 1600]
        # one conditioned I/Q pair per (surrogate antenna, symbol)
        assert discriminator_layer_sizes(sc, cfg) == [32, 128, 128, 128, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GanConfig(conv_window=1)
        with pytest.raises(ValueError):
            GanConfig(conv_threshold=1.0)
        with pytest.raises(ValueError):
            GanConfig(real_pool=0)


class TestTrainGan:
    def test_single_epoch_trace(self):
        sc = tiny_scenario(seed=1)
        cfg = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=10,
                        synth_per_epoch=10, batch_size=5, max_epochs=1,
                        conv_window=2)
        g, d, trace = train_gan(sc, cfg, substream(1, 2))
        assert trace.epochs_run == 1
        assert not trace.converged
        assert len(trace.g_loss) == len(trace.d_loss) == 1

    def test_protocol_log_bit_counts(self, monkeypatch):
        # every synthetic burst is flagged, and the feedback counts the
        # bursts the epoch's discriminator scores above one half
        probabilities = []

        def spy(d_net, batch):
            p = from_t_probability(d_net, batch)
            probabilities.append(p)
            return p

        monkeypatch.setattr("spoofsim.gan.from_t_probability", spy)
        sc = tiny_scenario(seed=2)
        cfg = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=10,
                        synth_per_epoch=7, batch_size=5, max_epochs=3,
                        conv_window=2)
        _, _, trace = train_gan(sc, cfg, substream(2, 2))
        assert len(trace.protocol_log) == trace.epochs_run
        # (d) scores the real pool, then the synthetic pool, once per epoch
        p_synth = probabilities[1::2]
        assert len(p_synth) == trace.epochs_run
        for epoch, (entry, p) in enumerate(zip(trace.protocol_log, p_synth)):
            assert p.shape == (7,)
            assert entry.epoch == epoch
            assert entry.n_flags == cfg.synth_per_epoch
            assert entry.n_fooled == int((p > 0.5).sum())

    def test_fixed_seed_gives_bit_identical_trace(self):
        sc = tiny_scenario(seed=3)
        cfg = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=8,
                        synth_per_epoch=8, batch_size=4, max_epochs=4,
                        conv_window=2)
        _, _, t1 = train_gan(sc, cfg, substream(3, 2))
        g2, _, t2 = train_gan(sc, cfg, substream(3, 2))
        assert t1.g_loss == t2.g_loss
        assert t1.d_loss == t2.d_loss

    def test_generator_gradient_through_channel_matches_fd(self):
        # frozen tiny generator/discriminator, fixed channel and noise:
        # the gradient the generator epoch computes must match central
        # finite differences through power cap + channel + front end + D
        sc = tiny_scenario(seed=4)
        g, d, z, mats, noise, targets = channel_case(sc)

        def loss_value():
            out = predict(g, z)
            raw = rows_to_streams(out, sc.n_a)
            tx, _ = scale_to_budget(raw, BUDGET)
            rx = np.einsum("bij,bjk->bik", mats, tx) + noise
            cond = condition_rows(feature_rows(rx), sc.n_r, sc.samples_per_symbol)
            return cross_entropy(predict(d, cond), targets)

        d_weights = production_generator_grads(sc, g, d, z, mats, noise, targets).d_weights

        h = 1e-6
        rng_idx = np.random.default_rng(1)
        worst = 0.0
        for li in range(g.n_layers):
            flat = rng_idx.choice(g.weights[li].size, size=6, replace=False)
            for f in flat:
                orig = g.weights[li].flat[f]
                g.weights[li].flat[f] = orig + h
                up = loss_value()
                g.weights[li].flat[f] = orig - h
                down = loss_value()
                g.weights[li].flat[f] = orig
                numeric = (up - down) / (2 * h)
                analytic = d_weights[li].flat[f]
                worst = max(worst, abs(analytic - numeric)
                            / max(abs(analytic), abs(numeric), 1e-6))
        assert worst < 1e-4

    @pytest.mark.parametrize("budget, exact_rows", [(BUDGET, 3), (0.9, 2), (np.inf, 0)])
    def test_generator_step_matches_full_width_reference(self, budget, exact_rows):
        # The generator epoch's symbol-domain step against every burst built
        # at full width. At BUDGET all rows take the exact cap path (two are
        # scaled, one is not); at 0.9 a free row shares the batch with two
        # capped ones; with no budget every row stays in the symbol domain.
        sc = tiny_scenario(seed=4)
        g, d, z, mats, noise, targets = channel_case(sc)
        gen = _PhasorGenerator(g, sc.n_a, sc.samples_per_symbol, budget)
        # the hidden layers are the generator's own arrays, so Adam moves both
        assert all(a is b for a, b in zip(gen.hidden.weights, g.weights))
        assert all(a is b for a, b in zip(gen.hidden.biases, g.biases))
        assert len(gen.transmit(predict(gen.hidden, z)).exact) == exact_rows
        got = production_generator_grads(sc, g, d, z, mats, noise, targets, budget)
        want = full_width_generator_grads(
            sc, g, z, mats, noise, lambda rows: compact_row_grad(sc, d, rows, targets), budget)
        for a, b in zip(got.d_weights + got.d_biases, want.d_weights + want.d_biases):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("n_a, n_r, budget", [(1, 1, 0.9), (3, 2, 2.5)])
    def test_training_matches_full_width_cap_on_every_burst(self, monkeypatch, n_a, n_r,
                                                            budget):
        # With the cap bound's slack infinite, every burst is built at full
        # width and goes through scale_to_budget; the run with the bound must
        # train the same nets. The budgets make the cap bind on some bursts.
        sc = tiny_scenario(seed=6, n_a=n_a, n_r=n_r)
        cfg = replace(TINY, real_pool=24, synth_per_epoch=24, max_epochs=4, conv_window=5,
                      power_budget=budget)
        g, d, trace = train_gan(sc, cfg, substream(6, 2))
        monkeypatch.setattr("spoofsim.gan._BOUND_SLACK", np.inf)
        g_ref, d_ref, trace_ref = train_gan(sc, cfg, substream(6, 2))
        assert 0 < sum(trace.capped_bursts) < cfg.synth_per_epoch * cfg.max_epochs
        assert trace.capped_bursts == trace_ref.capped_bursts
        for w, w_ref in zip(g.weights + g.biases + d.weights + d.biases,
                            g_ref.weights + g_ref.biases + d_ref.weights + d_ref.biases):
            assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        npt.assert_allclose(trace.g_loss, trace_ref.g_loss, rtol=1e-12)
        npt.assert_allclose(trace.d_loss, trace_ref.d_loss, rtol=1e-12)

    def test_capped_burst_counts(self, monkeypatch):
        # Each epoch counts the bursts of its synthetic pool that the cap
        # scaled: the scales below one that scale_to_budget returns in (a),
        # between the previous epoch's losses (d) and this epoch's
        # discriminator epoch (b).
        events = []

        def cap_spy(streams, power_budget):
            scaled, scale = scale_to_budget(streams, power_budget)
            events.append(int(np.count_nonzero(scale < 1.0)))
            return scaled, scale

        def epoch_spy(*args):
            events.append("b")
            return train_epoch(*args)

        def probability_spy(*args):
            events.append("d")
            return from_t_probability(*args)

        train_epoch = spoofsim.gan._train_epoch
        monkeypatch.setattr("spoofsim.gan.scale_to_budget", cap_spy)
        monkeypatch.setattr("spoofsim.gan._train_epoch", epoch_spy)
        monkeypatch.setattr("spoofsim.gan.from_t_probability", probability_spy)
        sc = tiny_scenario(seed=7)
        cfg = replace(TINY, synth_per_epoch=24, max_epochs=4, conv_window=5, power_budget=0.9)
        _, _, trace = train_gan(sc, cfg, substream(7, 2))
        counts, phase_a = [], []
        for event in events:
            if event == "b":
                counts.append(sum(phase_a))
            elif event == "d":
                phase_a = []
            else:
                phase_a.append(event)
        assert trace.epochs_run == 4
        assert trace.capped_bursts == counts
        assert 0 < sum(counts) < cfg.synth_per_epoch * cfg.max_epochs

    def test_no_burst_capped_at_the_default_budget(self):
        # the default budget is the scenario's transmit power, far above
        # what a freshly initialised generator emits
        sc = tiny_scenario(seed=7)
        cfg = replace(TINY, max_epochs=3, conv_window=4)
        _, _, trace = train_gan(sc, cfg, substream(7, 2))
        assert trace.capped_bursts == [0, 0, 0]
        _, _, tiny_budget = train_gan(sc, replace(cfg, power_budget=1e-3), substream(7, 2))
        assert tiny_budget.capped_bursts == [cfg.synth_per_epoch] * 3

    def test_generator_gradient_matches_slot_replicated_discriminator(self):
        # The compact discriminator against the raw-width one that reads
        # each conditioned phasor copied into its symbol's S sample slots,
        # with every compact first-layer weight spread evenly over them:
        # both score alike, so the generator gradients must agree.
        sc = tiny_scenario(seed=4)
        s = sc.samples_per_symbol
        g, d, z, mats, noise, targets = channel_case(sc)
        h = d.weights[0].shape[0]
        w_slots = np.repeat(d.weights[0].reshape(h, -1, 1, 2) / s, s, axis=2)
        d_raw = DenseNetwork([w_slots.reshape(h, -1), *d.weights[1:]], d.biases,
                             d.activations)

        def replicated_row_grad(rows):
            cond = condition_rows(rows, sc.n_r, s)
            x = np.repeat(cond.reshape(len(cond), -1, 1, 2), s, axis=2).reshape(len(cond), -1)
            out, cache = forward(d_raw, x)
            g_x = backward(d_raw, cache, cross_entropy_grad(out, targets)).d_input
            # replication adjoint: each phasor collects its slots' gradients
            g_cond = g_x.reshape(len(cond), -1, s, 2).sum(axis=2).reshape(len(cond), -1)
            return raw_row_vjp(g_cond, rows, sc.n_r, s)

        compact = full_width_generator_grads(
            sc, g, z, mats, noise, lambda rows: compact_row_grad(sc, d, rows, targets))
        reference = full_width_generator_grads(sc, g, z, mats, noise, replicated_row_grad)
        for got, want in zip(compact.d_weights, reference.d_weights):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_raw_width_discriminator_on_slot_replicated_features(self, monkeypatch):
        # Reference run: the discriminator reads every conditioned phasor
        # copied into its symbol's S sample slots, starts from the unfolded
        # raw-width draw and takes plain Adam steps. The compact run must
        # follow the same trajectory.
        sc = tiny_scenario(seed=5)
        s = sc.samples_per_symbol
        cfg = replace(TINY, max_epochs=3, conv_window=4)
        g, d, trace = train_gan(sc, cfg, substream(5, 2))

        def replicate(x):
            return np.repeat(x.reshape(len(x), -1, 1, 2), s, axis=2).reshape(len(x), -1)

        def fold(x):
            return x.reshape(len(x), -1, s, 2).sum(axis=2).reshape(len(x), -1)

        class PlainAdam(AdamState):
            @classmethod
            def for_network(cls, net, first_weight_scale=1.0):
                return AdamState.for_network(net)

        def raw_discriminator(scenario, config, rng):
            sizes = discriminator_layer_sizes(scenario, config)
            return init_network([sizes[0] * s, *sizes[1:]],
                                [RELU] * config.hidden_depth + [SOFTMAX], rng)

        monkeypatch.setattr("spoofsim.gan.AdamState", PlainAdam)
        monkeypatch.setattr("spoofsim.gan.init_discriminator", raw_discriminator)
        monkeypatch.setattr("spoofsim.gan.condition_phasors",
                            lambda u: replicate(condition_phasors(u)))
        monkeypatch.setattr("spoofsim.gan.condition_phasors_vjp",
                            lambda grad, u: condition_phasors_vjp(fold(grad), u))
        g_ref, d_ref, trace_ref = train_gan(sc, cfg, substream(5, 2))

        assert d.weights[0].size * s == d_ref.weights[0].size
        npt.assert_allclose(d.weights[0], fold(d_ref.weights[0]), rtol=1e-9, atol=1e-12)
        for w, w_ref in zip(g.weights + d.weights[1:], g_ref.weights + d_ref.weights[1:]):
            npt.assert_allclose(w, w_ref, rtol=1e-9, atol=1e-12)
        npt.assert_allclose(trace.g_loss, trace_ref.g_loss, rtol=1e-9)
        npt.assert_allclose(trace.d_loss, trace_ref.d_loss, rtol=1e-9)

    def test_from_t_probability_shape(self):
        d = constant_discriminator(4, 0.7)
        p = from_t_probability(d, np.ones((3, 4)))
        npt.assert_allclose(p, 0.7, rtol=1e-9)
