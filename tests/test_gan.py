import csv
import math
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest

import spoofsim.authenticator
import spoofsim.gan
from spoofsim.authenticator import FROM_T, one_hot
from spoofsim.frontend import condition_phasors, condition_phasors_vjp, symbol_phasors
from spoofsim.gan import (GanConfig, TrainingTrace, _generator_grads, _scale_backward,
                          discriminator_layer_sizes, generator_layer_sizes, generator_phasors,
                          init_discriminator, init_generator, save_trace_csv, scale_to_budget,
                          train_gan)
from spoofsim.nn import (LOG_EPS, RELU, SOFTMAX, AdamState, DenseNetwork, Workspace, adam_step,
                         backward, cross_entropy_delta, forward, init_network, input_gradient,
                         predict)
from spoofsim.scenario import ScenarioConfig, substream
from spoofsim.waveform import (carrier_tracks, draw_legit_bursts, feature_rows,
                               rows_to_streams, stream_rms)

from helpers import as_float64, cross_entropy, subnormal_count, sure_rows

TINY = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=12,
                 synth_per_epoch=12, batch_size=6, max_epochs=2)


def tiny_scenario(seed=0, **kw):
    return ScenarioConfig(seed=seed, samples_per_symbol=5, **kw)


# per n_a, a power cap that binds on some rows of channel_case, not on all
BUDGETS = {1: 1.3, 2: 2.5}


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def channel_case(sc):
    """Frozen generator and discriminator, as float64 nets for the
    finite-difference checks, fixed channel, received noise phasors,
    targets and power budget."""
    rng = np.random.default_rng(0)
    g = as_float64(init_generator(sc, TINY, rng))
    d = as_float64(init_discriminator(sc, TINY, rng)[0])
    z = rng.standard_normal((3, TINY.noise_dim))
    mats = complex_normal(rng, (3, sc.n_r, sc.n_a))
    noise = complex_normal(rng, (3, sc.n_r, 4))
    budget = BUDGETS[sc.n_a]
    _, scale = scale_to_budget(rows_to_streams(predict(g, z), sc.n_a), budget)
    assert np.any(scale < 1.0) and not np.all(scale < 1.0)
    return g, d, z, mats, noise, np.tile([0.0, 1.0], (3, 1)), budget


def production_generator_grads(g, d, z, mats, noise, targets, budget):
    """The generator epoch's per-batch gradients on channel_case's bursts:
    the received phasors of the noise alone, moved by mats @ (transmit
    phasors - 0), through workspaces built for them."""
    tx_zero = np.zeros((len(z), mats.shape[-1], noise.shape[-1]), dtype=complex)
    return _generator_grads(g, d, z, mats, noise, tx_zero, targets, budget,
                            Workspace(g, len(z)), Workspace(d, len(z)))


def reference_generator_grads(sc, g, z, mats, noise, budget, phasor_grad):
    """Generator gradients written out step by step: through the output
    layer, the power cap and the channel, given `phasor_grad(rx)`, the loss
    gradient w.r.t. the received phasors."""
    out, g_cache = forward(g, z, Workspace(g, len(z)))
    raw = rows_to_streams(out, sc.n_a)
    tx, scale = scale_to_budget(raw, budget)
    rx = np.einsum("bij,bjk->bik", mats, tx) + noise
    grad_tx = np.einsum("bij,bik->bjk", np.conj(mats), phasor_grad(rx))
    return backward(g, g_cache, feature_rows(_scale_backward(grad_tx, raw, scale, budget)))


class TestSpoofBurst:
    def test_within_budget_unchanged(self):
        rng = np.random.default_rng(1)
        g = init_generator(tiny_scenario(), TINY, rng)
        z = rng.standard_normal((3, TINY.noise_dim))
        got, scale = generator_phasors(g, z, 1, power_budget=1e9)
        npt.assert_array_equal(scale, 1.0)
        npt.assert_array_equal(got, rows_to_streams(predict(g, z), 1))

    def test_over_budget_scaled_down_phase_preserved(self):
        rng = np.random.default_rng(2)
        g = init_generator(tiny_scenario(), TINY, rng)
        z = rng.standard_normal((1, TINY.noise_dim))
        raw = rows_to_streams(predict(g, z), 1)
        got, _ = generator_phasors(g, z, 1, power_budget=stream_rms(raw)[0, 0] / 2)
        npt.assert_allclose(got, raw / 2, rtol=1e-12)

    def test_budget_invariant_over_noise_draws(self):
        rng = np.random.default_rng(3)
        g = init_generator(tiny_scenario(n_a=2), TINY, rng)
        # crank the output weights so the raw bursts exceed the budget
        g.weights[-1] *= 50.0
        budget = 10.0
        z = rng.standard_normal((50, TINY.noise_dim))
        got, scale = generator_phasors(g, z, 2, budget)
        capped = scale < 1.0
        assert np.count_nonzero(capped) > len(z) // 2
        total = stream_rms(got).sum(axis=-1)
        assert np.all(total <= budget * (1 + 1e-12))
        npt.assert_allclose(total[capped], budget, rtol=1e-12)
        npt.assert_allclose(got, rows_to_streams(predict(g, z), 2) * scale[:, None, None],
                            rtol=1e-12)

    @pytest.mark.parametrize("sps", [1, 100])
    def test_constant_envelope_stream_is_its_phasors(self, sps):
        # The generator's phasors on the carrier, constant envelope within
        # each symbol: the matched filter gives them back, and the stream's
        # per-antenna RMS is theirs, so the cap applies exactly to phasors.
        rng = np.random.default_rng(6)
        p = complex_normal(rng, (5, 2, 4))
        stream = np.repeat(np.abs(p), sps, axis=-1) * carrier_tracks(np.angle(p), sps)
        npt.assert_allclose(symbol_phasors(feature_rows(stream), 2, sps), p, rtol=0,
                            atol=1e-12)
        npt.assert_allclose(stream_rms(stream), stream_rms(p), rtol=1e-12)

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
            generator_phasors(g, rng.standard_normal((1, TINY.noise_dim)), 3, 10.0)


class TestScaleBackward:
    @pytest.mark.parametrize("budget", [1e9, 0.8])
    def test_matches_finite_differences(self, budget):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 2, 6)) + 1j * rng.standard_normal((2, 2, 6))
        g_out = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)

        def loss(x):
            scaled, _ = scale_to_budget(x, budget)
            return float(np.sum(scaled.real * g_out.real + scaled.imag * g_out.imag))

        analytic = _scale_backward(g_out, raw, scale_to_budget(raw, budget)[1], budget)
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

    def test_an_uncapped_batch_gets_its_gradient_back_itself(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((3, 2, 6)) + 1j * rng.standard_normal((3, 2, 6))
        g_out = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)
        _, scale = scale_to_budget(raw, 1e9)
        assert np.all(scale == 1.0)
        assert _scale_backward(g_out, raw, scale, 1e9) is g_out

    def test_the_uncapped_rows_of_a_capped_batch_pass_through(self):
        # row 0 is scaled down to the budget, row 1 is far below it
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((2, 2, 6)) + 1j * rng.standard_normal((2, 2, 6))
        raw[1] *= 1e-3
        g_out = rng.standard_normal(raw.shape) + 1j * rng.standard_normal(raw.shape)
        _, scale = scale_to_budget(raw, 0.5)
        assert scale[0] < 1.0 and scale[1] == 1.0
        grad = _scale_backward(g_out, raw, scale, 0.5)
        npt.assert_array_equal(grad[1], g_out[1])
        assert not np.allclose(grad[0], g_out[0])


class TestArchitectures:
    def test_contract_widths(self):
        sc = ScenarioConfig(n_r=4, n_a=2)
        cfg = GanConfig()
        assert generator_layer_sizes(sc, cfg) == [100, 128, 128, 128, 16]
        # one conditioned I/Q pair per (surrogate antenna, symbol)
        assert discriminator_layer_sizes(sc, cfg) == [32, 128, 128, 128, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GanConfig(real_pool=0)

    def test_no_field_is_left_of_the_loss_plateau_rule(self):
        # a run trains max_epochs epochs: no window, no convergence flag
        assert [f.name for f in fields(GanConfig)] == [
            "noise_dim", "hidden_width", "hidden_depth", "real_pool", "synth_per_epoch",
            "batch_size", "max_epochs", "power_budget"]
        assert [f.name for f in fields(TrainingTrace)] == ["g_loss", "d_loss", "capped_bursts"]


class TestTrainGan:
    def test_trainers_build_float32_nets(self):
        g, d, _ = train_gan(tiny_scenario(seed=2), replace(TINY, max_epochs=1), substream(2, 2))
        assert g.params.dtype == d.params.dtype == np.float32

    def test_sure_discriminator_epoch_leaves_no_subnormal_gradients(self, monkeypatch):
        # A pool the float32 discriminator is sure of, so the losing
        # class's softmax output is subnormal. Before every Adam step of
        # the epoch, no gradient and no pre-activation gradient may be.
        rng = np.random.default_rng(9)
        d, _ = init_discriminator(tiny_scenario(seed=9), TINY, rng)
        x = sure_rows(d, rng.standard_normal((2 * TINY.batch_size, d.layer_sizes[0])))
        out = predict(d, x)
        assert subnormal_count(out) == len(x)
        seen = []

        def checked_step(net, grads, state):
            ws = grads.owner()
            seen.append(subnormal_count(grads.flat) + sum(subnormal_count(a) for a in ws.d_in[1:]))
            return adam_step(net, grads, state)

        monkeypatch.setattr("spoofsim.authenticator.adam_step", checked_step)
        spoofsim.gan._train_epoch(d, AdamState.for_network(d), x,
                                  one_hot(np.argmax(out, axis=1)), TINY.batch_size, rng,
                                  Workspace(d, TINY.batch_size))
        assert seen == [0, 0]

    def test_real_pool_is_the_legit_draw_toward_the_surrogate(self, monkeypatch):
        # the pool is drawn right after both nets, and it is the first batch
        # of phasors train_gan conditions
        sc = tiny_scenario(seed=6, n_r=2)
        rng = substream(6, 2)
        init_generator(sc, TINY, rng)
        init_discriminator(sc, TINY, rng)
        want = draw_legit_bursts(sc, "ar", TINY.real_pool, rng)
        conditioned = []

        def spy(rx):
            conditioned.append(rx.copy())
            return condition_phasors(rx)

        monkeypatch.setattr("spoofsim.gan.condition_phasors", spy)
        train_gan(sc, replace(TINY, max_epochs=1), substream(6, 2))
        npt.assert_array_equal(conditioned[0], want)

    def test_single_epoch_trace(self):
        sc = tiny_scenario(seed=1)
        cfg = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=10,
                        synth_per_epoch=10, batch_size=5, max_epochs=1)
        g, d, trace = train_gan(sc, cfg, substream(1, 2))
        assert trace.epochs_run == 1
        assert len(trace.g_loss) == len(trace.d_loss) == len(trace.capped_bursts) == 1

    def test_fixed_seed_gives_bit_identical_trace(self):
        sc = tiny_scenario(seed=3)
        cfg = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=8,
                        synth_per_epoch=8, batch_size=4, max_epochs=4)
        _, _, t1 = train_gan(sc, cfg, substream(3, 2))
        g2, _, t2 = train_gan(sc, cfg, substream(3, 2))
        assert t1.g_loss == t2.g_loss
        assert t1.d_loss == t2.d_loss

    @pytest.mark.parametrize("n_a", [1, 2])
    def test_generator_gradient_through_channel_matches_fd(self, n_a):
        # frozen tiny generator/discriminator, fixed channel and noise:
        # the gradient the generator epoch computes must match central
        # finite differences through power cap + channel + front end + D
        sc = tiny_scenario(seed=4, n_a=n_a)
        g, d, z, mats, noise, targets, budget = channel_case(sc)

        def loss_value():
            tx, _ = scale_to_budget(rows_to_streams(predict(g, z), sc.n_a), budget)
            rx = np.einsum("bij,bjk->bik", mats, tx) + noise
            return cross_entropy(predict(d, condition_phasors(rx)), targets)

        d_weights = production_generator_grads(g, d, z, mats, noise, targets, budget)[0].d_weights

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

    @pytest.mark.parametrize("n_a", [1, 2])
    def test_generator_gradient_through_workspaces_is_bit_identical(self, n_a):
        sc = tiny_scenario(seed=4, n_a=n_a)
        g, d, z, mats, noise, targets, budget = channel_case(sc)
        one_shot, one_shot_loss = production_generator_grads(g, d, z, mats, noise, targets,
                                                             budget)
        one_shot = one_shot.flat.copy()
        tx_zero = np.zeros((len(z), n_a, noise.shape[-1]), dtype=complex)
        g_ws, d_ws = Workspace(g, 5), Workspace(d, 5)
        for _ in range(2):  # the second call reuses the buffers the first wrote
            grads, loss = _generator_grads(g, d, z, mats, noise, tx_zero, targets, budget,
                                           g_ws, d_ws)
            assert grads is g_ws.grads
            npt.assert_array_equal(grads.flat, one_shot)
            assert loss == one_shot_loss

    def test_trace_losses_are_the_cross_entropies_phases_b_and_c_score(self):
        # A replica of one epoch on the same stream: each batch's loss is
        # scored, before its step, as the log of the target class's
        # probability, in float64. The trace holds their means per phase.
        sc, cfg = tiny_scenario(seed=8), replace(TINY, max_epochs=1, batch_size=5)
        g_run, d_run, trace = train_gan(sc, cfg, substream(8, 2))

        rng = substream(8, 2)
        g = init_generator(sc, cfg, rng)
        d, d_state = init_discriminator(sc, cfg, rng)
        g_state = AdamState.for_network(g)
        real = condition_phasors(draw_legit_bursts(sc, "ar", cfg.real_pool, rng))
        pool = spoofsim.gan._synth_pool(g, sc, cfg, sc.power, rng)
        x = np.concatenate([real, condition_phasors(pool.rx)]).astype(np.float32)
        y = one_hot(np.repeat([FROM_T, 1 - FROM_T], [cfg.real_pool, cfg.synth_per_epoch]))

        def loss_before_step(out, targets):
            return -np.mean(np.log(np.maximum(out[targets == 1].astype(np.float64), LOG_EPS)))

        d_losses, order = [], rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            targets = y[idx].astype(np.float32)
            out, cache = forward(d, x[idx], Workspace(d, len(idx)))
            d_losses.append(loss_before_step(out, targets))
            adam_step(d, backward(d, cache, cross_entropy_delta(out, targets)), d_state)
        g_losses = []
        for start in range(0, cfg.synth_per_epoch, cfg.batch_size):
            sl = slice(start, start + cfg.batch_size)
            z, n = pool.z[sl], len(pool.z[sl])
            targets = one_hot(np.full(n, FROM_T)).astype(np.float32)
            tx, _ = generator_phasors(g, z, sc.n_a, sc.power)
            rx = pool.rx[sl] + pool.mixing[sl] @ (tx - pool.tx[sl])
            g_losses.append(loss_before_step(predict(d, condition_phasors(rx)), targets))
            grads, _ = _generator_grads(g, d, z, pool.mixing[sl], pool.rx[sl], pool.tx[sl],
                                        targets, sc.power, Workspace(g, n), Workspace(d, n))
            adam_step(g, grads, g_state)

        # the replica took the run's steps, and 24 rows in batches of 5
        # leave a short last discriminator batch
        npt.assert_array_equal(g.params, g_run.params)
        npt.assert_array_equal(d.params, d_run.params)
        assert (len(d_losses), len(g_losses)) == (5, 3)
        npt.assert_allclose(trace.d_loss, [np.mean(d_losses)], rtol=1e-6)
        npt.assert_allclose(trace.g_loss, [np.mean(g_losses)], rtol=1e-6)

    def test_epoch_calls_keep_the_order_the_benchmark_splits_phases_by(self, monkeypatch):
        # Each epoch runs its three phases as named calls, (a) to (c), the
        # names the benchmark's phase spans are to wrap.
        calls = []

        def spy(name):
            real = getattr(spoofsim.gan, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("_synth_pool", "_train_epoch", "_generator_epoch"):
            monkeypatch.setattr(f"spoofsim.gan.{name}", spy(name))
        cfg = replace(TINY, max_epochs=3)
        _, _, trace = train_gan(tiny_scenario(seed=9), cfg, substream(9, 2))
        assert trace.epochs_run == 3
        assert calls == ["_synth_pool", "_train_epoch", "_generator_epoch"] * 3

    def test_trace_losses_are_finite_cross_entropies(self):
        # both curves are cross-entropies of a softmax net's probabilities:
        # at least zero, at most -log(LOG_EPS), on every epoch
        _, _, trace = train_gan(tiny_scenario(seed=6), replace(TINY, max_epochs=5),
                                substream(6, 2))
        for curve in (trace.d_loss, trace.g_loss):
            assert len(curve) == 5
            assert all(0.0 <= loss <= -math.log(LOG_EPS) for loss in curve)

    def test_a_run_trains_max_epochs_epochs(self):
        # the deleted loss-plateau rule (window 4) stopped this run at epoch 86
        cfg = replace(TINY, hidden_width=16, max_epochs=90)
        _, _, trace = train_gan(ScenarioConfig(seed=2), cfg, np.random.default_rng(2))
        assert trace.epochs_run == len(trace.d_loss) == len(trace.capped_bursts) == 90

    @pytest.mark.parametrize("real_pool, synth_per_epoch, batch_size, g_rows, d_rows", [
        (12, 10, 4, [4, 4, 2], [4, 4, 4, 4, 4, 2]),
        (7, 10, 20, [10], [17]),
    ])
    def test_pools_that_do_not_split_into_whole_batches(self, monkeypatch, real_pool,
                                                        synth_per_epoch, batch_size,
                                                        g_rows, d_rows):
        # A batch size that does not divide a pool leaves a short last batch,
        # and one larger than the pool makes one batch of the whole pool. Each
        # generator batch drives all its rows toward "legitimate".
        epochs = []

        def epoch_spy(*args):
            epochs.append(([], []))
            return train_epoch(*args)

        def gather_spy(ws, x, idx):
            epochs[-1][1].append(len(idx))
            return gather_rows(ws, x, idx)

        def grads_spy(g, d, z, mixing, rx, tx, targets, *args):
            assert len(z) == len(mixing) == len(rx) == len(tx) == len(targets)
            assert np.all(targets[:, FROM_T] == 1)
            epochs[-1][0].append(len(z))
            return generator_grads(g, d, z, mixing, rx, tx, targets, *args)

        train_epoch, generator_grads = spoofsim.gan._train_epoch, spoofsim.gan._generator_grads
        gather_rows = spoofsim.authenticator.gather_rows
        monkeypatch.setattr("spoofsim.gan._train_epoch", epoch_spy)
        monkeypatch.setattr("spoofsim.gan._generator_grads", grads_spy)
        monkeypatch.setattr("spoofsim.authenticator.gather_rows", gather_spy)
        cfg = replace(TINY, real_pool=real_pool, synth_per_epoch=synth_per_epoch,
                      batch_size=batch_size, max_epochs=3)
        _, _, trace = train_gan(tiny_scenario(seed=5), cfg, substream(5, 2))
        assert trace.epochs_run == 3
        assert epochs == [(g_rows, d_rows)] * 3

    def test_capped_burst_counts(self, monkeypatch):
        # Each epoch counts the bursts of its synthetic pool that the cap
        # scaled: the scales below one that scale_to_budget returns in (a),
        # between the start of the epoch's pool and its discriminator
        # epoch (b).
        events = []

        def cap_spy(streams, power_budget):
            scaled, scale = scale_to_budget(streams, power_budget)
            events.append(int(np.count_nonzero(scale < 1.0)))
            return scaled, scale

        def marker(name, real):
            def spy(*args):
                events.append(name)
                return real(*args)
            return spy

        monkeypatch.setattr("spoofsim.gan.scale_to_budget", cap_spy)
        for name, phase in (("_synth_pool", "a"), ("_train_epoch", "b")):
            monkeypatch.setattr(f"spoofsim.gan.{name}", marker(phase, getattr(spoofsim.gan, name)))
        sc = tiny_scenario(seed=7)
        cfg = replace(TINY, synth_per_epoch=24, max_epochs=4, power_budget=0.9)
        _, _, trace = train_gan(sc, cfg, substream(7, 2))
        counts, phase_a = [], []
        for event in events:
            if event == "b":
                counts.append(sum(phase_a))
            elif event == "a":
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
        cfg = replace(TINY, max_epochs=3)
        _, _, trace = train_gan(sc, cfg, substream(7, 2))
        assert trace.capped_bursts == [0, 0, 0]
        _, _, tiny_budget = train_gan(sc, replace(cfg, power_budget=1e-3), substream(7, 2))
        assert tiny_budget.capped_bursts == [cfg.synth_per_epoch] * 3

    def test_trace_csv_round_trips_every_epoch_record(self, tmp_path):
        sc = tiny_scenario(seed=7)
        cfg = replace(TINY, synth_per_epoch=24, max_epochs=4, power_budget=0.9)
        _, _, trace = train_gan(sc, cfg, substream(7, 2))
        save_trace_csv(trace, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["epoch", "g_loss", "d_loss", "capped_bursts"]
        assert [int(r[0]) for r in rows] == list(range(trace.epochs_run))
        assert [float(r[1]) for r in rows] == trace.g_loss
        assert [float(r[2]) for r in rows] == trace.d_loss
        assert [int(r[3]) for r in rows] == trace.capped_bursts
        assert len(set(trace.capped_bursts)) > 1  # the column tells epochs apart

    def test_generator_gradient_matches_slot_replicated_discriminator(self):
        # The compact discriminator against the raw-width one that reads
        # each conditioned phasor copied into its symbol's S sample slots,
        # with every compact first-layer weight spread evenly over them:
        # both score alike, so the generator gradients must agree.
        sc = tiny_scenario(seed=4)
        s = sc.samples_per_symbol
        g, d, z, mats, noise, targets, budget = channel_case(sc)
        h = d.weights[0].shape[0]
        w_slots = np.repeat(d.weights[0].reshape(h, -1, 1, 2) / s, s, axis=2)
        d_raw = DenseNetwork([w_slots.reshape(h, -1), *d.weights[1:]], d.biases,
                             d.activations)

        def replicated_phasor_grad(rx):
            cond = condition_phasors(rx)
            x = np.repeat(cond.reshape(len(cond), -1, 1, 2), s, axis=2).reshape(len(cond), -1)
            out, cache = forward(d_raw, x, Workspace(d_raw, len(x)))
            g_x = input_gradient(d_raw, cache, cross_entropy_delta(out, targets))
            # replication adjoint: each phasor collects its slots' gradients
            g_cond = g_x.reshape(len(cond), -1, s, 2).sum(axis=2).reshape(len(cond), -1)
            return condition_phasors_vjp(g_cond, rx)

        compact = production_generator_grads(g, d, z, mats, noise, targets, budget)[0]
        reference = reference_generator_grads(sc, g, z, mats, noise, budget,
                                              replicated_phasor_grad)
        for got, want in zip(compact.d_weights, reference.d_weights):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_raw_width_discriminator_on_slot_replicated_features(self, monkeypatch):
        # Reference run: the discriminator reads every conditioned phasor
        # copied into its symbol's S sample slots, starts from the unfolded
        # raw-width draw and takes plain Adam steps. The compact run must
        # follow the same trajectory.
        sc = tiny_scenario(seed=5)
        s = sc.samples_per_symbol
        cfg = replace(TINY, max_epochs=3)
        g, d, trace = train_gan(sc, cfg, substream(5, 2))

        def replicate(x):
            return np.repeat(x.reshape(len(x), -1, 1, 2), s, axis=2).reshape(len(x), -1)

        def fold(x):
            return x.reshape(len(x), -1, s, 2).sum(axis=2).reshape(len(x), -1)

        def raw_discriminator(scenario, config, rng):
            sizes = discriminator_layer_sizes(scenario, config)
            net = init_network([sizes[0] * s, *sizes[1:]],
                               [RELU] * config.hidden_depth + [SOFTMAX], rng=rng,
                               dtype=d.params.dtype)
            return net, AdamState.for_network(net)

        monkeypatch.setattr("spoofsim.gan.init_discriminator", raw_discriminator)
        monkeypatch.setattr("spoofsim.gan.condition_phasors",
                            lambda u: replicate(condition_phasors(u)))
        monkeypatch.setattr("spoofsim.gan.condition_phasors_vjp",
                            lambda grad, u: condition_phasors_vjp(fold(grad), u))
        g_ref, d_ref, trace_ref = train_gan(sc, cfg, substream(5, 2))

        # Both runs train in the nets' float32, which rounds the compact
        # first-layer sum and every step differently from the raw-width
        # run's. Independent rounding errors of size eps add up like a
        # random walk over the run's Adam steps; allow four times that, on
        # weights of size about 1 and on the losses.
        n_steps = cfg.max_epochs * (cfg.real_pool + 2 * cfg.synth_per_epoch) // cfg.batch_size
        tol = 4 * math.sqrt(n_steps) * np.finfo(np.float32).eps
        assert d_ref.params.dtype == np.float32
        assert d.weights[0].size * s == d_ref.weights[0].size
        npt.assert_allclose(d.weights[0], fold(d_ref.weights[0]), rtol=tol, atol=tol)
        for w, w_ref in zip(g.weights + d.weights[1:], g_ref.weights + d_ref.weights[1:]):
            npt.assert_allclose(w, w_ref, rtol=tol, atol=tol)
        npt.assert_allclose(trace.g_loss, trace_ref.g_loss, rtol=tol)
        npt.assert_allclose(trace.d_loss, trace_ref.d_loss, rtol=tol)
