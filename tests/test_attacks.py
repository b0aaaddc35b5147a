from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim.attacks import run_gan_attack, run_random_attack, run_replay_attack, train_spoofer
from spoofsim.authenticator import (FROM_T, Authenticator, build_phasor_dataset, classify,
                                    train_classifier)
from spoofsim.gan import GanConfig, init_generator, train_gan
from spoofsim.nn import DenseNetwork, init_network
from spoofsim.scenario import ScenarioConfig, substream
from spoofsim.waveform import (feature_rows, phasor_width, qpsk_phases, receive_phasors,
                               receive_waveform_phasors, relay_phasors)

TINY_GAN = GanConfig(noise_dim=6, hidden_width=8, hidden_depth=2, real_pool=8,
                     synth_per_epoch=8, batch_size=4, max_epochs=2, conv_window=2)


def tiny_scenario(seed=0, **kw):
    return ScenarioConfig(seed=seed, samples_per_symbol=5, **kw)


def tiny_classifier(seed=0):
    sc = tiny_scenario(seed)
    ds = build_phasor_dataset(sc, 60, 0.5, substream(seed, 1))
    return sc, train_classifier(ds, 40, np.random.default_rng(seed))


def always_not_t(sc, width):
    """Authenticator for `sc`'s bursts whose net reads `width` conditioned features."""
    net = DenseNetwork([np.zeros((2, width))], [np.array([1.0, 0.0])], ["softmax"])
    return Authenticator(net, sc.n_r, sc.samples_per_symbol)


class TestRandomAttack:
    def test_counts_and_determinism(self):
        sc, clf = tiny_classifier(0)
        a = run_random_attack(clf, sc, 40, substream(0, 3))
        b = run_random_attack(clf, sc, 40, substream(0, 3))
        assert a.n_trials == 40
        assert a.success_prob == a.n_success / 40
        assert a.success_prob == b.success_prob

    def test_always_reject_classifier_scores_zero(self):
        sc = tiny_scenario(1)
        clf = always_not_t(sc, phasor_width(sc.n_r))
        report = run_random_attack(clf, sc, 30, substream(1, 3))
        assert report.n_success == 0

    def test_feature_width_mismatch_rejected(self):
        sc = tiny_scenario(2)
        clf = always_not_t(sc, phasor_width(sc.n_r) + 2)
        with pytest.raises(ValueError):
            run_random_attack(clf, sc, 5, substream(2, 3))


class TestReplayAttack:
    def test_runs_and_reports(self):
        sc, clf = tiny_classifier(3)
        report = run_replay_attack(clf, sc, 25, substream(3, 3))
        assert report.n_trials == 25
        assert report.success_prob == report.n_success / 25

    def test_zero_gain_channel_equals_noise_only(self):
        # when the forward hop gain is zero the received burst is pure AWGN,
        # so classification statistics must match noise-only bursts
        sc, clf = tiny_classifier(4)
        rng = substream(4, 3)
        n = 200
        bits = np.zeros((n, 8), dtype=np.int64)
        s = sc.samples_per_symbol
        hop1 = sc.draw_mixing("t", "at", n, rng)
        recorded = receive_waveform_phasors(hop1, qpsk_phases(bits), sc.power, s, rng)
        forwarded = relay_phasors(recorded, sc.power, s, rng)
        x_replay = receive_phasors(np.zeros((n, sc.n_r, sc.n_a)), forwarded, s, rng)
        x_noise = receive_phasors(np.zeros((n, sc.n_r, 1)), np.zeros((n, 1, 4)), s, rng)
        p_replay = np.mean(classify(clf, feature_rows(x_replay)) == FROM_T)
        p_noise = np.mean(classify(clf, feature_rows(x_noise)) == FROM_T)
        assert abs(p_replay - p_noise) < 0.08


class TestGanAttack:
    def test_runs_with_trained_generator(self):
        sc, clf = tiny_classifier(5)
        g, _ = train_spoofer(sc, TINY_GAN, substream(5, 2))
        report = run_gan_attack(clf, g, sc, 20, substream(5, 4), None)
        assert report.n_trials == 20
        assert report.success_prob == report.n_success / 20

    def test_generator_antenna_mismatch_rejected(self):
        sc, clf = tiny_classifier(6)
        wrong = init_generator(tiny_scenario(6, n_a=2), TINY_GAN,
                               np.random.default_rng(0))
        with pytest.raises(ValueError, match="emits 16 values, scenario needs 8"):
            run_gan_attack(clf, wrong, sc, 5, substream(6, 4), None)

    def test_raw_sample_generator_refused(self):
        # a generator of the raw-sample width, 2 * n_points * n_a (one I/Q
        # sample per antenna and point), not one phasor per symbol
        sc, clf = tiny_classifier(6)
        n_points = 4 * sc.samples_per_symbol
        raw = init_network([TINY_GAN.noise_dim, 8, 2 * n_points * sc.n_a],
                           rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="emits 40 values, scenario needs 8"):
            run_gan_attack(clf, raw, sc, 5, substream(6, 4), None)

    def test_mobility_uses_attack_time_position(self, monkeypatch):
        # the attack's links into R are drawn from where A_T stands in the
        # scenario the attack is given: after a move, the moved one
        positions = []
        draw_mixing = ScenarioConfig.draw_mixing

        def spy(self, tx_role, rx_role, count, rng):
            positions.append((tx_role, rx_role, self.at_pos))
            return draw_mixing(self, tx_role, rx_role, count, rng)

        sc, clf = tiny_classifier(7)
        g = init_generator(sc, TINY_GAN, np.random.default_rng(1))
        monkeypatch.setattr(ScenarioConfig, "draw_mixing", spy)
        run_gan_attack(clf, g, replace(sc, at_pos=(0.0, 20.0)), 30, substream(7, 4), None)
        run_gan_attack(clf, g, sc, 30, substream(7, 4), None)
        assert positions == [("at", "r", (0.0, 20.0)), ("at", "r", (0.0, 10.0))]


class TestTrainSpoofer:
    def test_trains_one_gan_and_keeps_it_unconverged(self, monkeypatch):
        # Fewer epochs than the convergence window: the run cannot converge,
        # by check_convergence's contract, and it is kept all the same.
        cfg = replace(TINY_GAN, conv_window=3)
        sc = tiny_scenario(8)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return train_gan(*args, **kwargs)

        monkeypatch.setattr("spoofsim.attacks.train_gan", spy)
        g, trace = train_spoofer(sc, cfg, substream(8, 2))
        assert len(calls) == 1
        assert not trace.converged
        assert trace.epochs_run == cfg.max_epochs

        # Bit-identical to one train_gan run on the same stream.
        ref_g, _, ref_trace = train_gan(sc, cfg, substream(8, 2))
        npt.assert_array_equal(g.params, ref_g.params)
        assert trace == ref_trace
