import math

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim import qpsk_phases, receive_rows, receive_waveform
from spoofsim.waveform import (amplify_and_forward, carrier_tracks,
                               feature_rows, rows_to_streams)

PI = math.pi


def identity_mixing(count=1, n_rx=1, n_tx=1, gain=1.0):
    return np.full((count, n_rx, n_tx), gain, dtype=complex)


def noise_rows(count, n_rx, n_points, seed):
    """The receiver noise receive_rows draws from a generator seeded `seed`."""
    return receive_rows(np.zeros((count, n_rx, 1)), np.zeros((count, 1, n_points)),
                        np.random.default_rng(seed))


def received(mixing, tx, seed=0):
    """Noise-free received streams: receive_rows minus its own noise draw."""
    count, n_rx, _ = mixing.shape
    rows = receive_rows(mixing, tx, np.random.default_rng(seed))
    rows -= noise_rows(count, n_rx, tx.shape[-1], seed)
    return rows_to_streams(rows, n_rx)


def intended(bits, mixing, power=1000.0, sps=100, seed=0):
    """Noise-free received streams of one QPSK burst sent from every
    transmit antenna of each mixing matrix."""
    count, n_rx, _ = mixing.shape
    phases = qpsk_phases(np.broadcast_to(bits, (count, len(bits))))
    rows = receive_waveform(mixing, phases, power, sps, np.random.default_rng(seed))
    rows -= noise_rows(count, n_rx, 4 * sps, seed)
    return rows_to_streams(rows, n_rx)


class TestQpskPhases:
    def test_pair_00_maps_to_quarter_pi(self):
        npt.assert_allclose(qpsk_phases([0, 0]), [PI / 4])

    def test_pair_01_maps_to_three_quarter_pi(self):
        npt.assert_allclose(qpsk_phases([0, 1]), [3 * PI / 4])

    def test_gray_map(self):
        npt.assert_allclose(qpsk_phases([0, 0, 0, 1, 1, 1, 1, 0]),
                            [PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4])
        npt.assert_allclose(qpsk_phases([[0, 0, 0, 1], [1, 1, 1, 0]]),
                            [[PI / 4, 3 * PI / 4], [5 * PI / 4, 7 * PI / 4]])

    def test_all_zero_byte(self):
        npt.assert_allclose(qpsk_phases([0] * 8), [PI / 4] * 4)

    def test_output_always_on_constellation(self):
        rng = np.random.default_rng(3)
        grid = {PI / 4, 3 * PI / 4, 5 * PI / 4, 7 * PI / 4}
        for _ in range(50):
            bits = rng.integers(0, 2, size=8)
            for phase in qpsk_phases(bits):
                assert min(abs(phase - g) for g in grid) < 1e-12

    @pytest.mark.parametrize("bad", [[0], [0, 1, 1], [], [0, 2]])
    def test_invalid_bits_rejected(self, bad):
        with pytest.raises(ValueError):
            qpsk_phases(bad)


class TestIntendedBurst:
    def test_first_sample_matches_hand_evaluation(self):
        streams = intended([0] * 8, identity_mixing())
        npt.assert_allclose(streams[0, 0, 0], 1000 * np.exp(1j * PI / 4), rtol=1e-12)
        npt.assert_allclose(streams[0, 0, 0].real, 707.107, atol=5e-4)

    def test_half_symbol_rotation_flips_sign(self):
        streams = intended([0] * 8, identity_mixing())
        npt.assert_allclose(streams[0, 0, 50], 1000 * np.exp(1j * (PI / 4 + PI)),
                            rtol=1e-12)

    def test_zero_gain_gives_zero_burst(self):
        rows = receive_waveform(identity_mixing(gain=0.0), qpsk_phases([[0] * 8]),
                                1000.0, 100, np.random.default_rng(0))
        npt.assert_array_equal(rows, noise_rows(1, 1, 400, 0))

    def test_constant_magnitude_and_phase_increment(self):
        rng = np.random.default_rng(5)
        mixing = np.full((1, 1, 1), 0.37 * np.exp(1j * rng.uniform(0, 2 * PI)))
        stream = intended(rng.integers(0, 2, 8), mixing)[0, 0]
        npt.assert_allclose(np.abs(stream), 0.37 * 1000.0, rtol=1e-12)
        within = stream.reshape(4, 100)
        ratio = within[:, 1:] / within[:, :-1]
        npt.assert_allclose(np.angle(ratio), PI / 50, rtol=1e-9)

    def test_transmit_antennas_share_the_power(self):
        # two in-phase antennas at power / 2 each add up to one at full power
        one = intended([0] * 8, identity_mixing())
        two = intended([0] * 8, identity_mixing(n_tx=2))
        npt.assert_allclose(two, one, rtol=1e-12)

    def test_noise_requires_power_positive(self):
        with pytest.raises(ValueError):
            receive_waveform(identity_mixing(), [[0.1] * 4], 0.0, 100,
                             np.random.default_rng(0))

    def test_determinism_under_fixed_seed(self):
        mixing = identity_mixing(3, 2)
        phases = qpsk_phases(np.zeros((3, 8), dtype=int))
        a = receive_waveform(mixing, phases, 1000.0, 100, np.random.default_rng(11))
        b = receive_waveform(mixing, phases, 1000.0, 100, np.random.default_rng(11))
        npt.assert_array_equal(a, b)

    def test_carrier_tracks_batch_matches_single_bursts(self):
        phases = np.random.default_rng(6).uniform(0, 2 * PI, (3, 4))
        batch = carrier_tracks(phases, 10)
        assert batch.shape == (3, 40)
        for row, track in zip(phases, batch):
            npt.assert_array_equal(carrier_tracks(row, 10), track)


def recording(n_relay, amplitude, sps=100):
    """Noise-free relay recording of one all-zero QPSK burst, same on every antenna."""
    track = carrier_tracks(qpsk_phases([[0] * 8]), sps)
    return amplitude * np.repeat(track[:, None, :], n_relay, axis=1)


def relay_offset(seed):
    """The uniform carrier phase offset amplify_and_forward draws from `seed`."""
    return np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * PI, 1))[0]


class TestReplayBurst:
    def test_siso_collapses_to_direct_form(self):
        forwarded = amplify_and_forward(recording(1, 1000.0), 1000.0,
                                        np.random.default_rng(4))
        streams = received(identity_mixing(), forwarded)
        npt.assert_allclose(streams[0, 0, 0], 1000 * np.exp(1j * PI / 4) * relay_offset(4),
                            rtol=1e-12)

    def test_two_relay_antennas_split_power(self):
        forwarded = amplify_and_forward(recording(2, 1000.0), 1000.0,
                                        np.random.default_rng(0))
        npt.assert_allclose(np.abs(forwarded), 500.0, rtol=1e-12)
        streams = received(identity_mixing(n_tx=2), forwarded)
        npt.assert_allclose(np.abs(streams[0, 0, 0]), 1000.0, rtol=1e-12)

    def test_zero_second_hop_gain_gives_zero_burst(self):
        forwarded = amplify_and_forward(recording(1, 1000.0), 1000.0,
                                        np.random.default_rng(0))
        rows = receive_rows(identity_mixing(gain=0.0), forwarded, np.random.default_rng(1))
        npt.assert_array_equal(rows, noise_rows(1, 1, 400, 1))

    def test_forwarded_power_is_renormalised(self):
        # deep fade on the first hop must not weaken the forwarded burst
        forwarded = amplify_and_forward(recording(1, 1000.0 * 1e-4), 1000.0,
                                        np.random.default_rng(0))
        npt.assert_allclose(np.abs(forwarded), 1000.0, rtol=1e-12)

    def test_summed_rms_equals_power_for_uneven_recordings(self):
        rng = np.random.default_rng(2)
        rec = rng.standard_normal((5, 3, 40)) + 1j * rng.standard_normal((5, 3, 40))
        rec *= rng.exponential(1.0, (5, 3, 1))
        forwarded = amplify_and_forward(rec, 1000.0, rng)
        rms = np.sqrt(np.mean(np.abs(forwarded) ** 2, axis=-1))
        npt.assert_allclose(rms.sum(axis=-1), 1000.0, rtol=1e-12)

    def test_hop_antenna_mismatch_rejected(self):
        forwarded = amplify_and_forward(recording(2, 1000.0), 1000.0,
                                        np.random.default_rng(0))
        with pytest.raises(ValueError):
            receive_rows(identity_mixing(), forwarded, np.random.default_rng(0))


class TestApplyChannel:
    def test_identity_channel_returns_input(self):
        rng = np.random.default_rng(0)
        tx = rng.standard_normal((1, 1, 40)) + 1j * rng.standard_normal((1, 1, 40))
        npt.assert_allclose(received(identity_mixing(), tx), tx, atol=1e-14)

    def test_superposition(self):
        rng = np.random.default_rng(1)
        mixing = (rng.exponential(1.0, (2, 2, 3))
                  * np.exp(1j * rng.uniform(0, 2 * PI, (2, 2, 3))))
        x = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        y = rng.standard_normal((2, 3, 32)) + 1j * rng.standard_normal((2, 3, 32))
        a, b = 1.7, -0.4 + 0.9j
        combined = received(mixing, a * x + b * y)
        separate = a * received(mixing, x) + b * received(mixing, y)
        npt.assert_allclose(combined, separate, atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(2)
        gains = rng.exponential(0.3, (3, 2, 2))
        phases = rng.uniform(0, 2 * PI, (3, 2, 2))
        tx = rng.standard_normal((3, 2, 24)) + 1j * rng.standard_normal((3, 2, 24))
        rx = received(gains * np.exp(1j * phases), tx)
        # independent oracle: sum each receive antenna's inputs sample by sample
        expected = np.zeros((3, 2, 24), dtype=complex)
        for b in range(3):
            for j in range(2):
                for h in range(2):
                    expected[b, j] += gains[b, j, h] * np.exp(1j * phases[b, j, h]) * tx[b, h]
        npt.assert_allclose(rx, expected, atol=1e-12)

    def test_antenna_mismatch_rejected(self):
        tx = np.ones((1, 2, 8), dtype=complex)
        with pytest.raises(ValueError):
            receive_rows(identity_mixing(), tx, np.random.default_rng(0))


class TestFeatures:
    def test_siso_length(self):
        rows = receive_waveform(identity_mixing(), qpsk_phases([[0] * 8]), 1000.0, 100,
                                np.random.default_rng(0))
        assert rows.shape == (1, 800)

    def test_four_antenna_length(self):
        rows = receive_waveform(identity_mixing(2, 4), qpsk_phases([[0] * 8] * 2), 1000.0,
                                100, np.random.default_rng(0))
        assert rows.shape == (2, 3200)

    def test_zero_burst_gives_zero_vector(self):
        assert np.all(feature_rows(np.zeros((2, 16), dtype=complex)) == 0)

    def test_interleaving_layout(self):
        npt.assert_array_equal(feature_rows(np.array([[1 + 2j, 3 + 4j]])), [1, 2, 3, 4])

    def test_bijection(self):
        rng = np.random.default_rng(4)
        streams = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        npt.assert_array_equal(rows_to_streams(feature_rows(streams), 3), streams)

    def test_indivisible_width_rejected(self):
        with pytest.raises(ValueError):
            rows_to_streams(np.zeros(10), 3)


class TestAwgn:
    def test_unit_variance(self):
        noise = rows_to_streams(noise_rows(50, 2, 2_000, 0), 2)
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.02

    def test_circular_symmetry(self):
        noise = rows_to_streams(noise_rows(50, 1, 2_000, 1), 1)
        assert abs(noise.real.var() - noise.imag.var()) < 0.02
        assert abs(np.mean(noise.real * noise.imag)) < 0.01
