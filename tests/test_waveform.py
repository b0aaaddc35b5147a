import math

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim.frontend import symbol_phasors
from spoofsim.waveform import (_BLOCK_BURSTS, carrier_tracks, feature_rows, qpsk_phases,
                               receive_phasors, receive_waveform,
                               receive_waveform_phasors, relay_phasors, rows_to_streams,
                               stream_rms)

PI = math.pi


def identity_mixing(count=1, n_rx=1, n_tx=1, gain=1.0):
    return np.full((count, n_rx, n_tx), gain, dtype=complex)


def noise_rows(count, n_rx, sps, seed):
    """The receiver noise receive_waveform draws from a generator seeded
    `seed`: its rows through links of zero weight."""
    return receive_waveform(np.zeros((count, n_rx, 1)), np.zeros((count, 4)), 1.0, sps,
                            np.random.default_rng(seed))


def intended(bits, mixing, power=1000.0, sps=100, seed=0):
    """Noise-free received streams of one QPSK burst sent from every
    transmit antenna of each mixing matrix."""
    count, n_rx, _ = mixing.shape
    phases = qpsk_phases(np.broadcast_to(bits, (count, len(bits))))
    rows = receive_waveform(mixing, phases, power, sps, np.random.default_rng(seed))
    rows -= noise_rows(count, n_rx, sps, seed)
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
        npt.assert_array_equal(rows, noise_rows(1, 1, 100, 0))

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


def noise_phasors(count, n_rx, sps, seed):
    """The filtered receiver noise receive_phasors draws from a generator seeded `seed`."""
    return receive_phasors(np.zeros((count, n_rx, 1)), np.zeros((count, 1, 4)), sps,
                           np.random.default_rng(seed))


def received_phasors(mixing, tx_phasors, sps=100, seed=0):
    """Noise-free received phasors: receive_phasors minus its own noise draw."""
    count, n_rx, _ = mixing.shape
    rx = receive_phasors(mixing, tx_phasors, sps, np.random.default_rng(seed))
    return rx - noise_phasors(count, n_rx, sps, seed)


def recorded(n_relay, amplitude):
    """Noise-free relay recording of one all-zero QPSK burst as matched-filter
    phasors, the same on every antenna."""
    u = amplitude * np.exp(1j * qpsk_phases([[0] * 8]))
    return np.repeat(u[:, None, :], n_relay, axis=1)


def relay_draws(seed, gamma_shape=0):
    """The out-of-range noise energy and the uniform carrier phase offset
    relay_phasors draws, in that order, from `seed` for one SISO burst."""
    rng = np.random.default_rng(seed)
    energy = rng.gamma(gamma_shape, 1.0, size=(1, 1))[0, 0]
    return energy, np.exp(1j * rng.uniform(0.0, 2 * PI, 1))[0]


def relay_offset(seed):
    """The carrier phase offset relay_phasors draws from `seed` at S = 1,
    where the Gamma term has shape 0 and draws nothing."""
    return relay_draws(seed)[1]


class TestReplayBurst:
    # At S = 1 a burst is its own matched-filter phasors, so the relay's
    # full-width RMS is exact and no noise lies outside the filter's range.

    def test_siso_collapses_to_direct_form(self):
        forwarded = relay_phasors(recorded(1, 1000.0), 1000.0, 1, np.random.default_rng(4))
        rx = received_phasors(identity_mixing(), forwarded, sps=1)
        npt.assert_allclose(rx[0, 0, 0], 1000 * np.exp(1j * PI / 4) * relay_offset(4),
                            rtol=1e-12)

    def test_siso_scale_counts_the_noise_outside_the_filter(self):
        # S = 5: 4 symbols of 5 points leave 16 unit complex Gaussians outside
        # the filter's range, whose energy the relay draws before its offset
        s = 5
        forwarded = relay_phasors(recorded(1, 1000.0), 1000.0, s, np.random.default_rng(4))
        rx = received_phasors(identity_mixing(), forwarded, sps=s)
        extra, offset = relay_draws(4, gamma_shape=4 * (s - 1))
        rms = math.sqrt((s * 4 * 1000.0 ** 2 + extra) / (4 * s))
        want = 1000 * np.exp(1j * qpsk_phases([[0] * 8])[0]) * (1000.0 / rms) * offset
        npt.assert_allclose(rx[0, 0], want, rtol=1e-12)
        assert extra > 0.0 and not np.isclose(offset, relay_offset(4))

    def test_two_relay_antennas_split_power(self):
        forwarded = relay_phasors(recorded(2, 1000.0), 1000.0, 1, np.random.default_rng(0))
        npt.assert_allclose(np.abs(forwarded), 500.0, rtol=1e-12)
        rx = received_phasors(identity_mixing(n_tx=2), forwarded, sps=1)
        npt.assert_allclose(np.abs(rx[0, 0, 0]), 1000.0, rtol=1e-12)

    def test_zero_second_hop_gain_gives_zero_burst(self):
        forwarded = relay_phasors(recorded(1, 1000.0), 1000.0, 100, np.random.default_rng(0))
        rx = receive_phasors(identity_mixing(gain=0.0), forwarded, 100,
                             np.random.default_rng(1))
        npt.assert_array_equal(rx, noise_phasors(1, 1, 100, 1))

    def test_forwarded_power_is_renormalised(self):
        # deep fade on the first hop must not weaken the forwarded burst
        forwarded = relay_phasors(recorded(1, 1000.0 * 1e-4), 1000.0, 1,
                                  np.random.default_rng(0))
        npt.assert_allclose(np.abs(forwarded), 1000.0, rtol=1e-12)

    def test_summed_rms_equals_power_for_uneven_recordings(self):
        rng = np.random.default_rng(2)
        rec = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        rec *= rng.exponential(1.0, (5, 3, 1))
        forwarded = relay_phasors(rec, 1000.0, 1, rng)
        npt.assert_allclose(stream_rms(forwarded).sum(axis=-1), 1000.0, rtol=1e-12)

    def test_hop_antenna_mismatch_rejected(self):
        forwarded = relay_phasors(recorded(2, 1000.0), 1000.0, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            receive_phasors(identity_mixing(), forwarded, 100, np.random.default_rng(0))

    @pytest.mark.parametrize("sps", [1, 5])
    def test_relay_scale_matches_full_width_rms_relay(self, sps):
        # The full-width relay rescales the recorded streams by power over
        # their summed per-antenna RMS; the symbol-domain relay must draw
        # that scale from the same distribution (two-sample KS test).
        stats = pytest.importorskip("scipy.stats")
        n, n_relay, power = 3000, 2, 1000.0
        rng = np.random.default_rng(7)
        hop = 0.001 * (rng.exponential(1.0, (n, n_relay, 1))
                      * np.exp(1j * rng.uniform(0, 2 * PI, (n, n_relay, 1))))
        phases = qpsk_phases(rng.integers(0, 2, (n, 8)))
        raw = rows_to_streams(receive_waveform(hop, phases, power, sps, rng), n_relay)
        full_width = power / stream_rms(raw).sum(axis=-1)
        u = receive_waveform_phasors(hop, phases, power, sps, rng)
        symbol_domain = np.abs(relay_phasors(u, power, sps, rng)[:, 0, 0]) / np.abs(u[:, 0, 0])
        assert stats.ks_2samp(full_width, symbol_domain).pvalue > 0.01
        if sps == 1:
            # at S = 1 the recording is its phasors, so the scales agree burst by burst
            same = relay_phasors(symbol_phasors(feature_rows(raw), n_relay, 1), power, 1, rng)
            npt.assert_allclose(np.abs(same[:, 0, 0] / raw[:, 0, 0]), full_width, rtol=1e-12)


class TestReceivePhasors:
    def test_noise_is_circular_complex_gaussian_of_variance_one_over_s(self):
        s = 8
        noise = noise_phasors(20_000, 2, s, 3)
        assert noise.shape == (20_000, 2, 4)
        z = noise.reshape(len(noise), -1)
        assert np.max(np.abs(z.mean(axis=0))) < 4 * math.sqrt(1 / s / len(z))
        npt.assert_allclose(np.mean(np.abs(z) ** 2, axis=0), 1 / s, rtol=0.04)
        # circular: equal I and Q variance, uncorrelated I and Q, E[n**2] = 0
        npt.assert_allclose(z.real.var(axis=0), z.imag.var(axis=0), rtol=0.06)
        assert np.max(np.abs(np.mean(z * z, axis=0))) < 0.03 / s
        # independent across antennas and symbols: the 8 x 8 complex
        # correlation matrix is the identity
        corr = (z.conj().T @ z) / len(z) * s
        npt.assert_allclose(corr, np.eye(8), atol=0.04)

    def test_noise_matches_the_matched_filter_of_raw_noise(self):
        s = 6
        raw = symbol_phasors(noise_rows(20_000, 1, s, 4), 1, s)
        drawn = noise_phasors(20_000, 1, s, 5)
        for part in (np.real, np.imag):
            npt.assert_allclose(part(drawn).var(), part(raw).var(), rtol=0.03)
            npt.assert_allclose(np.mean(part(drawn) ** 4) / part(drawn).var() ** 2,
                                np.mean(part(raw) ** 4) / part(raw).var() ** 2, rtol=0.05)

    def test_channel_output_is_the_matched_filter_of_the_raw_channel_output(self):
        rng = np.random.default_rng(8)
        s = 7
        mixing = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
        tx = rng.standard_normal((3, 3, 4 * s)) + 1j * rng.standard_normal((3, 3, 4 * s))
        want = symbol_phasors(feature_rows(mixing @ tx), 2, s)
        got = received_phasors(mixing, symbol_phasors(feature_rows(tx), 3, s), sps=s)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_waveform_twin_is_the_matched_filter_of_receive_waveform(self):
        rng = np.random.default_rng(9)
        s = 7
        mixing = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        phases = rng.uniform(0, 2 * PI, (4, 4))
        rows = receive_waveform(mixing, phases, 50.0, s, np.random.default_rng(1))
        rows -= noise_rows(4, 2, s, 1)
        want = symbol_phasors(rows, 2, s)
        got = receive_waveform_phasors(mixing, phases, 50.0, s, np.random.default_rng(2))
        got -= noise_phasors(4, 2, s, 2)
        direct = 50.0 * mixing.mean(axis=-1)[..., None] * np.exp(1j * phases)[:, None]
        npt.assert_allclose(got, direct, rtol=1e-12)
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_waveform_twin_requires_power_positive(self):
        with pytest.raises(ValueError):
            receive_waveform_phasors(identity_mixing(), [[0.1] * 4], 0.0, 100,
                                     np.random.default_rng(0))


class TestApplyChannel:
    """The general link path: receive_phasors applies `mixing @ tx_phasors`
    burst by burst, whatever the transmit phasors."""

    def test_identity_channel_returns_input(self):
        rng = np.random.default_rng(0)
        tx = rng.standard_normal((1, 1, 4)) + 1j * rng.standard_normal((1, 1, 4))
        npt.assert_allclose(received_phasors(identity_mixing(), tx), tx, atol=1e-14)

    def test_superposition(self):
        rng = np.random.default_rng(1)
        mixing = (rng.exponential(1.0, (2, 2, 3))
                  * np.exp(1j * rng.uniform(0, 2 * PI, (2, 2, 3))))
        x = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        a, b = 1.7, -0.4 + 0.9j
        combined = received_phasors(mixing, a * x + b * y)
        separate = a * received_phasors(mixing, x) + b * received_phasors(mixing, y)
        npt.assert_allclose(combined, separate, atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        rng = np.random.default_rng(2)
        gains = rng.exponential(0.3, (3, 2, 2))
        phases = rng.uniform(0, 2 * PI, (3, 2, 2))
        tx = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        rx = received_phasors(gains * np.exp(1j * phases), tx)
        # independent oracle: sum each receive antenna's inputs symbol by symbol
        expected = np.zeros((3, 2, 4), dtype=complex)
        for b in range(3):
            for j in range(2):
                for h in range(2):
                    expected[b, j] += gains[b, j, h] * np.exp(1j * phases[b, j, h]) * tx[b, h]
        npt.assert_allclose(rx, expected, atol=1e-12)

    def test_antenna_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            receive_phasors(identity_mixing(), np.ones((1, 2, 4), dtype=complex), 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("mixing_shape, tx_shape", [
        ((3, 2, 2), (4, 2, 4)),  # tx batch count other than mixing's
        ((3, 2, 2), (1, 2, 4)),  # one tx burst would broadcast over the batch
        ((1, 2, 2), (3, 2, 4)),
        ((3, 2, 2), (2, 4)),  # no batch axis
    ])
    def test_receive_phasors_refuses_before_any_draw(self, mixing_shape, tx_shape):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            receive_phasors(np.ones(mixing_shape, dtype=complex),
                            np.ones(tx_shape, dtype=complex), 10, rng)
        assert rng.bit_generator.state == state


BLOCK_COUNTS = [1, _BLOCK_BURSTS - 1, _BLOCK_BURSTS, _BLOCK_BURSTS + 1, 1000]


def one_shot_rows(mixing, tx, seed):
    """Raw rows formed in one go: the noise draw, then the whole
    batch's link products added at once."""
    count, n_rx, _ = mixing.shape
    rows = np.random.default_rng(seed).standard_normal((count, 2 * n_rx * tx.shape[-1]))
    rows *= math.sqrt(0.5)
    rows.view(np.complex128).reshape(count, n_rx, -1)[...] += mixing @ tx
    return rows


class TestBlocks:
    """The raw receive path adds its products one block of bursts at a time,
    and gives the rows of the one-shot computation bit for bit."""

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_receive_waveform_equals_one_shot(self, count):
        rng = np.random.default_rng(count)
        mixing = rng.standard_normal((count, 2, 3)) + 1j * rng.standard_normal((count, 2, 3))
        phases = rng.uniform(0, 2 * PI, (count, 4))
        got = receive_waveform(mixing, phases, 30.0, 5, np.random.default_rng(6))
        weights = 30.0 * mixing.mean(axis=-1, keepdims=True)
        want = one_shot_rows(weights, carrier_tracks(phases, 5)[:, None, :], 6)
        npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("count", BLOCK_COUNTS)
    def test_matched_filter_of_blocked_rows_is_the_phasor_twin(self, count):
        # both the raw rows and their matched filter go one block at a time;
        # a block given another block's links or phases would not match
        rng = np.random.default_rng(count)
        mixing = rng.standard_normal((count, 2, 3)) + 1j * rng.standard_normal((count, 2, 3))
        phases = rng.uniform(0, 2 * PI, (count, 4))
        rows = receive_waveform(mixing, phases, 30.0, 5, np.random.default_rng(3))
        rows -= noise_rows(count, 2, 5, 3)
        got = symbol_phasors(rows, 2, 5)
        want = receive_waveform_phasors(mixing, phases, 30.0, 5, np.random.default_rng(4))
        want -= noise_phasors(count, 2, 5, 4)
        npt.assert_allclose(got, want, atol=1e-9)

    def test_receive_waveform_refuses_a_phase_count_other_than_mixing_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            receive_waveform(identity_mixing(_BLOCK_BURSTS + 1), np.zeros((_BLOCK_BURSTS, 4)),
                             1.0, 10, rng)
        with pytest.raises(ValueError):
            receive_waveform(identity_mixing(2), np.zeros((2, 4)), 1.0, 0, rng)
        with pytest.raises(ValueError):
            receive_waveform(identity_mixing(4), np.zeros(4), 1.0, 10, rng)
        assert rng.bit_generator.state == state


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
        noise = rows_to_streams(noise_rows(50, 2, 500, 0), 2)
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.02

    def test_circular_symmetry(self):
        noise = rows_to_streams(noise_rows(50, 1, 500, 1), 1)
        assert abs(noise.real.var() - noise.imag.var()) < 0.02
        assert abs(np.mean(noise.real * noise.imag)) < 0.01
