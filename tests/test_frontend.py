import numpy as np
import numpy.testing as npt
import pytest

from spoofsim.frontend import (GRID_POWER, PHASOR_LIMIT, condition_phasors, condition_phasors_vjp,
                               condition_rows, init_conditioned_network, symbol_phasors)
from spoofsim.nn import init_network
from spoofsim.waveform import _BLOCK_BURSTS, carrier_tracks, feature_rows, qpsk_phases


def clean_burst_rows(amplitude, bits=(0,) * 8, sps=100):
    """Noise-free feature row of one QPSK burst received at `amplitude`."""
    return feature_rows(amplitude * carrier_tracks(qpsk_phases([bits]), sps)[:, None, :])[0]


def test_matched_filter_recovers_clean_symbol_phasors():
    # below the limiter knee the conditioned symbol is the matched-filter
    # phasor itself, raised to GRID_POWER: one I/Q pair per symbol
    amplitude = 0.5 * PHASOR_LIMIT
    bits = (0, 0, 0, 1, 1, 1, 1, 0)
    out = condition_rows(clean_burst_rows(amplitude, bits), 1, 100)
    u = amplitude * np.exp(1j * qpsk_phases(bits))
    expected = feature_rows((u ** GRID_POWER)[None, :])
    npt.assert_allclose(out, expected, atol=1e-12)


def test_conditioning_gives_one_phasor_per_symbol_and_is_phase_only_when_strong():
    rows = clean_burst_rows(1000.0)
    out = condition_rows(rows, 1, 100)
    assert out.shape == (rows.size // 100,)
    z = out.reshape(-1, 2)
    npt.assert_allclose(np.hypot(z[:, 0], z[:, 1]), 1.0, rtol=1e-12)


def test_weak_symbols_stay_proportionally_short():
    rows = features_of_constant_phasor(0.1 * PHASOR_LIMIT)
    out = condition_rows(rows, 1, 10)
    z = out.reshape(-1, 2)
    npt.assert_allclose(np.hypot(z[:, 0], z[:, 1]), 0.1 ** GRID_POWER, rtol=1e-9)


def features_of_constant_phasor(amp):
    # burst whose de-rotated samples all equal amp * exp(j*0.3)
    s = 10
    rot = np.exp(1j * np.arange(s) * (np.pi / (s / 2)))
    stream = amp * np.exp(1j * 0.3) * np.tile(rot, 4)
    return np.stack([stream.real, stream.imag], -1).reshape(-1)


def test_grid_power_collapses_constellation():
    # two symbols a quarter turn apart map to the same conditioned point
    # once squared twice (GRID_POWER applied on top of the square grid)
    a = condition_rows(features_of_constant_phasor(5.0), 1, 10)
    s = 10
    rot = np.exp(1j * np.arange(s) * (np.pi / (s / 2)))
    stream = 5.0 * np.exp(1j * (0.3 + np.pi)) * np.tile(rot, 4)
    rows_shifted = np.stack([stream.real, stream.imag], -1).reshape(-1)
    b = condition_rows(rows_shifted, 1, 10)
    npt.assert_allclose(a, b, atol=1e-9)


def test_vjp_matches_finite_differences():
    # phasors on both sides of the limiter's knee, 2 antennas x 4 symbols
    rng = np.random.default_rng(7)
    u = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    g = rng.standard_normal((3, 2 * 2 * 4))

    def f(v):
        return float((condition_phasors(v) * g).sum())

    analytic = condition_phasors_vjp(g, u)
    h = 1e-6
    numeric = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        for part in (1.0, 1j):
            up, down = u.copy(), u.copy()
            up[idx] += h * part
            down[idx] -= h * part
            numeric[idx] += part * (f(up) - f(down)) / (2 * h)
    assert np.any(np.abs(u) < PHASOR_LIMIT) and np.any(np.abs(u) > PHASOR_LIMIT)
    npt.assert_allclose(analytic, numeric, atol=1e-6 * np.abs(numeric).max())


def test_rows_of_phasor_width_are_taken_as_matched_filter_output():
    rng = np.random.default_rng(10)
    raw = rng.standard_normal((5, 2 * 3 * 4 * 7))
    phasor_rows = feature_rows(symbol_phasors(raw, 3, 7))
    npt.assert_array_equal(condition_rows(phasor_rows, 3, 7), condition_rows(raw, 3, 7))
    # at S = 1 a raw row is its own phasors, so the two readings agree
    one = rng.standard_normal((5, 2 * 3 * 4))
    npt.assert_allclose(condition_rows(one, 3, 1), condition_rows(one, 3, 7), rtol=1e-15)


@pytest.mark.parametrize("shape", [(), (_BLOCK_BURSTS - 1,), (_BLOCK_BURSTS,),
                                   (_BLOCK_BURSTS + 1,), (1000,), (3, 50), (2, _BLOCK_BURSTS)])
def test_symbol_phasors_equal_the_one_shot_matched_filter(shape):
    # 1-D, 2-D and 3-D inputs, blocked or not, give the one-shot
    # derotate-and-average result bit for bit
    s, n_ant = 10, 2
    rows = np.random.default_rng(len(shape)).standard_normal((*shape, 2 * n_ant * 4 * s))
    z = rows.view(np.complex128).reshape(*shape, n_ant, 4, s)
    derotation = np.exp(-1j * np.arange(s) * (np.pi / (s / 2.0)))
    want = (z * derotation).mean(axis=-1)
    got = symbol_phasors(rows, n_ant, s)
    assert got.shape == (*shape, n_ant, 4)
    npt.assert_array_equal(got, want)


def test_symbol_phasors_refuse_rows_that_do_not_split_into_symbols():
    with pytest.raises(ValueError):
        symbol_phasors(np.zeros((_BLOCK_BURSTS + 1, 2 * 2 * 30)), 2, 7)
    with pytest.raises(ValueError):
        symbol_phasors(np.zeros((_BLOCK_BURSTS + 1, 2 * 2 * 30 + 2)), 2, 10)


def test_single_row_round_trips_shape():
    rng = np.random.default_rng(1)
    row = rng.standard_normal(2 * 1 * 40)
    out = condition_rows(row, 1, 10)
    assert out.shape == (2 * 1 * 4,)
    u = symbol_phasors(row, 1, 10)
    assert condition_phasors_vjp(out, u).shape == u.shape == (1, 4)


def test_vjp_rejects_gradient_of_the_wrong_width():
    rows = np.zeros((2, 2 * 1 * 40))
    with pytest.raises(ValueError):
        condition_phasors_vjp(np.zeros((2, 2 * 1 * 40)), symbol_phasors(rows, 1, 10))


def test_conditioned_init_sums_the_raw_width_draw_over_sample_slots():
    # same random stream as the raw-width net on slot-replicated phasors;
    # the compact first layer holds each phasor's S raw weights summed
    s = 5
    compact, state = init_conditioned_network([8, 6, 2], None, s, np.random.default_rng(3))
    raw = init_network([8 * s, 6, 2], rng=np.random.default_rng(3))
    slots = raw.weights[0].reshape(6, 4, s, 2)
    assert compact.params.dtype == np.float32
    npt.assert_array_equal(compact.weights[0],
                           slots.sum(axis=2).reshape(6, 8).astype(np.float32))
    npt.assert_array_equal(compact.weights[1], raw.weights[1].astype(np.float32))
    assert compact.layer_sizes == [8, 6, 2]
    # its Adam state steps each summed weight as far as its S raw weights move
    assert state.first_weight_scale == s and state.layer_sizes == compact.layer_sizes


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        condition_rows(np.zeros(10), 3, 5)
    with pytest.raises(ValueError):
        condition_rows(np.zeros(2 * 2 * 10), 2, 3)
