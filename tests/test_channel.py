"""Rayleigh block-fading link draws: ScenarioConfig.draw_mixing."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim import scenario
from spoofsim.scenario import ScenarioConfig

# chi-square critical value, 15 degrees of freedom, alpha = 0.01
CHI2_CRIT_15_001 = 30.5779


@pytest.fixture
def no_jitter(monkeypatch):
    """Draw links without carrier wander, so their phases are exact."""
    monkeypatch.setattr(scenario, "CARRIER_JITTER", 0.0)


def link(r_pos, n_t=1, n_r=1, seed=0):
    """Scenario whose T -> R link spans T at the origin to r_pos."""
    return ScenarioConfig(t_pos=(0.0, 0.0), r_pos=r_pos, n_t=n_t, n_r=n_r, seed=seed)


def test_mean_gain_follows_inverse_square_distance():
    rng = np.random.default_rng(0)
    for r_pos, mean in (((10.0, 0.0), 0.01), ((3.0, 4.0), 0.04)):
        gains = np.abs(link(r_pos).draw_mixing("t", "r", 100_000, rng))
        assert abs(gains.mean() - mean) / mean < 0.05


def test_unit_distance_identity_mean():
    rng = np.random.default_rng(1)
    gains = np.abs(link((1.0, 0.0)).draw_mixing("t", "r", 20_000, rng))
    assert abs(gains.mean() - 1.0) < 0.05


def test_phases_uniform_chi_square(no_jitter):
    # device and link phases are fixed per scenario seed, uniform across seeds
    rng = np.random.default_rng(2)
    phases = np.concatenate([
        np.angle(link((3.0, 4.0), 2, 2, seed=seed).draw_mixing("t", "r", 1, rng)).ravel()
        for seed in range(5_000)]) % (2 * math.pi)
    counts, _ = np.histogram(phases, bins=16, range=(0, 2 * math.pi))
    expected = len(phases) / 16
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < CHI2_CRIT_15_001


def test_pair_shapes():
    rng = np.random.default_rng(3)
    sc = ScenarioConfig(n_t=3, n_r=2, n_a=4)
    assert sc.draw_mixing("t", "r", 5, rng).shape == (5, 2, 3)
    assert sc.draw_mixing("at", "ar", 7, rng).shape == (7, 2, 4)
    assert sc.draw_mixing("t", "at", 1, rng).shape == (1, 4, 3)


def test_coincident_positions_rejected():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        link((0.0, 0.0)).draw_mixing("t", "r", 1, rng)


@pytest.mark.parametrize("n_tx,n_rx", [(0, 1), (1, 0), (-1, 2)])
def test_bad_antenna_counts_rejected(n_tx, n_rx):
    with pytest.raises(ValueError):
        ScenarioConfig(n_t=n_tx, n_r=n_rx)


def test_determinism_under_fixed_seed():
    sc = link((4.0, 3.0), 2, 2, seed=9)
    a = sc.draw_mixing("t", "r", 6, np.random.default_rng(42))
    b = sc.draw_mixing("t", "r", 6, np.random.default_rng(42))
    npt.assert_array_equal(a, b)


def test_matrix_combines_gain_device_and_link_phases(no_jitter):
    sc = link((10.0, 0.0), n_t=3, n_r=2, seed=11)
    mixing = sc.draw_mixing("t", "r", 4, np.random.default_rng(5))
    gains = np.random.default_rng(5).exponential(0.01, size=(4, 2, 3))
    device = sc.t_device_phases()
    table = sc.link_phases("t", "r")
    for j in range(2):
        for i in range(3):
            npt.assert_allclose(mixing[:, j, i],
                                gains[:, j, i] * np.exp(1j * (device[i] + table[i, j])),
                                rtol=1e-12)


def test_carrier_wander_is_one_phasor_per_burst(monkeypatch):
    sc = link((10.0, 0.0), n_t=2, n_r=3, seed=12)
    assert scenario.CARRIER_JITTER == 0.15
    b = sc.draw_mixing("t", "r", 2_000, np.random.default_rng(6))
    monkeypatch.setattr(scenario, "CARRIER_JITTER", 0.0)
    a = sc.draw_mixing("t", "r", 2_000, np.random.default_rng(6))
    npt.assert_allclose(np.abs(b), np.abs(a), rtol=1e-12)
    wander = b / a
    npt.assert_allclose(wander, np.broadcast_to(wander[:, :1, :1], wander.shape), rtol=1e-9)
    assert abs(np.angle(wander[:, 0, 0]).std() - 0.15) < 0.01
