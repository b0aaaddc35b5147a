from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from spoofsim import scenario
from spoofsim.scenario import ScenarioConfig, substream


@pytest.fixture
def no_jitter(monkeypatch):
    """Draw links without carrier wander, so their phases are exact."""
    monkeypatch.setattr(scenario, "CARRIER_JITTER", 0.0)


def test_defaults_match_reference_geometry():
    sc = ScenarioConfig()
    assert sc.t_pos == (0.0, 0.0)
    assert sc.r_pos == (10.0, 0.0)
    assert sc.at_pos == (0.0, 10.0)
    assert sc.ar_pos == (10.0, 0.1)
    assert sc.n_t == sc.n_r == sc.n_a == 1
    assert sc.power == 1000.0
    assert sc.samples_per_symbol == 100


def test_moved_adversary_keeps_its_fingerprint():
    # a move is a scenario of its own, alike in all but A_T's position
    sc = ScenarioConfig(seed=3, n_a=2)
    moved = replace(sc, at_pos=(0, 20))
    assert moved.at_pos == (0.0, 20.0)
    assert replace(moved, at_pos=sc.at_pos) == sc
    npt.assert_array_equal(moved.at_device_phases(), sc.at_device_phases())
    npt.assert_array_equal(moved.link_phases("at", "r"), sc.link_phases("at", "r"))


@pytest.mark.parametrize("kwargs", [
    {"n_t": 0}, {"power": 0.0}, {"power": -5.0}, {"samples_per_symbol": 0},
    {"t_pos": (np.inf, 0.0)}, {"power": np.nan}, {"power": np.inf},
    {"at_pos": (0.0, np.nan)},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


def test_device_phases_fixed_for_scenario_lifetime():
    sc = ScenarioConfig(seed=7, n_t=3, n_a=2)
    npt.assert_array_equal(sc.t_device_phases(), sc.t_device_phases())
    npt.assert_array_equal(sc.at_device_phases(), sc.at_device_phases())
    assert sc.t_device_phases().shape == (3,)
    assert sc.at_device_phases().shape == (2,)
    other = ScenarioConfig(seed=8, n_t=3, n_a=2)
    assert not np.allclose(sc.t_device_phases(), other.t_device_phases())


def test_link_phase_tables_static_and_seed_dependent():
    sc = ScenarioConfig(seed=1)
    npt.assert_array_equal(sc.link_phases("t", "r"), sc.link_phases("t", "r"))
    assert not np.allclose(sc.link_phases("t", "r"),
                           ScenarioConfig(seed=2).link_phases("t", "r"))
    assert not np.allclose(sc.link_phases("t", "r"), sc.link_phases("at", "r"))


def test_surrogate_shares_defender_phase_tables():
    sc = ScenarioConfig(seed=3)
    npt.assert_array_equal(sc.link_phases("t", "ar"), sc.link_phases("t", "r"))
    npt.assert_array_equal(sc.link_phases("at", "ar"), sc.link_phases("at", "r"))


def test_unknown_link_rejected():
    sc = ScenarioConfig()
    with pytest.raises(ValueError):
        sc.link_phases("r", "t")


def test_draw_link_gains_fresh_but_phases_static(no_jitter):
    sc = ScenarioConfig(seed=4, n_t=2, n_r=2)
    mixing = sc.draw_mixing("t", "r", 2, np.random.default_rng(0))
    npt.assert_allclose(np.angle(mixing[0]), np.angle(mixing[1]), atol=1e-12)
    assert not np.allclose(np.abs(mixing[0]), np.abs(mixing[1]))


def test_draw_link_mean_gain_tracks_distance():
    # the surrogate link reuses the defender's phases but its own distance
    sc = ScenarioConfig(seed=5)
    rng = np.random.default_rng(1)
    gains = np.abs(sc.draw_mixing("t", "ar", 30_000, rng))
    mean = 1.0 / (10.0 ** 2 + 0.1 ** 2)
    assert abs(gains.mean() - mean) / mean < 0.05


def test_draw_link_moved_adversary_changes_distance_only(no_jitter):
    sc = ScenarioConfig(seed=6, n_a=2, n_r=2)
    moved_sc = replace(sc, at_pos=(0.0, 20.0))
    home = sc.draw_mixing("at", "r", 1, np.random.default_rng(2))
    moved = moved_sc.draw_mixing("at", "r", 1, np.random.default_rng(2))
    npt.assert_allclose(np.angle(home), np.angle(moved), atol=1e-12)
    # (0,20) -> (10,0) is farther than (0,10) -> (10,0): same draws, scaled means
    ratio = moved_sc.link_mean("at", "r") / sc.link_mean("at", "r")
    assert ratio < 1.0
    npt.assert_allclose(np.abs(moved), ratio * np.abs(home), rtol=1e-12)


def test_substream_deterministic_and_key_sensitive():
    a = substream(5, 1).standard_normal(4)
    b = substream(5, 1).standard_normal(4)
    c = substream(5, 2).standard_normal(4)
    npt.assert_array_equal(a, b)
    assert not np.allclose(a, c)
