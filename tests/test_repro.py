import importlib.util
from argparse import Namespace
from pathlib import Path

import pytest

from spoofsim.cli import parse_config
from spoofsim.experiments import run_experiment

_SPEC = importlib.util.spec_from_file_location(
    "repro", Path(__file__).resolve().parents[1] / "scripts" / "repro.py")
repro = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(repro)


def document(rates):
    """A run's per-seed rates and pooled Wilson estimates, 1000 trials a seed."""
    pooled = {metric: repro.wilson(round(sum(r) * 1000), 1000 * len(r))
              for metric, r in rates.items()}
    return {"pooled": {"1x1x1": pooled}, "per_seed": {"1x1x1": rates}}


class TestWelchGate:
    @pytest.fixture(autouse=True)
    def scipy_stats(self):
        pytest.importorskip("scipy.stats")  # the Welch test's

    def test_seed_spread_hides_a_small_move(self):
        before = [0.9, 0.1, 0.85, 0.2, 0.95, 0.3, 0.88, 0.15]
        test = repro.welch(before, [v + 0.02 for v in before])
        assert test["p"] > repro.FLAG_P
        assert (test["n_before"], test["n_after"]) == (8, 8)

    def test_a_shift_beyond_the_seed_spread_is_flagged(self):
        before = {"gan": [0.40, 0.42, 0.41, 0.43, 0.40, 0.42, 0.41, 0.42]}
        after = {"gan": [0.60, 0.62, 0.61, 0.63, 0.60, 0.62, 0.61, 0.62]}
        later = document(after)
        result = repro.compare(document(before), later["pooled"], later["per_seed"])
        assert result["flagged"] == ["1x1x1/gan"]
        assert not result["metrics"]["1x1x1"]["gan"]["wilson_overlap"]

    @pytest.mark.parametrize("after, p", [([0.0] * 4, 1.0), ([0.1] * 4, 0.0)])
    def test_constant_rates_compare_by_value(self, after, p):
        assert repro.welch([0.0] * 4, after)["p"] == p


class TestSweepCells:
    @pytest.mark.parametrize("geometry", [(1, 1, 1), (2, 2, 1)])
    def test_rates_are_the_custom_sweeps_rows(self, geometry, monkeypatch, tmp_path):
        # Each per-seed rate equals the row `spoofsim run` writes for the
        # same custom cell, attack by attack, exactly.
        monkeypatch.setattr(repro, "N_TRAIN", 60)
        monkeypatch.setattr(repro, "N_TEST", 40)
        args = Namespace(trials=30, gan_epochs=3)
        with_gan = geometry == repro.GAN_GEOMETRY
        seeds = (1, 2)
        counts = {seed: repro.run_cell(seed, geometry, args, with_gan) for seed in seeds}
        config = {"seeds": "1,2", "trials": "30", "dataset.n_train": "60",
                  "dataset.n_test": "40", **dict(zip(("n_t", "n_r", "n_a"), map(str, geometry)))}
        gan_config = {"gan.max_epochs": "3"}
        attacks = ("random", "replay", "gan") if with_gan else ("random", "replay")
        for attack in attacks:
            overrides = dict(config, attack=attack, out=str(tmp_path / attack),
                             **(gan_config if attack == "gan" else {}))
            result = run_experiment(parse_config(overrides=overrides))
            assert not result.failures
            rows = [row for row in result.rows if row["seed"] != "mean"]
            assert [row["seed"] for row in rows] == list(seeds)
            for row in rows:
                rates = {metric: k / n for metric, (k, n) in counts[row["seed"]].items()}
                assert rates[attack] == row["success_prob"]
                assert (rates["e_md"], rates["e_fa"]) == (row["e_md"], row["e_fa"])
        assert all(set(c) == {"e_md", "e_fa", *attacks} for c in counts.values())


class TestArguments:
    @pytest.mark.parametrize("flag, value, message", [
        # a repeated seed would enter the Welch test twice
        ("--seeds", "1,2,1", "--seeds must not repeat"),
        ("--geometries", "1x1x1,2x2x1,1X1X1", "--geometries must not repeat"),
        ("--seeds", ",", "--seeds must name at least one seed"),
        # the cell streams key on a seed's low 63 bits, so 2**63 would alias seed 0
        ("--seeds", f"0,{2**63}", f"--seeds must lie in [0, 2**63), got {2**63}"),
        ("--seeds", "1,a", "seed must be an integer, got 'a'"),
        ("--trials", "0", "--trials must be >= 1"),
        ("--gan-epochs", "0", "--gan-epochs must be >= 1"),
    ])
    def test_bad_lists_are_refused(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro.main([flag, value])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
