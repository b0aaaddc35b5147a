import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("scipy.stats")  # the Welch gate's test

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
