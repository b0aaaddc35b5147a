"""Tests of the benchmark's own machinery: spans, tracing and output checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import check_cell, failed  # noqa: E402
from layers import SpanIndex, gan_phases, per_layer_metrics, unit_of  # noqa: E402
from tracing import Tracer, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TestSelfTime:
    def test_union_of_children_is_subtracted(self):
        spans = [
            (0, 0, 10, -1),   # root
            (1, 1, 3, 0),     # children overlap on [2, 3]
            (1, 2, 4, 0),
            (1, 9, 12, 0),    # runs past the parent's end: clipped to [9, 10]
            (2, 1, 2, 1),     # grandchild: counts against its parent only
        ]
        assert self_times(spans) == [10 - 4, 2 - 1, 2, 3, 1]

    def test_covered_length_ignores_contained_and_disjoint(self):
        assert covered_length([(1, 5), (2, 3), (20, 30)], 0, 10) == 4
        assert covered_length([], 0, 10) == 0

    def test_wrapped_calls_nest_and_time(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        mod = types.ModuleType("perfbench_fake_layer")
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        sys.modules[mod.__name__] = mod
        try:
            assert tracer.wrap(f"{mod.__name__}:outer", "a.outer")
            assert tracer.wrap(f"{mod.__name__}:inner", "b.inner")
            assert mod.outer(1) == 4
        finally:
            tracer.restore()
            del sys.modules[mod.__name__]
        # outer opens at 0, inner spans [1, 2], outer closes at 3.
        assert tracer.spans == [(0, 0, 3, -1), (1, 1, 2, 0)]
        assert self_times(tracer.spans) == [2, 1]
        assert mod.outer(1) == 4 and not hasattr(mod.outer, "__wrapped__")


class TestMissingNames:
    def test_missing_names_are_reported_not_raised(self):
        tracer = Tracer()
        assert not tracer.wrap("spoofsim.gan:_no_such_helper", "gan.none")
        assert not tracer.wrap("spoofsim.no_such_module:thing", "x.none")
        assert not tracer.wrap("spoofsim.scenario:NoSuchClass.method", "x.none")
        assert tracer.missing == ["spoofsim.gan:_no_such_helper",
                                  "spoofsim.no_such_module:thing",
                                  "spoofsim.scenario:NoSuchClass.method"]
        tracer.restore()

    def test_failing_hook_is_counted_not_raised(self):
        tracer = Tracer()
        mod = types.ModuleType("perfbench_fake_hook")
        mod.f = lambda: 7
        sys.modules[mod.__name__] = mod
        try:
            tracer.wrap(f"{mod.__name__}:f", "a.f",
                        hook=lambda counts, args, kwargs, result: result.no_such_field)
            assert mod.f() == 7
        finally:
            tracer.restore()
            del sys.modules[mod.__name__]
        assert tracer.hook_errors == {"a.f": 1}

    def test_metrics_without_phase_markers_keep_the_epoch_loop(self):
        names = ["experiments.run_experiment", "gan.train_gan", "frontend.condition_rows"]
        spans = [(0, 0, 100, -1), (1, 10, 90, 0), (2, 20, 30, 1)]
        m = per_layer_metrics(SpanIndex(names, spans), {"gan.epochs": 2, "gan.attempts": 1})
        assert m["gan.epoch_loop_s"] == pytest.approx(60e-9)
        assert m["gan.s_per_epoch"] == pytest.approx(30e-9)
        assert "gan.phase_a_s" not in m


def test_benchmark_json_matches_the_workloads_and_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    produced = per_layer_metrics(SpanIndex(["experiments.run_experiment"], [(0, 0, 10, -1)]), {})
    for metric in spec["per_layer"]:
        assert metric["name"] in produced
        assert metric["unit"] == unit_of(metric["name"])


def test_gan_phase_boundaries():
    names = ["gan.train_gan", "synth.sample_intended_burst", "frontend.condition_rows",
             "gan.train_epoch", "gan.from_t_probability", "gan.check_convergence"]
    spans = [(0, 0, 100, -1),
             (1, 2, 4, 0), (2, 5, 10, 0),                       # real pool [2, 10]
             (3, 15, 30, 0), (4, 40, 42, 0), (5, 44, 45, 0),    # epoch 1
             (3, 50, 60, 0), (4, 70, 72, 0), (5, 74, 75, 0), (5, 76, 78, 0)]  # epoch 2
    phases = gan_phases(SpanIndex(names, spans))
    ns = 1e-9
    assert phases["gan.real_pool_s"] == pytest.approx(8 * ns)
    assert phases["gan.phase_a_s"] == pytest.approx((15 - 10 + 50 - 45) * ns)
    assert phases["gan.phase_b_s"] == pytest.approx((15 + 10) * ns)
    assert phases["gan.phase_c_s"] == pytest.approx((10 + 10) * ns)
    assert phases["gan.phase_d_s"] == pytest.approx((5 + 8) * ns)


TINY = replace(WORKLOADS["auth_wide"], n_t=1, n_r=1, trials=20,
               extra={"dataset.n_train": 40, "dataset.n_test": 40,
                      "classifier.train_steps": 5})


@pytest.fixture(scope="module")
def tiny_cell(tmp_path_factory):
    from spoofsim import cli

    work = tmp_path_factory.mktemp("cell")
    config = work / "cell.cfg"
    config.write_text(TINY.config_text(3, str(work / "out")))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(config)])
    return code, work / "out"


class TestOutputChecks:
    def _check(self, code, out):
        from spoofsim import load_model
        return check_cell(TINY, 3, code, out, load_model)

    def test_clean_cell_passes(self, tiny_cell):
        results = self._check(*tiny_cell)
        assert failed(results) == []
        assert {name for name, _, _ in results} >= {
            "exit_code", "summary_failures", "rates_in_range", "n_trials", "models_load"}

    @pytest.mark.parametrize("corrupt, check", [
        (lambda s: s["rows"][0].update(e_md=1.5), "rates_in_range"),
        (lambda s: s["rows"][0].update(n_trials=19), "n_trials"),
        (lambda s: s["failures"].append({"cell": "x", "seed": 3, "error": "boom"}),
         "summary_failures"),
        (lambda s: s["rows"].pop(0), "summary_rows"),
        (lambda s: s["rows"].append(dict(s["rows"][0], seed=4)), "summary_rows"),
    ])
    def test_corrupted_summary_fails_by_name(self, tiny_cell, tmp_path, corrupt, check):
        import shutil

        code, out = tiny_cell
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        path = copy / "table2_summary.json"
        summary = json.loads(path.read_text())
        corrupt(summary)
        path.write_text(json.dumps(summary))
        assert check in [name for name, _ in failed(self._check(code, copy))]

    def test_unreadable_summary_and_model_fail(self, tiny_cell, tmp_path):
        import shutil

        code, out = tiny_cell
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        for model in (copy / "models").glob("*.bin"):
            model.write_bytes(b"not a model")
        assert "models_load" in [n for n, _ in failed(self._check(code, copy))]
        (copy / "table2_summary.json").write_text("{")
        assert [n for n, _ in failed(self._check(code, copy))] == ["summary_json"]

    def test_nonzero_exit_fails(self, tiny_cell):
        _, out = tiny_cell
        assert "exit_code" in [n for n, _ in failed(self._check(2, out))]
