import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

QUIET = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # IQR 0.015
NOISY = [0.70, 1.30, 0.80, 1.20, 1.00, 0.90, 1.10, 0.75, 1.25, 1.00]  # IQR 0.35


class TestNoWorseVerdict:
    @pytest.mark.parametrize("parent, change, lower_better, want", [
        # median 1.0 -> 1.2 where lower is better, 0.1 allowed
        (QUIET, [v + 0.2 for v in QUIET], True, "worse"),
        # median 1.0 -> 0.8 where higher is better
        (QUIET, [v - 0.2 for v in QUIET], False, "worse"),
        # 5% worse, inside the bound, on a quiet parent
        (QUIET, [v + 0.05 for v in QUIET], True, "no worse"),
        (QUIET, [v - 0.05 for v in QUIET], False, "no worse"),
        # a parent IQR of 0.35 hides any move of 0.1
        (NOISY, [v - 0.05 for v in NOISY], True, "unresolved"),
        (NOISY, [v + 0.05 for v in NOISY], False, "unresolved"),
        # ... unless every change run beats every parent run
        (NOISY, [0.5 + 0.01 * i for i in range(10)], True, "no worse"),
        (NOISY, [1.5 + 0.01 * i for i in range(10)], False, "no worse"),
    ])
    def test_verdict(self, parent, change, lower_better, want):
        v = bench_pairs.verdict(parent, change, lower_better, 0.1)
        assert v["no_worse"] == want
        assert v["bound"] == 0.1

    def test_worse_beyond_the_bound_is_worse_even_on_a_noisy_parent(self):
        v = bench_pairs.verdict(NOISY, [v + 0.5 for v in NOISY], True, 0.1)
        assert v["no_worse"] == "worse"
        assert not v["gain"]

    def test_gain_rule_unchanged(self):
        v = bench_pairs.verdict(QUIET, [v - 0.1 for v in QUIET], True, 0.1)
        assert (v["wins"], v["gain"], v["no_worse"]) == (10, True, "no worse")


def bench_tree(path, git_init=False):
    """A directory holding perfbench/run.py, made a git checkout on request."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    if git_init:
        subprocess.run(["git", "init", "-q", str(path)], check=True)
    return path


def parse(parent, change):
    return bench_pairs.parse_args(["--parent", str(parent), "--change", str(change),
                                   "--workload", "gan_1x1", "--seed", "11"])


class TestTrees:
    def test_checkout_top_levels_are_accepted(self, tmp_path):
        parent = bench_tree(tmp_path / "parent", git_init=True)
        change = bench_tree(tmp_path / "change", git_init=True)
        args = parse(parent, change)
        assert (args.parent, args.change) == (parent, change)

    def test_plain_directory_is_refused(self, tmp_path, capsys):
        # e.g. a `git archive` export, which has no revision to record
        export = bench_tree(tmp_path / "export")
        change = bench_tree(tmp_path / "change", git_init=True)
        with pytest.raises(SystemExit) as exit_info:
            parse(export, change)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--parent" in err and "git worktree add" in err

    def test_directory_nested_in_a_checkout_is_refused(self, tmp_path, capsys):
        # it would report the enclosing checkout's HEAD as its own
        parent = bench_tree(tmp_path / "parent", git_init=True)
        nested = bench_tree(parent / "scratch" / "change")
        with pytest.raises(SystemExit) as exit_info:
            parse(parent, nested)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--change" in err and "git worktree add" in err


class TestShortRuns:
    """The gain rule reads only runs of the benchmark's own length."""

    def run_main(self, tmp_path, monkeypatch, seconds):
        parent = bench_tree(tmp_path / "parent", git_init=True)
        change = bench_tree(tmp_path / "change", git_init=True)
        (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, "end_to_end": [
            {"name": "cell_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
        runs = {parent: iter(QUIET), change: iter([v - 0.1 for v in QUIET])}

        def run_once(tree, args):
            return {"correct": True, "metrics": {"cell_s": {"value": next(runs[tree])}}}

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        argv = ["--parent", str(parent), "--change", str(change), "--workload", "gan_1x1",
                "--seed", "11"] + (["--seconds", str(seconds)] if seconds else [])
        assert bench_pairs.main(argv) == 0

    def test_shorter_runs_claim_no_gain_but_keep_the_no_worse_verdict(
            self, tmp_path, monkeypatch, capsys):
        # the change wins every pair by far more than the parent's IQR
        self.run_main(tmp_path, monkeypatch, 20)
        out = capsys.readouterr().out
        assert "gain rule not applied: 20-s runs are shorter than run_seconds (45 s)" in out
        closing = json.loads(out.strip().splitlines()[-1])
        assert closing["short_runs"] is True
        v = closing["metrics"]["cell_s"]
        assert (v["wins"], v["gain"], v["no_worse"]) == (10, False, "no worse")

    def test_full_length_runs_apply_the_gain_rule(self, tmp_path, monkeypatch, capsys):
        self.run_main(tmp_path, monkeypatch, None)
        out = capsys.readouterr().out
        assert "not applied" not in out
        closing = json.loads(out.strip().splitlines()[-1])
        assert closing["short_runs"] is False and closing["seconds"] == 45
        assert closing["metrics"]["cell_s"]["gain"] is True
