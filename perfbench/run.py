"""spoofsim benchmark: one table cell per workload, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload auth_wide --seed 1 --seconds 45 --trace 0

With `--trace 0` the run repeats the workload's `spoofsim run` cell
until `--seconds` are used, sets up afresh before each cell and a few
more times at the end (setup_s is the median), and times single-burst
authentication with the cell's saved classifier between and after the
cells; it reports the end-to-end metrics BENCHMARK.json lists, plus
the latency quantiles auth_p50_us and auth_p99_us and the cell's quality
figures (e_md, e_fa, attack success), which are printed but not gated. With `--trace 1` it runs the cell once
untraced and once with span wrappers patched onto the names spoofsim's
modules call, and reports the per-layer metrics, the layer shares, a
check of which layer the workload leans on, and full-table projections.

Every cell's outputs are checked. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 when every check passed, 1 when one failed, and 2 when
the run could not start (no spoofsim sources, bad arguments).
Full results, with the environment, go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import check_cell, failed, read_rows  # noqa: E402
from layers import (TARGETS, SpanIndex, design_check, per_layer_metrics,  # noqa: E402
                    projections, quality, stage_shares, unit_of)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS threads are fixed: 1 vs 2 threads moves single-burst latency about 2x.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
PROBE_BURSTS = 1000
LATENCY_PASSES = 12
# Pause between the final latency passes, so they sample more of the run's time.
LATENCY_GAP_S = 0.25
# A pass counts as quiet when its median is within this factor of the lowest one.
QUIET_PASS = 1.1
# Decisions whose two class probabilities differ by less than this may
# legitimately flip between single-row and batched evaluation.
DECISION_TIE = 1e-9


class SetupError(RuntimeError):
    """The benchmark cannot run here: no spoofsim sources in this checkout."""


class CellFailed(RuntimeError):
    """The first cell left nothing to measure further (no summary or classifier)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> dict:
    """Metric name -> unit for each list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def fresh_import():
    """Import spoofsim from this checkout's sources, dropping any earlier import."""
    if not (SRC / "spoofsim" / "__init__.py").is_file():
        raise SetupError(f"no spoofsim sources under {SRC}")
    for name in [n for n in sys.modules if n == "spoofsim" or n.startswith("spoofsim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("spoofsim")
    importlib.import_module("spoofsim.cli")
    if Path(pkg.__file__).resolve().parent != (SRC / "spoofsim").resolve():
        raise SetupError(f"imported spoofsim from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload, seed, work_dir):
    """Import, config generation and probe-burst generation for one cell."""
    import numpy as np

    pkg = fresh_import()
    config = work_dir / "cell.cfg"
    config.write_text(workload.config_text(seed, str(work_dir / "cell0")))
    scenario = pkg.ScenarioConfig(n_t=workload.n_t, n_r=workload.n_r, n_a=workload.n_a,
                                  seed=seed)
    probes = pkg.build_dataset(scenario, PROBE_BURSTS, 0.5, np.random.default_rng(seed))
    return pkg, config, probes.features, scenario.samples_per_symbol


def run_cell(pkg, config, out_dir):
    """One `spoofsim run` call; returns (exit code, seconds, captured output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = pkg.cli.main(["run", "--config", str(config), "--out", str(out_dir)])
    except Exception:  # noqa: BLE001 - a crashing cell is a failed check, not a crashed benchmark
        code = "raised"
        out.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue()


class Outcome:
    """Attempted operations, failed ones, and failed checks by name."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def cell(self, results, output=""):
        self.attempted += 1
        bad = failed(results)
        if bad:
            self.failed += 1
            for name, detail in bad:
                self.failed_checks.append(f"{self.workload}/{name}: {detail}")
                print(f"FAILED check {self.workload}/{name}: {detail}", file=sys.stderr)
            if output:
                print(output, file=sys.stderr)


def checked_cell(pkg, workload, seed, config, out_dir, outcome, reference=None):
    code, seconds, output = run_cell(pkg, config, out_dir)
    results = check_cell(workload, seed, code, out_dir, pkg.load_model)
    if reference is not None and not failed(results):
        same = read_rows(out_dir, workload.table) == reference
        results.append(("repeat_identical", same, "rows differ from the first cell's"))
    outcome.cell(results, output)
    return seconds


class LatencyProbe:
    """Single-burst authentication, raw features to decision, through the saved model.

    Each pass times every probe burst once through `Authenticator` plus
    `classify`, and checks each decision against the batched one.
    """

    def __init__(self, pkg, workload, model_path, probes, sps, outcome):
        import numpy as np

        self.pkg, self.workload, self.probes, self.outcome = pkg, workload, probes, outcome
        self.auth = pkg.Authenticator(pkg.load_model(model_path), workload.n_r, sps)
        probs = pkg.predict(self.auth.net, self.auth.condition(probes))
        self.expected = np.argmax(probs, axis=1)
        self.tie = np.abs(probs[:, 1] - probs[:, 0]) < DECISION_TIE
        self.passes = []
        for row in probes:  # warm-up pass, not timed
            pkg.classify(self.auth, row)

    def run_pass(self):
        import numpy as np

        classify, auth, clock = self.pkg.classify, self.auth, time.perf_counter_ns
        samples = []
        bad = 0
        for row, expected, tie in zip(self.probes, self.expected, self.tie):
            start = clock()
            decision = classify(auth, row)
            samples.append(clock() - start)
            if decision.shape != (1,) or not (tie or decision[0] == expected):
                bad += 1
        self.outcome.attempted += len(samples)
        self.outcome.failed += bad
        if bad:
            self.outcome.failed_checks.append(
                f"{self.workload.name}/latency_decisions: {bad} single-burst decisions "
                f"disagree with the batched ones")
        self.passes.append(np.asarray(samples, dtype=np.float64) / 1e3)

    def summary(self):
        """p50 and p99 (us) over the quiet passes, plus every pass's figures.

        Passes are spread over the run, one after each cell and the rest at
        the end with pauses between them. Other tenants of the machine slow
        whole passes down for seconds at a time, so the quantiles pool only
        the quiet passes: those whose median is within QUIET_PASS of the
        lowest pass median.
        """
        import numpy as np

        p50 = [float(np.percentile(p, 50)) for p in self.passes]
        quiet = np.concatenate([p for p, m in zip(self.passes, p50)
                                if m <= QUIET_PASS * min(p50)])
        pooled = np.concatenate(self.passes)
        return ({"auth_p50_us": float(np.percentile(quiet, 50)),
                 "auth_p99_us": float(np.percentile(quiet, 99))},
                {"latency_samples": int(quiet.size),
                 "latency_samples_all_passes": int(pooled.size),
                 "latency_pass_p50_us": p50,
                 "latency_all_passes_p50_us": float(np.percentile(pooled, 50)),
                 "latency_all_passes_p99_us": float(np.percentile(pooled, 99))})


def blas_threads_measured():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "blas_threads_measured": blas_threads_measured(),
            "dtype": "float64", "workload_seed": seed, "git_revision": git_revision()}


def timed_run(workload, seed, seconds, work_dir, outcome):
    # The machine's speed wanders over seconds, so set-ups are spread over
    # the run like the cells: one before each cell, the rest at the end.
    setups = []

    def timed_setup():
        start = time.perf_counter()
        result = setup(workload, seed, work_dir)
        setups.append(time.perf_counter() - start)
        return result

    pkg, config, probes, sps = timed_setup()
    cells = []
    reference = None
    latency = None
    begin = time.perf_counter()
    while True:
        out_dir = work_dir / f"cell{len(cells)}"
        cells.append(checked_cell(pkg, workload, seed, config, out_dir, outcome, reference))
        if reference is None:
            models = sorted((out_dir / "models").glob("*classifier.bin"))
            if outcome.failed or not models:
                raise CellFailed("the first cell failed its checks; nothing more to time")
            reference = read_rows(out_dir, workload.table)
            latency = LatencyProbe(pkg, workload, models[0], probes, sps, outcome)
        latency.run_pass()
        # Start another cell only if it should end within about --seconds.
        if time.perf_counter() - begin + 0.5 * statistics.median(cells) > seconds:
            break
        pkg, config, probes, sps = timed_setup()
    while len(latency.passes) < LATENCY_PASSES or len(setups) < SETUP_REPEATS:
        time.sleep(LATENCY_GAP_S)
        if len(setups) < SETUP_REPEATS:
            timed_setup()
        if len(latency.passes) < LATENCY_PASSES:
            latency.run_pass()

    auth_metrics, latency_details = latency.summary()
    metrics = {
        "setup_s": statistics.median(setups),
        "cell_s": statistics.median(cells),
        **auth_metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    row = reference[0]
    quality = {"e_md": row["e_md"], "e_fa": row["e_fa"],
               f"{workload.attack}_success": row["success_prob"]}
    if workload.attack == "gan":
        quality.update(gan_epochs=row["gan_epochs"], gan_converged=row["gan_converged"])
    details = {"cells": len(cells), "cell_s_all": cells, "setup_s_all": setups,
               **latency_details, "quality": quality}
    return metrics, details


def traced_run(workload, seed, work_dir, outcome, results_dir):
    pkg, config, _, _ = setup(workload, seed, work_dir)
    untraced = checked_cell(pkg, workload, seed, config, work_dir / "cell0", outcome)
    if outcome.failed:
        raise CellFailed("the untraced cell failed its checks; not tracing")
    # Tracing must not change what the cell computes.
    reference = read_rows(work_dir / "cell0", workload.table)

    tracer = Tracer()
    for target, span_name, hook in TARGETS:
        tracer.wrap(target, span_name, hook)
    try:
        traced = checked_cell(pkg, workload, seed, config, work_dir / "cell1", outcome,
                              reference)
    finally:
        tracer.restore()
    spans_path = results_dir / f"spans-{workload.name}-seed{seed}.json"
    tracer.write(spans_path)

    index = SpanIndex(tracer.names, tracer.spans)
    metrics = per_layer_metrics(index, tracer.counts)
    details = {
        "untraced_cell_s": untraced, "traced_cell_s": traced,
        "trace_overhead_s": traced - untraced, "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_names": tracer.missing, "hook_errors": dict(tracer.hook_errors),
        "quality": quality(tracer.counts),
        "design_check": design_check(workload, metrics, stage_shares(index)),
        "projections": projections(workload, metrics),
    }
    return metrics, details


def _fmt(value):
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(workload, seed, trace, metrics, units, details, outcome, env):
    print(f"spoofsim benchmark: workload {workload.name}, seed {seed}, trace {trace}")
    print(f"  {workload.why}")
    declared = [name for name in metrics if name in units]
    others = [name for name in metrics if name not in units]
    for name in declared:
        print(f"  {name:40s} {_fmt(metrics[name]):>14s} {units[name]}")
    print("  also measured, not listed in BENCHMARK.json:")
    for name in others:
        print(f"    {name:38s} {_fmt(metrics[name]):>14s} {unit_of(name)}")
    for key, value in details.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for k, v in value.items():
                print(f"    {k:38s} {_fmt(v):>14s}")
        else:
            print(f"  {key:40s} {_fmt(value):>14s}")
    check = details.get("design_check")
    if check and not check["holds"]:
        print(f"  design check does not hold on {workload.name}: {check['claim']}")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  failed_frac {_fmt(frac)} ({outcome.failed} of {outcome.attempted} "
          f"attempted cells and probe authentications)")
    for line in outcome.failed_checks:
        print(f"  FAILED {line}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    workload = WORKLOADS[args.workload]
    try:
        declared = declared_metrics()
        fresh_import()
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    if env["blas_threads"] > env["nproc"]:
        print("BLAS thread count exceeds nproc", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir = state / "work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    outcome = Outcome(workload.name)
    try:
        if args.trace:
            measured, details = traced_run(workload, args.seed, work_dir, outcome, results_dir)
            units = declared["per_layer"]
        else:
            measured, details = timed_run(workload, args.seed, args.seconds, work_dir, outcome)
            units = declared["end_to_end"]
    except SetupError as exc:
        print(f"benchmark cannot run here: {exc}", file=sys.stderr)
        return 2
    except CellFailed as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": outcome.attempted,
                          "failed": outcome.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print_report(workload, args.seed, args.trace, measured, units, details, outcome, env)
    correct = outcome.failed == 0
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "failed_checks": outcome.failed_checks,
              "metrics": measured, "details": details, "environment": env}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": measured[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
