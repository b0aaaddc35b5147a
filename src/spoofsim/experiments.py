"""Experiment sweeps over antenna grids, positions, and seeds: an
`ExperimentSpec` (which `cli.parse_config` builds) and its execution.

Five canned table layouts mirror the headline result families:

1. classifier error rates over an (n_t, n_r) grid,
2. replay-attack success over (n_t, n_r, n_a),
3. generator-attack success over (n_t, n_r, n_a),
4. generator-attack success versus the adversary's training position,
5. generator-attack success when the adversary moves after training.

A sweep is one list of cells. A cell has a tag, a scenario, the training
tag whose classifier (and GAN generator) it is scored with, and where A_T
attacks from. Tables 1-3 and custom sweeps hold one cell per (n_t, n_r,
n_a), table 4 one per A_T training position, each trained under its own
tag and attacking from where it trained; table 5 holds one per
attack-time position, all sharing the base scenario and the classifier
and generator trained once per seed under `trained_at_base`. Every cell
runs the sweep's attack, which tables 1-5 fix (`TABLE_ATTACKS`), and the
grids and positions a canned table sweeps by default are its
`TABLE_GRID_DEFAULTS`.

`run_experiment` loops over three public calls, which scripts may call on
their own: `cells(spec)` lists the cells, `train_job` trains a cell's
classifier or GAN (see `Trained`), and `score` gives a cell's row for one
seed with its attack's `AttackReport`.

Every emitted row carries the seed, the full scenario, and the build
version (read once per sweep); each cell adds one row of seed means. Random
streams are keyed by (seed, table, tag), so a cell's rows do not depend on
which other cells the sweep holds or in what order. Cells that fail on bad
values (ValueError, including ConfigError, or FloatingPointError) are
recorded and skipped; any other exception is a programming error and
aborts the sweep.

A sweep first lists its training jobs: per (training tag, seed) one GAN
job in a GAN sweep, then one classifier job (both datasets, training and
test metrics), GAN jobs first since they run longest. Each reads only its
own keyed streams, so `run_jobs` may run them on worker processes in any
order (`sweep_processes` sizes the pool), and the parent then saves models
and traces and scores the cells in row order; outputs are the same
whichever process trained what. Workers are spawned, and spawning
re-imports the main module: a script that calls `run_experiment` (or
`run_jobs`) at import time needs an `if __name__ == "__main__":` guard,
and a main program read from standard input (`python -`) cannot be
re-imported, so its pooled sweeps fail.
"""

from __future__ import annotations

import atexit
import csv
import json
import os
import subprocess
import zlib
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .attacks import (AttackReport, run_gan_attack, run_random_attack,
                      run_replay_attack, train_spoofer)
from .authenticator import (Authenticator, ClassifierMetrics, build_phasor_dataset,
                            evaluate, train_classifier)
from .gan import GanConfig, TrainingTrace, save_trace_csv
from .nn import DenseNetwork, save_model
from .scenario import LINKED_NODES, SEED_BOUND, Position, ScenarioConfig, substream


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range experiment configuration."""


TABLES = ("1", "2", "3", "4", "5", "custom")
ATTACKS = ("none", "random", "replay", "gan")
# The attack each canned table runs; a custom sweep runs the configured one.
TABLE_ATTACKS = {"1": "none", "2": "replay", "3": "gan", "4": "gan", "5": "gan"}
# The ExperimentSpec fields each canned table sweeps when a config leaves them out.
TABLE_GRID_DEFAULTS = {
    "1": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1,)),
    "2": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1, 2, 3, 4)),
    "3": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1, 2, 3, 4)),
    "4": dict(at_positions=((0.0, 5.0), (0.0, 10.0), (0.0, 15.0), (0.0, 20.0))),
    "5": dict(at_positions=((0.0, 10.0), (0.0, 11.0), (0.0, 15.0), (0.0, 20.0))),
}

# "gan_converged" is always blank; kept because perfbench/run.py reads it.
CSV_COLUMNS = [
    "table", "seed", "n_t", "n_r", "n_a",
    "t_x", "t_y", "r_x", "r_y", "at_x", "at_y", "ar_x", "ar_y",
    "attack_at_x", "attack_at_y", "p", "s", "n_trials", "attack",
    "e_md", "e_fa", "success_prob", "gan_epochs", "gan_converged", "version",
]


@dataclass
class ExperimentSpec:
    """Fully resolved description of one sweep."""

    table: str = "custom"
    seeds: tuple = (0,)
    n_trials: int = 500
    out_dir: str = "results"
    n_t_grid: tuple = (1,)
    n_r_grid: tuple = (1,)
    n_a_grid: tuple = (1,)
    at_positions: tuple = ()
    attack: str | None = None  # None: the table's attack, "none" for custom
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_train: int = 1000
    n_test: int = 1000
    classifier_steps: int = 1000  # config key classifier.train_steps
    gan: GanConfig = field(default_factory=GanConfig)

    def __post_init__(self):
        if self.table not in TABLES:
            raise ConfigError(f"table must be one of {TABLES}, got {self.table!r}")
        table_attack = TABLE_ATTACKS.get(self.table)
        if self.attack is None:
            self.attack = table_attack or "none"
        if self.attack not in ATTACKS:
            raise ConfigError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        if table_attack and self.attack != table_attack:
            raise ConfigError(f"attack must be {table_attack!r} for table {self.table}, "
                              f"got {self.attack!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {list(self.seeds)}")
        for seed in self.seeds:
            if not 0 <= seed < SEED_BOUND:
                raise ConfigError(f"seeds must lie in [0, 2**63), got {seed}")
        if self.n_trials < 1:
            raise ConfigError("trials must be >= 1")
        for name in ("n_t_grid", "n_r_grid", "n_a_grid"):
            grid = getattr(self, name)
            if not grid or any(v < 1 for v in grid):
                raise ConfigError(f"{name} must be a non-empty list of positive ints")
            if len(set(grid)) != len(grid):
                raise ConfigError(f"{name.removesuffix('_grid')} must not repeat, "
                                  f"got {list(grid)}")
        if self.table in ("4", "5"):
            if not self.at_positions:
                raise ConfigError(f"table {self.table} needs at_positions")
            for key in ("n_t", "n_r", "n_a"):
                grid = getattr(self, f"{key}_grid")
                if len(grid) != 1:
                    raise ConfigError(f"table {self.table} runs one geometry: {key} must "
                                      f"be one value, got {list(grid)}")
        elif self.at_positions:
            raise ConfigError(f"at_positions is only read by tables 4 and 5, "
                              f"not table {self.table}")
        if len(set(self.at_positions)) != len(self.at_positions):
            raise ConfigError(f"at_positions must not repeat, got {list(self.at_positions)}")
        # Each at_positions entry stands in for A_T: a finite position, under
        # the same link rule as the base scenario.
        for pos in (None, *self.at_positions):
            if pos is not None and not np.isfinite(pos).all():
                raise ConfigError(f"at_positions entry {pos} is not a finite position")
            sc = self.base if pos is None else replace(self.base, at_pos=pos)
            where = "" if pos is None else f"at_positions entry {pos} stands in for A_T: "
            for a, b in LINKED_NODES:
                if getattr(sc, a) == getattr(sc, b):
                    raise ConfigError(f"{where}scenario.{a} and scenario.{b} share a link "
                                      f"but coincide at {getattr(sc, a)}")
        if self.n_train < 2 or self.n_test < 2:
            raise ConfigError("dataset sizes must be >= 2")
        if self.classifier_steps < 1:
            raise ConfigError("classifier.train_steps must be >= 1")


@dataclass
class ExperimentResult:
    rows: list
    failures: list
    csv_path: Path
    json_path: Path


def build_version() -> str:
    """Git describe of the working tree when available, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent, capture_output=True, text=True,
            timeout=5, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"spoofsim-{__version__}"


def _cell_rngs(seed, table, cell_tag):
    cid = zlib.crc32(f"{table}|{cell_tag}".encode())
    scen_seed = int(np.random.SeedSequence([seed & (SEED_BOUND - 1), cid])
                    .generate_state(1)[0])
    return (scen_seed,
            substream(seed, cid, 1),   # datasets
            substream(seed, cid, 2),   # adversarial training
            substream(seed, cid, 3))   # attack trials


# Errors a cell may raise on legitimate input; anything else propagates.
CELL_ERRORS = (ValueError, FloatingPointError)


class Cell(NamedTuple):
    """A sweep cell: scored under `tag` with the models trained under
    `trained_at` on `scenario`, attacking with A_T moved to `attack_at`.
    Cells that share a training tag share their scenario too."""

    tag: str
    scenario: ScenarioConfig
    trained_at: str
    attack_at: Position


def cells(spec) -> list:
    """The sweep's cells, in row order; cells sharing a training tag are adjacent."""
    listed = []
    # Tables 4 and 5 hold one geometry (ExperimentSpec checks), so their tags stay unique.
    for n_t, n_r, n_a in product(spec.n_t_grid, spec.n_r_grid, spec.n_a_grid):
        geometry = replace(spec.base, n_t=n_t, n_r=n_r, n_a=n_a)
        if spec.table == "4":
            listed += [Cell(f"at{x}_{y}", replace(geometry, at_pos=(x, y)), f"at{x}_{y}", (x, y))
                       for x, y in spec.at_positions]
        elif spec.table == "5":
            listed += [Cell(f"attack_from_{x}_{y}", geometry, "trained_at_base", (x, y))
                       for x, y in spec.at_positions]
        else:
            tag = f"nt{n_t}_nr{n_r}_na{n_a}"
            listed.append(Cell(tag, geometry, tag, geometry.at_pos))
    return listed


# BLAS thread variables in the order OpenBLAS reads them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def sweep_processes(cores=None, environ=None) -> int:
    """Processes that can train at once without oversubscribing the cores:
    the usable cores (default: this process's CPU affinity) over the BLAS
    threads each process runs, which `environ` (default: `os.environ`) sets
    through BLAS_THREAD_VARS, the first positive value winning. With neither
    set, OpenBLAS runs one thread per usable core, so one process fills them."""
    if cores is None:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    if environ is None:
        environ = os.environ
    for var in BLAS_THREAD_VARS:
        value = environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _skip_teardown_at_exit():
    """Pool initializer: the worker leaves through `os._exit`, as a forked
    process does, without the interpreter's teardown (tens of milliseconds
    with numpy loaded, which shutdown would wait for). By the time exit
    handlers run, the worker has flushed its streams and run its
    multiprocessing finalizers, and every result has been sent."""
    atexit.register(os._exit, 0)


def run_jobs(job, args) -> list:
    """`[job(*a) for a in args]`, on worker processes when cores are spare.

    Below two processes (`sweep_processes`), or with one job, the jobs run
    inline in order. Otherwise a spawned pool of min(processes, jobs - 1)
    workers takes jobs 1 onward while this process runs job 0, so list the
    longest job first. With more jobs than processes that is processes + 1
    busy processes on cores sized for processes, until job 0 ends; running
    job 0 here rather than in the pool hides the workers' start (0.13-0.23 s
    of interpreter, numpy and spoofsim imports), which a two-job call such as
    one table-3 cell would otherwise wait for. `job` must be a module-level
    function (workers import it by name) and each argument tuple
    picklable. When a job raises, the jobs not yet started are cancelled
    and, once the running ones have ended, the first failed job's
    exception is raised; no worker outlives the call.
    """
    args = list(args)
    processes = sweep_processes()
    if processes < 2 or len(args) < 2:
        return [job(*a) for a in args]
    # Imported only where a pool is made: these modules hold about 2 MB of
    # resident memory that a process running every job inline need not carry.
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    pool = ProcessPoolExecutor(min(processes, len(args) - 1),
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_skip_teardown_at_exit)
    try:
        futures = [pool.submit(job, *a) for a in args[1:]]
        first = job(*args[0])
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for error in [f.exception() for f in futures if not f.cancelled()]:
        if error is not None:
            raise error
    return [first] + [f.result() for f in futures]


def _jobs(spec, sweep_cells):
    """The sweep's training jobs as `train_job` arguments: per training tag
    and seed, a GAN job in a GAN sweep, then a classifier job. GAN jobs run
    longest, so they come first. A tag's jobs train on the scenario its
    cells share."""
    first_cells = {}
    for cell in sweep_cells:
        first_cells.setdefault(cell.trained_at, cell)
    kinds = ("gan", "classifier") if spec.attack == "gan" else ("classifier",)
    return [(spec, kind, cell, seed)
            for kind in kinds for cell in first_cells.values() for seed in spec.seeds]


def train_job(spec, kind, cell, seed):
    """One training job (`kind` "classifier" or "gan"), in a worker or inline:
    the classifier of the cell's training tag with its test metrics, or its
    GAN generator and trace. A CELL_ERRORS exception is returned, not raised,
    so that a sweep records it in row order; any other propagates."""
    scen_seed, data_rng, gan_rng, _ = _cell_rngs(seed, spec.table, cell.trained_at)
    scenario = replace(cell.scenario, seed=scen_seed)
    try:
        if kind == "gan":
            return train_spoofer(scenario, spec.gan, gan_rng)
        train_set = build_phasor_dataset(scenario, spec.n_train, 0.5, data_rng)
        test_set = build_phasor_dataset(scenario, spec.n_test, 0.5, data_rng)
        clf = train_classifier(train_set, spec.classifier_steps,
                               np.random.default_rng(scen_seed & 0x7FFFFFFF))
        return clf, evaluate(clf, test_set)
    except CELL_ERRORS as exc:
        return exc.with_traceback(None)  # whose frames would hold the datasets


class Trained(NamedTuple):
    """A training tag's models for one seed: the classifier with its test
    metrics and, for a GAN attack, the generator with its trace."""

    clf: Authenticator
    metrics: ClassifierMetrics
    generator: DenseNetwork | None = None
    trace: TrainingTrace | None = None


def _output_path(out_dir, spec, tag, seed, what):
    models = Path(out_dir) / "models"
    models.mkdir(parents=True, exist_ok=True)
    return models / f"t{spec.table}_{tag}_seed{seed}_{what}"


def _train(spec, tag, seed, jobs_done, out_dir):
    """The models trained under `tag` for `seed`, taken from `jobs_done`,
    with the classifier, generator and GAN trace saved. Raises the classifier
    job's error, else the GAN job's; as when the GAN trained after the
    classifier, a failed GAN job leaves the classifier saved and a failed
    classifier job leaves nothing."""
    clf = jobs_done.pop(("classifier", tag, seed))
    if isinstance(clf, BaseException):
        raise clf
    clf, metrics = clf
    save_model(clf.net, _output_path(out_dir, spec, tag, seed, "classifier.bin"))
    if spec.attack != "gan":
        return Trained(clf, metrics)
    gan = jobs_done.pop(("gan", tag, seed))
    if isinstance(gan, BaseException):
        raise gan
    generator, trace = gan
    save_model(generator, _output_path(out_dir, spec, tag, seed, "generator.bin"))
    save_trace_csv(trace, _output_path(out_dir, spec, tag, seed, "trace.csv"))
    return Trained(clf, metrics, generator, trace)


def score(spec, cell, seed, trained, version) -> tuple[dict, AttackReport | None]:
    """The cell's row for one seed, the trained classifier's error rates plus
    the sweep's attack drawn from the cell's own attack stream with A_T at
    `cell.attack_at`, and that attack's report (None when `spec.attack` is
    "none")."""
    scenario = replace(cell.scenario, seed=_cell_rngs(seed, spec.table, cell.trained_at)[0])
    attacked = replace(scenario, at_pos=cell.attack_at)
    row = {
        "table": spec.table, "seed": seed,
        "n_t": scenario.n_t, "n_r": scenario.n_r, "n_a": scenario.n_a,
        "t_x": scenario.t_pos[0], "t_y": scenario.t_pos[1],
        "r_x": scenario.r_pos[0], "r_y": scenario.r_pos[1],
        "at_x": scenario.at_pos[0], "at_y": scenario.at_pos[1],
        "ar_x": scenario.ar_pos[0], "ar_y": scenario.ar_pos[1],
        "attack_at_x": attacked.at_pos[0], "attack_at_y": attacked.at_pos[1],
        "p": scenario.power, "s": scenario.samples_per_symbol,
        "n_trials": "", "attack": "", "e_md": trained.metrics.e_md,
        "e_fa": trained.metrics.e_fa, "success_prob": "", "gan_epochs": "",
        "gan_converged": "", "version": version,
    }
    if spec.attack == "none":
        return row, None
    attack_rng = _cell_rngs(seed, spec.table, cell.tag)[3]
    if spec.attack == "gan":
        report = run_gan_attack(trained.clf, trained.generator, attacked, spec.n_trials,
                                attack_rng, spec.gan.power_budget)
        row.update(gan_epochs=trained.trace.epochs_run)
    else:
        runner = {"random": run_random_attack, "replay": run_replay_attack}[spec.attack]
        report = runner(trained.clf, attacked, spec.n_trials, attack_rng)
    row.update(attack=spec.attack, n_trials=report.n_trials,
               success_prob=report.success_prob)
    return row, report


def _mean_row(cell_rows):
    """The cell's seed-mean row: its seed rows' rates averaged."""
    mean = dict(cell_rows[0], seed="mean", gan_epochs="")
    for col in ("e_md", "e_fa", "success_prob"):
        if mean[col] != "":
            mean[col] = sum(row[col] for row in cell_rows) / len(cell_rows)
    return mean


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a sweep and write its CSV table plus JSON summary.

    Runs the sweep's `train_job`s through `run_jobs` (see the module
    docstring: a script calling this at import time needs an
    `if __name__ == "__main__":` guard). Then, cell by cell in row order,
    saves the models of the cell's training tag where an earlier cell did
    not, and `score`s the cell for each seed. A failed job is recorded once
    per (training tag, seed), where its first cell is scored."""
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], []
    version = build_version()
    sweep_cells = cells(spec)
    jobs = _jobs(spec, sweep_cells)
    jobs_done = {(kind, cell.trained_at, seed): result
                 for (_, kind, cell, seed), result in zip(jobs, run_jobs(train_job, jobs))}

    trained_at, trained = None, {}
    for cell in sweep_cells:
        if cell.trained_at != trained_at:
            trained_at, trained = cell.trained_at, {}
        cell_rows = []
        for seed in spec.seeds:
            if seed not in trained:
                try:
                    trained[seed] = _train(spec, trained_at, seed, jobs_done, out_dir)
                except CELL_ERRORS as exc:
                    trained[seed] = None
                    failures.append({"cell": trained_at, "seed": seed, "error": str(exc)})
            if trained[seed] is None:
                continue
            try:
                cell_rows.append(score(spec, cell, seed, trained[seed], version)[0])
            except CELL_ERRORS as exc:
                failures.append({"cell": cell.tag, "seed": seed, "error": str(exc)})
        rows += cell_rows
        if cell_rows:
            rows.append(_mean_row(cell_rows))

    name = f"table{spec.table}" if spec.table != "custom" else "custom"
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    json_path = out_dir / f"{name}_summary.json"
    with open(json_path, "w") as fh:
        json.dump({"table": spec.table, "version": version,
                   "seeds": list(spec.seeds), "n_trials": spec.n_trials,
                   "rows": rows, "failures": failures}, fh, indent=2)
        fh.write("\n")
    return ExperimentResult(rows, failures, csv_path, json_path)
