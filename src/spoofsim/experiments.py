"""Experiment sweeps over antenna grids, positions, and seeds.

Five canned table layouts mirror the headline result families:

1. classifier error rates over an (n_t, n_r) grid,
2. replay-attack success over (n_t, n_r, n_a),
3. generator-attack success over (n_t, n_r, n_a),
4. generator-attack success versus the adversary's training position,
5. generator-attack success when the adversary moves after training.

A sweep is one list of cells. A cell has a tag, a scenario, and the
training tag whose classifier (and GAN generator) it is scored with.
Tables 1-3 and custom sweeps hold one cell per (n_t, n_r, n_a), table 4 one
per A_T training position, each trained under its own tag; table 5 holds
one per attack-time position, all sharing the classifier and generator
trained once per seed under `trained_at_base`. Every cell runs the sweep's
attack, which tables 1-5 fix (`TABLE_ATTACKS`).

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
order, and the parent then saves models and traces and scores the cells in
row order; outputs are the same whichever process trained what. The
process count (`sweep_processes`) is the usable cores over the BLAS threads
each process runs (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, else one
per core); below two processes, or with one job, every job runs inline.
The pool's workers alone fill the cores, and the parent runs job 0 beside
them, so a sweep with more jobs than processes runs processes + 1 busy
processes until job 0 ends (3 on a 2-core host at one BLAS thread). That
is kept on purpose: job 0 hides the workers' start (0.13-0.23 s of
interpreter, numpy and spoofsim imports), which a two-job sweep such as
one table-3 cell would otherwise wait for. Workers are spawned,
and spawning re-imports the main module: a script that calls
`run_experiment` (or `run_jobs`) at import time needs an
`if __name__ == "__main__":` guard, and a main program read from standard
input (`python -`) cannot be re-imported, so its pooled sweeps fail.
"""

from __future__ import annotations

import atexit
import csv
import json
import os
import subprocess
import time
import zlib
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .attacks import (run_gan_attack, run_random_attack, run_replay_attack,
                      train_spoofer)
from .authenticator import (Authenticator, ClassifierMetrics, build_phasor_dataset,
                            classify, evaluate, train_classifier)
from .gan import GanConfig, TrainingTrace, save_trace_csv
from .nn import DenseNetwork, TrainConfig, save_model
from .scenario import ScenarioConfig, substream


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range experiment configuration."""


TABLES = ("1", "2", "3", "4", "5", "custom")
ATTACKS = ("none", "random", "replay", "gan")
# The attack each canned table runs; a custom sweep runs the configured one.
TABLE_ATTACKS = {"1": "none", "2": "replay", "3": "gan", "4": "gan", "5": "gan"}

# Node pairs that share a link, as ScenarioConfig position fields: their
# positions must differ (`link_mean_gain` needs a distance above zero).
LINKED_NODES = (("t_pos", "r_pos"), ("t_pos", "ar_pos"), ("t_pos", "at_pos"),
                ("at_pos", "r_pos"), ("at_pos", "ar_pos"))

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
    classifier: TrainConfig = field(default_factory=TrainConfig)
    gan: GanConfig = field(default_factory=GanConfig)
    gan_retries: int = 3

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
        for a, b in LINKED_NODES:
            if getattr(self.base, a) == getattr(self.base, b):
                raise ConfigError(f"scenario.{a} and scenario.{b} share a link but coincide "
                                  f"at {getattr(self.base, a)}")
        # Each entry stands in for A_T, so it links to T, R and A_R.
        for pos in self.at_positions:
            for b in ("t_pos", "r_pos", "ar_pos"):
                if tuple(pos) == getattr(self.base, b):
                    raise ConfigError(f"at_positions entry {pos} stands in for A_T but "
                                      f"coincides with scenario.{b}")
        if self.n_train < 2 or self.n_test < 2:
            raise ConfigError("dataset sizes must be >= 2")
        if self.gan_retries < 0:
            raise ConfigError("gan retries must be >= 0")


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


# ---------------------------------------------------------------------------
# config file / flag parsing

_TABLE_GRID_DEFAULTS = {
    "1": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1,)),
    "2": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1, 2, 3, 4)),
    "3": dict(n_t_grid=(1, 2, 3, 4), n_r_grid=(1, 2, 3, 4), n_a_grid=(1, 2, 3, 4)),
    "4": dict(at_positions=((0.0, 5.0), (0.0, 10.0), (0.0, 15.0), (0.0, 20.0))),
    "5": dict(at_positions=((0.0, 10.0), (0.0, 11.0), (0.0, 15.0), (0.0, 20.0))),
}


def _parse_int_list(text):
    items = [t for t in text.replace(" ", "").split(",") if t]
    if not items:
        raise ConfigError("empty list")
    return tuple(int(t) for t in items)


def _parse_position(text):
    parts = [t for t in text.replace(" ", "").split(",") if t]
    if len(parts) != 2:
        raise ConfigError(f"position needs two coordinates, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_positions(text):
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise ConfigError("empty position list")
    return tuple(_parse_position(c) for c in chunks)


# key -> (target, field, parser); targets name sub-configs of ExperimentSpec
_KEYS = {
    "table": ("spec", "table", str.strip),
    "seeds": ("spec", "seeds", _parse_int_list),
    "trials": ("spec", "n_trials", int),
    "out": ("spec", "out_dir", str.strip),
    "attack": ("spec", "attack", str.strip),
    "n_t": ("spec", "n_t_grid", _parse_int_list),
    "n_r": ("spec", "n_r_grid", _parse_int_list),
    "n_a": ("spec", "n_a_grid", _parse_int_list),
    "at_positions": ("spec", "at_positions", _parse_positions),
    "scenario.t_pos": ("scenario", "t_pos", _parse_position),
    "scenario.r_pos": ("scenario", "r_pos", _parse_position),
    "scenario.at_pos": ("scenario", "at_pos", _parse_position),
    "scenario.ar_pos": ("scenario", "ar_pos", _parse_position),
    "scenario.power": ("scenario", "power", float),
    "scenario.samples_per_symbol": ("scenario", "samples_per_symbol", int),
    "dataset.n_train": ("spec", "n_train", int),
    "dataset.n_test": ("spec", "n_test", int),
    "classifier.learning_rate": ("classifier", "learning_rate", float),
    "classifier.batch_size": ("classifier", "batch_size", int),
    "classifier.train_steps": ("classifier", "train_steps", int),
    "gan.noise_dim": ("gan", "noise_dim", int),
    "gan.hidden_width": ("gan", "hidden_width", int),
    "gan.hidden_depth": ("gan", "hidden_depth", int),
    "gan.real_pool": ("gan", "real_pool", int),
    "gan.synth_per_epoch": ("gan", "synth_per_epoch", int),
    "gan.batch_size": ("gan", "batch_size", int),
    "gan.max_epochs": ("gan", "max_epochs", int),
    "gan.conv_window": ("gan", "conv_window", int),
    "gan.conv_threshold": ("gan", "conv_threshold", float),
    "gan.power_budget": ("gan", "power_budget", float),
    "gan.retries": ("spec", "gan_retries", int),
}


def _read_config_file(path):
    values, lines = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
        values[key], lines[key] = value, lineno
    return values


def parse_config(path=None, overrides=None) -> ExperimentSpec:
    """Build an ExperimentSpec from a key=value file plus override flags.

    Overrides win over file entries; table presets fill grid/position
    defaults for keys the user did not set. Unknown keys, keys the file
    sets twice, out-of-range values and keys no cell reads (`gan.*` off a
    gan sweep, `trials` on one with no attack) raise ConfigError naming
    the offending key.
    """
    values = _read_config_file(path) if path else {}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    parsed = {}
    for key, raw in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        target, fieldname, parser = _KEYS[key]
        try:
            parsed[(target, fieldname)] = parser(str(raw))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc

    table = parsed.get(("spec", "table"), "custom")
    spec_kwargs = {f: v for (t, f), v in parsed.items() if t == "spec"}
    spec_kwargs.pop("table", None)
    for fieldname, value in _TABLE_GRID_DEFAULTS.get(table, {}).items():
        spec_kwargs.setdefault(fieldname, value)

    # A sub-config's range errors start with the field name, so the section
    # prefix turns them into the offending key.
    configs = {}
    for target, config_cls in (("scenario", ScenarioConfig), ("classifier", TrainConfig),
                               ("gan", GanConfig)):
        try:
            configs[target] = config_cls(**{f: v for (t, f), v in parsed.items()
                                            if t == target})
        except ValueError as exc:
            raise ConfigError(f"{target}.{exc}") from exc
    spec = ExperimentSpec(table=table, base=configs["scenario"],
                          classifier=configs["classifier"], gan=configs["gan"],
                          **spec_kwargs)
    unread = next((key for key in values if key.startswith("gan.") and spec.attack != "gan"
                   or key == "trials" and spec.attack == "none"), None)
    if unread:
        raise ConfigError(f"{unread} is not read by a sweep whose attack is {spec.attack!r}")
    return spec


# ---------------------------------------------------------------------------
# sweep execution

def _cell_rngs(seed, table, cell_tag):
    cid = zlib.crc32(f"{table}|{cell_tag}".encode())
    scen_seed = int(np.random.SeedSequence([seed & ((1 << 63) - 1), cid])
                    .generate_state(1)[0])
    return (scen_seed,
            substream(seed, cid, 1),   # datasets
            substream(seed, cid, 2),   # adversarial training
            substream(seed, cid, 3))   # attack trials


# Errors a cell may raise on legitimate input; anything else propagates.
CELL_ERRORS = (ValueError, FloatingPointError)


class Cell(NamedTuple):
    """A sweep cell: scored under `tag` with the models trained under `trained_at`."""

    tag: str
    scenario: ScenarioConfig
    trained_at: str


def _cells(spec):
    """The sweep's cells, in row order; cells sharing a training tag are adjacent."""
    cells = []
    # Tables 4 and 5 hold one geometry (ExperimentSpec checks), so their tags stay unique.
    for n_t, n_r, n_a in product(spec.n_t_grid, spec.n_r_grid, spec.n_a_grid):
        geometry = replace(spec.base, n_t=n_t, n_r=n_r, n_a=n_a)
        if spec.table == "4":
            cells += [Cell(f"at{x}_{y}", replace(geometry, at_pos=(x, y)), f"at{x}_{y}")
                      for x, y in spec.at_positions]
        elif spec.table == "5":
            cells += [Cell(f"attack_from_{x}_{y}", replace(geometry, attack_time_at_pos=(x, y)),
                           "trained_at_base")
                      for x, y in spec.at_positions]
        else:
            tag = f"nt{n_t}_nr{n_r}_na{n_a}"
            cells.append(Cell(tag, geometry, tag))
    return cells


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
    job 0 here rather than in the pool hides the workers' start, which a
    two-job call would otherwise wait for. `job` must be a module-level
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


def _jobs(spec, cells):
    """The sweep's training jobs as `_train_job` arguments: per training tag
    and seed, a GAN job in a GAN sweep, then a classifier job. GAN jobs run
    longest, so they come first. A tag's jobs train on its first cell, since
    training never reads the attack-time position, the only field in which
    cells sharing a tag differ."""
    first_cells = {}
    for cell in cells:
        first_cells.setdefault(cell.trained_at, cell)
    kinds = ("gan", "classifier") if spec.attack == "gan" else ("classifier",)
    return [(spec, kind, cell, seed)
            for kind in kinds for cell in first_cells.values() for seed in spec.seeds]


def _train_job(spec, kind, cell, seed):
    """One training job, in a worker or inline: the classifier of the cell's
    training tag with its test metrics, or its GAN generator and trace. A
    CELL_ERRORS exception is returned, not raised, so that the parent
    records it in row order; any other propagates."""
    scen_seed, data_rng, gan_rng, _ = _cell_rngs(seed, spec.table, cell.trained_at)
    scenario = replace(cell.scenario, seed=scen_seed)
    try:
        if kind == "gan":
            return train_spoofer(scenario, spec.gan, gan_rng, spec.gan_retries)
        train_set = build_phasor_dataset(scenario, spec.n_train, 0.5, data_rng)
        test_set = build_phasor_dataset(scenario, spec.n_test, 0.5, data_rng)
        clf = train_classifier(train_set, replace(spec.classifier, seed=scen_seed & 0x7FFFFFFF))
        return clf, evaluate(clf, test_set)
    except CELL_ERRORS as exc:
        return exc.with_traceback(None)  # whose frames would hold the datasets


class _Trained(NamedTuple):
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
        return _Trained(clf, metrics)
    gan = jobs_done.pop(("gan", tag, seed))
    if isinstance(gan, BaseException):
        raise gan
    generator, trace = gan
    save_model(generator, _output_path(out_dir, spec, tag, seed, "generator.bin"))
    save_trace_csv(trace, _output_path(out_dir, spec, tag, seed, "trace.csv"))
    return _Trained(clf, metrics, generator, trace)


def _score(spec, cell, seed, trained, version):
    """The cell's row for one seed: the trained classifier's error rates plus
    the sweep's attack, drawn from the cell's own attack stream."""
    scenario = replace(cell.scenario, seed=_cell_rngs(seed, spec.table, cell.trained_at)[0])
    row = {
        "table": spec.table, "seed": seed,
        "n_t": scenario.n_t, "n_r": scenario.n_r, "n_a": scenario.n_a,
        "t_x": scenario.t_pos[0], "t_y": scenario.t_pos[1],
        "r_x": scenario.r_pos[0], "r_y": scenario.r_pos[1],
        "at_x": scenario.at_pos[0], "at_y": scenario.at_pos[1],
        "ar_x": scenario.ar_pos[0], "ar_y": scenario.ar_pos[1],
        "attack_at_x": scenario.attack_position[0],
        "attack_at_y": scenario.attack_position[1],
        "p": scenario.power, "s": scenario.samples_per_symbol,
        "n_trials": "", "attack": "", "e_md": trained.metrics.e_md,
        "e_fa": trained.metrics.e_fa, "success_prob": "", "gan_epochs": "",
        "gan_converged": "", "version": version,
    }
    if spec.attack == "none":
        return row
    attack_rng = _cell_rngs(seed, spec.table, cell.tag)[3]
    if spec.attack == "gan":
        report = run_gan_attack(trained.clf, trained.generator, scenario, spec.n_trials,
                                attack_rng, spec.gan.power_budget)
        row.update(gan_epochs=trained.trace.epochs_run, gan_converged=trained.trace.converged)
    else:
        runner = {"random": run_random_attack, "replay": run_replay_attack}[spec.attack]
        report = runner(trained.clf, scenario, spec.n_trials, attack_rng)
    row.update(attack=spec.attack, n_trials=report.n_trials,
               success_prob=report.success_prob)
    return row


def _mean_row(cell_rows):
    """The cell's seed-mean row: its seed rows' rates averaged."""
    mean = dict(cell_rows[0], seed="mean", gan_epochs="", gan_converged="")
    for col in ("e_md", "e_fa", "success_prob"):
        if mean[col] != "":
            mean[col] = sum(row[col] for row in cell_rows) / len(cell_rows)
    return mean


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a sweep and write its CSV table plus JSON summary.

    Runs the sweep's training jobs (see the module docstring) through
    `run_jobs`: on min(processes, jobs - 1) spawned workers beside this
    process, where `sweep_processes` gives the processes, or inline when
    that is below two or there is one job. Spawning re-imports the main
    module, so a script calling this at import time needs an
    `if __name__ == "__main__":` guard. Then, cell by cell in row order,
    saves the models of the cell's training tag where an earlier cell did
    not, and scores the cell for each seed. A failed job is recorded once
    per (training tag, seed), where its first cell is scored."""
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], []
    version = build_version()
    cells = _cells(spec)
    jobs = _jobs(spec, cells)
    jobs_done = {(kind, cell.trained_at, seed): result
                 for (_, kind, cell, seed), result in zip(jobs, run_jobs(_train_job, jobs))}

    trained_at, trained = None, {}
    for cell in cells:
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
                cell_rows.append(_score(spec, cell, seed, trained[seed], version))
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


# Fewest decisions benchmark_latency times (a tenth of them are warm-up).
MIN_REPEATS = 100


class Latency(NamedTuple):
    """Wall time per decision of `benchmark_latency`, in microseconds, over
    its n_timed timed decisions."""

    mean_us: float
    p50_us: float
    p99_us: float
    n_timed: int


def benchmark_latency(classifier: Authenticator, n_repeats) -> Latency:
    """Wall time in microseconds to authenticate one raw burst, front end
    plus network, from a raw feature row to a decision: mean, median and
    99th percentile over the decisions, each timed on its own.

    Runs `n_repeats` decisions on one random raw row, the same row on every
    call (drawn from `default_rng(0)`), and discards the first tenth as
    warm-up. A hundredth of the timed decisions lie beyond p99, so it reads
    a tail from about 1000 timed decisions up.
    """
    if n_repeats < MIN_REPEATS:
        raise ValueError(f"n_repeats must be >= {MIN_REPEATS}")
    width = classifier.net.layer_sizes[0] * classifier.samples_per_symbol
    x = np.random.default_rng(0).standard_normal(width)
    seconds = np.empty(n_repeats)
    for i in range(n_repeats):
        start = time.perf_counter()
        classify(classifier, x)
        seconds[i] = time.perf_counter() - start
    micros = seconds[n_repeats // 10:] * 1e6
    p50, p99 = np.percentile(micros, [50, 99])
    return Latency(float(micros.mean()), float(p50), float(p99), micros.size)
