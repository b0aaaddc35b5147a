"""Experiment sweeps over antenna grids, positions, and seeds.

Five canned table layouts mirror the headline result families:

1. classifier error rates over an (n_t, n_r) grid,
2. replay-attack success over (n_t, n_r, n_a),
3. generator-attack success over (n_t, n_r, n_a),
4. generator-attack success versus the adversary's training position,
5. generator-attack success when the adversary moves after training.

Every emitted row carries the seed, the full scenario, and the build
version (read once per sweep); a master seed plus a per-cell counter split
keeps grid cells independent and order-insensitive. Cells that fail on bad
values (ValueError, including ConfigError, or FloatingPointError) are
recorded and skipped; any other exception is a programming error and
aborts the sweep.
"""

from __future__ import annotations

import csv
import json
import subprocess
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import (run_gan_attack, run_random_attack, run_replay_attack,
                      train_spoofer)
from .authenticator import (Authenticator, build_phasor_dataset, classify, evaluate,
                            train_classifier)
from .gan import GanConfig, save_trace_csv, trace_summary
from .nn import TrainConfig, save_model
from .scenario import ScenarioConfig, substream


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range experiment configuration."""


TABLES = ("1", "2", "3", "4", "5", "custom")
ATTACKS = ("none", "random", "replay", "gan")

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
    attack: str = "none"
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_train: int = 1000
    n_test: int = 1000
    positive_fraction: float = 0.5
    classifier: TrainConfig = field(default_factory=TrainConfig)
    gan: GanConfig = field(default_factory=GanConfig)
    gan_retries: int = 3
    save_models: bool = True

    def __post_init__(self):
        if self.table not in TABLES:
            raise ConfigError(f"table must be one of {TABLES}, got {self.table!r}")
        if self.attack not in ATTACKS:
            raise ConfigError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.n_trials < 1:
            raise ConfigError("trials must be >= 1")
        for name in ("n_t_grid", "n_r_grid", "n_a_grid"):
            grid = getattr(self, name)
            if not grid or any(v < 1 for v in grid):
                raise ConfigError(f"{name} must be a non-empty list of positive ints")
        if self.table in ("4", "5") and not self.at_positions:
            raise ConfigError(f"table {self.table} needs at_positions")
        if self.n_train < 2 or self.n_test < 2:
            raise ConfigError("dataset sizes must be >= 2")
        if not (0.0 < self.positive_fraction < 1.0):
            raise ConfigError("positive_fraction must lie in (0, 1)")
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


def _parse_int(text):
    return int(text)


def _parse_float(text):
    return float(text)


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


def _parse_str(text):
    return text.strip()


def _parse_bool(text):
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> (target, field, parser); targets name sub-configs of ExperimentSpec
_KEYS = {
    "table": ("spec", "table", _parse_str),
    "seeds": ("spec", "seeds", _parse_int_list),
    "trials": ("spec", "n_trials", _parse_int),
    "out": ("spec", "out_dir", _parse_str),
    "attack": ("spec", "attack", _parse_str),
    "n_t": ("spec", "n_t_grid", _parse_int_list),
    "n_r": ("spec", "n_r_grid", _parse_int_list),
    "n_a": ("spec", "n_a_grid", _parse_int_list),
    "at_positions": ("spec", "at_positions", _parse_positions),
    "save_models": ("spec", "save_models", _parse_bool),
    "scenario.t_pos": ("scenario", "t_pos", _parse_position),
    "scenario.r_pos": ("scenario", "r_pos", _parse_position),
    "scenario.at_pos": ("scenario", "at_pos", _parse_position),
    "scenario.ar_pos": ("scenario", "ar_pos", _parse_position),
    "scenario.power": ("scenario", "power", _parse_float),
    "scenario.samples_per_symbol": ("scenario", "samples_per_symbol", _parse_int),
    "dataset.n_train": ("spec", "n_train", _parse_int),
    "dataset.n_test": ("spec", "n_test", _parse_int),
    "dataset.positive_fraction": ("spec", "positive_fraction", _parse_float),
    "classifier.learning_rate": ("classifier", "learning_rate", _parse_float),
    "classifier.batch_size": ("classifier", "batch_size", _parse_int),
    "classifier.train_steps": ("classifier", "train_steps", _parse_int),
    "gan.noise_dim": ("gan", "noise_dim", _parse_int),
    "gan.hidden_width": ("gan", "hidden_width", _parse_int),
    "gan.hidden_depth": ("gan", "hidden_depth", _parse_int),
    "gan.real_pool": ("gan", "real_pool", _parse_int),
    "gan.synth_per_epoch": ("gan", "synth_per_epoch", _parse_int),
    "gan.batch_size": ("gan", "batch_size", _parse_int),
    "gan.max_epochs": ("gan", "max_epochs", _parse_int),
    "gan.conv_window": ("gan", "conv_window", _parse_int),
    "gan.conv_threshold": ("gan", "conv_threshold", _parse_float),
    "gan.power_budget": ("gan", "power_budget", _parse_float),
    "gan.retries": ("spec", "gan_retries", _parse_int),
}


def _read_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_config(path=None, overrides=None) -> ExperimentSpec:
    """Build an ExperimentSpec from a key=value file plus override flags.

    Overrides win over file entries; table presets fill grid/position
    defaults for keys the user did not set. Unknown keys and out-of-range
    values raise ConfigError naming the offending key.
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
    if table not in TABLES:
        raise ConfigError(f"table must be one of {TABLES}, got {table!r}")

    spec_kwargs = {f: v for (t, f), v in parsed.items() if t == "spec"}
    spec_kwargs.pop("table", None)
    for fieldname, value in _TABLE_GRID_DEFAULTS.get(table, {}).items():
        spec_kwargs.setdefault(fieldname, value)
    if table == "2":
        spec_kwargs.setdefault("attack", "replay")
    elif table in ("3", "4", "5"):
        spec_kwargs.setdefault("attack", "gan")

    scenario_kwargs = {f: v for (t, f), v in parsed.items() if t == "scenario"}
    classifier_kwargs = {f: v for (t, f), v in parsed.items() if t == "classifier"}
    gan_kwargs = {f: v for (t, f), v in parsed.items() if t == "gan"}
    try:
        return ExperimentSpec(
            table=table,
            base=ScenarioConfig(**scenario_kwargs),
            classifier=TrainConfig(**classifier_kwargs),
            gan=GanConfig(**gan_kwargs),
            **spec_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# sweep execution

def _cell_seed_words(master_seed, table, cell_tag):
    return zlib.crc32(f"{table}|{cell_tag}".encode())


def _cell_rngs(master_seed, table, cell_tag):
    cid = _cell_seed_words(master_seed, table, cell_tag)
    scen_seed = int(np.random.SeedSequence([master_seed & ((1 << 63) - 1), cid])
                    .generate_state(1)[0])
    return (scen_seed,
            substream(master_seed, cid, 1),   # datasets
            substream(master_seed, cid, 2),   # adversarial training
            substream(master_seed, cid, 3))   # attack trials


# Errors a cell may raise on legitimate input; anything else propagates.
CELL_ERRORS = (ValueError, FloatingPointError)


def _blank_row(spec, scenario, seed, version):
    return {
        "table": spec.table, "seed": seed,
        "n_t": scenario.n_t, "n_r": scenario.n_r, "n_a": scenario.n_a,
        "t_x": scenario.t_pos[0], "t_y": scenario.t_pos[1],
        "r_x": scenario.r_pos[0], "r_y": scenario.r_pos[1],
        "at_x": scenario.at_pos[0], "at_y": scenario.at_pos[1],
        "ar_x": scenario.ar_pos[0], "ar_y": scenario.ar_pos[1],
        "attack_at_x": scenario.attack_position[0],
        "attack_at_y": scenario.attack_position[1],
        "p": scenario.power, "s": scenario.samples_per_symbol,
        "n_trials": "", "attack": "", "e_md": "", "e_fa": "",
        "success_prob": "", "gan_epochs": "", "gan_converged": "",
        "version": version,
    }


def _mean_rows(rows):
    """Seed-averaged companion rows, grouped by everything except the seed."""
    groups = {}
    for row in rows:
        key = tuple(row[c] for c in CSV_COLUMNS if c not in ("seed", "version",
                                                             "gan_epochs", "gan_converged"))
        groups.setdefault(key, []).append(row)
    means = []
    for bucket in groups.values():
        mean = dict(bucket[0])
        mean["seed"] = "mean"
        for col in ("e_md", "e_fa", "success_prob"):
            vals = [r[col] for r in bucket if r[col] != ""]
            mean[col] = sum(vals) / len(vals) if vals else ""
        mean["gan_epochs"] = ""
        mean["gan_converged"] = ""
        means.append(mean)
    return means


def _train_cell_classifier(spec, scenario, data_rng, clf_seed):
    train_set = build_phasor_dataset(scenario, spec.n_train, spec.positive_fraction, data_rng)
    test_set = build_phasor_dataset(scenario, spec.n_test, spec.positive_fraction, data_rng)
    clf_cfg = replace(spec.classifier, seed=clf_seed)
    clf = train_classifier(train_set, clf_cfg)
    return clf, evaluate(clf, test_set)


def _model_path(out_dir, spec, tag, seed, what):
    models = Path(out_dir) / "models"
    models.mkdir(parents=True, exist_ok=True)
    return models / f"t{spec.table}_{tag}_seed{seed}_{what}.bin"


def _run_attack_cell(spec, scenario, tag, seed, attack, out_dir, version, clf=None,
                     metrics=None, generator=None, gan_summary=None):
    scen_seed, data_rng, gan_rng, attack_rng = _cell_rngs(seed, spec.table, tag)
    if clf is None:
        scenario = replace(scenario, seed=scen_seed)
        clf, metrics = _train_cell_classifier(spec, scenario, data_rng, scen_seed & 0x7FFFFFFF)
        if spec.save_models:
            save_model(clf.net, _model_path(out_dir, spec, tag, seed, "classifier"))
    row = _blank_row(spec, scenario, seed, version)
    row.update(e_md=metrics.e_md, e_fa=metrics.e_fa)
    if attack == "none":
        return row, scenario, clf, metrics, generator, gan_summary
    if attack == "gan" and generator is None:
        generator, _, trace = train_spoofer(scenario, spec.gan, gan_rng, spec.gan_retries)
        gan_summary = trace_summary(trace)
        if spec.save_models:
            save_model(generator, _model_path(out_dir, spec, tag, seed, "generator"))
            save_trace_csv(trace, Path(out_dir) / "models" /
                           f"t{spec.table}_{tag}_seed{seed}_trace.csv")
    runners = {"random": run_random_attack, "replay": run_replay_attack}
    if attack == "gan":
        report = run_gan_attack(clf, generator, scenario, spec.n_trials, attack_rng,
                                metrics, gan_summary, spec.gan.power_budget)
        row.update(gan_epochs=gan_summary["epochs_run"],
                   gan_converged=gan_summary["converged"])
    else:
        report = runners[attack](clf, scenario, spec.n_trials, attack_rng, metrics)
    row.update(attack=attack, n_trials=report.n_trials,
               success_prob=report.success_prob)
    return row, scenario, clf, metrics, generator, gan_summary


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a sweep and write its CSV table plus JSON summary."""
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], []
    version = build_version()

    if spec.table in ("1", "2", "3", "custom"):
        attack = {"1": "none", "2": "replay", "3": "gan"}.get(spec.table, spec.attack)
        for n_t in spec.n_t_grid:
            for n_r in spec.n_r_grid:
                for n_a in spec.n_a_grid:
                    cell_rows = []
                    tag = f"nt{n_t}_nr{n_r}_na{n_a}"
                    for seed in spec.seeds:
                        scenario = replace(spec.base, n_t=n_t, n_r=n_r, n_a=n_a)
                        try:
                            row, *_ = _run_attack_cell(spec, scenario, tag, seed,
                                                       attack, out_dir, version)
                            cell_rows.append(row)
                        except CELL_ERRORS as exc:
                            failures.append({"cell": tag, "seed": seed, "error": str(exc)})
                    rows.extend(cell_rows + _mean_rows(cell_rows))
    elif spec.table == "4":
        for pos in spec.at_positions:
            cell_rows = []
            tag = f"at{pos[0]}_{pos[1]}"
            for seed in spec.seeds:
                scenario = replace(spec.base, at_pos=pos)
                try:
                    row, *_ = _run_attack_cell(spec, scenario, tag, seed, "gan", out_dir,
                                               version)
                    cell_rows.append(row)
                except CELL_ERRORS as exc:
                    failures.append({"cell": tag, "seed": seed, "error": str(exc)})
            rows.extend(cell_rows + _mean_rows(cell_rows))
    else:  # table 5: train once per seed at the base position, attack from each
        trained = {}
        base_tag = "trained_at_base"
        for seed in spec.seeds:
            scenario = replace(spec.base)
            try:
                trained[seed] = _run_attack_cell(spec, scenario, base_tag, seed,
                                                 "none", out_dir, version)
                scen = trained[seed][1]
                _, _, gen_rng, _ = _cell_rngs(seed, spec.table, base_tag)
                generator, _, trace = train_spoofer(scen, spec.gan, gen_rng,
                                                    spec.gan_retries)
                trained[seed] = trained[seed][:4] + (generator, trace_summary(trace))
                if spec.save_models:
                    save_model(generator, _model_path(out_dir, spec, base_tag, seed,
                                                      "generator"))
            except CELL_ERRORS as exc:
                failures.append({"cell": base_tag, "seed": seed, "error": str(exc)})
                trained[seed] = None
        for pos in spec.at_positions:
            cell_rows = []
            tag = f"attack_from_{pos[0]}_{pos[1]}"
            for seed in spec.seeds:
                if trained.get(seed) is None:
                    continue
                _, scen, clf, metrics, generator, gan_summary = trained[seed]
                moved = replace(scen, attack_time_at_pos=pos)
                try:
                    _, _, _, attack_rng = _cell_rngs(seed, spec.table, tag)
                    report = run_gan_attack(clf, generator, moved, spec.n_trials,
                                            attack_rng, metrics, gan_summary,
                                            spec.gan.power_budget)
                    row = _blank_row(spec, moved, seed, version)
                    row.update(attack="gan", n_trials=report.n_trials,
                               e_md=metrics.e_md, e_fa=metrics.e_fa,
                               success_prob=report.success_prob,
                               gan_epochs=gan_summary["epochs_run"],
                               gan_converged=gan_summary["converged"])
                    cell_rows.append(row)
                except CELL_ERRORS as exc:
                    failures.append({"cell": tag, "seed": seed, "error": str(exc)})
            rows.extend(cell_rows + _mean_rows(cell_rows))

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


def benchmark_latency(classifier: Authenticator, n_repeats=1000, rng=None) -> float:
    """Mean wall time in microseconds to authenticate one raw burst: front
    end plus network, from a raw feature row to a decision.

    Runs `n_repeats` decisions on one random raw row and discards the first
    tenth as warm-up.
    """
    if n_repeats < MIN_REPEATS:
        raise ValueError(f"n_repeats must be >= {MIN_REPEATS}")
    if rng is None:
        rng = np.random.default_rng(0)
    x = rng.standard_normal(classifier.net.layer_sizes[0] * classifier.samples_per_symbol)
    warmup = n_repeats // 10
    start_timed = None
    t0 = time.perf_counter()
    for i in range(n_repeats):
        if i == warmup:
            start_timed = time.perf_counter()
        classify(classifier, x)
    end = time.perf_counter()
    if start_timed is None:
        start_timed = t0
    return (end - start_timed) / (n_repeats - warmup) * 1e6
