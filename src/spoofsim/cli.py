"""Command-line front end: `run` builds a sweep's `ExperimentSpec` from a
key = value file plus flags (`parse_config`) and runs it; `bench` times a
saved classifier (`benchmark_latency`). A sweep with `attack = gan` trains
the GAN of each geometry and saves its generator. The classifier's one key
is `classifier.train_steps`: its batch (`authenticator.CLASSIFIER_BATCH`)
and Adam's learning rate (`nn.ADAM_LEARNING_RATE`) are constants.

Exit codes: 0 full success, 1 configuration errors, 2 partial cell failures.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .authenticator import Authenticator, classify
from .experiments import (TABLE_GRID_DEFAULTS, TABLES, ConfigError, ExperimentSpec,
                          run_experiment)
from .gan import GanConfig
from .nn import load_model
from .scenario import ScenarioConfig
from .waveform import phasor_width


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


def _parse_out_dir(text):
    text = text.strip()
    if not text:
        raise ConfigError("empty, which would write into the working directory")
    return text


def _parse_retries(text):
    # Kept so that configs written for zero retries still parse.
    if int(text) != 0:
        raise ConfigError("retries were removed (a GAN trains once); only 0 is accepted")
    return 0


# key -> (target, field, parser); target "spec" sets an ExperimentSpec field,
# "scenario" and "gan" a field of its sub-config (None: the key sets nothing)
_KEYS = {
    "table": ("spec", "table", str.strip),
    "seeds": ("spec", "seeds", _parse_int_list),
    "trials": ("spec", "n_trials", int),
    "out": ("spec", "out_dir", _parse_out_dir),
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
    "classifier.train_steps": ("spec", "classifier_steps", int),
    "gan.noise_dim": ("gan", "noise_dim", int),
    "gan.hidden_width": ("gan", "hidden_width", int),
    "gan.hidden_depth": ("gan", "hidden_depth", int),
    "gan.real_pool": ("gan", "real_pool", int),
    "gan.synth_per_epoch": ("gan", "synth_per_epoch", int),
    "gan.batch_size": ("gan", "batch_size", int),
    "gan.max_epochs": ("gan", "max_epochs", int),
    "gan.conv_window": ("gan", "conv_window", int),
    "gan.power_budget": ("gan", "power_budget", float),
    "gan.retries": (None, None, _parse_retries),
}


def _read_config_file(path):
    values, lines = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        # A `#` opens a comment at the line's start or after whitespace only.
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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
    for fieldname, value in TABLE_GRID_DEFAULTS.get(table, {}).items():
        spec_kwargs.setdefault(fieldname, value)

    # A sub-config's range errors start with the field name, so the section
    # prefix turns them into the offending key.
    configs = {}
    for target, config_cls in (("scenario", ScenarioConfig), ("gan", GanConfig)):
        try:
            configs[target] = config_cls(**{f: v for (t, f), v in parsed.items()
                                            if t == target})
        except ValueError as exc:
            raise ConfigError(f"{target}.{exc}") from exc
    spec = ExperimentSpec(table=table, base=configs["scenario"], gan=configs["gan"],
                          **spec_kwargs)
    unread = next((key for key in values if key.startswith("gan.") and spec.attack != "gan"
                   or key == "trials" and spec.attack == "none"), None)
    if unread:
        raise ConfigError(f"{unread} is not read by a sweep whose attack is {spec.attack!r}")
    return spec


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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spoofsim",
        description="Wireless spoofing experiments: train the defender's "
                    "authenticator, mount random/replay/GAN attacks, sweep "
                    "antenna grids and topologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a table sweep")
    run.add_argument("--table", choices=TABLES)
    run.add_argument("--config", help="key=value config file")
    run.add_argument("--seeds", help="comma-separated seed list")
    run.add_argument("--trials", type=int, help="spoofed bursts per attack evaluation")
    run.add_argument("--out", help="output directory")

    bench = sub.add_parser("bench", help="CPU latency of one raw burst through a saved "
                                         "classifier (front end plus network)")
    bench.add_argument("--model", required=True, help="classifier model file (binary dump)")
    bench.add_argument("--repeats", type=int, default=1000,
                       help=f"timed decisions, at least {MIN_REPEATS}")
    bench.add_argument("--sps", type=int, default=100,
                       help="samples per symbol of the raw bursts (S)")
    return parser


def _cmd_run(args) -> int:
    overrides = {"table": args.table, "seeds": args.seeds, "out": args.out,
                 "trials": None if args.trials is None else str(args.trials)}
    result = run_experiment(parse_config(args.config, overrides))
    print(f"wrote {result.csv_path} ({len(result.rows)} rows) and {result.json_path}")
    for failure in result.failures:
        print(f"cell {failure['cell']} seed {failure['seed']} failed: "
              f"{failure['error']}", file=sys.stderr)
    return 2 if result.failures else 0


def _cmd_bench(args) -> int:
    if args.sps < 1:
        raise ConfigError(f"--sps must be >= 1, got {args.sps}")
    if args.repeats < MIN_REPEATS:
        raise ConfigError(f"--repeats must be >= {MIN_REPEATS}, got {args.repeats}")
    try:
        net = load_model(args.model)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A classifier reads one I/Q pair per (antenna, symbol).
    n_r, rest = divmod(net.layer_sizes[0], phasor_width(1))
    if rest or n_r < 1:
        raise ConfigError(
            f"{args.model}: input width {net.layer_sizes[0]} is not "
            f"{phasor_width(1)} x antennas, so not a classifier's")
    latency = benchmark_latency(Authenticator(net, n_r, args.sps), args.repeats)
    sizes = "x".join(str(s) for s in net.layer_sizes)
    print(f"{args.model}: {latency.mean_us:.1f} us per sample (one raw burst, n_r={n_r}, "
          f"S={args.sps}, net {sizes}, {args.repeats} repeats)")
    print(f"per decision: mean {latency.mean_us:.1f} us, p50 {latency.p50_us:.1f} us, "
          f"p99 {latency.p99_us:.1f} us ({latency.n_timed} timed after warm-up)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory where a file goes, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
