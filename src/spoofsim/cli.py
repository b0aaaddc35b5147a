"""Command-line front end: table sweeps and latency benchmarks. A sweep with
`attack = gan` trains the GAN of each geometry and saves its generator.

Exit codes: 0 full success, 1 configuration errors, 2 partial cell failures.
"""

from __future__ import annotations

import argparse
import sys

from .authenticator import Authenticator
from .experiments import (MIN_REPEATS, ConfigError, benchmark_latency,
                          parse_config, run_experiment)
from .nn import load_model
from .waveform import SYMBOLS_PER_BURST


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spoofsim",
        description="Wireless spoofing experiments: train the defender's "
                    "authenticator, mount random/replay/GAN attacks, sweep "
                    "antenna grids and topologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a table sweep")
    run.add_argument("--table", choices=["1", "2", "3", "4", "5", "custom"])
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
    spec = parse_config(args.config, overrides)
    result = run_experiment(spec)
    print(f"wrote {result.csv_path} ({len(result.rows)} rows) and {result.json_path}")
    if result.failures:
        for failure in result.failures:
            print(f"cell {failure['cell']} seed {failure['seed']} failed: "
                  f"{failure['error']}", file=sys.stderr)
        return 2
    return 0


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
    n_r, rest = divmod(net.layer_sizes[0], 2 * SYMBOLS_PER_BURST)
    if rest or n_r < 1:
        raise ConfigError(
            f"{args.model}: input width {net.layer_sizes[0]} is not "
            f"{2 * SYMBOLS_PER_BURST} x antennas, so not a classifier's")
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
