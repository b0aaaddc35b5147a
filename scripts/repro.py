"""Seed-pooled reproduction check of the paper's headline ordering.

For every seed and table-2 geometry (n_t x n_r x n_a) the script trains
the defender's classifier on paper-size datasets (1000 training and 1000
test bursts), measures its error rates, and mounts the random and replay
attacks; at 1x1x1 it also trains the GAN for a fixed number of epochs (no
early stop, no retries) and mounts the GAN attack. Counts are pooled over
seeds and reported with Wilson 95% intervals, plus a per-seed table of
the GAN cell.

    PYTHONPATH=src python3 scripts/repro.py --seeds 1,2,3,4,5,6 --trials 1000

prints one JSON document and exits 1 unless the pooled success rates at
1x1x1 order as GAN > replay > random. `--compare FILE` (a document an
earlier run printed) adds, per geometry and metric, whether the two
pooled estimates fall inside each other's intervals.

The script is not part of the test suite: at paper size it runs for
minutes per seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from spoofsim import (GanConfig, ScenarioConfig, TrainConfig, build_phasor_dataset,
                      evaluate, run_gan_attack, run_random_attack,
                      run_replay_attack, train_classifier, train_gan)
from spoofsim.scenario import substream

Z95 = 1.959963984540054
N_TRAIN = 1000
N_TEST = 1000
GAN_GEOMETRY = (1, 1, 1)


def wilson(k, n, z=Z95) -> dict:
    """Pooled rate k/n with its Wilson score interval."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return {"k": k, "n": n, "p": p, "ci": [centre - half, centre + half]}


def parse_geometries(text) -> list:
    """Comma-separated n_t x n_r x n_a cells, e.g. "1x1x1,4x4x1"."""
    geometries = []
    for cell in filter(None, (c.strip() for c in text.split(","))):
        parts = tuple(int(v) for v in cell.lower().split("x"))
        if len(parts) != 3 or min(parts) < 1:
            raise argparse.ArgumentTypeError(
                f"geometry must read n_t x n_r x n_a, got {cell!r}")
        geometries.append(parts)
    return geometries


def name_of(geometry) -> str:
    return "x".join(str(v) for v in geometry)


def run_cell(seed, geometry, args, with_gan):
    """Counts of one (seed, geometry) cell."""
    n_t, n_r, n_a = geometry
    sc = ScenarioConfig(n_t=n_t, n_r=n_r, n_a=n_a, seed=seed)
    data_rng = substream(seed, *geometry, 1)
    train = build_phasor_dataset(sc, N_TRAIN, 0.5, data_rng)
    test = build_phasor_dataset(sc, N_TEST, 0.5, data_rng)
    clf = train_classifier(train, TrainConfig(seed=seed))
    m = evaluate(clf, test)
    counts = {"e_md": (m.n_md, m.n_from_t), "e_fa": (m.n_fa, m.n - m.n_from_t)}
    for kind, attack, key in (("random", run_random_attack, 3), ("replay", run_replay_attack, 4)):
        report = attack(clf, sc, args.trials, substream(seed, *geometry, key))
        counts[kind] = (report.n_success, report.n_trials)
    if with_gan:
        # A window longer than the run disables the early stop: every seed
        # trains exactly gan_epochs epochs.
        cfg = GanConfig(max_epochs=args.gan_epochs, conv_window=args.gan_epochs + 1)
        generator, _, trace = train_gan(sc, cfg, substream(seed, *geometry, 2))
        report = run_gan_attack(clf, generator, sc, args.trials, substream(seed, *geometry, 5))
        counts["gan"] = (report.n_success, report.n_trials)
        counts["gan_epochs"] = trace.epochs_run
    return counts


def overlap(before, after) -> bool:
    """Both pooled estimates lie inside each other's intervals."""
    return (after["ci"][0] <= before["p"] <= after["ci"][1]
            and before["ci"][0] <= after["p"] <= before["ci"][1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6",
                        help="comma-separated seed list")
    parser.add_argument("--geometries", type=parse_geometries, default="1x1x1,2x2x1,4x4x1",
                        help="comma-separated n_t x n_r x n_a cells, 1x1x1 among them")
    parser.add_argument("--trials", type=int, default=1000, help="bursts per attack")
    parser.add_argument("--gan-epochs", type=int, default=200)
    parser.add_argument("--compare", help="JSON document of an earlier run")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    geometries = args.geometries
    if GAN_GEOMETRY not in geometries:
        parser.error("--geometries must include 1x1x1, the GAN cell")

    pooled, per_seed = {}, []
    for geometry in geometries:
        with_gan = geometry == GAN_GEOMETRY
        totals = {}
        for seed in seeds:
            counts = run_cell(seed, geometry, args, with_gan)
            print(f"seed {seed} {name_of(geometry)}: {counts}", file=sys.stderr)
            for metric, value in counts.items():
                if metric != "gan_epochs":
                    k, n = totals.get(metric, (0, 0))
                    totals[metric] = (k + value[0], n + value[1])
            if with_gan:
                per_seed.append({"seed": seed, "epochs": counts["gan_epochs"],
                                 **{kind: counts[kind][0] / counts[kind][1]
                                    for kind in ("gan", "replay", "random")}})
        pooled[name_of(geometry)] = {metric: wilson(k, n) for metric, (k, n) in totals.items()}

    at_gan = pooled[name_of(GAN_GEOMETRY)]
    holds = at_gan["gan"]["p"] > at_gan["replay"]["p"] > at_gan["random"]["p"]
    result = {"seeds": seeds, "trials": args.trials, "gan_epochs": args.gan_epochs,
              "pooled": pooled, "gan_per_seed": per_seed,
              "ordering": {"claim": "gan > replay > random at 1x1x1", "holds": holds}}
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())["pooled"]
        result["compare"] = {geo: {metric: overlap(earlier[geo][metric], stats)
                                   for metric, stats in metrics.items()
                                   if metric in earlier.get(geo, {})}
                             for geo, metrics in pooled.items() if geo in earlier}
    print(json.dumps(result, indent=2))
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
