"""Seed-pooled reproduction check of the paper's headline ordering.

Each (geometry, seed) job is the one cell of a custom sweep: an
`ExperimentSpec` of that n_t x n_r x n_a and seed, with paper-size datasets
(1000 training and 1000 test bursts). The job trains and scores the cell
with the sweep's own calls (`cells`, `train_job` and `score` in
`spoofsim.experiments`), so its streams are the sweep's keyed ones, and
its rates for a seed equal the row `spoofsim run` writes for that custom
cell and seed. Per cell it measures the defender's classifier error rates
and mounts the random and replay attacks. At 1x1x1 it also trains the
GAN for a fixed number of epochs (`gan.max_epochs = E`) and mounts the
GAN attack. A cell's random, replay and GAN attacks each draw from that
cell's one attack stream, as their sweeps do. Counts are pooled
over seeds and reported with Wilson 95% intervals, and every (geometry,
metric) keeps its per-seed rates.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python3 scripts/repro.py --seeds 1,2,3,4,5,6 --trials 1000

prints one JSON document and exits 1 unless the pooled success rates at
1x1x1 order as GAN > replay > random. Seeds and geometries must not
repeat. The (geometry, seed) cells are independent jobs for
`spoofsim.experiments.run_jobs`, GAN cells first, so they run on as many
processes as the usable cores allow at the BLAS thread count set (one BLAS
thread per process above uses every core); the document does not depend on
which process ran which cell.

`--compare FILE` (a document an earlier run printed, of the same seeds)
gates a change that moves results. Each seed trains its own classifier,
so the spread between seeds dominates and pooled intervals would flag
equal distributions most of the time. So per geometry and metric the gate
runs a seed-level Welch t-test on the two runs' per-seed rates, and
flags the metric when its two-sided p-value is below FLAG_P (|t| of
about 2.8). With 13 metrics a flag turns up by chance in about one gate
in sixteen (1 - 0.995^13): rerun a flagged metric on fresh seeds before
reading it as a difference. Whether the two pooled Wilson intervals hold
each other's estimates is reported as information only. The script
exits 1 when a metric is flagged.

At paper size the script runs for minutes; the test suite runs its cells
at small sizes only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from spoofsim import ExperimentSpec, GanConfig
from spoofsim.experiments import SEED_BOUND, Trained, cells, run_jobs, score, train_job

Z95 = 1.959963984540054
N_TRAIN = 1000
N_TEST = 1000
GAN_GEOMETRY = (1, 1, 1)
FLAG_P = 0.005


def wilson(k, n, z=Z95) -> dict:
    """Pooled rate k/n with its Wilson score interval."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return {"k": k, "n": n, "p": p, "ci": [centre - half, centre + half]}


def parse_seeds(text) -> list:
    """Comma-separated integer seeds, e.g. "1,2,3"."""
    seeds = []
    for entry in filter(None, (s.strip() for s in text.split(","))):
        try:
            seeds.append(int(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed must be an integer, got {entry!r}") from None
    return seeds


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


def train(spec, kind, cell, seed):
    """The models of one `train_job`, raising the cell error it returns."""
    result = train_job(spec, kind, cell, seed)
    if isinstance(result, BaseException):
        raise result
    return result


def run_cell(seed, geometry, args, with_gan):
    """Counts of one (seed, geometry) cell, trained and scored as the one
    cell of a custom sweep."""
    n_t, n_r, n_a = geometry
    spec = ExperimentSpec(seeds=(seed,), n_trials=args.trials, n_t_grid=(n_t,),
                          n_r_grid=(n_r,), n_a_grid=(n_a,), n_train=N_TRAIN, n_test=N_TEST,
                          gan=GanConfig(max_epochs=args.gan_epochs))
    (cell,) = cells(spec)
    clf, m = train(spec, "classifier", cell, seed)
    generator, trace = train(spec, "gan", cell, seed) if with_gan else (None, None)
    models = Trained(clf, m, generator, trace)
    counts = {"e_md": (m.n_md, m.n_from_t), "e_fa": (m.n_fa, m.n - m.n_from_t)}
    attacks = ("random", "replay", "gan") if with_gan else ("random", "replay")
    for attack in attacks:
        _, report = score(replace(spec, attack=attack), cell, seed, models, version="")
        counts[attack] = (report.n_success, report.n_trials)
    return counts


def overlap(before, after) -> bool:
    """Both pooled estimates lie inside each other's intervals."""
    return (after["ci"][0] <= before["p"] <= after["ci"][1]
            and before["ci"][0] <= after["p"] <= before["ci"][1])


def welch(before, after) -> dict:
    """Seed-level Welch t-test of two lists of per-seed rates. Two constant
    lists, where the test is undefined, give p = 1 when equal, else 0.
    Only `--compare` needs scipy, so it is imported here."""
    from scipy import stats

    a, b = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0:
        t, p = 0.0, float(a[0] == b[0])
    else:
        t, p = stats.ttest_ind(a, b, equal_var=False)
    return {"mean_before": float(a.mean()), "mean_after": float(b.mean()),
            "n_before": len(a), "n_after": len(b), "t": float(t), "p": float(p)}


def compare(earlier, pooled, per_seed) -> dict:
    """Per geometry and metric both runs hold: the Welch test, whether it
    flags the metric, and the pooled intervals' overlap (information)."""
    table, flagged = {}, []
    for geo, metrics in per_seed.items():
        for metric, rates in metrics.items():
            before = earlier["per_seed"].get(geo, {}).get(metric)
            if before is None:
                continue
            test = welch(before, rates)
            test["flagged"] = test["p"] < FLAG_P
            test["wilson_overlap"] = overlap(earlier["pooled"][geo][metric],
                                             pooled[geo][metric])
            table.setdefault(geo, {})[metric] = test
            if test["flagged"]:
                flagged.append(f"{geo}/{metric}")
    return {"flag_p": FLAG_P, "flagged": flagged, "metrics": table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default="1,2,3,4,5,6",
                        help="comma-separated seed list")
    parser.add_argument("--geometries", type=parse_geometries, default="1x1x1,2x2x1,4x4x1",
                        help="comma-separated n_t x n_r x n_a cells, 1x1x1 among them")
    parser.add_argument("--trials", type=int, default=1000, help="bursts per attack")
    parser.add_argument("--gan-epochs", type=int, default=200)
    parser.add_argument("--compare", help="JSON document of an earlier run")
    args = parser.parse_args(argv)
    seeds, geometries = args.seeds, args.geometries
    if not seeds:
        parser.error("--seeds must name at least one seed")
    if len(set(seeds)) != len(seeds):
        parser.error(f"--seeds must not repeat, got {seeds}")
    for seed in seeds:
        if not 0 <= seed < SEED_BOUND:
            parser.error(f"--seeds must lie in [0, 2**63), got {seed}")
    if len(set(geometries)) != len(geometries):
        parser.error("--geometries must not repeat, got "
                     + ",".join(name_of(g) for g in geometries))
    if GAN_GEOMETRY not in geometries:
        parser.error("--geometries must include 1x1x1, the GAN cell")
    for flag, value in (("--trials", args.trials), ("--gan-epochs", args.gan_epochs)):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")

    earlier = None
    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())
        if "per_seed" not in earlier or earlier.get("seeds") != seeds:
            parser.error("--compare needs a document of the same seeds with per-seed rates")

    jobs = [(seed, geometry, args, geometry == GAN_GEOMETRY)
            for geometry in sorted(geometries, key=lambda g: g != GAN_GEOMETRY)
            for seed in seeds]
    cell_counts = {(geometry, seed): counts for (seed, geometry, _, _), counts
                   in zip(jobs, run_jobs(run_cell, jobs))}
    pooled, per_seed = {}, {}
    for geometry in geometries:
        totals, rates = {}, {}
        for seed in seeds:
            counts = cell_counts[geometry, seed]
            print(f"seed {seed} {name_of(geometry)}: {counts}", file=sys.stderr)
            for metric, (k, n) in counts.items():
                k_sum, n_sum = totals.get(metric, (0, 0))
                totals[metric] = (k_sum + k, n_sum + n)
                rates.setdefault(metric, []).append(k / n)
        pooled[name_of(geometry)] = {metric: wilson(k, n) for metric, (k, n) in totals.items()}
        per_seed[name_of(geometry)] = rates

    at_gan = pooled[name_of(GAN_GEOMETRY)]
    holds = at_gan["gan"]["p"] > at_gan["replay"]["p"] > at_gan["random"]["p"]
    result = {"seeds": seeds, "trials": args.trials, "gan_epochs": args.gan_epochs,
              "pooled": pooled, "per_seed": per_seed,
              "ordering": {"claim": "gan > replay > random at 1x1x1", "holds": holds}}
    if earlier is not None:
        result["compare"] = compare(earlier, pooled, per_seed)
    print(json.dumps(result, indent=2))
    return 0 if holds and not result.get("compare", {}).get("flagged") else 1


if __name__ == "__main__":
    sys.exit(main())
