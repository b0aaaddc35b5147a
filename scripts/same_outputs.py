"""Check that two checkouts write the same outputs for one benchmark workload.

Run from anywhere; both trees need `src/spoofsim`, and the change needs
`perfbench/workloads.py`:

    python3 scripts/same_outputs.py --parent ../base --change . \
        --workload gan_1x1 --seed 11

Writes the workload's table-cell config (`config_text` in the change's
`perfbench/workloads.py`) once per checkout and runs it there as
`python3 -m spoofsim.cli run --config FILE` in a subprocess, with the
checkout's `src` first on PYTHONPATH and OPENBLAS_NUM_THREADS=1. Then it
compares the two output trees: every file under `models/` (classifier,
generator, `trace.csv`) byte for byte, and the sweep's CSV table and
summary JSON with their `version` entries dropped, since those name each
checkout's git revision.

The workload cell never moves A_T after training, so it cannot show a
change to tables 4 and 5. So each checkout also runs the tiny table-5
sweep of MOBILITY_CONFIG (two attack positions, the workload's seed).
Neither runs the random attack, so each checkout then runs the tiny
custom sweep of RANDOM_CONFIG (`attack = random`, the workload's seed).
Their output trees are compared the same way, in that order.

The cell never builds a raw burst, so it cannot show a change to the raw
path. So each checkout also draws the workload's raw probe set as
`perfbench/run.py` `setup` draws it (`build_dataset`, 1000 bursts, 0.5,
`numpy.random.default_rng(seed)`), conditions it with `condition_rows`,
and prints the SHA-256 of the labels, the raw rows and the conditioned
rows. The cell trains one GAN config only, so each checkout also runs
`train_gan` on the small configs of GAN_PROBES and prints one SHA-256 per
run, over both nets' params, both loss curves and the capped counts. All
these hashes must agree too. The script prints the first difference, cell
outputs first.

Exit code: 0 when the outputs are identical, 1 when they differ, 2 when
a run failed or the arguments are bad. Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    for side in ("parent", "change"):
        tree = getattr(args, side).resolve()
        if not (tree / "src" / "spoofsim" / "cli.py").is_file():
            parser.error(f"--{side} {tree}: no src/spoofsim")
        setattr(args, side, tree)
    workloads = args.change / "perfbench" / "workloads.py"
    if not workloads.is_file():
        parser.error(f"--change {args.change}: no perfbench/workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", workloads)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    if args.workload not in module.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(module.WORKLOADS)}")
    args.workload = module.WORKLOADS[args.workload]
    return args


# A tiny table-5 sweep, formatted with the seed and the output directory:
# A_T trains at the base (0, 10), then attacks from there and from within
# 1 of R.
MOBILITY_CONFIG = """\
table = 5
seeds = {seed}
out = {out}
at_positions = 0,10; 9,0
trials = 40
scenario.samples_per_symbol = 5
dataset.n_train = 40
dataset.n_test = 40
classifier.train_steps = 30
gan.noise_dim = 6
gan.hidden_width = 8
gan.hidden_depth = 2
gan.real_pool = 8
gan.synth_per_epoch = 8
gan.batch_size = 4
gan.max_epochs = 3
"""

# A tiny custom sweep of the random attack, formatted with the seed and the
# output directory: one 1x2x2 cell, so the bursts average over A_T's two
# antennas at R's two.
RANDOM_CONFIG = """\
attack = random
seeds = {seed}
out = {out}
n_t = 1
n_r = 2
n_a = 2
trials = 40
scenario.samples_per_symbol = 5
dataset.n_train = 40
dataset.n_test = 40
classifier.train_steps = 30
"""

PROBE_BURSTS = 1000
_SMALL_GAN = {"noise_dim": 6, "hidden_width": 16, "hidden_depth": 2}
# name: (seed, (n_t, n_r, n_a), GanConfig fields) of each `train_gan` run
# the probe makes. The seeds are fixed, not the workload's, so that each
# run keeps the property its name states (tests/test_same_outputs.py).
GAN_PROBES = {
    "train_gan 2x2, uneven batches": (11, (1, 2, 2), {
        **_SMALL_GAN, "real_pool": 13, "synth_per_epoch": 10, "batch_size": 4,
        "max_epochs": 120}),
    "train_gan binding power budget": (11, (1, 1, 1), {
        **_SMALL_GAN, "real_pool": 12, "synth_per_epoch": 12, "batch_size": 6,
        "max_epochs": 40, "power_budget": 0.01}),
}
# Run in a checkout with argv n_t, n_r, n_a, seed, burst count and
# GAN_PROBES as JSON; prints one JSON object of hashes, in the order they
# are compared.
PROBE_CODE = """
import hashlib, json, sys
import numpy as np
import spoofsim
from spoofsim.gan import GanConfig, train_gan
n_t, n_r, n_a, seed, count = map(int, sys.argv[1:6])
scenario = spoofsim.ScenarioConfig(n_t=n_t, n_r=n_r, n_a=n_a, seed=seed)
probes = spoofsim.build_dataset(scenario, count, 0.5, np.random.default_rng(seed))
conditioned = spoofsim.condition_rows(probes.features, n_r, scenario.samples_per_symbol)
arrays = {"probe labels": probes.labels, "raw probe rows": probes.features,
          "conditioned probe rows": conditioned}
hashes = {name: hashlib.sha256(f"{a.dtype} {a.shape} ".encode() + a.tobytes()).hexdigest()
          for name, a in arrays.items()}
for name, (gan_seed, (t, r, a), fields) in json.loads(sys.argv[6]).items():
    g_net, d_net, trace = train_gan(spoofsim.ScenarioConfig(n_t=t, n_r=r, n_a=a, seed=gan_seed),
                                    GanConfig(**fields), np.random.default_rng(gan_seed))
    curves = np.array([trace.g_loss, trace.d_loss, trace.capped_bursts], dtype=np.float64)
    parts = [g_net.params.tobytes(), d_net.params.tobytes(), curves.tobytes()]
    hashes[name] = hashlib.sha256(b"".join(parts)).hexdigest()
print(json.dumps(hashes))
"""


def run_in(tree: Path, args: list[str]) -> subprocess.CompletedProcess | None:
    """`python3 ARGS` in tree with its `src` first on PYTHONPATH and one
    BLAS thread; None, with the run's output on stderr, when it failed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{tree}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
        return None
    return proc


def run_cell(tree: Path, config_text: str, config: Path) -> bool:
    """One `spoofsim run` of config_text in tree; True when it exited 0."""
    config.write_text(config_text)
    return run_in(tree, ["-m", "spoofsim.cli", "run", "--config", str(config)]) is not None


def probe_hashes(tree: Path, workload, seed: int) -> dict | None:
    """The hashes PROBE_CODE prints in tree for the workload's geometry and
    seed and for GAN_PROBES, or None when the run failed."""
    proc = run_in(tree, ["-c", PROBE_CODE, *map(str, (workload.n_t, workload.n_r,
                                                       workload.n_a, seed, PROBE_BURSTS)),
                         json.dumps(GAN_PROBES)])
    return None if proc is None else json.loads(proc.stdout)


def first_hash_mismatch(parent: dict, change: dict) -> str | None:
    """The first array whose hash differs between the sides, or None."""
    for name, digest in parent.items():
        if change.get(name) != digest:
            return (f"{name}: sha256 {digest[:16]} in the parent, "
                    f"{str(change.get(name))[:16]} in the change")
    return None


def without_version(value):
    """value with every `version` key of its dicts dropped."""
    if isinstance(value, dict):
        return {k: without_version(v) for k, v in value.items() if k != "version"}
    if isinstance(value, list):
        return [without_version(v) for v in value]
    return value


def contents(path: Path, rel: Path):
    """What is compared of one output file: its bytes under `models/`, else
    a CSV table's header and rows or a JSON document, without `version`."""
    if rel.parts[0] != "models" and path.suffix == ".csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            return {"header": [k for k in reader.fieldnames or [] if k != "version"],
                    "rows": without_version(list(reader))}
    if rel.parts[0] != "models" and path.suffix == ".json":
        return without_version(json.loads(path.read_text()))
    return path.read_bytes()


def first_difference(a, b, where: str) -> str | None:
    """Where a (the parent's) and b (the change's) first differ, or None."""
    if isinstance(a, bytes) and isinstance(b, bytes):
        if a == b:
            return None
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{where}: bytes differ from offset {at} ({len(a)} vs {len(b)} bytes)"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{where}/{key}: only in the {'parent' if key in a else 'change'}"
            found = first_difference(a[key], b[key], f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{where}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{where}: {len(a)} entries in the parent, {len(b)} in the change"
        return None
    return None if repr(a) == repr(b) else f"{where}: parent {a!r}, change {b!r}"


def compare_trees(parent: Path, change: Path) -> str | None:
    """The first difference between two output trees, or None."""
    files = {side: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
             for side, root in (("parent", parent), ("change", change))}
    unpaired = sorted(set(files["parent"]) ^ set(files["change"]))
    if unpaired:
        rel = unpaired[0]
        return f"{rel}: only in the {'parent' if rel in files['parent'] else 'change'}"
    for rel in files["parent"]:
        found = first_difference(contents(parent / rel, rel), contents(change / rel, rel),
                                 str(rel))
        if found:
            return found
    return None


def sweep_configs(workload, seed: int, out: Path) -> dict:
    """The sweeps one checkout runs, in the order they run and are compared:
    config text by the suffix of its output tree, `out` plus that suffix."""
    return {"": workload.config_text(seed, str(out)),
            "-table5": MOBILITY_CONFIG.format(seed=seed, out=f"{out}-table5"),
            "-random": RANDOM_CONFIG.format(seed=seed, out=f"{out}-random")}


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        hashes = {}
        for side in ("parent", "change"):
            tree = getattr(args, side)
            configs = sweep_configs(args.workload, args.seed, Path(tmp) / side)
            for suffix, text in configs.items():
                if not run_cell(tree, text, Path(tmp) / f"{side}{suffix}.cfg"):
                    return 2
            hashes[side] = probe_hashes(tree, args.workload, args.seed)
            if hashes[side] is None:
                return 2
        found = None
        for suffix in configs:
            found = found or compare_trees(Path(tmp) / f"parent{suffix}",
                                           Path(tmp) / f"change{suffix}")
        found = found or first_hash_mismatch(hashes["parent"], hashes["change"])
    name = f"{args.workload.name} seed {args.seed}"
    if found:
        print(f"{name}: outputs differ; first at {found}")
        return 1
    print(f"{name}: outputs and probe hashes identical (version entries aside)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
