"""Compare two checkouts on one benchmark workload in alternating pairs.

Run from anywhere; both trees need `perfbench/run.py` and `src/spoofsim`,
and each must be the top level of a git checkout, so that its revision can
be recorded (an exported tree has none, and one nested in another checkout
would report the enclosing one's). `git worktree add` makes such a tree:

    git worktree add ../base HEAD~1
    python3 scripts/bench_pairs.py --parent ../base --change . \
        --workload gan_1x1 --seed 11 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each tree, one after the other; even pairs start with
the parent, odd pairs with the change, so a drift in machine speed does
not favour either side. For every end-to-end metric that the change's
BENCHMARK.json lists, the script prints each side's median and quartiles,
how many pairs the change won, and whether the gain rule holds: the
change wins at least 9 in 10 pairs and its median beats the parent's by
more than the parent's interquartile range. The gain rule is applied only
to runs of at least `run_seconds`: shorter runs have shown gains that a
full-length rerun refuted, so with a smaller `--seconds` every metric
reports "gain": false and the closing JSON "short_runs": true. It also
prints a "no worse" verdict against the metric's `bound`, a fraction of
the parent's median: "worse" when the change's median is worse than the
parent's by more than the bound; else "unresolved" when the parent's
interquartile range is wider than the bound, unless every change run
beats every parent run; else "no worse". A closing JSON line holds the
same figures, with both trees' git revisions (HEAD commit, and whether
tracked files differ from it). `--out PATH` also stores that closing
object in a JSON file under "workloads", keyed by workload, so runs on
several workloads can share one file:

    python3 scripts/bench_pairs.py --parent ../base --change . \
        --workload auth_wide --seed 11 --out BENCH_<n>.json

Exit code: 0 when every run reported `correct: true`, 1 when any run
reported `correct: false` or printed no result, 2 on bad arguments.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per-run budget (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON file to store the closing object in, under its workload")
    args = parser.parse_args(argv)
    for side in ("parent", "change"):
        tree = getattr(args, side)
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {tree}: no perfbench/run.py")
        if git_toplevel(tree) != tree.resolve():
            parser.error(f"--{side} {tree}: not the top level of a git checkout, so its "
                         "revision cannot be recorded; make one with `git worktree add`")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_once(tree: Path, args) -> dict | None:
    """One benchmark run in `tree`; its closing JSON object, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None


def git_toplevel(tree: Path) -> Path | None:
    """The top level of the git checkout that holds `tree`, or None."""
    out = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    return Path(out.stdout.strip()).resolve() if out.returncode == 0 else None


def git_revision(tree: Path) -> dict | None:
    """HEAD commit of a checkout and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def store(path: Path, closing: dict) -> None:
    """Put the closing object into the file at `path` under its workload."""
    record = json.loads(path.read_text()) if path.is_file() else {}
    record.setdefault("workloads", {})[closing["workload"]] = closing
    path.write_text(json.dumps(record, indent=2) + "\n")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, lower_better, bound):
    """Per-metric summary of paired runs: medians, quartiles, wins, the gain
    rule, and the "no worse" verdict against `bound` (a fraction of the
    parent's median)."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q, c_q = quartiles(parent), quartiles(change)
    gap = sign * (p_q[1] - c_q[1])
    iqr = p_q[2] - p_q[0]
    need = math.ceil(WIN_SHARE * len(parent))
    allowed = bound * abs(p_q[1])
    every_run_beats = max(sign * c for c in change) < min(sign * p for p in parent)
    if -gap > allowed:
        no_worse = "worse"
    elif iqr > allowed and not every_run_beats:
        no_worse = "unresolved"
    else:
        no_worse = "no worse"
    return {"parent": {"median": p_q[1], "q1": p_q[0], "q3": p_q[2]},
            "change": {"median": c_q[1], "q1": c_q[0], "q3": c_q[2]},
            "wins": wins, "pairs": len(parent), "gap": gap, "parent_iqr": iqr,
            "gain": wins >= need and gap > iqr, "bound": bound, "no_worse": no_worse}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    run_seconds = float(spec.get("run_seconds", 45))
    if args.seconds is None:
        args.seconds = run_seconds
    short_runs = args.seconds < run_seconds
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    values = {side: {name: [] for name in metrics} for side in ("parent", "change")}
    all_correct = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args)
            correct = bool(result and result.get("correct"))
            all_correct &= correct
            measured = (result or {}).get("metrics", {})
            shown = []
            for name in metrics:
                value = measured.get(name, {}).get("value")
                if value is not None:
                    values[side][name].append(float(value))
                    shown.append(f"{name}={value:.4g}")
            print(f"pair {pair + 1}/{args.pairs} {side:6s} correct={correct} "
                  + " ".join(shown), file=sys.stderr, flush=True)
    summary = {}
    if short_runs:
        print(f"gain rule not applied: {args.seconds:g}-s runs are shorter than run_seconds "
              f"({run_seconds:g} s)")
    for name, m in metrics.items():
        parent, change = values["parent"][name], values["change"][name]
        if not parent or len(parent) != len(change):
            summary[name] = None
            print(f"{name}: missing values (parent {len(parent)}, change {len(change)})")
            continue
        v = verdict(parent, change, m["better"] == "lower", float(m["bound"]))
        v["gain"] = v["gain"] and not short_runs
        summary[name] = v
        p, c = v["parent"], v["change"]
        gain_rule = "not applied" if short_runs else "holds" if v["gain"] else "fails"
        print(f"{name} [{m['unit']}, {m['better']} is better]: "
              f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"wins {v['wins']}/{v['pairs']}  gap {v['gap']:.4g} vs parent IQR "
              f"{v['parent_iqr']:.4g}  gain rule {gain_rule}  "
              f"bound {v['bound']:.3g}: {v['no_worse']}")
    closing = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
               "seconds": args.seconds, "short_runs": short_runs, "correct": all_correct,
               "metrics": summary, "runs": values,
               "revisions": {side: git_revision(getattr(args, side))
                             for side in ("parent", "change")}}
    print(json.dumps(closing))
    if args.out is not None:
        store(args.out, closing)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
