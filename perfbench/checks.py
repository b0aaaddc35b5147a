"""Output checks on one `spoofsim run` cell.

Each check has a name; a cell passes when every check does. The checks
read only what the run wrote: its exit code, the summary JSON, the CSV
and the saved models.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path


def read_rows(out_dir, table) -> list:
    """The seed rows (not the seed-mean rows) of a cell's summary."""
    summary = json.loads((Path(out_dir) / f"table{table}_summary.json").read_text())
    return [row for row in summary["rows"] if row.get("seed") != "mean"]


def check_cell(workload, seed, exit_code, out_dir, load_model) -> list:
    """Run every output check on one cell; returns [(name, passed, detail)].

    `load_model` is the program's model loader; every saved model must load.
    """
    out_dir = Path(out_dir)
    results = []

    def record(name, passed, detail=""):
        results.append((name, bool(passed), detail))

    record("exit_code", exit_code == 0, f"cli.main returned {exit_code}")
    json_path = out_dir / f"table{workload.table}_summary.json"
    try:
        summary = json.loads(json_path.read_text())
        rows, failures = summary["rows"], summary["failures"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        record("summary_json", False, f"{json_path.name}: {exc}")
        return results
    record("summary_json", isinstance(rows, list) and isinstance(failures, list),
           "rows and failures must be lists")
    if not isinstance(rows, list) or not isinstance(failures, list):
        return results
    record("summary_failures", not failures, f"{len(failures)} failed cells: {failures}")

    seed_rows = [r for r in rows if isinstance(r, dict) and r.get("seed") == seed]
    others = [r for r in rows if r not in seed_rows and not (
        isinstance(r, dict) and r.get("seed") == "mean")]
    record("summary_rows", len(seed_rows) == 1 and not others,
           f"expected one seed-{seed} row (plus seed-mean rows), got {len(seed_rows)} "
           f"and {len(others)} other rows")
    if len(seed_rows) != 1:
        return results
    row = seed_rows[0]

    rates = {k: row.get(k) for k in ("e_md", "e_fa", "success_prob")}
    record("rates_in_range",
           all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in rates.values()),
           f"rates must lie in [0, 1]: {rates}")
    record("n_trials", row.get("n_trials") == workload.trials,
           f"n_trials {row.get('n_trials')!r}, config {workload.trials}")
    if workload.max_epochs is not None:
        epochs = row.get("gan_epochs")
        record("gan_epochs",
               isinstance(epochs, int) and 1 <= epochs <= workload.max_epochs,
               f"gan_epochs {epochs!r}, max_epochs {workload.max_epochs}")

    csv_path = out_dir / f"table{workload.table}.csv"
    try:
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        record("csv_rows", len(csv_rows) == len(rows),
               f"{len(csv_rows)} CSV rows, {len(rows)} summary rows")
    except OSError as exc:
        record("csv_rows", False, str(exc))

    expected = ["classifier"] + (["generator"] if workload.attack == "gan" else [])
    models = sorted((out_dir / "models").glob("*.bin"))
    kinds = {kind for kind in expected for path in models if path.stem.endswith(kind)}
    problems = [f"no {kind} model" for kind in expected if kind not in kinds]
    for path in models:
        try:
            load_model(path)
        except (OSError, ValueError, KeyError, struct.error) as exc:
            problems.append(f"{path.name}: {exc}")
    record("models_load", not problems, "; ".join(problems))
    return results


def failed(results) -> list:
    return [(name, detail) for name, passed, detail in results if not passed]
