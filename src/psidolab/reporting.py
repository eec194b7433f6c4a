"""Report assembly and JSON/CSV writers for the experiment runner.

Reports are plain dicts with sorted-key JSON encoding, so identical
configs and seeds produce byte-identical files apart from the timestamp
field.  Sweep tables share one CSV schema: j_or_t, measured, predicted,
ratio, pass.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

SCHEMA_VERSION = 1
SWEEP_COLUMNS = ("j_or_t", "measured", "predicted", "ratio", "pass")


def make_check(name: str, passed: bool, **values) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update({k: _plain(v) for k, v in values.items()})
    return entry


def sweep_row(j_or_t, measured, predicted=None, ratio=None, passed=True,
              **extra) -> dict:
    """One sweep-table row; extra keys go to the JSON report only, since
    the CSV keeps SWEEP_COLUMNS."""
    values = (j_or_t, measured, predicted, ratio, bool(passed))
    return {k: _plain(v) for k, v in (*zip(SWEEP_COLUMNS, values), *extra.items())}


def _plain(value):
    """Coerce numpy scalars and sequences to JSON-friendly Python types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if hasattr(value, "item") and getattr(value, "shape", None) == ():
        return _plain(value.item())
    if hasattr(value, "__iter__"):
        return [_plain(v) for v in value]
    return repr(value)


def build_report(experiment: str, config: dict, seed, checks: list,
                 tables: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": _plain(config),
        "seed": _plain(seed),
        "checks": [_plain(c) for c in checks],
        "tables": _plain(tables or {}),
    }


def write_json_report(report: dict, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def write_sweep_csv(path, rows: list) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in SWEEP_COLUMNS})
    return path


def all_passed(checks: list) -> bool:
    return all(c["passed"] for c in checks)
