"""Estimate-quality scan of the ``random_ascent`` norm estimator.

    python3 tools/ascent_scan.py --out tools/ascent_scan_baseline.json
    python3 tools/ascent_scan.py --check tools/ascent_scan_baseline.json \
        [--grid 2,32,8 ...]

The scan runs ``operator_norm_estimate(..., "random_ascent")`` at the
default budget on every symbol of ``builtin_symbols(R)`` on the grids
(d, n, R) = (1, 512, 8), (2, 32, 8), (2, 64, 8), (3, 16, 4) and
(1, 64, 32), the first grid of the benchmark's ``probe wave:0`` op, at the
uniform exponents 2, 4 and 4/3 and, at d >= 2, the alternating exponents
(3, 1.5, ...) and (1.5, 3, ...), for seeds 1-3: 315 cases.  ``--grid``
(d,n,R, repeatable) narrows it to the grids given.

``--out`` writes the table: one row per case with the symbol's index in
``builtin_symbols`` and its label, the grid, p, the seed, the reported
``estimate`` and the ``value``, ``lower``, ``upper``, ``reason`` and
``iterations`` of the ``NormEstimate``.  JSON floats round-trip, so the
table holds the exact bits.

``--check BASELINE`` runs the scan and compares it with a table written
by ``--out``, at this commit or another.  It exits 1 if any estimate
falls below the baseline's minimum over seeds for the same (symbol,
grid, p) by more than ``CHECK_RTOL`` relative, the ascent's settle
tolerance.  It also prints, against the baseline row of the same seed,
how many estimates rose, stayed equal and fell, every fall with its old
and new value, the iteration totals and how many cases moved from
``budget`` to another reason and back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from psidolab import (Grid, MixedExponent, builtin_symbols,  # noqa: E402
                      operator_norm_estimate)

GRIDS = ((1, 512, 8.0), (2, 32, 8.0), (2, 64, 8.0), (3, 16, 4.0), (1, 64, 32.0))
SEEDS = (1, 2, 3)
CHECK_RTOL = 1e-10


def exponents(d: int) -> list:
    ps = [(q,) * d for q in (2.0, 4.0, 4.0 / 3.0)]
    if d >= 2:
        ps += [tuple((a, b)[k % 2] for k in range(d)) for a, b in ((3.0, 1.5), (1.5, 3.0))]
    return ps


def scan(grids, seeds) -> list:
    rows = []
    for d, n, R in grids:
        g = Grid(d, n, R)
        for index, s in enumerate(builtin_symbols(R)):
            for p in exponents(d):
                for seed in seeds:
                    est = operator_norm_estimate(s, g, MixedExponent(p),
                                                 "random_ascent", seed=seed)
                    rows.append({
                        "symbol": index, "label": s.label, "d": d, "n": n, "R": R,
                        "p": list(p), "seed": seed, "estimate": est.estimate,
                        "value": est.value, "lower": est.lower, "upper": est.upper,
                        "reason": est.reason, "iterations": est.iterations})
    return rows


def _case(row) -> tuple:
    return row["symbol"], row["d"], row["n"], row["R"], tuple(row["p"])


def check(rows, baseline) -> bool:
    """Print the comparison with the baseline rows; True if no estimate
    falls below the baseline's minimum over seeds for its case."""
    floor, same_seed = {}, {}
    for row in baseline:
        key = _case(row)
        floor[key] = min(floor.get(key, row["estimate"]), row["estimate"])
        same_seed[key + (row["seed"],)] = row
    rise = equal = fall = to_budget = from_budget = 0
    iterations = [0, 0]
    failures = []
    for row in rows:
        key = _case(row)
        old = same_seed.get(key + (row["seed"],))
        if old is None:
            print(f"no baseline row: {row['label']} d={row['d']} n={row['n']} "
                  f"R={row['R']} p={row['p']} seed={row['seed']}")
            failures.append(row)
            continue
        new_est, old_est = row["estimate"], old["estimate"]
        rise += new_est > old_est
        equal += new_est == old_est
        if new_est < old_est:
            fall += 1
            print(f"fall: {row['label']} d={row['d']} n={row['n']} R={row['R']} "
                  f"p={row['p']} seed={row['seed']}: {old_est!r} -> {new_est!r} "
                  f"({new_est / old_est - 1:+.2e})")
        iterations[0] += old["iterations"]
        iterations[1] += row["iterations"]
        from_budget += old["reason"] == "budget" != row["reason"]
        to_budget += old["reason"] != "budget" == row["reason"]
        if new_est < floor[key] * (1.0 - CHECK_RTOL):
            failures.append(row)
    print(f"{len(rows)} cases: {rise} rise, {equal} equal, {fall} fall; "
          f"iterations {iterations[0]} -> {iterations[1]}; "
          f"budget -> other reason {from_budget}, other reason -> budget {to_budget}")
    for row in failures:
        if _case(row) in floor:
            print(f"BELOW BASELINE MINIMUM: {row['label']} d={row['d']} n={row['n']} "
                  f"R={row['R']} p={row['p']} seed={row['seed']}: "
                  f"{row['estimate']!r} < {floor[_case(row)]!r}")
    return not failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the scan's table here")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="compare the scan with this table")
    parser.add_argument("--grid", action="append", metavar="d,n,R",
                        help="scan only this grid (repeatable)")
    args = parser.parse_args(argv)
    if args.out is None and args.check is None:
        parser.error("give --out, --check or both")
    grids = GRIDS
    if args.grid:
        grids = [(int(d), int(n), float(R))
                 for d, n, R in (g.split(",") for g in args.grid)]
    rows = scan(grids, SEEDS)
    if args.out is not None:
        args.out.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    if args.check is not None:
        return 0 if check(rows, json.loads(args.check.read_text())) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
