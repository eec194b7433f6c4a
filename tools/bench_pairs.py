"""Before/after benchmark pairs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_4.json \
        --title "..." --run symbol-eval 501-510 --run grid-large 601-610 \
        --claim symbol-eval:wall_s

Both sides run from a fresh copy of their tree: the parent is extracted
with ``git archive <rev> | tar -x``, the change is the working tree's
tracked and untracked (not ignored) files.  Both copies get the working
tree's ``psidobench/``, so the two sides differ only in the program.  For
every seed the two sides run ``psidobench/run.py --trace 0`` back to back
for BENCHMARK.json's ``run_seconds``, the first side alternating between
pairs (parent first on odd pairs); then each side runs one short
``--trace 1`` pass at the same seed for the work counts.  A run that exits
non-zero, or a traced run that prints no self-check line, is kept in its
pair with its exit code and the tail of its output, and counted as a failed
run.  The report is rewritten after every pair, so an interrupted session
keeps the pairs it measured.  The summary holds, per workload and
end-to-end metric, the median and linear-interpolated quartiles per side
over the pairs where both untraced runs succeeded, the change's wins, and
the median change against the metric's bound; for the traced runs, the
per-pair work counts and per-side medians of the layer times and of the
shares and time ratios (``trace.coverage``, ``floor_ratio``, ...).  Each
side's failed-operation share is its failed over attempted operations,
summed over its untraced runs.  The top-level ``regressions`` list is the
no-regression verdict: it names every (workload, metric) outside its
bound, and every workload where the change fails a larger share of
operations, has more failed runs, or has more traced runs whose self-check
reports problems or whose result is not correct than the parent; an empty
list means no regression.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_SECONDS = 1   # one untraced and one traced batch: enough for the counts
OUTPUT_TAIL_LINES = 20
SELFCHECK = re.compile(r"self-check: (\d+) power-iteration spans .* (\d+) problems")


def _git(*args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs)


def _extract_parent(rev: str, dst: Path) -> str:
    commit = _git("rev-parse", rev, text=True).stdout.strip()
    archive = _git("archive", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(dst)], input=archive, check=True)
    return commit


def _copy_worktree(dst: Path) -> None:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():
            (dst / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst / name)


def _use_bench_files(tree: Path) -> None:
    shutil.rmtree(tree / "psidobench", ignore_errors=True)
    shutil.copytree(ROOT / "psidobench", tree / "psidobench")


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py result, or ``{"error", "exit_code", "output_tail"}`` if it failed."""
    cmd = [sys.executable, "psidobench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    check = SELFCHECK.search(proc.stdout)
    error = (f"exited {proc.returncode}" if proc.returncode != 0
             else "no self-check line in --trace 1 output" if trace and not check
             else None)
    if error is None:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            error = "last output line is not a JSON result"
    if error is not None:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-OUTPUT_TAIL_LINES:]
        print(f"FAILED {shlex.join(cmd[1:])} in {tree.name}: {error}", flush=True)
        return {"error": error, "exit_code": proc.returncode, "output_tail": tail}
    result["environment"] = lines[0]
    if trace:
        result["selfcheck"] = tuple(map(int, check.groups()))
    return result


def _quartiles(values: list) -> dict:
    q1, median, q3 = numpy.percentile(values, [25, 50, 75])   # linear interpolation
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "n": len(values)}


def _summary(pairs: list, metric_specs: list) -> dict:
    runs = {side: [r for p in pairs for r in (p["runs"][side], p["runs"][side]["traced"])]
            for side in SIDES}
    timed = [p for p in pairs if all("error" not in p["runs"][s] for s in SIDES)]
    out = {"pairs": len(pairs), "complete_pairs": len(timed),
           "runs_attempted": {side: len(runs[side]) for side in SIDES},
           "runs_failed": {side: sum("error" in r for r in runs[side]) for side in SIDES},
           "failed": {side: sum(r.get("failed", 0) for r in runs[side]) for side in SIDES},
           "failed_share": {side: _failed_share([p["runs"][side] for p in pairs])
                            for side in SIDES},
           "selfcheck_failed": {side: sum(_selfcheck_failed(p["runs"][side]["traced"])
                                          for p in pairs) for side in SIDES}}
    if not timed:
        return out
    for spec in metric_specs:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        values = {side: [p["runs"][side]["end_to_end"][name] for p in timed]
                  for side in SIDES}
        stats = {side: _quartiles(values[side]) for side in SIDES}
        signed = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        change = stats["change"]["median"] / stats["parent"]["median"] - 1.0
        out[name] = {
            **stats,
            "change_wins": sum(d < 0 for d in signed),
            "ties": sum(d == 0 for d in signed),
            "median_change": change,
            "parent_quartile_spread": stats["parent"]["q3"] - stats["parent"]["q1"],
            "bound": spec["bound"],
            "within_bound": sign * change <= spec["bound"],
        }
    traced = {side: [p["runs"][side]["traced"] for p in pairs
                     if all("error" not in p["runs"][s]["traced"] for s in SIDES)]
              for side in SIDES}
    if not traced["parent"]:
        return out
    out["traced_counts_parent_change"] = {
        name: [[tp["counts"][name], tc["counts"][name]]
               for tp, tc in zip(traced["parent"], traced["change"])]
        for name in traced["parent"][0]["counts"]}
    for key in ("layer_s", "shares"):
        out[f"traced_{key}_median"] = {
            name: {side: statistics.median(t[key][name] for t in traced[side])
                   for side in SIDES}
            for name in traced["parent"][0][key]}
    return out


def _failed_share(untraced: list):
    """Failed over attempted operations of the runs that reported, or None."""
    ran = [r for r in untraced if "error" not in r]
    attempted = sum(r["attempted"] for r in ran)
    return sum(r["failed"] for r in ran) / attempted if attempted else None


def _selfcheck_failed(traced: dict) -> bool:
    """A traced run that reported self-check problems or an incorrect result."""
    return "error" not in traced and (traced["selfcheck_problems"] > 0
                                      or not traced["correct"])


def _regressions(summary: dict, specs: list) -> list:
    """Every (workload, metric) outside its bound, and every workload whose
    change fails a larger share of operations, more runs, or more traced
    self-checks than its parent."""
    found = []
    for workload, s in summary.items():
        for spec in specs:
            m = s.get(spec["name"])
            if m is not None and not m["within_bound"]:
                found.append({"workload": workload, "metric": spec["name"],
                              "median_change": m["median_change"],
                              "bound": m["bound"]})
        share = s["failed_share"]
        if (share["change"] or 0.0) > (share["parent"] or 0.0):
            found.append({"workload": workload, "metric": "failed_share", **share})
        for key in ("runs_failed", "selfcheck_failed"):
            if s[key]["change"] > s[key]["parent"]:
                found.append({"workload": workload, "metric": key, **s[key]})
    return found


def _record(result: dict, order: int) -> dict:
    if "error" in result:
        return {"run_order": order, **result}
    return {"run_order": order,
            "end_to_end": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"]}


def _traced(result: dict, order: int) -> dict:
    if "error" in result:
        return {"traced_run_order": order, **result}
    metrics = result["metrics"]
    return {"traced_run_order": order, "correct": result["correct"],
            "failed": result["failed"],
            "selfcheck_spans": result["selfcheck"][0],
            "selfcheck_problems": result["selfcheck"][1],
            # work counts are deterministic per seed; floor_ratio is a ratio of times
            "counts": {k: m["value"] for k, m in metrics.items()
                       if m["unit"] in ("count", "ratio")
                       and not k.endswith("floor_ratio")},
            "layer_s": {k: m["value"] for k, m in metrics.items() if m["unit"] == "s"},
            # shares and time ratios: vary between runs, compared by medians
            "shares": {k: m["value"] for k, m in metrics.items()
                       if m["unit"] == "fraction" or k.endswith("floor_ratio")}}


def _report(args, argv, bench: dict, commit: str, environment, pairs: list) -> dict:
    specs = bench["end_to_end"]
    summary = {workload: _summary([p for p in pairs if p["workload"] == workload], specs)
               for workload in dict.fromkeys(p["workload"] for p in pairs)}
    report = {
        "title": args.title,
        "parent_commit": commit,
        "commands": {
            "end_to_end": f"python3 psidobench/run.py --workload W --seed N "
                          f"--seconds {bench['run_seconds']:g} --trace 0",
            "traced_counts": f"python3 psidobench/run.py --workload W --seed N "
                             f"--seconds {TRACED_SECONDS} --trace 1",
            "pairs": "python3 tools/bench_pairs.py " + shlex.join(
                argv if argv is not None else sys.argv[1:]),
        },
        "method": __doc__.split("\n\n", 2)[2].replace("\n", " ").strip(),
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "benchmark_reports": environment},
        "regressions": _regressions(summary, specs),
        "summary": summary,
        "pairs": pairs,
    }
    workload, _, metric = (args.claim or "").partition(":")
    if workload in summary:
        n = summary[workload]["pairs"]   # a failed pair counts as a loss
        s = summary[workload].get(metric)
        sign = 1 if next(m for m in specs if m["name"] == metric)["better"] == "lower" else -1
        gain = sign * (s["parent"]["median"] - s["change"]["median"]) if s else None
        report["claim"] = {
            "metric": metric, "workload": workload, "pairs": n,
            "change_wins": s and s["change_wins"],
            "median_gap_s": gain,
            "parent_quartile_spread_s": s and s["parent_quartile_spread"],
            "met": bool(s) and s["change_wins"] >= 0.9 * n
                   and gain > s["parent_quartile_spread"],
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--run", nargs=2, action="append", required=True,
                        metavar=("WORKLOAD", "SEEDS"),
                        help="workload and seed range, e.g. symbol-eval 501-510")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--title", default="before/after benchmark pairs")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in (w for w, _ in args.run):
            parser.error(f"--claim {args.claim}: workload {workload!r} is not run")
        if metric not in (m["name"] for m in bench["end_to_end"]):
            parser.error(f"--claim {args.claim}: {metric!r} is not an end-to-end "
                         f"metric of BENCHMARK.json")

    order, pairs, environment = 0, [], None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        commit = _extract_parent(args.parent, trees["parent"])
        _copy_worktree(trees["change"])
        for tree in trees.values():
            _use_bench_files(tree)
        for workload, seed_spec in args.run:
            for i, seed in enumerate(_seeds(seed_spec), start=1):
                sides = SIDES if i % 2 else SIDES[::-1]
                runs = {}
                for side in sides:
                    order += 1
                    result = _bench(trees[side], workload, seed, bench["run_seconds"], 0)
                    environment = environment or result.get("environment")
                    runs[side] = _record(result, order)
                for side in sides:
                    order += 1
                    result = _bench(trees[side], workload, seed,
                                    TRACED_SECONDS, 1)
                    runs[side]["traced"] = _traced(result, order)
                pairs.append({"workload": workload, "seed": seed, "pair": i,
                              "first_side": sides[0], "runs": runs})
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{s} wall_s " + (f"{runs[s]['end_to_end']['wall_s']:.3f}"
                                      if "error" not in runs[s] else "FAILED")
                    for s in SIDES), flush=True)
                report = _report(args, argv, bench, commit, environment, pairs)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
