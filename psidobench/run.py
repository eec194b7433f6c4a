"""Layered benchmark of psidolab: one command, end-to-end or per-layer figures.

    python3 psidobench/run.py --workload grid-large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports psidolab from its
``src/``.  Each batch of the workload runs in a fresh worker process
(worker.py); batches are repeated until ``--seconds`` have passed.

--trace 0 prints the end-to-end metrics: median batch wall and CPU time,
median set-up time (process start to first timed operation, sampled at
least MIN_SETUPS times) and median peak RSS of the batch processes.  Times
are scaled to a nominal host speed by a reference job (worker.Reference).
--trace 1 alternates untraced and traced batches and prints the per-layer
metrics of the traced ones, plus the tracing overhead and coverage.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md in this directory for the workloads and
for how the layer metrics map to the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170      # a hung worker is killed so the run still ends in time
# Pinned so cpu_s measures the program's own work: OpenBLAS threads spin
# while idle, which adds CPU time that varies with machine load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"

OPERATION_KINDS = ("multiplier", "separable", "general")


class WorkerError(RuntimeError):
    pass


def _worker(args, workdir: Path, env, deadline: float, *, traced=False,
            setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start), cwd=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - start
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def _median_batch(batches: list, key: str, scaled=True) -> float:
    """Batch time as the sum over operations of each one's median.

    With `scaled`, each operation's time is first converted to nominal
    host speed by the reference job timed on either side of it.
    """
    per_op = zip(*([op[key] * (op["scale"] if scaled else 1.0) for op in b["ops"]]
                   for b in batches))
    return sum(statistics.median(times) for times in per_op)


def end_to_end(untraced: list, setups: list) -> dict:
    return {
        "wall_s": (_median_batch(untraced, "wall_s"), "s"),
        "cpu_s": (_median_batch(untraced, "cpu_s"), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in untraced), "MiB"),
    }


def _layer_metrics(batch: dict) -> dict:
    """Per-layer figures of one traced batch, times at nominal host speed."""
    trace = batch["trace"]
    calls, counters = trace["calls"], trace["counters"]
    scale = statistics.median(op["scale"] for op in batch["ops"])
    self_s = {name: t * scale for name, t in trace["self_s"].items()}
    wall = sum(op["wall_s"] for op in batch["ops"]) * scale

    def get(table, name):
        return table.get(name, 0)

    def share(num, den):
        return num / den if den else 0.0

    m = {}

    def span(name, *fields, unit_points="count"):
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = (get(calls, name), "count")
            elif f == "self_s":
                m[f"{name}.self_s"] = (get(self_s, name), "s")
            else:
                m[f"{name}.{f}"] = (get(counters, f"{name}.{f}"), unit_points)

    span("grid.fourier_transform", "calls", "points", "self_s")
    m["grid.fft_floor_s"] = (trace["fft_floor_s"] * scale, "s")
    m["grid.fourier_transform.floor_ratio"] = (    # both unscaled: a pure ratio
        share(get(trace["total_s"], "grid.fourier_transform"), trace["fft_floor_s"]),
        "ratio")
    for name in ("grid.SampledFunction", "grid.geometry", "grid.random_band_limited"):
        span(name, "calls", "self_s")
    span("symbols.eval", "calls", "points", "self_s")
    span("symbols.factor", "calls", "points", "self_s")
    m["symbols.verify.points_per_sample_pair"] = (
        share(get(counters, "symbols.verify.eval_points"),
              get(counters, "symbols.verify.sample_pairs")), "count")
    span("symbols.verify", "failing_pairs")
    for kind in OPERATION_KINDS:
        span(f"operators.apply.{kind}", "calls", "self_s")
    for kind in ("multiplier", "general"):
        span(f"operators.adjoint.{kind}", "calls", "self_s")
    for name in ("operators.dyadic", "operators.kernel",
                 "mixed_norm.mixed_norm", "mixed_norm.iterated_pnorm"):
        span(name, "calls", "self_s")
    span("estimates.norm", "calls", "self_s", "iterations")
    norms = get(calls, "estimates.norm")
    iterations = get(counters, "estimates.norm.iterations")
    m["estimates.norm.converged_share"] = (
        share(get(counters, "estimates.norm.converged"), norms), "fraction")
    m["estimates.norm.applies_per_iteration"] = (
        share(get(counters, "estimates.norm.applies"), iterations), "ratio")
    for name in ("estimates.cz", "estimates.probe", "estimates.decay_fit"):
        span(name, "self_s")
    span("fileio.pslb", "bytes", "self_s", unit_points="B")
    span("fileio.csv", "rows", "self_s")
    span("reporting", "bytes", "self_s", unit_points="B")
    span("cli", "self_s")
    m["trace.coverage"] = (share(sum(self_s.values()), wall), "fraction")
    return m


def per_layer(untraced: list, traced: list) -> tuple:
    """Median per-layer figures over the traced batches, and the trace checks."""
    per_batch = [_layer_metrics(b) for b in traced]
    metrics = {}
    for name, (_, unit) in per_batch[0].items():
        metrics[name] = (statistics.median(pb[name][0] for pb in per_batch), unit)
    metrics["trace.overhead_share"] = (
        _median_batch(traced, "wall_s") / _median_batch(untraced, "wall_s") - 1.0,
        "fraction")

    problems = []
    for b in traced:
        for k, converged, transforms, expected in b["trace"]["selfcheck"]:
            if transforms != expected:
                problems.append(f"power iteration k={k} converged={converged}: "
                                f"{transforms} transforms, expected {expected}")
    counts = [{n: v for n, (v, u) in pb.items() if u == "count"}
              for pb in per_batch]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counts differ between traced batches of one input")
    checked = sum(len(b["trace"]["selfcheck"]) for b in traced)
    return metrics, problems, checked


def _environment(repeats) -> list:
    import numpy
    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  "
        f"nproc {os.cpu_count()}  affinity {len(os.sched_getaffinity(0))}",
        "threads " + " ".join(f"{v}={THREADS}" for v in THREAD_VARS),
        f"ops repeating a (symbol, grid) pair: {repeats[0]}/{repeats[1]}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "psidolab" / "__init__.py").is_file():
        print(f"error: no psidolab sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    # as an exception, SIGTERM makes subprocess.run kill and reap the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({v: THREADS for v in THREAD_VARS})
    scratch = ROOT / ".psidobench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    kinds = (False, True) if args.trace else (False,)
    batches = {k: [] for k in kinds}
    setups = []
    try:
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        i = 0
        while (time.monotonic() - start < args.seconds
               or any(not batches[k] for k in kinds)):
            traced = kinds[i % len(kinds)]
            result = _worker(args, scratch / f"batch{i}", env, deadline,
                             traced=traced)
            batches[traced].append(result)
            setups.append(result)
            i += 1
        while len(setups) < MIN_SETUPS:
            setups.append(_worker(args, scratch / f"setup{len(setups)}", env,
                                  deadline, setup_only=True))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.is_dir() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    all_batches = [b for k in kinds for b in batches[k]]
    ops = [op for b in all_batches for op in b["ops"]]
    failed = sum(op["failed"] for op in ops)
    for line in _environment(all_batches[0]["repeats"]):
        print(line)
    first = all_batches[0]["ops"]
    for op in first:
        print(f"  {op['label']:<38} {op['wall_s']:8.3f} s  {op['detail']}")
    for op in ops:
        if op["failed"]:
            print(f"FAILED {op['label']}: {op['detail']}")
    for traced in kinds:
        walls = " ".join(f"{sum(op['wall_s'] for op in b['ops']):.3f}"
                         for b in batches[traced])
        print(f"{'traced' if traced else 'untraced'} batches, unscaled wall_s: {walls}")
    print("unscaled median batch: wall_s "
          f"{_median_batch(batches[False], 'wall_s', scaled=False):.4f}, cpu_s "
          f"{_median_batch(batches[False], 'cpu_s', scaled=False):.4f}, setup_s "
          f"{statistics.median(r['raw_setup_s'] for r in setups):.4f}")
    print("host speed scale (nominal / measured reference time): "
          + " ".join(f"{op['scale']:.3f}" for op in ops[:12]))
    print(f"failed_share {failed}/{len(ops)} = {failed / len(ops):.4g} fraction")

    problems = []
    if args.trace:
        metrics, problems, checked = per_layer(batches[False], batches[True])
        print(f"self-check: {checked} power-iteration spans against 4k-1 / 4k+1 "
              f"transforms, {len(problems)} problems")
        for p in problems:
            print(f"SELF-CHECK FAILED {p}")
    else:
        metrics = end_to_end(batches[False], setups)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
