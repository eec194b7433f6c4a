"""One benchmark process: set up a workload, run its batch once, report JSON.

Run by run.py, never by hand.  Each batch gets a fresh process because the
workloads are defined by which (symbol, grid) pairs repeat inside one
process; a second batch in the same process would repeat all of them.

    python3 worker.py --workload W --seed S --workdir DIR [--setup-only] [--trace]

The last stdout line is a JSON object.  ``ready`` is the CLOCK_MONOTONIC
time just before the first timed operation, so the parent can measure
set-up from the moment it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import psidolab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FLOOR_REPEATS = 3


class Reference:
    """A fixed bare-numpy job timed between operations, to gauge host speed.

    The host's speed drifts by up to 1.7x within minutes, and the two vCPUs
    drift independently, so each operation is scaled by the reference time
    measured on either side of it.  Cache-resident and DRAM-bound work slow
    down by different factors, so the job's working set follows the
    workload's arrays: "cache" is ~1 MiB of FFTs and small element-wise
    work, "dram" streams two 16 MiB arrays and a 4 MiB FFT.
    """

    # the job's time on a quiet core of the 2-vCPU Xeon host this benchmark
    # was tuned on; reported seconds are seconds at that host speed
    NOMINAL_S = {"cache": 0.015, "dram": 0.029}

    def __init__(self, footprint: str):
        self.nominal = self.NOMINAL_S[footprint]
        rng = np.random.default_rng(0)
        self.cached = footprint == "cache"
        if self.cached:
            self.cube = rng.standard_normal((32, 32, 32)) + 0j
            self.line = rng.standard_normal(2**16)
        else:
            self.cube = rng.standard_normal((64, 64, 64)) + 0j
            self.line = rng.standard_normal(2**20) + 0j

    def scale(self) -> float:
        """Factor that converts this moment's seconds to nominal seconds."""
        return self.nominal / self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        if self.cached:
            for _ in range(4):
                np.fft.ifftn(np.fft.fftn(self.cube))
                np.exp(1j * self.line) * self.line
        else:
            np.fft.ifftn(np.fft.fftn(self.cube))
            for _ in range(2):
                np.abs(self.line * self.line + self.line)
        return time.perf_counter() - t0


def fft_floor(fft_shapes: dict) -> float:
    """Time of the traced transforms replayed through bare fftn / ifftn."""
    rng = np.random.default_rng(0)
    total = 0.0
    for (shape, direction), count in fft_shapes.items():
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bare = np.fft.fftn if direction == "forward" else np.fft.ifftn
        times = []
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            bare(a)
            times.append(time.perf_counter() - t0)
        total += count * statistics.median(times)
    return total


def run_batch(ops, workdir: Path, reference: Reference, scale_before: float) -> list:
    rows = []
    for i, op in enumerate(ops):
        out_dir = workdir / f"op{i}"
        out_dir.mkdir()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result, error = op.run(out_dir), None
        except Exception as exc:  # an operation that raises is a failure, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        outcome = (workloads.Outcome(True, error) if error
                   else op.judge(result, out_dir))
        shutil.rmtree(out_dir)
        scale_after = reference.scale()
        rows.append({"label": op.label, "wall_s": wall, "cpu_s": cpu,
                     "scale": (scale_before + scale_after) / 2,
                     "failed": outcome.failed, "detail": outcome.detail})
        scale_before = scale_after
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if Path(psidolab.__file__).resolve().parent != ROOT / "src" / "psidolab":
        raise SystemExit(f"imported psidolab from {psidolab.__file__}, "
                         f"not from {ROOT / 'src'}")
    args.workdir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, args.workdir)
    tracer = tracing.Tracer().install() if args.trace else None
    ready = time.monotonic()
    reference = Reference(workloads.REFERENCE[args.workload])
    setup_scale = reference.scale()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    rows = run_batch(ops, args.workdir, reference, setup_scale)
    out = {
        "ready": ready,
        "setup_scale": setup_scale,
        "ops": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repeats": workloads.repeat_share(ops),
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "total_s": tracer.total_s,
            "counters": tracer.counters,
            "fft_floor_s": fft_floor(tracer.fft_shapes),
            "selfcheck": tracer.selfcheck,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
