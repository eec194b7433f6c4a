"""Per-call cost of the transform-layer entry points beside bare numpy FFTs.

    python3 tools/call_overhead.py [--repeats 2000]

For d=1 n=64, d=1 n=512 and d=2 n=64 (the small grids where fixed
per-call cost shows) it prints, in microseconds, the minimum over
``--repeats`` in-process calls of each entry point: ``fourier_transform``
in both directions, ``apply_psido`` and ``discrete_adjoint_apply`` of the
multiplier ``bessel:-1``, ``OperatorPlan.apply`` of the separable
``sep:2,6:-1`` (what the CLI's ``apply`` runs, on a plan built before
timing), ``OperatorPlan.adjoint`` of ``wave:0`` (the conjugate-``b``
adjoint every ascent iteration runs), ``SampledFunction`` validation and
``random_band_limited``.
Beside each is its bare numpy floor, the same minimum for
``np.fft.fftn`` / ``np.fft.ifftn`` on the same shape: fftn for the
forward transform and for ``SampledFunction`` (which runs no FFT; the
floor gives the scale), ifftn for the inverse and ``random_band_limited``,
and their sum for the applies.  Every call runs once before timing, so
per-grid set-up (dual grid, sign pattern, band mask, factor samples) is
not counted.  BLAS runs on one thread, as in ``psidobench/run.py``.

The row ``duality maps p=4`` is the nonlinear layer of one Boyd ascent
iteration at p=4 on one sample: the sample's iterated-norm levels, its
duality map J_4 from them, the map J_(4/3) of the same sample and that
result's normalisation, as ``estimates._boyd_ascent`` runs them.  Its
floor, ``2abs``, is two ``np.abs`` of the sample, the moduli the two
maps cannot do without.

The last row per grid is the stacked Boyd ascent per start: the minimum
time of a ``random_ascent`` estimate of ``wave:0`` at p=4 (whose bracket
stays open, so its starts are screened and then halved on one stack
until they settle) over its iterations, each one start's apply, adjoint
and duality maps inside the stack.  Its floor is one iteration's four
transforms alone, twice fftn plus ifftn.  An estimate takes
milliseconds, so it is timed ``--repeats`` / 100 times (at least once),
as the dyadic rows are.

The dyadic layer follows: ``kernel_sum`` and ``decay_fit`` (the CLI's
default window, 4h to R/2) of ``bessel:-1`` at d=3 n=64 R=4 with 3 levels
and at d=2 n=256 R=3 with 5 levels.  ``bessel`` is even, so its kernel
sum runs on the nonnegative orthant of the dual grid, (n/2 + 1)^d points,
and ends in a DCT-I there; it is shown beside that transform alone,
``rfft-dct``: ``grid.even_inverse_transform`` of the summed orthant band,
per axis the even extension and one numpy ``rfft``.  ``decay_fit``
is shown beside ``np.fft.ifftn`` on the whole grid, for scale.  These
calls take milliseconds, so they are timed ``--repeats`` / 100 times (at
least once).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

# pinned before numpy loads, as in psidobench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from psidolab import (Grid, KernelDecayParams, MixedExponent,  # noqa: E402
                      SampledFunction, apply_psido, bessel_multiplier,
                      decay_fit, discrete_adjoint_apply, dyadic_decompose,
                      fourier_transform, kernel_sum, operator_norm_estimate,
                      random_band_limited, wave_multiplier)
from psidolab.cli import parse_symbol_spec  # noqa: E402
from psidolab.estimates import _duality_map  # noqa: E402
from psidolab.grid import even_inverse_transform  # noqa: E402
from psidolab.mixed_norm import holder_dual, pnorm_levels  # noqa: E402
from psidolab.operators import operator_plan  # noqa: E402

GRIDS = ((1, 64), (1, 512), (2, 64))
HALF_EXTENT = 8.0
DYADIC = ((3, 64, 4.0, 3), (2, 256, 3.0, 5))   # (d, n, R, levels)


def min_us(fn, repeats: int) -> float:
    """Minimum wall time of fn() over repeats calls, in microseconds."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def measure(dim: int, n: int, repeats: int) -> list:
    """Rows (entry point, us per call, floor name, floor us) on one grid,
    the stacked ascent's last."""
    grid = Grid(dim, n, HALF_EXTENT)
    rng = np.random.default_rng(0)
    f = random_band_limited(grid, rng)
    fhat = fourier_transform(f, "forward")
    symbol = bessel_multiplier(-1.0)
    plan = operator_plan(parse_symbol_spec("sep:2,6:-1", 2.0 * HALF_EXTENT), grid)
    wave_plan = operator_plan(wave_multiplier(0.0), grid)
    fftn = min_us(lambda: np.fft.fftn(f.values), repeats)
    ifftn = min_us(lambda: np.fft.ifftn(fhat.values), repeats)
    cases = (
        ("fourier_transform forward", lambda: fourier_transform(f, "forward"),
         "fftn", fftn),
        ("fourier_transform inverse", lambda: fourier_transform(fhat, "inverse"),
         "ifftn", ifftn),
        ("apply_psido", lambda: apply_psido(symbol, f), "fftn+ifftn", fftn + ifftn),
        ("discrete_adjoint_apply", lambda: discrete_adjoint_apply(symbol, f),
         "fftn+ifftn", fftn + ifftn),
        ("plan apply sep:2,6:-1", lambda: plan.apply(f.values), "fftn+ifftn",
         fftn + ifftn),
        ("plan adjoint wave:0", lambda: wave_plan.adjoint(f.values), "fftn+ifftn",
         fftn + ifftn),
        ("SampledFunction", lambda: SampledFunction(grid, f.values), "fftn", fftn),
        ("random_band_limited", lambda: random_band_limited(grid, rng),
         "ifftn", ifftn),
    )
    rows = [(name, min_us(fn, repeats), floor, floor_us)
            for name, fn, floor, floor_us in cases]
    wave, p4 = wave_multiplier(0.0), MixedExponent.uniform(4.0, dim)
    sample, h, pp, qq = f.values[None], grid.spacing, p4.p, holder_dual(p4).p

    def duality_maps():
        w = _duality_map(sample, h, pp, pnorm_levels(sample, h, pp))
        x = _duality_map(sample, h, qq)
        x *= 1.0 / pnorm_levels(x, h, pp)[-1]
        return w, x

    rows.append(("duality maps p=4", min_us(duality_maps, repeats), "2abs",
                 min_us(lambda: (np.abs(sample), np.abs(sample)), repeats)))

    def ascent():
        return operator_norm_estimate(wave, grid, p4, "random_ascent")

    per_start = min_us(ascent, max(1, repeats // 100)) / ascent().iterations
    return rows + [("ascent per start", per_start, "2fftn+2ifftn",
                    2 * (fftn + ifftn))]


def measure_dyadic(dim: int, n: int, half_extent: float, levels: int,
                   repeats: int) -> list:
    """Rows (entry point, us per call, floor name, floor us) of the
    dyadic layer on one grid."""
    grid = Grid(dim, n, half_extent)
    dd = dyadic_decompose(bessel_multiplier(-1.0), grid, levels)
    kernel = kernel_sum(dd)
    window = (4 * grid.spacing, half_extent / 2)
    params = KernelDecayParams((0,) * dim, (0,) * dim)
    band = dd.sum_values(orthant=True)
    ifftn = min_us(lambda: np.fft.ifftn(kernel.values), repeats)
    label = f"R={half_extent:g} levels={levels}"
    return [(f"kernel_sum {label}", min_us(lambda: kernel_sum(dd), repeats),
             "rfft-dct", min_us(lambda: even_inverse_transform(band, dd.dual), repeats)),
            (f"decay_fit {label}",
             min_us(lambda: decay_fit(kernel, window, params), repeats),
             "ifftn", ifftn)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=2000,
                        help="timed calls per entry point; the minimum is printed")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"numpy {np.__version__}, min of {args.repeats} calls, microseconds")
    print(f"{'grid':<10} {'entry point':<26} {'us':>9} {'floor':>11} "
          f"{'floor us':>9} {'ratio':>6}")
    rows = [(dim, n, row) for dim, n in GRIDS for row in measure(dim, n, args.repeats)]
    rows += [(dim, n, row) for dim, n, half_extent, levels in DYADIC
             for row in measure_dyadic(dim, n, half_extent, levels,
                                       max(1, args.repeats // 100))]
    for dim, n, (name, us, floor, floor_us) in rows:
        print(f"d={dim} n={n:<5} {name:<26} {us:9.2f} {floor:>11} "
              f"{floor_us:9.2f} {us / floor_us:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
