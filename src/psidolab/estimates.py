"""Quantitative checks: kernel decay fits, ring-envelope scaling, the
cancellation-class mass condition, operator-norm estimation, the
product norm-bound formula, boundedness-condition predicates, and the
integer smoothness-budget solver.

Everything here reports measured numbers with explicit pass criteria;
nothing claims a proof.  All routines are pure given their inputs (sweeps
assemble results in input order), so they are safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InfeasibleBudgetError, InvalidInputError, PreconditionError
from .grid import (Grid, SampledFunction, fourier_transform,
                   random_band_limited)
from .mixed_norm import (MixedExponent, _abs_power, exponent_tuple, holder_dual,
                         iterated_pnorm, leading_pnorms, pnorm_levels)
from .operators import (DyadicDecomposition, Kernel, OperatorPlan, _terms,
                        apply_psido, discrete_adjoint_apply, operator_plan,
                        support_mask)
from .symbols import Symbol, as_multi_index, multi_index_order

ZERO_MEAN_TOL = 1e-12
ENVELOPE_PASS_FACTOR = 3.0   # largest ring spread `dyadic_envelope_check` passes
PROBE_GROWTH_THRESHOLD = 0.2   # smallest last/first - 1 the probe calls growth
PROBE_STABLE_TOLERANCE = 0.05   # largest max/min - 1 the probe calls stable
# shell maxima up to this share of max|k| are roundoff (kernel paths differ by 5e-14)
DECAY_ROUNDOFF_FLOOR = 256 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# kernel decay fits

@dataclass(frozen=True)
class KernelDecayParams:
    """Derivative pair and extra decay L for the kernel envelope
    |k(z)| <= C |z|^(-d - m - delta|alpha| - |beta| - L)."""

    alpha: tuple
    beta: tuple
    L: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L >= 0):
            raise InvalidInputError(f"L must be finite and >= 0, got {self.L}")


@dataclass(frozen=True)
class DecayFitResult:
    slope: Optional[float]
    envelope_constant: float
    predicted_exponent: float
    shell_centers: tuple
    shell_maxima: tuple
    degenerate: bool
    passed: bool


def _decay_base(d: int, m: float, delta: float, alpha, beta) -> float:
    return d + m + delta * multi_index_order(alpha) + multi_index_order(beta)


def required_extra_decay(d: int, m: float, rho: float, delta: float,
                         alpha, beta) -> float:
    """Smallest admissible L for the kernel envelope at this derivative pair."""
    if rho <= 0:
        raise InvalidInputError("kernel decay estimates need rho > 0")
    base = _decay_base(d, m, delta, alpha, beta)
    return (1.0 - rho) * max(math.floor(base / rho) + 1, 0)


def decay_fit(kernel: Kernel, window, params: KernelDecayParams,
              num_shells: int = 16) -> DecayFitResult:
    """Fit the radial decay of |k| on a window 2h <= z_lo < z_hi <= R/2.

    Returns the least-squares slope of log max|k| over num_shells >= 2
    log-spaced radial shells and the smallest envelope constant C with
    |k(z)| <= C |z|^predicted on the window.  Window points have all
    |z_k| <= z_hi, so only that centred box is read (or unfolded; 1/8 of
    the grid at d=3 for z_hi = R/2) and the shells are cut from its points.
    Shells whose maximum is at most DECAY_ROUNDOFF_FLOOR of max|k| there are
    dropped as roundoff; with fewer than two shells left the fit is degenerate.
    """
    if num_shells < 2:
        raise InvalidInputError(f"num_shells must be at least 2, got {num_shells}")
    d = kernel.grid.dim
    p = kernel.symbol_params
    alpha = as_multi_index(params.alpha, d)
    beta = as_multi_index(params.beta, d)
    lreq = required_extra_decay(d, p.m, p.rho, p.delta, alpha, beta)
    if params.L < lreq - 1e-12:
        raise InvalidInputError(
            f"L = {params.L} below the admissible minimum {lreq}")
    base = _decay_base(d, p.m, p.delta, alpha, beta) + params.L
    if not base > 0:
        raise InvalidInputError(
            f"d + m + delta|alpha| + |beta| + L = {base} must be positive")
    z_lo, z_hi = float(window[0]), float(window[1])
    h = kernel.grid.spacing
    if not (2 * h <= z_lo < z_hi <= kernel.grid.half_extent / 2):
        raise InvalidInputError(
            f"window [{z_lo}, {z_hi}] outside the resolved band "
            f"[{2 * h}, {kernel.grid.half_extent / 2}]")
    exponent = -base
    box = kernel.grid.centred_box(z_hi + h)  # a margin past rounding
    radius = kernel.grid.radius(box)
    in_window = (radius >= z_lo) & (radius <= z_hi)
    if not in_window.any():
        raise InvalidInputError("window contains no grid points")
    boxed = np.abs(kernel.on_box(box))
    radius, mag = radius[in_window], boxed[in_window]
    if float(mag.max()) == 0.0:
        return DecayFitResult(None, 0.0, exponent, (), (), True, True)
    floor = DECAY_ROUNDOFF_FLOOR * float(boxed.max())
    edges = np.geomspace(z_lo, z_hi, num_shells + 1)
    centers, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (radius >= a) & (radius < b)
        if sel.any():
            top = float(mag[sel].max())
            if top > floor:
                centers.append(math.sqrt(a * b))
                maxima.append(top)
    if len(centers) < 2:
        return DecayFitResult(None, 0.0, exponent, tuple(centers),
                              tuple(maxima), True, True)
    slope = float(np.polyfit(np.log(centers), np.log(maxima), 1)[0])
    envelope = float(np.max(mag * radius ** (-exponent)))
    return DecayFitResult(slope, envelope, exponent, tuple(centers),
                          tuple(maxima), False, bool(np.isfinite(envelope)))


# ---------------------------------------------------------------------------
# dyadic ring envelopes

@dataclass(frozen=True)
class EnvelopeReport:
    """Per-ring normalized envelopes r_j = sup |z|^M |d^beta k_j| / 2^(j e)."""

    exponent: float
    weight_power: int
    ratios: tuple            # r_j for j = 0..J
    suprema: tuple           # the un-normalized sup values
    ring_spread: Optional[float]   # max/min over nonzero rings j >= 1
    passed: bool
    degenerate: bool


def _over_power_of_two(value: float, power: float) -> float:
    """value / 2^power.  Where 2^power is a nonzero float this is that
    quotient; where it overflows or underflows to zero the quotient is
    scaled by ldexp instead, so it stays representable (inf only if the
    quotient itself overflows)."""
    try:
        scale = 2.0 ** power
    except OverflowError:
        scale = 0.0
    if scale > 0.0:
        return value / scale
    whole = math.floor(power)
    try:
        return math.ldexp(value / 2.0 ** (power - whole), -whole)
    except OverflowError:
        return math.inf


def dyadic_envelope_check(dd: DyadicDecomposition, M: int, alpha, beta,
                          x=None) -> EnvelopeReport:
    """Check that ring kernels scale like 2^(j (d + m + delta|alpha| + |beta| - rho M)).

    beta-derivatives are spectral on each piece (|beta| <= 2); alpha > 0 is
    only meaningful for x-independent symbols, where those derivatives
    vanish identically.
    """
    p = dd.symbol.params
    d = dd.grid.dim
    alpha = as_multi_index(alpha, d)
    beta = as_multi_index(beta, d)
    if not isinstance(M, int) or M < 0 or M > p.Nprime:
        raise InvalidInputError(
            f"M must be an integer in 0..Nprime = {p.Nprime}, got {M!r}")
    if multi_index_order(beta) > 2:
        raise InvalidInputError("spectral piece derivatives support |beta| <= 2")
    if multi_index_order(alpha) > 0 and not dd.symbol.x_independent:
        raise InvalidInputError(
            "alpha > 0 envelopes are only available for x-independent symbols")
    exponent = (d + p.m + p.delta * multi_index_order(alpha)
                + multi_index_order(beta) - p.rho * M)
    if multi_index_order(alpha) > 0:
        sups = ratios = [0.0] * (dd.levels + 1)
    else:
        weight = dd.grid.radius()**M if M else 1.0
        deriv_mult = dd.dual.derivative_multiplier(beta)
        sym = dd.symbol_values(x)
        # nested boxes: each piece overwrites the last; +0 outside stands for
        # signed zeros, which flip only the sign of exactly-zero outputs
        piece = np.zeros(dd.dual.shape, dtype=np.complex128)
        sups, ratios = [], []
        for j, (box, ring) in enumerate(dd.rings()):
            np.multiply(sym[box] * ring, deriv_mult[box], out=piece[box])
            kj = fourier_transform(SampledFunction(dd.dual, piece), "inverse")
            sup = float(np.max(weight * np.abs(kj.values)))
            sups.append(sup)
            ratios.append(_over_power_of_two(sup, j * exponent))
    ring = [r for r in ratios[1:] if r > 0.0]
    if len(ring) >= 2:
        spread = max(ring) / min(ring)
        return EnvelopeReport(exponent, M, tuple(ratios), tuple(sups),
                              spread, spread <= ENVELOPE_PASS_FACTOR, False)
    return EnvelopeReport(exponent, M, tuple(ratios), tuple(sups),
                          None, True, True)


# ---------------------------------------------------------------------------
# cancellation test class

def _radial_bump(u2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-|u|^2)) on |u| < 1, exactly zero outside."""
    inside = u2 < 1.0
    out = np.zeros_like(u2)
    out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return out


def make_cancellation_test_function(grid: Grid, t: float,
                                    yprime) -> SampledFunction:
    """Member of the cancellation class: supported in the slab
    |x' - y'|_inf <= t with zero mean in x' for every leading point; the
    d - l coordinates of y' fix the split l.

    Built as g(xbar) * (B(x' - a) - B(x' - b)) with g = exp(-|xbar|^2 / 2), B
    the `_radial_bump` of radius t/2 and grid-aligned translates a, b: an exact
    support mask, and row means that cancel to roundoff (`cz_condition_check`).
    """
    d = grid.dim
    yprime = np.atleast_1d(np.asarray(yprime, dtype=float))
    l = d - yprime.size
    if yprime.ndim != 1 or not 0 <= l <= d - 1:
        raise InvalidInputError(f"y' has shape {yprime.shape}, expected 1 to {d} coordinates")
    h = grid.spacing
    if t < 4 * h:
        raise InvalidInputError(f"t = {t} too small for the grid (needs t >= 4h = {4 * h})")
    if np.max(np.abs(yprime)) + t > grid.half_extent - h:
        raise InvalidInputError("slab does not fit inside the box")

    width = t / 2.0
    offset = round((t / 2.0) / h) * h
    ax = grid.axis_coords()

    def outer_factor(center_shift):
        # radial bump over the trailing block, translated along the first
        # trailing axis by center_shift
        u2 = np.zeros((grid.points_per_axis,) * (d - l))
        for k in range(d - l):
            shift = center_shift if k == 0 else 0.0
            u = (ax - yprime[k] - shift) / width
            u2 = u2 + (u**2).reshape((-1,) + (1,) * (d - l - 1 - k))
        return _radial_bump(u2)

    trailing = outer_factor(offset) - outer_factor(-offset)
    gauss = np.exp(-0.5 * ax**2)
    leading = np.ones((grid.points_per_axis,) * l)   # the scalar 1.0 at l = 0
    for k in range(l):
        leading = leading * gauss.reshape((-1,) + (1,) * (l - 1 - k))
    values = leading.reshape(leading.shape + (1,) * (d - l)) * trailing
    return SampledFunction(grid, values)


# ---------------------------------------------------------------------------
# the cancellation mass condition

@dataclass(frozen=True)
class CZCheckConfig:
    """Geometry of one mass-condition check: slab width t, slab center
    x0prime, exclusion multiplier Nconst (> 1), and the inner exponents
    pbar = (p_1, ..., p_l), a tuple (empty at l = 0): the split l is its length."""

    t: float
    x0prime: tuple
    Nconst: float
    pbar: tuple

    def __post_init__(self):
        if self.t <= 0:
            raise InvalidInputError(f"t must be positive, got {self.t}")
        if not self.Nconst > 1:
            raise InvalidInputError(f"Nconst must exceed 1, got {self.Nconst}")
        object.__setattr__(self, "pbar", exponent_tuple(self.pbar))
        object.__setattr__(self, "x0prime",
                           tuple(float(v) for v in np.atleast_1d(self.x0prime)))

    @property
    def l(self) -> int:
        return len(self.pbar)


@dataclass(frozen=True)
class CZReport:
    t: float
    lhs: float
    rhs: float
    ratio: float
    excluded_points: int


def _verify_cancellation_class(f: SampledFunction, l: int, t: float, x0prime):
    d = f.grid.dim
    mask = support_mask(f)
    if not mask.any():
        raise PreconditionError("test function vanishes identically")
    # |x' - x0'|_inf over the support, per trailing axis over the support's
    # projection onto it: the same maximum of the same floats
    ax = f.grid.axis_coords()
    reach = max(np.max(np.abs(ax[mask.any(axis=tuple(set(range(d)) - {k}))] - x0))
                for k, x0 in zip(range(l, d), x0prime))
    if float(reach) > t + 1e-12:
        raise PreconditionError(
            f"support escapes the slab: |x' - x0'|_inf reaches {reach:.6g} > t = {t}")
    h = f.grid.spacing
    means = np.abs(f.values.sum(axis=tuple(range(l, d)))) * h ** (d - l)
    tol = ZERO_MEAN_TOL * max(1.0, float(np.max(np.abs(f.values))))
    if float(np.max(means)) > tol:
        raise PreconditionError(
            f"zero-mean violated: max row mean {np.max(means):.3e} exceeds {tol:.3e}")


def cz_condition_check(apply_fn: Callable, cfg: CZCheckConfig,
                       f: SampledFunction) -> CZReport:
    """Measure the excluded-region mass ratio

        integral_{|x'-x0'|_inf > N t} ||T f(., x')|| dx'  /  ||f||_(pbar, 1)

    for one cancellation-class function, the inner norm over the leading
    l = len(cfg.pbar) axes.  Distances on the periodic box use
    the wrapped inf-metric, which makes the ratio exactly translation
    invariant under grid shifts.
    """
    d = f.grid.dim
    l = cfg.l
    if not 0 <= l <= d - 1:
        raise InvalidInputError(f"split l = {l} outside 0..{d - 1}")
    if len(cfg.x0prime) != d - l:
        raise InvalidInputError(
            f"x0prime has {len(cfg.x0prime)} components, expected {d - l}")
    _verify_cancellation_class(f, l, cfg.t, cfg.x0prime)
    h = f.grid.spacing
    Tf = apply_fn(f)
    field_T = leading_pnorms(Tf.values, h, cfg.pbar)
    field_f = leading_pnorms(f.values, h, cfg.pbar)
    # periodic inf-distance of each trailing grid point from the slab center
    ax = f.grid.axis_coords()
    two_r = 2.0 * f.grid.half_extent
    dist = 0.0   # broadcast to the trailing grid by the per-axis maxima
    for k in range(d - l):
        delta = np.abs(ax - cfg.x0prime[k])
        per = np.minimum(delta, two_r - delta)
        dist = np.maximum(dist, per.reshape((-1,) + (1,) * (d - l - 1 - k)))
    excl = dist > cfg.Nconst * cfg.t
    lhs = float(h ** (d - l) * field_T[excl].sum())
    rhs = float(h ** (d - l) * field_f.sum())
    return CZReport(t=cfg.t, lhs=lhs, rhs=rhs, ratio=lhs / rhs,
                    excluded_points=int(excl.sum()))


def cz_sweep(apply_fn: Callable, grid: Grid, x0prime, Nconst: float, pbar, ts) -> list:
    """Run the mass-condition check across slab widths, building the test
    function for each t; l = len(pbar) and x0prime holds d - l coordinates."""
    reports = []
    for t in ts:
        f = make_cancellation_test_function(grid, float(t), x0prime)
        cfg = CZCheckConfig(float(t), x0prime, Nconst, pbar)
        reports.append(cz_condition_check(apply_fn, cfg, f))
    return reports


# ---------------------------------------------------------------------------
# the product norm bound

@dataclass(frozen=True)
class NormBoundInputs:
    """Measured constants feeding the product bound: the mass-condition
    constant c1, the reference-exponent norm cq, and the structural
    constant cprime (never fitted, always supplied)."""

    p: MixedExponent
    c1: float
    cq: float
    cprime: float = 1.0

    def __post_init__(self):
        for name, v in (("c1", self.c1), ("cq", self.cq), ("cprime", self.cprime)):
            if not (math.isfinite(v) and v > 0):
                raise InvalidInputError(f"{name} must be a positive real, got {v}")


def theorem_norm_bound(inp: NormBoundInputs) -> float:
    """cprime * prod_i max(p_i, (p_i - 1)^(-1/p_i)) * (c1 + cq)."""
    factor = 1.0
    for q in inp.p.p:
        factor *= max(q, (q - 1.0) ** (-1.0 / q))
    return inp.cprime * factor * (inp.c1 + inp.cq)


# ---------------------------------------------------------------------------
# operator norm estimation

BRACKET_RTOL = 1e-12   # roundoff allowance of the certified bracket
ASCENT_STACK_SAMPLES = 2**16   # samples the ascent's starts iterate in at once


@dataclass(frozen=True)
class NormEstimate:
    """A discrete operator norm estimate inside its bracket [lower, upper].

    value is the best ratio ||T f||_p / ||f||_p the iteration reached;
    lower = max(value, the plane-wave ratio certified in closed form) and
    upper is a certified bound, None for a coupled ("general") symbol.  A
    closed bracket caps value and lower at upper; else value can end an ulp
    above it: value <= upper * (1 + BRACKET_RTOL) holds, not value <= upper.
    reason says why the iteration stopped: "settled" (a ratio
    stopped moving, or its adjoint step vanished), "bracket_closed"
    (upper - lower <= BRACKET_RTOL * upper), "zero_operator" (upper == 0),
    "budget" (out of iterations) or, in `necessary_condition_probe` only,
    "verdict" (lower reached the target that certifies the probe's
    verdict, or the resolution was not run once it was certified).  The
    bracket is tested after each apply, never before the first, so a
    bracket closed in closed form stops the iteration at its first apply."""

    value: float
    method: str
    reason: str
    iterations: int
    p: tuple
    lower: float
    upper: Optional[float]

    @property
    def converged(self) -> bool:
        return self.reason not in ("budget", "verdict")

    @property
    def estimate(self) -> float:
        """The norm estimate to report: lower once the bracket is closed,
        where it pins the norm to BRACKET_RTOL (an iteration stopped by a
        bracket closed in closed form has measured only its first ratio),
        or once a verdict stopped it, where lower is a certified lower
        bound, else the measured ratio value."""
        return self.value if self.reason in ("settled", "budget") else self.lower


def _norm_bracket(s: Symbol, grid: Grid, p: MixedExponent) -> tuple:
    """(peak, plane, upper) from the sampled terms a_r(x) b_r(xi) of s
    (`operators._terms`).

    peak is the dual-grid index of the largest sum_r ||a_r||_2 |b_r(xi)|
    (each ||a_r||_2 by `iterated_pnorm`, as every norm here is taken),
    the argmax of |b| for a factored symbol, or for a multiplication a(x)
    the grid index of the largest |a|.  The plane wave e at peak is an
    exact eigenfunction of a multiplier, and the delta at peak one of a
    multiplication, so plane = ||T e||_p / ||e||_p is certified in closed
    form, and upper bounds ||T||_p:
    - a multiplier b(D) is a circular convolution with the kernel
      c = ifftn(b), up to unimodular factors, so ||T||_p <= ||c||_1 for
      every mixed p (Minkowski) and ||T||_2 = max|b| (Parseval); mixed
      Riesz-Thorin (Benedek & Panzone 1961) interpolates them with
      theta = min_k 2 min(1/p_k, 1 - 1/p_k):
      plane = max|b|, upper = ||c||_1^(1 - theta) max|b|^theta, which
      costs one inverse transform unless theta = 1 (p = 2);
    - a(x): plane = upper = sup|a|, for every p;
    - a(x) b(D): plane = |b(peak)| ||a||_p / ||1||_p and
      upper = sup|a| times the bound of b;
    - a coupled symbol: plane = 0.0 and upper = None.
    An upper bound that overflows is None too."""
    dual = grid.dual()
    terms = _terms(s, grid)
    if s.kind == "multiplication":
        mag = np.abs(np.broadcast_to(terms[0][0], grid.shape))
        peak = np.unravel_index(np.argmax(mag), grid.shape)
        top = float(mag[peak])
        return peak, top, top if math.isfinite(top) else None
    if s.kind == "general":
        two = (2.0,) * grid.dim
        weight = sum(iterated_pnorm(a, grid.spacing, two) * np.abs(b)
                     for a, b in terms)
        return np.unravel_index(np.argmax(weight), dual.shape), 0.0, None
    [(a, b)] = terms
    b = np.broadcast_to(b, dual.shape)
    peak = np.unravel_index(np.argmax(np.abs(b)), dual.shape)
    top = bound = float(abs(b[peak]))
    theta = min(2.0 * min(1.0 / q, 1.0 - 1.0 / q) for q in p.p)
    if theta < 1.0:
        c = fourier_transform(SampledFunction(dual, b), "inverse").values
        c1 = grid.spacing**grid.dim * float(np.abs(c).sum())
        bound = c1 ** (1.0 - theta) * top**theta
    plane, upper = top, bound
    if a is not None:
        a = np.broadcast_to(a, grid.shape)
        unit = math.prod((2.0 * grid.half_extent) ** (1.0 / q) for q in p.p)
        plane = top * iterated_pnorm(a, grid.spacing, p.p) / unit
        upper = float(np.abs(a).max()) * bound
    return peak, plane, upper if math.isfinite(upper) else None


def _closed(lower: float, upper: Optional[float]) -> Optional[str]:
    """The stopping reason once the lower bound reaches the certified
    upper bound within BRACKET_RTOL, else None."""
    if upper is None or upper - lower > BRACKET_RTOL * upper:
        return None
    return "zero_operator" if upper == 0.0 else "bracket_closed"


def _dual_map(v: np.ndarray, q: float, a: np.ndarray) -> np.ndarray:
    """J_q(v) = sgn(v) |v|^(q - 1) = v a^(q - 2), given a = |v|: a real
    factor (`_abs_power`) times v, no complex division; a copy of v at
    q = 2, and +0 where a is 0."""
    if q == 2.0:
        return v.copy()
    if a.all():  # no zero sample: the same operations without the gathers
        return v * _abs_power(a, q - 2.0)
    out = np.zeros_like(v)
    nz = a > 0
    out[nz] = v[nz] * _abs_power(a[nz], q - 2.0)
    return out


def _top_start(s: Symbol, grid: Grid, peak: tuple) -> np.ndarray:
    """The delta at peak for a multiplication, else the plane wave at peak
    (one inverse transform): exact eigenfunctions of those and multipliers."""
    v = np.zeros(grid.shape, dtype=np.complex128)
    v[peak] = 1.0
    return v if s.kind == "multiplication" else fourier_transform(
        SampledFunction(grid.dual(), v), "inverse").values


def _power_iteration_p2(s: Symbol, grid: Grid, budget: int, peak: tuple,
                        plane: float, upper: Optional[float]) -> tuple:
    """Power iteration on T*T from `_top_start`: (best ratio, reason,
    iterations).  Its ratio ||T v||_2 / ||v||_2 takes both norms from
    `iterated_pnorm`, float64 numpy sums without BLAS, so the bits do not
    depend on BLAS threads."""
    h, two = grid.spacing, (2.0,) * grid.dim
    v = _top_start(s, grid, peak)
    best, prev, it = 0.0, -1.0, 0
    for it in range(1, budget + 1):
        tv = apply_psido(s, SampledFunction(grid, v)).values
        est = iterated_pnorm(tv, h, two) / iterated_pnorm(v, h, two)
        best = max(best, est)
        closed = _closed(max(best, plane), upper)
        if closed:
            return best, closed, it
        if abs(est - prev) <= 1e-11 * max(est, 1.0):
            return best, "settled", it
        prev = est
        w = discrete_adjoint_apply(s, SampledFunction(grid, tv)).values
        scale = np.max(np.abs(w))
        if scale == 0:
            return best, "settled", it
        v = w / scale
    return best, "budget", it


def _ascent_starts(s: Symbol, plan: OperatorPlan, peak: tuple, rng) -> np.ndarray:
    """One stack of `_top_start`, the band-limited impulse, its adjoint
    image (dropped if it vanishes, as for a zero operator) and four random
    band-limited functions, each written as made."""
    grid = plan.grid
    dual = grid.dual()
    band = dual.radius() <= 0.5 * grid.nyquist
    x = np.empty((7,) + grid.shape, dtype=np.complex128)
    x[0] = _top_start(s, grid, peak)
    x[1] = fourier_transform(SampledFunction(dual, band.astype(np.complex128)),
                             "inverse").values
    x[2] = plan.adjoint(x[1])
    for j in range(3, 7):
        x[j] = random_band_limited(grid, rng).values
    return x if x[2].any() else np.delete(x, 2, axis=0)


def _duality_map(v: np.ndarray, spacing: float, p: tuple,
                 levels: Optional[list] = None) -> np.ndarray:
    """J_p(v) = sgn(v) |v|^(p_1 - 1) prod_(k<d) A_k^(p_(k+1) - p_k), with
    A_k the iterated norm's levels (pnorm_levels, A_0 = |v|; A_k^gap is 0
    where A_k is 0), so that <v, J_p(v)> = ||v||_p ||J_p(v)||_p' (Hoelder
    equality for mixed norms, Benedek & Panzone 1961).  v is a stack of
    samples, axis 0 indexing them, as in pnorm_levels and the given
    levels; levels not given are formed once.  A zero gap
    contributes no factor, so for uniform p this is _dual_map and needs
    only A_0."""
    gaps = [p[k] - p[k - 1] for k in range(1, len(p))]
    if levels is None:
        levels = pnorm_levels(v, spacing, p[:-1] if any(gaps) else ())
    out = _dual_map(v, p[0], levels[0])
    for k, gap in enumerate(gaps, start=1):
        if gap:
            a = levels[k]
            out *= np.power(a, gap, out=np.zeros_like(a), where=a > 0)
    return out


def _boyd_ascent(s: Symbol, grid: Grid, p: MixedExponent, budget: int,
                 rng: np.random.Generator, peak: tuple, plane: float,
                 upper: Optional[float], target: Optional[float] = None) -> tuple:
    """Boyd's fixed-point ascent on ||Tf||_p / ||f||_p (Boyd 1974): y = T x,
    z = T* J_p(y), x = J_p'(z) / ||J_p'(z)||_p.  By Hoelder equality the
    ratio never falls along one start's path, up to roundoff.

    The `_ascent_starts` run in rounds of k iterations per live start.
    After each round the contenders are ranked by best ratio; behind the
    lead, settled starts (they never lead) and starts not above plane drop
    out, and a settled lead left alone ends the ascent.  Round 0 (k = 4)
    only screens; round 1 gives the live starts half the budget left; then
    successive halving (Jamieson & Talwalkar 2016) keeps the better half,
    rounded up, and doubles k.  Live starts iterate as one stack on one
    `operator_plan`, in chunks of at most ASCENT_STACK_SAMPLES samples,
    each with its bits alone; ratios count in start order, each followed
    by the test _closed(max(best, plane), upper) and, given a target, the
    test max(best, plane) >= target, which stops with reason "verdict";
    a target moves no iterate, only where the ascent stops.  Returns (best
    ratio, reason, iterations), "settled" if the lead settled."""
    pp, qq, h = p.p, holder_dual(p).p, grid.spacing
    plan = operator_plan(s, grid)
    x = _ascent_starts(s, plan, peak, rng)
    for row in x:
        row *= 1.0 / pnorm_levels(row[None], h, pp)[-1][0]
    count = len(x)
    best, prev, settled = [0.0] * count, [-1.0] * count, [False] * count
    live, contenders = list(range(count)), list(range(count))   # start order
    width = max(1, ASCENT_STACK_SAMPLES // grid.total_points)
    k, halving, top, used = 4, False, 0.0, 0
    while live and used < budget:
        for _ in range(k):
            ids = []   # the live starts of the next iteration, rows x[:len(ids)]
            for c in range(0, min(len(live), budget - used), width):
                chunk = live[c:c + width][:budget - used]
                y = plan.apply(x[c:c + len(chunk)])
                levels = pnorm_levels(y, h, pp)
                keep = []
                for i, (j, ratio) in enumerate(zip(chunk, levels[-1].flat)):
                    ratio, used = float(ratio), used + 1
                    best[j], top = max(best[j], ratio), max(top, ratio)
                    if closed := _closed(max(top, plane), upper):
                        return top, closed, used
                    if target is not None and max(top, plane) >= target:
                        return top, "verdict", used
                    settled[j] = abs(ratio - prev[j]) <= 1e-10 * max(ratio, 1.0)
                    prev[j] = ratio
                    if not settled[j]:
                        keep.append(i)
                if not keep:
                    continue
                w = _duality_map(y, h, pp, levels)
                del y, levels   # one start's arrays fewer at the peak of a large grid
                z = plan.adjoint(w if len(keep) == len(chunk) else w[keep])
                del w
                moving = z.reshape(len(keep), -1).any(axis=1)
                for i, m in zip(keep, moving):   # a vanished T* step settles
                    settled[chunk[i]] = not m
                if moving.any():
                    x_next = _duality_map(z if moving.all() else z[moving], h, qq)
                    x_next *= 1.0 / pnorm_levels(x_next, h, pp)[-1]
                    x[len(ids):len(ids) + len(x_next)] = x_next   # rows read already
                    ids += [chunk[i] for i, m in zip(keep, moving) if m]
            live, x = ids, x[:len(ids)]
            if not live or used == budget:
                break
        else:   # the round ran its k iterations: rank the contenders
            lead = max(contenders, key=best.__getitem__)
            ranked = sorted((j for j in contenders if j == lead or not settled[j]
                             and best[j] > plane), key=lambda j: -best[j])
            contenders = sorted(ranked[:(len(ranked) + 1) // 2] if halving else ranked)
            kept = [i for i, j in enumerate(live) if j in contenders]
            for i, row in enumerate(kept):   # in place: row >= i
                x[i] = x[row]
            live, x = [live[i] for i in kept], x[:len(kept)]
            k = 2 * k if halving else max(4, (budget - used) // (2 * len(live) or 1))
            halving = True
    lead = max(contenders, key=best.__getitem__)
    return top, "settled" if settled[lead] else "budget", used


def operator_norm_estimate(s: Symbol, grid: Grid, p: MixedExponent,
                           method: str, budget: int = 300,
                           seed: int = 0) -> NormEstimate:
    """Estimate the discrete operator norm on the grid, inside a bracket.

    "power_iteration_p2" (p identically 2) runs power iteration on T*T
    from the plane wave at the largest |b| (see `_norm_bracket`; the delta
    at the largest |a| for a multiplication), an exact eigenfunction of a
    multiplier, so a multiplier closes its bracket at the first apply; the
    seed is not used.  "random_ascent" runs Boyd's fixed-point ascent for
    any exponent, uniform or mixed, through the iterated norm's duality
    map, from that plane wave, a band-limited impulse, its adjoint image
    and random band-limited starts, screened and then halved on one stack
    (see `_boyd_ascent`).  Either stops early once lower = max(best ratio,
    plane-wave ratio) comes within BRACKET_RTOL of the certified upper
    bound, so a bracket closed in closed form (a p=2 multiplier, a
    multiplication) stops at the first apply.  value, lower, upper,
    reason, converged and estimate are described on `NormEstimate`.
    """
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    if p.dim != grid.dim:
        raise InvalidInputError(
            f"exponent has {p.dim} components for a {grid.dim}-d grid")
    if method == "power_iteration_p2":
        if any(q != 2.0 for q in p.p):
            raise InvalidInputError("power_iteration_p2 requires p = (2, ..., 2)")
    elif method != "random_ascent":
        raise InvalidInputError(f"unknown method {method!r}")
    return _bracketed_estimate(s, grid, p, method, budget, seed,
                               _norm_bracket(s, grid, p))


def _bracketed_estimate(s: Symbol, grid: Grid, p: MixedExponent, method: str,
                        budget: int, seed: int, bracket: tuple,
                        target: Optional[float] = None) -> NormEstimate:
    """`operator_norm_estimate` on its `_norm_bracket`, checked inputs and,
    for the ascent, an optional target (see `_boyd_ascent`)."""
    peak, plane, upper = bracket
    if method == "power_iteration_p2":
        value, reason, used = _power_iteration_p2(s, grid, budget, peak,
                                                  plane, upper)
    else:
        value, reason, used = _boyd_ascent(s, grid, p, budget,
                                           np.random.default_rng(seed),
                                           peak, plane, upper, target)
    if reason == "bracket_closed":   # both within BRACKET_RTOL of upper
        value, plane = min(value, upper), min(plane, upper)
    return NormEstimate(value, method, reason, used, p.p, max(value, plane), upper)


# ---------------------------------------------------------------------------
# boundedness-condition predicates

@dataclass(frozen=True)
class ConditionReport:
    necessary_lp: bool
    sufficient_thm32: bool
    necessary_margins: tuple     # rhs - m per exponent component
    sufficient_margin: float
    necessary_rhs: tuple
    sufficient_rhs: float


def condition_report(m: float, rho: float, delta: float, d: int, p) -> ConditionReport:
    """Signed margins of the order conditions for continuity.

    necessary:  m <= -d (1 - rho) |1/2 - 1/p_i|   (per component)
    sufficient: m <= -(1 - rho) (d + 1 + rho)
    """
    if not math.isfinite(m):
        raise InvalidInputError(f"m: expected a finite number, got {m}")
    if not (0.0 <= rho <= 1.0 and 0.0 <= delta < 1.0):
        raise InvalidInputError(f"bad class parameters rho={rho}, delta={delta}")
    if isinstance(p, MixedExponent):
        ps = p.p
    else:
        ps = (float(p),)
        if not ps[0] >= 1.0:   # 1 and inf are the endpoint spaces
            raise InvalidInputError(f"p: expected an exponent >= 1, got {p}")
    nec_rhs = tuple(-d * (1.0 - rho) * abs(0.5 - 1.0 / q) for q in ps)
    nec_margins = tuple(r - m for r in nec_rhs)
    suf_rhs = -(1.0 - rho) * (d + 1.0 + rho)
    return ConditionReport(
        necessary_lp=all(mg >= 0 for mg in nec_margins),
        sufficient_thm32=(suf_rhs - m) >= 0,
        necessary_margins=nec_margins,
        sufficient_margin=suf_rhs - m,
        necessary_rhs=nec_rhs,
        sufficient_rhs=suf_rhs,
    )


# ---------------------------------------------------------------------------
# the integer smoothness budget

def _even_greater(x: float) -> int:
    """Smallest even integer strictly greater than x (at least 0)."""
    return max(0, 2 * (math.floor(x / 2.0) + 1))


def _even_at_least(x: float) -> int:
    return max(0, 2 * math.ceil(x / 2.0))


def _even_floor(x: float) -> int:
    return 2 * math.floor(x / 2.0)


@dataclass(frozen=True)
class SmoothnessBudget:
    """Componentwise-minimal even derivative budgets (N, Nprime, M, Mprime)
    satisfying the adjoint-calculus and boundedness inequalities."""

    d: int
    m: float
    rho: float
    delta: float
    N: int
    Nprime: int
    M: int
    Mprime: int

    def verify(self) -> list:
        """Re-evaluate every inequality from scratch; returns
        (name, lhs, op, rhs, ok) tuples.  All must hold."""
        d, m, rho, delta = self.d, self.m, self.rho, self.delta
        fe = _even_floor(d)
        checks = [
            ("N_main", self.N, ">",
             ((3.0 - delta) * d + (5.0 - delta) * (1.0 - delta)) / (1.0 - delta) ** 2),
            ("Nprime_main", self.Nprime, ">", 6.0 * d + 12.0),
            ("Nprime_order", self.Nprime, ">=", d + 1.0),
            ("Nprime_kernel", self.Nprime, ">", (d + m + 1.0) / rho),
            ("NM_gap_strict", self.N - self.M, ">",
             (d + (fe + 2.0) * delta) / (1.0 - delta)),
            ("NM_gap_weak", self.N - self.M, ">=",
             (-m + (1.0 - delta) * d + (fe + 2.0) * delta) / (1.0 - delta)),
            ("NprimeMprime_gap", self.Nprime - self.Mprime, ">=", fe + 2.0),
            ("Mprime_order", self.Mprime, ">=", d + 1.0),
            ("Mprime_kernel", self.Mprime, ">", (d + m + 1.0) / rho),
            ("Mprime_duality", self.Mprime, ">=", float(d)),
        ]
        out = []
        for name, lhs, op, rhs in checks:
            ok = lhs > rhs if op == ">" else lhs >= rhs
            out.append((name, float(lhs), op, float(rhs), bool(ok)))
        parity_ok = all(v % 2 == 0 and v >= 0
                        for v in (self.N, self.Nprime, self.M, self.Mprime))
        out.append(("even_nonnegative", 0.0, ">=", 0.0, parity_ok))
        return out

    @property
    def all_satisfied(self) -> bool:
        return all(ok for *_, ok in self.verify())


def smoothness_budget(d: int, m: float, rho: float, delta: float) -> SmoothnessBudget:
    """Componentwise-minimal even budgets; M is fixed at 0 (the cheapest
    admissible choice) and an infeasible M' window raises with the binding
    constraints listed."""
    if not (isinstance(d, int) and d >= 1):
        raise InvalidInputError(f"dimension must be a positive integer, got {d!r}")
    if not 0.0 < rho <= 1.0:
        raise InvalidInputError(f"rho must lie in (0, 1], got {rho}")
    if not 0.0 <= delta < 1.0:
        raise InvalidInputError(f"delta must lie in [0, 1), got {delta}")
    kernel_order = (d + m + 1.0) / rho
    if not math.isfinite(kernel_order):
        raise InvalidInputError(
            f"(d + m + 1) / rho must be finite, got {kernel_order} (m = {m}, rho = {rho})")
    fe = _even_floor(d)
    n_threshold = ((3.0 - delta) * d + (5.0 - delta) * (1.0 - delta)) / (1.0 - delta) ** 2
    N = _even_greater(n_threshold)
    nprime_lowers = {
        "Nprime_main": _even_greater(6.0 * d + 12.0),
        "Nprime_order": _even_at_least(d + 1.0),
        "Nprime_kernel": _even_greater(kernel_order),
    }
    Nprime = max(nprime_lowers.values())
    M = 0
    gap_strict = (d + (fe + 2.0) * delta) / (1.0 - delta)
    gap_weak = (-m + (1.0 - delta) * d + (fe + 2.0) * delta) / (1.0 - delta)
    if not (N - M > gap_strict and N - M >= gap_weak):
        raise InfeasibleBudgetError(
            f"M = 0 violates the N - M gap: N = {N}, need > {gap_strict} and >= {gap_weak}")
    mprime_lowers = {
        "Mprime_order": _even_at_least(d + 1.0),
        "Mprime_kernel": _even_greater(kernel_order),
        "Mprime_duality": _even_at_least(float(d)),
    }
    mprime_upper = Nprime - (fe + 2)
    Mprime = max(mprime_lowers.values())
    if Mprime > mprime_upper:
        binding = [k for k, v in mprime_lowers.items() if v == Mprime]
        raise InfeasibleBudgetError(
            f"M' window empty: lower bound {Mprime} (binding: {', '.join(binding)}) "
            f"exceeds upper bound N' - {fe + 2} = {mprime_upper}")
    budget = SmoothnessBudget(d=d, m=float(m), rho=float(rho), delta=float(delta),
                              N=N, Nprime=Nprime, M=M, Mprime=Mprime)
    bad = [name for name, *_rest, ok in budget.verify() if not ok]
    if bad:
        raise InfeasibleBudgetError(f"post-hoc verification failed: {', '.join(bad)}")
    return budget


# ---------------------------------------------------------------------------
# resolution sweep probe

@dataclass(frozen=True)
class ProbeReport:
    resolutions: tuple
    estimates: tuple         # per resolution, NormEstimate.estimate
    converged: tuple
    lowers: tuple            # per resolution, as on NormEstimate
    uppers: tuple
    reasons: tuple
    iterations: tuple
    growth: float            # last/first - 1, or as certified (see below)
    variation: float         # max/min - 1, or as certified
    grows: bool              # growth >= PROBE_GROWTH_THRESHOLD
    certified: bool          # the brackets certify the verdict asked for


def necessary_condition_probe(s: Symbol, p: float, resolutions,
                              half_extent: float, dim: int = 1,
                              budget: int = 300, seed: int = 0,
                              expect: str = "report") -> ProbeReport:
    """Track random-ascent norm lower bounds across grid resolutions at a
    fixed box size.

    A discretized operator violating the order condition shows estimates
    that grow with resolution; a bounded one stays flat.  The verdict is
    qualitative and tied to the supplied settings; it reads the estimates
    (`NormEstimate.estimate`: the measured ratio, or the lower bound once
    the bracket is closed), while each resolution's certified bracket and
    stopping reason come with them.

    expect "growth" or "stable" asks for that verdict and stops once the
    brackets [lower, upper] (`_norm_bracket`, each taken once, first)
    certify it, with r = BRACKET_RTOL:
    - growth, if lower[last] >= (1 + PROBE_GROWTH_THRESHOLD)(1 + r)
      upper[first]: the last resolution's ascent runs first, with that
      value as its target;
    - stable, if max upper (1 + r) <= (1 + PROBE_STABLE_TOLERANCE)
      min lower: from the brackets alone.
    Certified growth reports the certified lower bounds growth =
    lower[last] / upper[first] - 1 and variation = max lower / min upper
    - 1, certified stability the certified upper bound variation = max
    upper / min lower - 1; each resolution not run reports its bracket,
    reason "verdict" and 0 iterations, and so its estimate is lower.
    Otherwise, and for expect "report" (no verdict asked), every
    resolution runs its ascent from its own default_rng(seed), as if run
    alone.
    """
    if expect not in ("report", "growth", "stable"):
        raise InvalidInputError(
            f"expect: expected report, growth or stable, got {expect!r}")
    if not s.x_independent:
        raise InvalidInputError("the probe is defined for multiplier symbols")
    p = float(p)
    if p == 2.0:
        raise InvalidInputError("p = 2 is the reference exponent; probe needs p != 2")
    exponent = MixedExponent.uniform(p, dim)
    grids = [Grid(dim, int(n), half_extent) for n in resolutions]
    brackets = [_norm_bracket(s, g, exponent) for g in grids]
    planes = [plane for _, plane, _ in brackets]
    uppers = [upper for _, _, upper in brackets]

    def ascent(i, target=None):
        return _bracketed_estimate(s, grids[i], exponent, "random_ascent",
                                   budget, seed, brackets[i], target)

    runs = [None] * len(grids)
    certified = False
    if expect == "growth" and uppers[0] is not None:
        target = (1.0 + PROBE_GROWTH_THRESHOLD) * (1.0 + BRACKET_RTOL) * uppers[0]
        runs[-1] = ascent(-1, target)
        certified = runs[-1].lower >= target
    elif expect == "stable" and None not in uppers:
        certified = (max(uppers) * (1.0 + BRACKET_RTOL)
                     <= (1.0 + PROBE_STABLE_TOLERANCE) * min(planes))
    runs = [run or (NormEstimate(0.0, "random_ascent", "verdict", 0, exponent.p,
                                 planes[i], uppers[i]) if certified else ascent(i))
            for i, run in enumerate(runs)]
    estimates = [est.estimate for est in runs]
    growth = estimates[-1] / estimates[0] - 1.0
    variation = max(estimates) / min(estimates) - 1.0
    if certified and expect == "growth":   # certified lower bounds
        growth = runs[-1].lower / uppers[0] - 1.0
        variation = (max(est.lower for est in runs)
                     / min(u for u in uppers if u is not None) - 1.0)
    elif certified:   # a certified upper bound
        variation = max(uppers) / min(planes) - 1.0
    return ProbeReport(
        resolutions=tuple(int(n) for n in resolutions),
        estimates=tuple(estimates),
        converged=tuple(est.converged for est in runs),
        lowers=tuple(est.lower for est in runs),
        uppers=tuple(est.upper for est in runs),
        reasons=tuple(est.reason for est in runs),
        iterations=tuple(est.iterations for est in runs),
        growth=growth,
        variation=variation,
        grows=growth >= PROBE_GROWTH_THRESHOLD,
        certified=certified,
    )
