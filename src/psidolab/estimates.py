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
from .mixed_norm import (MixedExponent, iterated_pnorm, leading_pnorms,
                         mixed_norm)
from .operators import (DyadicDecomposition, Kernel, apply_psido,
                        discrete_adjoint_apply, support_mask)
from .symbols import Symbol, as_multi_index, multi_index_order

ZERO_MEAN_TOL = 1e-12
SUPPORT_TOL = 1e-14


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
        if self.L < 0:
            raise InvalidInputError(f"L must be >= 0, got {self.L}")


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

    Returns the least-squares slope of log max|k| over log-spaced radial
    shells and the smallest envelope constant C with
    |k(z)| <= C |z|^predicted on the window.
    """
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
    radius = kernel.grid.radius()
    mag = np.abs(kernel.values)
    in_window = (radius >= z_lo) & (radius <= z_hi)
    if not in_window.any():
        raise InvalidInputError("window contains no grid points")
    if float(mag[in_window].max()) == 0.0:
        return DecayFitResult(None, 0.0, exponent, (), (), True, True)
    edges = np.geomspace(z_lo, z_hi, num_shells + 1)
    centers, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (radius >= a) & (radius < b)
        if sel.any():
            top = float(mag[sel].max())
            if top > 0:
                centers.append(math.sqrt(a * b))
                maxima.append(top)
    if len(centers) < 2:
        return DecayFitResult(None, 0.0, exponent, tuple(centers),
                              tuple(maxima), True, True)
    slope = float(np.polyfit(np.log(centers), np.log(maxima), 1)[0])
    envelope = float(np.max(mag[in_window] * radius[in_window] ** (-exponent)))
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


def dyadic_envelope_check(dd: DyadicDecomposition, M: int, alpha, beta,
                          x=None, pass_factor: float = 3.0) -> EnvelopeReport:
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
    radius = dd.grid.radius()
    weight = radius**M if M else np.ones(dd.grid.shape)
    xi_mesh = dd.dual.meshgrid()
    deriv_mult = np.ones(dd.dual.shape, dtype=np.complex128)
    for axis, b in enumerate(beta):
        if b:
            deriv_mult = deriv_mult * (1j * xi_mesh[axis]) ** b
    sups, ratios = [], []
    for j in range(dd.levels + 1):
        if multi_index_order(alpha) > 0:
            sups.append(0.0)
            ratios.append(0.0)
            continue
        piece = dd.piece_values(j, x) * deriv_mult
        kj = fourier_transform(SampledFunction(dd.dual, piece), "inverse")
        sup = float(np.max(weight * np.abs(kj.values)))
        sups.append(sup)
        ratios.append(sup / 2.0 ** (j * exponent))
    ring = [r for r in ratios[1:] if r > 0.0]
    if len(ring) >= 2:
        spread = max(ring) / min(ring)
        return EnvelopeReport(exponent, M, tuple(ratios), tuple(sups),
                              spread, spread <= pass_factor, False)
    return EnvelopeReport(exponent, M, tuple(ratios), tuple(sups),
                          None, True, True)


# ---------------------------------------------------------------------------
# cancellation test class

_INNER_PROFILES = {
    "gaussian": lambda u: np.exp(-0.5 * u**2),
    "bump": lambda u: np.where(np.abs(u) < 1.0,
                               np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0),
}


def _radial_bump(u2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-|u|^2)) on |u| < 1, exactly zero outside."""
    inside = u2 < 1.0
    out = np.zeros_like(u2)
    out[inside] = np.exp(-1.0 / (1.0 - u2[inside]))
    return out


_OUTER_PROFILES = {
    "bump": _radial_bump,
    "cos": lambda u2: np.where(u2 < 1.0, np.cos(0.5 * math.pi * np.sqrt(u2)) ** 2, 0.0),
}


def make_cancellation_test_function(grid: Grid, l: int, t: float, yprime,
                                    inner_profile: str = "gaussian",
                                    outer_profile: str = "bump") -> SampledFunction:
    """Member of the cancellation class: supported in the slab
    |x' - y'|_inf <= t with zero mean in x' for every leading point.

    Built as g(xbar) * (B(x' - a) - B(x' - b)) with B a compactly supported
    bump of radius t/2 and grid-aligned translates a, b, so the per-row
    mean cancels exactly and the support mask is exact.
    """
    d = grid.dim
    if not 0 <= l <= d - 1:
        raise InvalidInputError(f"split l = {l} outside 0..{d - 1}")
    h = grid.spacing
    if t < 4 * h:
        raise InvalidInputError(f"t = {t} too small for the grid (needs t >= 4h = {4 * h})")
    yprime = np.atleast_1d(np.asarray(yprime, dtype=float))
    if yprime.shape != (d - l,):
        raise InvalidInputError(f"y' has shape {yprime.shape}, expected ({d - l},)")
    if np.max(np.abs(yprime)) + t > grid.half_extent - h:
        raise InvalidInputError("slab does not fit inside the box")
    try:
        inner_fn = _INNER_PROFILES[inner_profile]
        outer_fn = _OUTER_PROFILES[outer_profile]
    except KeyError as exc:
        raise InvalidInputError(f"unknown profile {exc.args[0]!r}") from None

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
        return outer_fn(u2)

    trailing = outer_factor(offset) - outer_factor(-offset)
    if l == 0:
        values = trailing
    else:
        leading = np.ones((grid.points_per_axis,) * l)
        for k in range(l):
            leading = leading * inner_fn(ax).reshape((-1,) + (1,) * (l - 1 - k))
        values = leading.reshape(leading.shape + (1,) * (d - l)) * trailing
    f = SampledFunction(grid, values)
    row_means = np.abs(values.sum(axis=tuple(range(l, d)))) * h ** (d - l)
    if float(np.max(row_means)) > ZERO_MEAN_TOL * max(1.0, float(np.max(np.abs(values)))):
        raise RuntimeError("constructed function failed its own zero-mean check")
    return f


# ---------------------------------------------------------------------------
# the cancellation mass condition

@dataclass(frozen=True)
class CZCheckConfig:
    """Geometry of one mass-condition check: split l, slab width t, slab
    center x0prime, exclusion multiplier Nconst (> 1), and the inner
    exponent vector (a MixedExponent whose split equals l)."""

    l: int
    t: float
    x0prime: tuple
    Nconst: float
    pbar: MixedExponent

    def __post_init__(self):
        if self.t <= 0:
            raise InvalidInputError(f"t must be positive, got {self.t}")
        if not self.Nconst > 1:
            raise InvalidInputError(f"Nconst must exceed 1, got {self.Nconst}")
        if self.pbar.split != self.l:
            raise InvalidInputError(
                f"pbar.split = {self.pbar.split} must equal l = {self.l}")
        object.__setattr__(self, "x0prime",
                           tuple(float(v) for v in np.atleast_1d(self.x0prime)))


@dataclass(frozen=True)
class CZReport:
    t: float
    lhs: float
    rhs: float
    ratio: float
    excluded_points: int


def _verify_cancellation_class(f: SampledFunction, l: int, t: float, x0prime):
    d = f.grid.dim
    mask = support_mask(f, SUPPORT_TOL)
    if not mask.any():
        raise PreconditionError("test function vanishes identically")
    trailing = f.grid.coord_stack()[mask][:, l:]
    inf_dist = np.max(np.abs(trailing - np.asarray(x0prime)), axis=-1)
    if float(inf_dist.max()) > t + 1e-12:
        raise PreconditionError(
            f"support escapes the slab: |x' - x0'|_inf reaches {inf_dist.max():.6g} > t = {t}")
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

    for one cancellation-class function.  Distances on the periodic box use
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
    inner = cfg.pbar.p[:l]
    h = f.grid.spacing
    Tf = apply_fn(f)
    field_T = leading_pnorms(Tf.values, h, inner)
    field_f = leading_pnorms(f.values, h, inner)
    # periodic inf-distance of each trailing grid point from the slab center
    ax = f.grid.axis_coords()
    two_r = 2.0 * f.grid.half_extent
    excl = np.zeros((f.grid.points_per_axis,) * (d - l), dtype=bool)
    dist = np.zeros_like(excl, dtype=float)
    for k in range(d - l):
        delta = np.abs(ax - cfg.x0prime[k])
        per = np.minimum(delta, two_r - delta)
        dist = np.maximum(dist, per.reshape((-1,) + (1,) * (d - l - 1 - k)))
    excl = dist > cfg.Nconst * cfg.t
    lhs = float(h ** (d - l) * field_T[excl].sum())
    rhs = float(h ** (d - l) * field_f.sum())
    return CZReport(t=cfg.t, lhs=lhs, rhs=rhs, ratio=lhs / rhs,
                    excluded_points=int(excl.sum()))


def cz_sweep(apply_fn: Callable, grid: Grid, l: int, x0prime, Nconst: float,
             pbar: MixedExponent, ts, inner_profile: str = "gaussian",
             outer_profile: str = "bump") -> list:
    """Run the mass-condition check across slab widths, building the test
    function for each t."""
    reports = []
    for t in ts:
        f = make_cancellation_test_function(grid, l, float(t), x0prime,
                                            inner_profile, outer_profile)
        cfg = CZCheckConfig(l=l, t=float(t), x0prime=x0prime, Nconst=Nconst,
                            pbar=pbar)
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

@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str
    converged: bool
    iterations: int
    p: tuple


def _dual_map(v: np.ndarray, q: float) -> np.ndarray:
    a = np.abs(v)
    out = np.zeros_like(v)
    nz = a > 0
    out[nz] = a[nz] ** (q - 1.0) * (v[nz] / a[nz])
    return out


def _power_iteration_p2(s: Symbol, grid: Grid, budget: int,
                        rng: np.random.Generator) -> NormEstimate:
    v = random_band_limited(grid, rng).values
    best, prev = 0.0, -1.0
    converged = False
    it = 0
    for it in range(1, budget + 1):
        tv = apply_psido(s, SampledFunction(grid, v)).values
        num = float(np.linalg.norm(tv.reshape(-1)))
        den = float(np.linalg.norm(v.reshape(-1)))
        est = num / den
        best = max(best, est)
        if abs(est - prev) <= 1e-11 * max(est, 1.0):
            converged = True
            break
        prev = est
        w = discrete_adjoint_apply(s, SampledFunction(grid, tv)).values
        scale = np.max(np.abs(w))
        if scale == 0:
            converged = True
            break
        v = w / scale
    return NormEstimate(best, "power_iteration_p2", converged, it, None)


def _ascent_starts(s: Symbol, grid: Grid, rng: np.random.Generator,
                   count: int) -> list:
    dual = grid.dual()
    band = dual.radius() <= 0.5 * grid.nyquist
    impulse = fourier_transform(SampledFunction(dual, band.astype(np.complex128)),
                                "inverse")
    starts = [impulse, discrete_adjoint_apply(s, impulse)]
    for _ in range(count):
        starts.append(random_band_limited(grid, rng))
    return starts


def _boyd_ascent(s: Symbol, grid: Grid, q: float, budget: int,
                 rng: np.random.Generator) -> tuple:
    """Fixed-point ascent on ||Tf||_q / ||f||_q for a uniform exponent."""
    qprime = q / (q - 1.0)
    starts = _ascent_starts(s, grid, rng, count=4)
    iters = max(8, budget // len(starts))
    d = grid.dim
    best, converged, used = 0.0, False, 0

    def norm_q(vals):
        return iterated_pnorm(vals, grid.spacing, (q,) * d)

    for start in starts:
        if not np.any(start.values):   # the adjoint start of a zero operator
            continue
        x = start.values / norm_q(start.values)
        prev = -1.0
        for _ in range(iters):
            used += 1
            y = apply_psido(s, SampledFunction(grid, x)).values
            ratio = norm_q(y)
            best = max(best, ratio)
            if abs(ratio - prev) <= 1e-10 * max(ratio, 1.0):
                converged = True
                break
            prev = ratio
            z = discrete_adjoint_apply(s, SampledFunction(grid, _dual_map(y, q))).values
            if np.max(np.abs(z)) == 0:
                converged = True
                break
            x = _dual_map(z, qprime)
            x = x / norm_q(x)
    return best, converged, used


def _hill_climb(s: Symbol, grid: Grid, p: MixedExponent, budget: int,
                rng: np.random.Generator) -> tuple:
    """Stochastic coordinate ascent for genuinely mixed exponents."""

    def ratio_of(vals):
        f = SampledFunction(grid, vals)
        return mixed_norm(apply_psido(s, f), p) / mixed_norm(f, p)

    x = random_band_limited(grid, rng).values
    best = ratio_of(x)
    step = 0.5
    stale = 0
    used = 0
    for _ in range(budget):
        used += 1
        cand = x + step * random_band_limited(grid, rng).values
        r = ratio_of(cand)
        if r > best:
            best, x, stale = r, cand, 0
        else:
            stale += 1
            if stale >= 8:
                step *= 0.7
                stale = 0
        if step < 1e-6:
            return best, True, used
    return best, False, used


def operator_norm_estimate(s: Symbol, grid: Grid, p: MixedExponent,
                           method: str, budget: int = 300,
                           seed: int = 0) -> NormEstimate:
    """Estimate the discrete operator norm on the grid.

    "power_iteration_p2" (p identically 2) converges to the top singular
    value via T*T.  "random_ascent" maximizes the mixed-norm ratio over
    random band-limited starts with fixed-point refinement; its value is a
    lower bound on the discrete norm, never a certificate.
    """
    if budget < 1:
        raise InvalidInputError(f"budget must be >= 1, got {budget}")
    if p.dim != grid.dim:
        raise InvalidInputError(
            f"exponent has {p.dim} components for a {grid.dim}-d grid")
    rng = np.random.default_rng(seed)
    if method == "power_iteration_p2":
        if any(q != 2.0 for q in p.p):
            raise InvalidInputError("power_iteration_p2 requires p = (2, ..., 2)")
        est = _power_iteration_p2(s, grid, budget, rng)
        return NormEstimate(est.value, est.method, est.converged,
                            est.iterations, p.p)
    if method == "random_ascent":
        if p.is_uniform:
            value, converged, used = _boyd_ascent(s, grid, p.p[0], budget, rng)
        else:
            value, converged, used = _hill_climb(s, grid, p, budget, rng)
        return NormEstimate(value, "random_ascent", converged, used, p.p)
    raise InvalidInputError(f"unknown method {method!r}")


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
    if not (0.0 <= rho <= 1.0 and 0.0 <= delta < 1.0):
        raise InvalidInputError(f"bad class parameters rho={rho}, delta={delta}")
    if isinstance(p, MixedExponent):
        ps = p.p
    else:
        ps = (float(p),)
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
    fe = _even_floor(d)
    n_threshold = ((3.0 - delta) * d + (5.0 - delta) * (1.0 - delta)) / (1.0 - delta) ** 2
    N = _even_greater(n_threshold)
    nprime_lowers = {
        "Nprime_main": _even_greater(6.0 * d + 12.0),
        "Nprime_order": _even_at_least(d + 1.0),
        "Nprime_kernel": _even_greater((d + m + 1.0) / rho),
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
        "Mprime_kernel": _even_greater((d + m + 1.0) / rho),
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
    estimates: tuple
    converged: tuple
    growth: float            # last/first - 1
    variation: float         # max/min - 1
    grows: bool
    growth_threshold: float


def necessary_condition_probe(s: Symbol, p: float, resolutions,
                              half_extent: float, dim: int = 1,
                              budget: int = 300, seed: int = 0,
                              growth_threshold: float = 0.2) -> ProbeReport:
    """Track random-ascent norm lower bounds across grid resolutions at a
    fixed box size.

    A discretized operator violating the order condition shows estimates
    that grow with resolution; a bounded one stays flat.  The verdict is
    qualitative and tied to the supplied settings.
    """
    if not s.x_independent:
        raise InvalidInputError("the probe is defined for multiplier symbols")
    p = float(p)
    if p == 2.0:
        raise InvalidInputError("p = 2 is the reference exponent; probe needs p != 2")
    estimates, flags = [], []
    for n in resolutions:
        grid = Grid(dim, int(n), half_extent)
        est = operator_norm_estimate(s, grid, MixedExponent.uniform(p, dim),
                                     "random_ascent", budget=budget, seed=seed)
        estimates.append(est.value)
        flags.append(est.converged)
    growth = estimates[-1] / estimates[0] - 1.0
    variation = max(estimates) / min(estimates) - 1.0
    return ProbeReport(
        resolutions=tuple(int(n) for n in resolutions),
        estimates=tuple(estimates),
        converged=tuple(flags),
        growth=growth,
        variation=variation,
        grows=growth >= growth_threshold,
        growth_threshold=growth_threshold,
    )
