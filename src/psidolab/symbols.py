"""Symbols sigma(x, xi), built-in families, and numerical class verification.

A symbol evaluator is a vectorized callable ``fn(x, xi)`` where both
arguments are float arrays whose last axis is the coordinate axis; the
result broadcasts against the leading shapes.  Evaluators must be pure
and reentrant.

Class membership (the weighted derivative bound with weight
``<xi>^(m - rho|beta| + delta|alpha|)``) is checked by sampling: the
reported constants are suprema over a declared finite sample set, fitted
not proven.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, SymbolEvaluationError
from .grid import SampledFunction, spectral_derivative

FD_ORDER_CAP = 8  # mixed central differences degrade beyond this total order


# ---------------------------------------------------------------------------
# multi-indices

def as_multi_index(value, dim: int) -> tuple:
    """Normalize an int (dim 1) or sequence to a nonnegative integer tuple."""
    if np.isscalar(value):
        if dim != 1:
            raise InvalidInputError("scalar multi-index only allowed for dim 1")
        value = (value,)
    idx = tuple(int(v) for v in value)
    if len(idx) != dim:
        raise InvalidInputError(f"multi-index {idx} has length {len(idx)}, expected {dim}")
    if any(v < 0 for v in idx):
        raise InvalidInputError(f"multi-index {idx} has negative entries")
    return idx


def multi_index_order(alpha) -> int:
    return int(sum(alpha))


def iter_multi_indices(dim: int, max_order: int):
    """All multi-indices of the given dimension with total order <= max_order."""
    for combo in product(range(max_order + 1), repeat=dim):
        if sum(combo) <= max_order:
            yield combo


# ---------------------------------------------------------------------------
# symbol objects

@dataclass(frozen=True)
class SymbolClassParams:
    """Order/regularity metadata: order m, decay gain rho, growth penalty
    delta, and the even derivative budgets N (in x) and Nprime (in xi)."""

    m: float
    rho: float = 1.0
    delta: float = 0.0
    N: int = 0
    Nprime: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0):
            raise InvalidInputError(f"rho must be in [0, 1], got {self.rho}")
        if not (0.0 <= self.delta < 1.0):
            raise InvalidInputError(f"delta must be in [0, 1), got {self.delta}")
        for name, val in (("N", self.N), ("Nprime", self.Nprime)):
            if not isinstance(val, int) or val < 0 or val % 2 != 0:
                raise InvalidInputError(f"{name} must be an even nonnegative integer, got {val!r}")
        if not math.isfinite(self.m):
            raise InvalidInputError(f"order m must be finite, got {self.m}")


# the factors each kind carries: (x_factor, xi_factor)
_KIND_FACTORS = {
    "multiplier": (False, True),
    "multiplication": (True, False),
    "separable": (True, True),
    "general": (False, False),
}


@dataclass(frozen=True)
class Symbol:
    """Evaluator plus class metadata and a structural kind tag.

    Every kind but "general" is a product a(x) b(xi) with one factor possibly
    absent: x_factor = a, xi_factor = b, as _KIND_FACTORS lists.  A multiplier
    or multiplication built without its factor gets one that samples the
    evaluator; any other kind/factor mismatch is rejected.
    """

    evaluator: Callable
    params: SymbolClassParams
    kind: str
    x_factor: Optional[Callable] = None
    xi_factor: Optional[Callable] = None
    label: str = "symbol"

    def __post_init__(self):
        if self.kind not in _KIND_FACTORS:
            raise InvalidInputError(f"unknown symbol kind {self.kind!r}")
        # rebound on every copy (replace reruns this) to sample its own evaluator
        if self.kind == "multiplier" and _samples_evaluator(self.xi_factor):
            object.__setattr__(self, "xi_factor", self._sample_xi)
        if self.kind == "multiplication" and _samples_evaluator(self.x_factor):
            object.__setattr__(self, "x_factor", self._sample_x)
        carried = (self.x_factor is not None, self.xi_factor is not None)
        if carried != _KIND_FACTORS[self.kind]:
            raise InvalidInputError(
                f"{self.label}: a {self.kind} symbol carries (x_factor, xi_factor) "
                f"= {_KIND_FACTORS[self.kind]}, got {carried}")

    @property
    def x_independent(self) -> bool:
        return self.kind == "multiplier"

    @property
    def xi_independent(self) -> bool:
        return self.kind == "multiplication"

    def _sample_x(self, x) -> np.ndarray:
        return self.eval(x, np.zeros(x.shape[-1]))

    def _sample_xi(self, xi) -> np.ndarray:
        return self.eval(np.zeros(xi.shape[-1]), xi)

    def eval(self, x, xi) -> np.ndarray:
        """Vectorized evaluation with a finiteness check."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x.ndim == 0 or xi.ndim == 0:
            raise InvalidInputError("points must carry a coordinate axis")
        if x.shape[-1] != xi.shape[-1]:
            raise InvalidInputError(
                f"x has dimension {x.shape[-1]}, xi has {xi.shape[-1]}")
        out = np.asarray(self.evaluator(x, xi), dtype=np.complex128)
        bad = ~np.isfinite(out.real) | ~np.isfinite(out.imag)
        if np.any(bad):
            xb = np.broadcast_to(x, bad.shape + x.shape[-1:])
            xib = np.broadcast_to(xi, bad.shape + xi.shape[-1:])
            where = tuple(np.argwhere(bad)[0])
            raise SymbolEvaluationError(
                f"{self.label}: non-finite value at x={xb[where].tolist()}, "
                f"xi={xib[where].tolist()}")
        return out


def _samples_evaluator(factor) -> bool:
    """True for a missing factor or one sampling some symbol's evaluator."""
    return factor is None or isinstance(getattr(factor, "__self__", None), Symbol)


def eval_symbol(s: Symbol, x, xi) -> complex:
    """Evaluate a symbol at a single point pair."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(s.eval(x, xi))


def with_params(s: Symbol, **updates) -> Symbol:
    """Copy of s whose class claim is updated (e.g. a different rho)."""
    return replace(s, params=replace(s.params, **updates))


# ---------------------------------------------------------------------------
# built-in families

def _bracket(xi: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 + np.sum(xi**2, axis=-1))


def _factored(params: SymbolClassParams, label: str, x_factor=None,
              xi_factor=None) -> Symbol:
    """Symbol a(x) b(xi) from its factors; the kind follows from which are
    given.  Only symbols with an x factor broadcast against xi."""
    if x_factor is None:
        return Symbol(lambda x, xi: xi_factor(xi), params, "multiplier",
                      xi_factor=xi_factor, label=label)
    if xi_factor is None:
        def ev(x, xi):
            vals = x_factor(x)
            return np.broadcast_to(vals, np.broadcast_shapes(vals.shape, xi.shape[:-1]))

        return Symbol(ev, params, "multiplication", x_factor=x_factor, label=label)
    return Symbol(lambda x, xi: x_factor(x) * xi_factor(xi), params, "separable",
                  x_factor=x_factor, xi_factor=xi_factor, label=label)


def constant_symbol(c, label: Optional[str] = None) -> Symbol:
    """sigma = c.  Tagged xi-independent so application is exact pointwise."""
    c = complex(c)
    return _factored(SymbolClassParams(m=0.0), label or f"const:{c}",
                     x_factor=lambda x: np.full(x.shape[:-1], c))


def bessel_multiplier(m: float, Nprime: int = 4) -> Symbol:
    """sigma(xi) = <xi>^m, the smooth model multiplier of order m."""
    return _factored(SymbolClassParams(m=float(m), rho=1.0, delta=0.0, N=0, Nprime=Nprime),
                     f"bessel:{m}", xi_factor=lambda xi: _bracket(xi) ** m + 0j)


def wave_multiplier(m: float = 0.0, Nprime: int = 2) -> Symbol:
    """sigma(xi) = exp(i <xi>) <xi>^m; oscillation cancels the decay gain,
    so the honest claim is rho = 0."""

    def factor(xi):
        br = _bracket(xi)
        return np.exp(1j * br) * br**m

    return _factored(SymbolClassParams(m=float(m), rho=0.0, delta=0.0, N=0, Nprime=Nprime),
                     f"wave:{m}", xi_factor=factor)


def smoothness_coefficients(smoothness: int, count: int, amplitude: float = 0.4) -> tuple:
    """Cosine-series coefficients decaying like k^-(smoothness+1), normalized
    so the series sums to `amplitude` (keeps the factor in [1-a, 1+a])."""
    if count < 1 or smoothness < 0:
        raise InvalidInputError("need count >= 1 and smoothness >= 0")
    raw = np.arange(1, count + 1, dtype=float) ** (-(smoothness + 1.0))
    return tuple(amplitude * raw / raw.sum())


def trig_multiplication(coeffs, period: float, N: int = 2) -> Symbol:
    """sigma(x) = prod_axis (1 + sum_k c_k cos(2 pi k x_axis / period)).

    The truncated series length and coefficient decay control the effective
    x-smoothness: derivative constants beyond it blow up with the cutoff.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if period <= 0:
        raise InvalidInputError(f"period must be positive, got {period}")
    ks = np.arange(1, len(coeffs) + 1, dtype=float)
    cs = np.asarray(coeffs)
    omega = 2.0 * math.pi / period

    def factor(x):
        out = np.ones(x.shape[:-1], dtype=np.complex128)
        for axis in range(x.shape[-1]):
            phases = np.cos(omega * np.multiply.outer(x[..., axis], ks))
            out = out * (1.0 + phases @ cs)
        return out

    return _factored(SymbolClassParams(m=0.0, rho=1.0, delta=0.0, N=N, Nprime=0),
                     f"trig:{len(coeffs)}", x_factor=factor)


def separable_symbol(a: Symbol, b: Symbol, label: Optional[str] = None) -> Symbol:
    """Product a(x) * b(xi) from a multiplication and a multiplier symbol."""
    if not (a.xi_independent and b.x_independent):
        raise InvalidInputError(
            "separable_symbol needs a multiplication symbol and a multiplier")
    pa, pb = a.params, b.params
    combined = SymbolClassParams(m=pb.m, rho=pb.rho, delta=pa.delta,
                                 N=pa.N, Nprime=pb.Nprime)
    return _factored(combined, label or f"sep({a.label},{b.label})",
                     x_factor=a.x_factor, xi_factor=b.xi_factor)


def builtin_symbols(period: float) -> list:
    """One representative instance per built-in family.

    `period` should be 2R of the working grid so the multiplication factor
    is box-periodic.
    """
    mult = trig_multiplication(smoothness_coefficients(2, 6), period, N=2)
    return [
        constant_symbol(1.0),
        bessel_multiplier(-1.0),
        wave_multiplier(0.0),
        mult,
        separable_symbol(mult, bessel_multiplier(-1.0)),
    ]


# ---------------------------------------------------------------------------
# finite differences

_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))                  # / (12 s)
_D2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))    # / (12 s^2)


def _fd_terms(alpha, beta, dim, step):
    """Expand the composed 4th-order stencils into (dx, dxi, weight) terms."""
    plan = []
    for var, mi in ((0, alpha), (1, beta)):
        for axis, order in enumerate(mi):
            plan += [(var, axis, _D2)] * (order // 2)
            if order % 2:
                plan.append((var, axis, _D1))
    terms = [(np.zeros(dim), np.zeros(dim), 1.0)]
    denom = 1.0
    for var, axis, stencil in plan:
        denom *= 12.0 * step ** (2 if stencil is _D2 else 1)
        new = []
        for dx, dxi, w in terms:
            for offset, coeff in stencil:
                ndx, ndxi = dx, dxi
                if var == 0:
                    ndx = dx.copy()
                    ndx[axis] += offset * step
                else:
                    ndxi = dxi.copy()
                    ndxi[axis] += offset * step
                new.append((ndx, ndxi, w * coeff))
        terms = new
    return terms, denom


def _fd_derivative(s: Symbol, alpha, beta, x: np.ndarray, xi: np.ndarray,
                   step: float) -> np.ndarray:
    """Vectorized mixed derivative d_x^alpha d_xi^beta sigma at sample points."""
    dim = x.shape[-1]
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    # derivatives the kind tag rules out are identically zero, not stencil noise
    if multi_index_order(alpha) > 0 and s.x_independent:
        return np.zeros(shape, dtype=np.complex128)
    if multi_index_order(beta) > 0 and s.xi_independent:
        return np.zeros(shape, dtype=np.complex128)
    if multi_index_order(alpha) + multi_index_order(beta) == 0:
        return s.eval(x, xi)
    terms, denom = _fd_terms(alpha, beta, dim, step)
    acc = np.zeros(shape, dtype=np.complex128)
    for dx, dxi, w in terms:
        acc += w * s.eval(x + dx, xi + dxi)
    return acc / denom


def finite_diff_derivative(s: Symbol, alpha, beta, x, xi, step: float) -> complex:
    """Central-difference d_x^alpha d_xi^beta sigma(x, xi) at one point.

    Composed one axis at a time from 4th-order stencils; the total order
    is capped at 8 and small steps are rejected for order >= 4 to guard
    against cancellation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    dim = x.shape[-1]
    alpha = as_multi_index(alpha, dim)
    beta = as_multi_index(beta, dim)
    total = multi_index_order(alpha) + multi_index_order(beta)
    if total > FD_ORDER_CAP:
        raise InvalidInputError(
            f"|alpha| + |beta| = {total} exceeds the finite-difference cap {FD_ORDER_CAP}")
    if not step > 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    if total >= 4 and step < 1e-4:
        raise InvalidInputError(
            f"step {step} too small for order {total} (cancellation guard)")
    return complex(_fd_derivative(s, alpha, beta, x, xi, step))


# ---------------------------------------------------------------------------
# class verification

@dataclass(frozen=True)
class SampleSpec:
    """Finite (x, xi) sample set over which suprema are fitted.

    xi magnitudes are log-spaced up to xi_max (plus xi = 0); directions and
    the x cloud are drawn deterministically from `seed`.
    """

    dim: int
    xi_max: float
    x_extent: float = 1.0
    num_x: int = 6
    num_xi: int = 48
    seed: int = 0
    step: float = 0.05

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise InvalidInputError(f"dim must be 1..3, got {self.dim}")
        if self.xi_max <= 0 or self.x_extent <= 0:
            raise InvalidInputError("xi_max and x_extent must be positive")
        if self.num_x < 1 or self.num_xi < 2:
            raise InvalidInputError("need num_x >= 1 and num_xi >= 2")
        if self.num_x * self.num_xi > 2**14:
            raise InvalidInputError("sample set larger than 2^14 points")

    def points(self) -> tuple:
        rng = np.random.default_rng(self.seed)
        xs = np.vstack([
            np.zeros((1, self.dim)),
            rng.uniform(-self.x_extent, self.x_extent, size=(self.num_x - 1, self.dim)),
        ]) if self.num_x > 1 else np.zeros((1, self.dim))
        mags = np.concatenate([[0.0], np.geomspace(0.5, self.xi_max, self.num_xi - 1)])
        if self.dim == 1:
            dirs = np.where(np.arange(self.num_xi) % 2 == 0, 1.0, -1.0)[:, None]
        else:
            dirs = rng.standard_normal((self.num_xi, self.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xis = mags[:, None] * dirs
        x_all = np.repeat(xs, len(xis), axis=0)
        xi_all = np.tile(xis, (len(xs), 1))
        return x_all, xi_all


@dataclass(frozen=True)
class DerivativeBoundEntry:
    alpha: tuple
    beta: tuple
    fitted_constant: float
    witness_x: tuple
    witness_xi: tuple
    passed: bool


@dataclass(frozen=True)
class DerivativeBoundReport:
    """Fitted constants per derivative pair, with the attaining sample points."""

    entries: list
    cap: float
    global_pass: bool = field(default=False)

    def entry(self, alpha, beta) -> DerivativeBoundEntry:
        for e in self.entries:
            if e.alpha == tuple(alpha) and e.beta == tuple(beta):
                return e
        raise KeyError((alpha, beta))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "beta", "fitted_C", "witness_x", "witness_xi", "pass"])
            for e in self.entries:
                writer.writerow([
                    " ".join(map(str, e.alpha)),
                    " ".join(map(str, e.beta)),
                    repr(e.fitted_constant),
                    " ".join(repr(v) for v in e.witness_x),
                    " ".join(repr(v) for v in e.witness_xi),
                    e.passed,
                ])


def verify_symbol_class(s: Symbol, sample_spec: SampleSpec, cap: float) -> DerivativeBoundReport:
    """Fit the weighted-derivative constants of the claimed class over a sample set.

    For every pair |alpha| <= N, |beta| <= Nprime (within the finite-difference
    order cap) the fitted constant is

        sup over samples of |d_x^alpha d_xi^beta sigma| * <xi>^(-m + rho|beta| - delta|alpha|)

    A pair passes when the constant is finite and at most `cap`.  This is a
    sampled supremum, not a proof.
    """
    if cap <= 0:
        raise InvalidInputError(f"cap must be positive, got {cap}")
    p = s.params
    x_all, xi_all = sample_spec.points()
    bracket = np.sqrt(1.0 + np.sum(xi_all**2, axis=-1))
    entries = []
    for alpha in iter_multi_indices(sample_spec.dim, min(p.N, FD_ORDER_CAP)):
        for beta in iter_multi_indices(sample_spec.dim, min(p.Nprime, FD_ORDER_CAP)):
            if multi_index_order(alpha) + multi_index_order(beta) > FD_ORDER_CAP:
                continue
            deriv = _fd_derivative(s, alpha, beta, x_all, xi_all, sample_spec.step)
            weight = bracket ** (-p.m + p.rho * multi_index_order(beta)
                                 - p.delta * multi_index_order(alpha))
            weighted = np.abs(deriv) * weight
            i = int(np.argmax(weighted))
            fitted = float(weighted[i])
            entries.append(DerivativeBoundEntry(
                alpha=alpha, beta=beta, fitted_constant=fitted,
                witness_x=tuple(float(v) for v in x_all[i]),
                witness_xi=tuple(float(v) for v in xi_all[i]),
                passed=bool(np.isfinite(fitted) and fitted <= cap),
            ))
    return DerivativeBoundReport(entries=entries, cap=cap,
                                 global_pass=all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# Schwartz-type seminorms

def schwartz_seminorm(f: SampledFunction, N: int, Nprime: int) -> float:
    """sup over the grid and |alpha| <= N, |beta| <= Nprime of |x^alpha d^beta f|.

    Derivatives are spectral, so Nprime is capped at 4 to stay within the
    accuracy of band-limited differentiation.
    """
    if not (isinstance(N, int) and N >= 0 and isinstance(Nprime, int) and Nprime >= 0):
        raise InvalidInputError("N and Nprime must be nonnegative integers")
    if Nprime > 4:
        raise InvalidInputError(f"Nprime = {Nprime} exceeds the spectral accuracy guard (4)")
    d = f.grid.dim
    mesh = f.grid.meshgrid()
    best = 0.0
    for beta in iter_multi_indices(d, Nprime):
        deriv = np.abs(spectral_derivative(f, beta).values)
        for alpha in iter_multi_indices(d, N):
            weight = np.ones(f.grid.shape)
            for axis, a in enumerate(alpha):
                if a:
                    weight = weight * np.abs(mesh[axis]) ** a
            best = max(best, float(np.max(weight * deriv)))
    return best
