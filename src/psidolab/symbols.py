"""Symbols sigma(x, xi), built-in families, and numerical class verification.

A symbol evaluator is a vectorized callable ``fn(x, xi)`` where both
arguments are float arrays whose last axis is the coordinate axis; the
result broadcasts against the leading shapes.  Evaluators must be pure
and reentrant, and finite on the grids they are applied on.  A general
(non-factored) symbol is applied through a cross approximation that
evaluates full rows sigma(x_i, all xi), full columns sigma(all x, xi_j)
and a fixed set of probe entries, not every (x, xi) pair: a value that is
non-finite for every x at some xi (or for every xi at some x) raises
SymbolEvaluationError naming the point, but one at an isolated (x, xi)
pair can go unseen.

Class membership (the weighted derivative bound with weight
``<xi>^(m - rho|beta| + delta|alpha|)``) is checked by sampling: the
reported constants are suprema over a declared finite sample set, fitted
not proven.

The derivatives are composed 4th-order central differences.  Their cost is
one evaluation per distinct stencil point per sample point, not one per
stencil term: all (alpha, beta) pairs share one table of distinct offsets,
found from integer ids of the exact float offsets and evaluated by one
``Symbol.eval`` per block of about 2^20 points.  Each
pair then sums its weighted terms in the per-term order, so the result is
bit-identical to summing ``w * s.eval(x + dx, xi + dxi)`` term by term.
A factored symbol is evaluated once per distinct point of its factors: a
multiplier at the samples of the first x only, a separable a(x) b(xi) as
each factor once per distinct shift of its own variable, every stencil
point then the product of the two, as its evaluator forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError, SymbolEvaluationError
from .grid import Grid, SampledFunction, spectral_derivative

FD_ORDER_CAP = 8  # mixed central differences degrade beyond this total order
# evaluators run quietly: the finiteness checks turn overflow into typed errors
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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

    A factor is a vectorized callable of points (..., dim) returning the
    leading shape (or a shape that broadcasts to it).  The built-in
    factors also take a Grid and return their value at every grid point,
    sampled from the grid's 1-D axis; they are marked by a true
    `takes_grid` attribute on the callable itself, so wrappers made with
    `functools.wraps` keep the mark.  `sampled_factor` passes the Grid to
    a marked factor and the grid's coordinate stack to any other.  A true
    `even` attribute, set alike, declares it even in each coordinate, bit
    for bit.  Real factor values (`bessel`, `trig`, a real `const`) are
    sampled as float64, any other as complex128; numpy casts a real b to
    (b, +0), the bits of a +0j sample, wherever it meets complex samples.

    `grid_memo` keeps one entry per name for the last grid only:
    `sampled_factor` the sample of each factor (one read-only array), and
    the operators a general symbol's cross-approximation terms (read-only
    arrays of its rank), so apply and adjoint on one grid compress once.
    The memo is not part of the symbol's identity: equality, hashing and
    repr ignore it, and every `dataclasses.replace` / `with_params` copy
    starts without it.
    """

    evaluator: Callable
    params: SymbolClassParams
    kind: str
    x_factor: Optional[Callable] = None
    xi_factor: Optional[Callable] = None
    label: str = "symbol"
    # name -> (grid, read-only value); replaced, never mutated
    _samples: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

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

    def grid_memo(self, name: str, grid, compute: Callable):
        """compute(), kept under name for this grid until another replaces it.

        Only the last grid is kept per name, as one (grid, value) tuple
        that a new grid replaces whole: memory stays bounded, and a
        concurrent caller sees either entry complete, never one grid
        paired with another's value (at worst two callers compute the same
        grid).  compute must return read-only data."""
        entry = self._samples.get(name)
        if entry is not None and entry[0] == grid:
            return entry[1]
        value = compute()
        self._samples[name] = (grid, value)
        return value

    def sampled_factor(self, which: str, grid) -> np.ndarray:
        """x_factor ("x") or xi_factor ("xi") sampled at every point of grid,
        memoised for the last grid (`grid_memo`).

        The returned array is read-only, float64 for real values (see
        `Symbol`).  A non-finite sample raises SymbolEvaluationError naming
        the first bad point.  A factor marked `takes_grid` samples the grid
        itself; any other gets every grid point as `grid.coord_stack()`.
        """
        return self.grid_memo(which, grid, lambda: self._sample_factor(which, grid))

    def _sample_factor(self, which: str, at) -> np.ndarray:
        """The factor at every point of a Grid, or at points (..., dim)."""
        factor = {"x": self.x_factor, "xi": self.xi_factor}[which]
        if isinstance(at, Grid) and not getattr(factor, "takes_grid", False):
            at = at.coord_stack()
        with np.errstate(**_QUIET):
            values = np.asarray(factor(at))
        real = values.dtype.kind in "biuf"
        # a view, so the read-only flag never reaches an array the factor keeps
        values = values.astype(float if real else complex, copy=False).view()
        if not np.isfinite(values).all():
            raise _nonfinite_error(values, f"{self.label}: non-finite {which}_factor value",
                                   **{which: at.coord_stack() if isinstance(at, Grid) else at})
        values.flags.writeable = False
        return values

    def _sample_x(self, x) -> np.ndarray:
        return self.eval(x, np.zeros(x.shape[-1]))

    def _sample_xi(self, xi) -> np.ndarray:
        return self.eval(np.zeros(xi.shape[-1]), xi)

    def eval(self, x, xi) -> np.ndarray:
        """Vectorized evaluation with a finiteness check.

        numpy's floating-point warnings are off while the evaluator runs:
        a non-finite value raises SymbolEvaluationError instead.
        """
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x.ndim == 0 or xi.ndim == 0:
            raise InvalidInputError("points must carry a coordinate axis")
        if x.shape[-1] != xi.shape[-1]:
            raise InvalidInputError(
                f"x has dimension {x.shape[-1]}, xi has {xi.shape[-1]}")
        with np.errstate(**_QUIET):
            out = np.asarray(self.evaluator(x, xi), dtype=np.complex128)
        if not np.isfinite(out).all():
            raise _nonfinite_error(out, f"{self.label}: non-finite value", x=x, xi=xi)
        return out


def _nonfinite_error(values: np.ndarray, message: str,
                     **points) -> SymbolEvaluationError:
    """The message, then ``name=point`` of each point array (..., dim) at
    the first non-finite entry of values, which may be unbroadcast against
    the points (an evaluator may return values that do not depend on x)."""
    finite = np.isfinite(values)
    shape = np.broadcast_shapes(finite.shape, *(p.shape[:-1] for p in points.values()))
    where = tuple(np.argwhere(~np.broadcast_to(finite, shape))[0])
    named = ", ".join(f"{name}={np.broadcast_to(p, shape + p.shape[-1:])[where].tolist()}"
                      for name, p in points.items())
    return SymbolEvaluationError(f"{message} at {named}")


def factor_product(a, b) -> Optional[np.ndarray]:
    """a * b as complex128, the product a factored evaluator forms, or None
    when a value is not finite (Symbol.eval then names the point)."""
    with np.errstate(**_QUIET):
        values = np.asarray(a * b, dtype=np.complex128)
    return values if np.isfinite(values).all() else None


def nonfinite_product_error(s: Symbol, grid: Grid) -> Optional[SymbolEvaluationError]:
    """The error naming the first (x, xi), x on grid (slowest) and xi on its
    dual, whose factor product a(x) b(xi) is not finite, as Symbol.eval
    words it; None when s is not separable or every product is finite.

    Only the x rows that can overflow are multiplied out: both parts of a
    product are at most (|Re a| + |Im a|)(|Re b| + |Im b|), so a row whose
    bound stays below 2^1023 is finite throughout.
    """
    if s.kind != "separable":
        return None
    dual = grid.dual()
    a = s.sampled_factor("x", grid).ravel()
    b = s.sampled_factor("xi", dual).ravel()
    with np.errstate(**_QUIET):
        bound = (np.abs(a.real) + np.abs(a.imag)) * np.max(np.abs(b.real) + np.abs(b.imag))
        for i in np.flatnonzero(~(bound < 2.0**1023)):
            row = a[i] * b
            if not np.isfinite(row).all():
                x = grid.axis_coords()[list(np.unravel_index(i, grid.shape))]
                return _nonfinite_error(row, f"{s.label}: non-finite value", x=x,
                                        xi=dual.coord_stack().reshape(-1, grid.dim))
    return None


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

def _takes_grid(factor: Callable) -> Callable:
    """Mark a factor of points as also taking a Grid (see `Symbol`)."""
    factor.takes_grid = True
    return factor


def _radial(profile: Callable) -> Callable:
    """The factor profile(|p|^2) of points p (..., dim) or of a Grid's points.

    On a grid |p|^2 comes from `Grid.squared_radius`, whose bits equal the
    sum over the coordinate axis of the points.  It is even (see `Symbol`)."""
    def factor(p):
        return profile(p.squared_radius() if isinstance(p, Grid)
                       else np.sum(p**2, axis=-1))

    factor.even = True
    return _takes_grid(factor)


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
    """sigma = c.  Tagged xi-independent so application is exact pointwise.
    A +0.0 imaginary part makes a real factor; -0.0 reaches zeros' signs."""
    c = complex(c)
    value = c if c.imag or math.copysign(1.0, c.imag) < 0 else c.real

    def factor(x):
        return np.full(x.shape if isinstance(x, Grid) else x.shape[:-1], value)

    return _factored(SymbolClassParams(m=0.0), label or f"const:{c}",
                     x_factor=_takes_grid(factor))


def bessel_multiplier(m: float, Nprime: int = 4) -> Symbol:
    """sigma(xi) = <xi>^m, the smooth model multiplier of order m."""
    return _factored(SymbolClassParams(m=float(m), rho=1.0, delta=0.0, N=0, Nprime=Nprime),
                     f"bessel:{m}",
                     xi_factor=_radial(lambda r2: np.sqrt(1.0 + r2) ** m))


def wave_multiplier(m: float = 0.0, Nprime: int = 2) -> Symbol:
    """sigma(xi) = exp(i <xi>) <xi>^m; oscillation cancels the decay gain,
    so the honest claim is rho = 0."""

    def profile(r2):
        br = np.sqrt(1.0 + r2)
        return np.exp(1j * br) * br**m

    return _factored(SymbolClassParams(m=float(m), rho=0.0, delta=0.0, N=0, Nprime=Nprime),
                     f"wave:{m}", xi_factor=_radial(profile))


def smoothness_coefficients(smoothness: int, count: int) -> tuple:
    """Cosine-series coefficients decaying like k^-(smoothness+1), normalized
    so the series sums to 0.4 (keeps the factor in [0.6, 1.4])."""
    if count < 1 or smoothness < 0:
        raise InvalidInputError("need count >= 1 and smoothness >= 0")
    raw = np.arange(1, count + 1, dtype=float) ** (-(smoothness + 1.0))
    return tuple(0.4 * raw / raw.sum())


def trig_multiplication(coeffs, period: float, N: int = 2) -> Symbol:
    """sigma(x) = prod_axis (1 + sum_k c_k cos(2 pi k x_axis / period)).

    The truncated series length and coefficient decay control the effective
    x-smoothness: derivative constants beyond it blow up with the cutoff.
    The period must be finite and positive and every coefficient finite.
    On a Grid the series is evaluated once, on the 1-D axis, and the axes
    multiply in as broadcast views; the points path evaluates it at every
    point.  Both sum the series with numpy's reduction over the last axis,
    which rounds each point's K terms alike in either layout, so the two
    give the same bits.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not (math.isfinite(period) and period > 0):
        raise InvalidInputError(f"period must be finite and positive, got {period}")
    if not all(math.isfinite(c) for c in coeffs):
        raise InvalidInputError(f"coefficients must be finite, got {list(coeffs)}")
    ks = np.arange(1, len(coeffs) + 1, dtype=float)
    cs = np.asarray(coeffs)
    omega = 2.0 * math.pi / period

    def series(t):
        return 1.0 + (np.cos(omega * np.multiply.outer(t, ks)) * cs).sum(axis=-1)

    def factor(x):
        if isinstance(x, Grid):
            on_axis = series(x.axis_coords())
            return math.prod(on_axis.reshape((-1,) + (1,) * (x.dim - 1 - axis))
                             for axis in range(x.dim))
        return math.prod(series(x[..., axis]) for axis in range(x.shape[-1]))

    return _factored(SymbolClassParams(m=0.0, rho=1.0, delta=0.0, N=N, Nprime=0),
                     f"trig:{len(coeffs)}", x_factor=_takes_grid(factor))


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
_EVAL_BLOCK = 2**20  # points per batched Symbol.eval of the difference stencils
_RAW = "raw"         # plan of an order-0 pair: the unshifted sample points


def _axis_stencil(order: int, step: float) -> tuple:
    """The 1-D stencil of one derivative order along one axis: second
    differences, then an odd first difference, composed.

    Returns the (offset, weight) rows, in expansion order (the first
    stencil varies slowest), each offset adding its shifts left to right
    from 0.0 as a coordinate shifted by one stencil at a time would; and
    the denominator's factors, one per stencil.
    """
    stencils = [_D2] * (order // 2) + [_D1] * (order % 2)
    terms = [(0.0, 1.0)]
    for stencil in stencils:
        terms = [(off + o * step, w * c) for off, w in terms for o, c in stencil]
    return np.array(terms), [12.0 * step ** (2 if st is _D2 else 1) for st in stencils]


def _first_use(keys: np.ndarray) -> tuple:
    """The position of each distinct key's first use, in first-use order,
    and the rank of every key among them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(len(by_use))
    return first[by_use], rank[inverse.ravel()]


def _fd_plan(s: Symbol, pairs, dim: int, step: float):
    """Stencils of the mixed derivatives of every (alpha, beta) pair, over
    one table of distinct evaluation points.

    The stencil of d_x^alpha d_xi^beta is the tensor product of one 1-D
    stencil per (variable, axis), x axes first; its terms come in the
    order of expanding those one at a time.  Each order's 1-D stencil is
    built once, and every distinct offset gets an integer id keyed by its
    exact float bits (distinct sums of the same integer shifts stay
    distinct), so a term's x shift and its xi shift each have an integer
    id, and a term's point is the pair of the two.

    Returns (plans, table, raw, shift_ids).  The points are rows: row 0 is
    the unshifted point when raw (some pair has order 0), then one row per
    distinct offset in `table` (offsets, 2, dim), x shifts in [:, 0] and xi
    shifts in [:, 1], in the order the per-term loop first uses them;
    shift_ids (offsets, 2) holds the ids of each table row's x and xi
    shift.  plans[j] is None for a derivative the kind tag rules out
    (identically zero, not stencil noise), _RAW for order 0, or (rows,
    weights, denom) of the pair's terms in term order, the weights integer.
    Rejects a step not positive, below 1e-4 at order >= 4, or whose denominators underflow.
    """
    order = max(multi_index_order(a) + multi_index_order(b) for a, b in pairs)
    if not step > 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    if order >= 4 and step < 1e-4:
        raise InvalidInputError(
            f"step {step} too small for order {order} (cancellation guard)")
    plans, pairs_used, axis_stencils = [], [], {}
    for alpha, beta in pairs:
        a, b = multi_index_order(alpha), multi_index_order(beta)
        if (a and s.x_independent) or (b and s.xi_independent):
            plans.append(None)
        elif a + b == 0:
            plans.append(_RAW)
        else:
            plans.append(len(pairs_used))
            pairs_used.append((alpha, beta))
            for order in alpha + beta:
                if order and order not in axis_stencils:
                    axis_stencils[order] = _axis_stencil(order, step)
    raw = _RAW in plans
    if not pairs_used:
        return plans, np.zeros((0, 2, dim)), raw, np.zeros((0, 2), dtype=np.int64)
    # offset ids keyed by bits, 0.0 (the shift of an axis left alone) as id 0
    bits = np.concatenate([[0]] + [st[:, 0].view(np.int64)
                                   for st, _ in axis_stencils.values()])
    first, ids = _first_use(bits)
    offsets = bits[first].view(np.float64)
    order_ids = dict(zip(axis_stencils, np.split(ids[1:], np.cumsum(
        [len(st) for st, _ in axis_stencils.values()])[:-1])))
    # a shift's id has one base-K digit, K = len(offsets), per (variable,
    # axis) some pair differentiates: x digits below xi digits, so the sum
    # of the two ids keys the point.  At most 2 dim digits and K <= 1,405
    # (every offset of orders 1..8) keep it below 2^63 for dim <= 3.
    used = np.zeros((2, dim), dtype=bool)
    for alpha, beta in pairs_used:
        used |= np.array([alpha, beta], dtype=bool)
    scale = np.zeros((2, dim), dtype=np.int64)
    scale[used] = len(offsets) ** np.arange(used.sum(), dtype=np.int64)
    ids, weights, denoms = [], [], []
    for alpha, beta in pairs_used:
        pair_ids, weight, denom = np.zeros((1, 2), dtype=np.int64), np.ones(1), 1.0
        for var, mi in enumerate((alpha, beta)):
            for axis, order in enumerate(mi):
                if not order:
                    continue
                stencil, factors = axis_stencils[order]
                for factor in factors:
                    denom *= factor
                pair_ids = np.repeat(pair_ids, len(stencil), axis=0)
                pair_ids[:, var] += np.tile(order_ids[order] * scale[var, axis],
                                            len(weight))
                weight = np.outer(weight, stencil[:, 1]).ravel()
        ids.append(pair_ids)
        weights.append(weight)
        denoms.append(denom)
    if min(denoms) < np.finfo(float).tiny:   # e.g. 12 step^2 at step = 1e-300
        raise InvalidInputError(f"step {step} too small: a stencil denominator underflows")
    shift_ids = np.concatenate(ids)
    first, index = _first_use(shift_ids.sum(axis=1))
    shift_ids = shift_ids[first]
    digits = shift_ids[:, :, None] // np.maximum(scale, 1) % len(offsets)
    table = np.where(used, offsets[digits], 0.0)
    rows = np.split(raw + index, np.cumsum([len(w) for w in weights])[:-1])
    plans = [(rows[p], weights[p], denoms[p]) if isinstance(p, int) else p
             for p in plans]
    return plans, table, raw, shift_ids


def _fd_sum(plans, vals: np.ndarray, n: int) -> list:
    """Each plan's derivative at n points from the row values vals (rows, n).

    Terms are summed in term order from +0.0 and divided by the
    denominator, as ``acc += w * s.eval(x + dx, xi + dxi)`` did term by
    term; the weights are integers, so w * value rounds once either way.
    """
    derivs = []
    for plan in plans:
        if plan is None:
            derivs.append(np.zeros(n, dtype=np.complex128))
        elif plan is _RAW:
            derivs.append(vals[0])
        else:
            rows, weights, denom = plan
            terms = vals[rows]
            terms *= weights[:, None]
            # reduce adds row after row, in order, over 2 or more columns but
            # sums one column pairwise; accumulate adds in order by definition.
            # + 0.0 because a sum started from +0.0 is never -0.0
            total = (np.add.reduce(terms, axis=0) if n > 1
                     else np.add.accumulate(terms, axis=0, out=terms)[-1])
            derivs.append((total + 0.0) / denom)
    return derivs


def _shifted(points: np.ndarray, shifts: np.ndarray, raw: bool) -> np.ndarray:
    """points (n, dim) moved by every shift (k, dim): (raw + k, n, dim),
    led by the unshifted points when raw."""
    out = np.empty((raw + len(shifts),) + points.shape)
    out[:raw] = points
    np.add(points, shifts[:, None, :], out=out[raw:])
    return out


def _factor_rows(table: np.ndarray, shift_ids: np.ndarray, raw: bool) -> tuple:
    """Per variable, the distinct shifts of the stencil rows and every
    evaluation row's index among them: ((dx, x_rows), (dxi, xi_rows)),
    read from the rows' shift ids.

    The unshifted row is its own first entry when raw (x + 0.0 is not x
    at x = -0.0)."""
    out = []
    for var in (0, 1):
        first, index = _first_use(shift_ids[:, var])
        out.append((table[first, var],
                    np.concatenate([np.zeros(int(raw), dtype=index.dtype), raw + index])))
    return tuple(out)


def _row_values(s: Symbol, x: np.ndarray, xi: np.ndarray, table: np.ndarray,
                raw: bool, factor_rows) -> np.ndarray:
    """Symbol values at every evaluation row of the samples x, xi (n, dim).

    With factor_rows (a separable symbol), each factor is sampled once per
    distinct shift of its own variable and each row is the product
    a(x + dx) b(xi + dxi), as the evaluator forms it; otherwise, or when
    that product is not finite, one Symbol.eval of every row, which raises
    the evaluation error."""
    if factor_rows is not None:
        (dx, x_rows), (dxi, xi_rows) = factor_rows
        n = len(x)
        with np.errstate(**_QUIET):
            a = s.x_factor(_shifted(x, dx, raw))
            b = s.xi_factor(_shifted(xi, dxi, raw))
        vals = factor_product(np.broadcast_to(a, (raw + len(dx), n))[x_rows],
                              np.broadcast_to(b, (raw + len(dxi), n))[xi_rows])
        if vals is not None:
            return vals
    return s.eval(_shifted(x, table[:, 0], raw), _shifted(xi, table[:, 1], raw))


def _fd_blocks(s: Symbol, pairs, x: np.ndarray, xi: np.ndarray, step: float):
    """Mixed derivatives of every (alpha, beta) pair at the samples x, xi
    (n, dim), one block of samples at a time: yields (slice, derivatives).

    Every distinct stencil point is evaluated once per sample, by one
    Symbol.eval per block of about _EVAL_BLOCK points; a separable symbol
    samples each factor once per distinct shift of its variable instead.
    A non-finite value raises the error the per-term loop would: the first
    bad sample of the first point it used.
    """
    plans, table, raw, shift_ids = _fd_plan(s, pairs, x.shape[-1], step)
    nrows = raw + len(table)
    widest = max((len(p[1]) for p in plans if isinstance(p, tuple)), default=1)
    width = _EVAL_BLOCK // max(nrows, widest)
    factor_rows = _factor_rows(table, shift_ids, raw) if s.kind == "separable" else None
    for lo in range(0, len(x), width):
        sl = slice(lo, lo + width)
        n = len(x[sl])
        vals = None
        if nrows:
            try:
                vals = _row_values(s, x[sl], xi[sl], table, raw, factor_rows)
            except SymbolEvaluationError:
                # an earlier point may fail only in another block: rerun in loop order
                if raw:
                    s.eval(x, xi)
                for dx, dxi in table:
                    s.eval(x + dx, xi + dxi)
                raise
            vals = np.broadcast_to(vals, (nrows, n))
        yield sl, _fd_sum(plans, vals, n)


def finite_diff_derivative(s: Symbol, alpha, beta, x, xi, step: float) -> complex:
    """Central-difference d_x^alpha d_xi^beta sigma(x, xi) at one point.

    Composed one axis at a time from 4th-order stencils; the total order
    is capped at 8 and small steps are rejected for order >= 4 to guard
    against cancellation.  Each distinct stencil point is evaluated once,
    at the shape of the given point (an evaluator may take scalar paths
    there), so the result equals the per-term sum bit for bit.
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
    plans, table, raw, _ = _fd_plan(s, [(alpha, beta)], dim, step)
    vals = [s.eval(x, xi)] * raw + [s.eval(x + dx, xi + dxi) for dx, dxi in table]
    (deriv,) = _fd_sum(plans, np.reshape(vals, (len(vals), 1)), 1)
    return complex(deriv[0])


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
        for name in ("xi_max", "x_extent", "step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")
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

    @property
    def global_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, alpha, beta) -> DerivativeBoundEntry:
        for e in self.entries:
            if e.alpha == tuple(alpha) and e.beta == tuple(beta):
                return e
        raise KeyError((alpha, beta))


def verify_symbol_class(s: Symbol, sample_spec: SampleSpec, cap: float) -> DerivativeBoundReport:
    """Fit the weighted-derivative constants of the claimed class over a sample set.

    For every pair |alpha| <= N, |beta| <= Nprime (within the finite-difference
    order cap) the fitted constant is

        sup over samples of |d_x^alpha d_xi^beta sigma| * <xi>^(-m + rho|beta| - delta|alpha|)

    A pair passes when the constant is finite and at most `cap`.  This is a
    sampled supremum, not a proof.

    Cost: one Symbol.eval point per distinct stencil offset (over all pairs)
    per sample point, in blocks of about 2^20 points, so one or a few
    Symbol.eval calls in all.  The table of distinct offsets is found once
    per call from integer ids of the offsets, one sort of one int64 key per
    stencil term (106,374 terms for bessel N'=8 at d = 3), with each
    order's 1-D stencil built once.  A multiplier is evaluated at the samples of
    the first x only (48 of 288 at the default SampleSpec): its values
    repeat at every x, so the first x holds every maximum and its first
    sample.  A separable symbol calls Symbol.eval only to raise an error:
    per block, each factor is evaluated at the distinct shifts of its own
    variable (for sep:2,6:-1 at d = 2, 25 x and 65 xi shifts and the
    unshifted samples, in place of 1,625 offsets) and each stencil point is
    the product of the two.  The constants and witnesses are bit-identical
    to evaluating and summing every stencil term on its own; ties go to the
    first sample.
    """
    if cap <= 0:
        raise InvalidInputError(f"cap must be positive, got {cap}")
    p = s.params
    x_all, xi_all = sample_spec.points()
    if s.x_independent:
        # the samples repeat the xi set at every x, the first x first, so
        # that x's samples hold every maximum and its first sample
        x_all, xi_all = x_all[:sample_spec.num_xi], xi_all[:sample_spec.num_xi]
    pairs = [(alpha, beta)
             for alpha in iter_multi_indices(sample_spec.dim, min(p.N, FD_ORDER_CAP))
             for beta in iter_multi_indices(sample_spec.dim, min(p.Nprime, FD_ORDER_CAP))
             if multi_index_order(alpha) + multi_index_order(beta) <= FD_ORDER_CAP]
    bracket = np.sqrt(1.0 + np.sum(xi_all**2, axis=-1))
    exponents = [-p.m + p.rho * multi_index_order(beta) - p.delta * multi_index_order(alpha)
                 for alpha, beta in pairs]
    # per pair, the largest weighted value of each block and where it sits
    maxima, where = [[] for _ in pairs], [[] for _ in pairs]
    for sl, derivs in _fd_blocks(s, pairs, x_all, xi_all, sample_spec.step):
        for j, deriv in enumerate(derivs):
            weighted = np.abs(deriv) * bracket[sl] ** exponents[j]
            i = int(np.argmax(weighted))
            maxima[j].append(weighted[i])
            where[j].append(sl.start + i)
    entries = []
    for (alpha, beta), block_max, block_at in zip(pairs, maxima, where):
        # the first block holding the maximum (or a NaN), as one argmax over all
        k = int(np.argmax(block_max))
        fitted, i = float(block_max[k]), block_at[k]
        entries.append(DerivativeBoundEntry(
            alpha=alpha, beta=beta, fitted_constant=fitted,
            witness_x=tuple(float(v) for v in x_all[i]),
            witness_xi=tuple(float(v) for v in xi_all[i]),
            passed=bool(np.isfinite(fitted) and fitted <= cap),
        ))
    return DerivativeBoundReport(entries=entries, cap=cap)


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
