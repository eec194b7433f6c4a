"""Operator application, dyadic frequency decomposition, kernels, and the
exact discrete adjoint.

The operator acts by  (T f)(x) = (2R)^{-d} sum_m exp(i x.xi_m) sigma(x, xi_m) fhat(xi_m),
the Riemann-sum realization of symbol quantization on the periodic box.
Apply and adjoint take one path: the symbol is a sum of terms
a_r(x) b_r(xi), and each term costs an FFT pair around the multiplication
by b_r (skipped without b_r) and a pointwise multiplication by a_r
(skipped without a_r).  Every kind but "general" is one factored term.
A general symbol is compressed on every call by adaptive cross
approximation of its sample matrix sigma(x_i, xi_j), to a residual of at
most 1e-15 of the largest probed entry, so its cost follows its numerical
rank r: O(r N) evaluations and about 2(r + 1) FFTs for N grid points, not
N^2.  A rank above min(N, 128, 2^22 / N) raises InvalidInputError.

The adjoint is the conjugate transpose of the discretized operator
matrix (for a general symbol, of the compressed one), realized
matrix-free, so the pairing identity
h^d sum (T u) conj(phi) = h^d sum u conj(T* phi) holds to roundoff.

Each factor is sampled once per grid: `Symbol.sampled_factor` memoises
the last grid sample of each factor on the symbol, and a decomposition
computes its dual grid and dual radius once and keeps the symbol sample
at the last x.  These memos and the grid's own dual-grid memo are the
only shared mutable state.  Each memo entry is written whole and
read-only, so concurrent evaluation stays safe: a racing caller at worst
samples the same grid again.  Apart from them, operators and decompositions are pure
given immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PreconditionError, SymbolEvaluationError
from .grid import (Grid, SampledFunction, compatible_grids, fourier_transform)
from .symbols import Symbol, SymbolClassParams

_ACA_TOL = 1e-15        # probe residual / max|probe| at which compression stops
_ACA_PROBES = 1024      # entries per probe set (two disjoint sets)
_ACA_RANK_CAP = 128
SUPPORT_THRESHOLD = 1e-14
OFFSUPPORT_MARGIN_CELLS = 2


# ---------------------------------------------------------------------------
# smooth cutoffs

def _smoothstep(t: np.ndarray) -> np.ndarray:
    # degree-9 polynomial step: 0 -> 1 with four vanishing derivatives at both ends
    t = np.clip(t, 0.0, 1.0)
    return t**5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))


def low_pass_cutoff(r) -> np.ndarray:
    """C^4 radial cutoff: 1 on r <= 1, 0 on r >= 2, polynomial transition."""
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    mid = (r > 1.0) & (r < 2.0)
    out[mid] = 1.0 - _smoothstep(r[mid] - 1.0)
    out[r >= 2.0] = 0.0
    return out


def ring_cutoff(r) -> np.ndarray:
    """Difference of dilated cutoffs, supported on 1/2 <= r <= 2."""
    return low_pass_cutoff(r) - low_pass_cutoff(2.0 * np.asarray(r, dtype=float))


# ---------------------------------------------------------------------------
# operator application

def _general_terms(s: Symbol, grid: Grid) -> list:
    """Sampled terms (a_r on the x grid, b_r on the dual grid) with
    S[i, j] = sigma(x_i, xi_j) ~ sum_r a_r[i] b_r[j].

    Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 86, 2000): each step evaluates one residual row sigma(x_i, all
    xi), pivots on its largest entry and evaluates that residual column,
    so the cost is O(r N) evaluations for rank r.  The stopping test reads
    two disjoint sets of probe entries, drawn from a local generator and
    evaluated once: the approximation stops when the residual on unused
    rows is at most _ACA_TOL * max|probe| on the first set, and then on
    the second; otherwise the next pivot row is the row of the worst probe
    (a row is never pivoted twice).  Deterministic for a given symbol and
    grid.  A rank above min(N, _ACA_RANK_CAP, 2^22 / N) raises
    InvalidInputError; the last bound keeps each factor set within 2^22
    samples.
    """
    d, npts = grid.dim, grid.total_points
    dual = grid.dual()
    x = grid.coord_stack().reshape(-1, d)
    xi = dual.coord_stack().reshape(-1, d)
    count = min(_ACA_PROBES, npts * npts // 2)
    flat = np.random.default_rng(0).choice(npts * npts, 2 * count, replace=False)
    rows, cols = np.divmod(flat, npts)
    probes = np.broadcast_to(s.eval(x[rows], xi[cols]), rows.shape)
    sets = [slice(0, count), slice(count, 2 * count)]
    tols = [_ACA_TOL * np.max(np.abs(probes[sl]), initial=0.0) for sl in sets]
    approx = np.zeros(2 * count, dtype=np.complex128)
    cap = min(npts, _ACA_RANK_CAP, 2**22 // npts)  # rank N is exact
    a_terms = np.empty((cap, npts), dtype=np.complex128)
    b_terms = np.empty((cap, npts), dtype=np.complex128)
    used = np.zeros(npts, dtype=bool)
    rank = 0
    i = int(rows[np.argmax(np.abs(probes[sets[0]]))])
    while True:
        used[i] = True
        a, b = a_terms[:rank], b_terms[:rank]
        # einsum, not BLAS: the same bits whatever the BLAS threading
        row = (np.broadcast_to(s.eval(x[i], xi), (npts,))
               - np.einsum("r,rn->n", a[:, i], b))
        j = int(np.argmax(np.abs(row)))
        col = (np.broadcast_to(s.eval(x, xi[j]), (npts,))
               - np.einsum("r,rn->n", b[:, j], a))
        if row[j] != 0:
            if rank == cap:
                raise InvalidInputError(
                    f"{s.label}: cross approximation reached rank {rank}, the "
                    f"cap {cap} for {npts} points, above tolerance {_ACA_TOL:g} "
                    f"on {grid}")
            a_terms[rank], b_terms[rank] = col, row / row[j]
            approx += a_terms[rank, rows] * b_terms[rank, cols]
            rank += 1
        err = np.abs(probes - approx)
        err[used[rows]] = 0.0  # pivot rows are interpolated
        failing = [sl for sl, tol in zip(sets, tols) if np.max(err[sl]) > tol]
        if not failing:
            break
        i = int(rows[failing[0]][np.argmax(err[failing[0]])])
    return [(a_terms[r].reshape(grid.shape), b_terms[r].reshape(dual.shape))
            for r in range(rank)]


def _terms(s: Symbol, grid: Grid) -> list:
    """The symbol as terms (a_r, b_r) with sigma(x_i, xi_j) ~ sum_r
    a_r(x_i) b_r(xi_j).  Each factor is a function of the grid it is
    sampled on (a_r: x grid, b_r: dual grid), or None when absent."""
    if s.kind != "general":
        return [(None if s.x_factor is None else partial(s.sampled_factor, "x"),
                 None if s.xi_factor is None else partial(s.sampled_factor, "xi"))]
    return [(_given(a), _given(b)) for a, b in _general_terms(s, grid)]


def _given(samples: np.ndarray):
    return lambda grid: samples


def apply_psido(s: Symbol, f: SampledFunction) -> SampledFunction:
    """Apply the operator with symbol s to the sampled function f.

    Each term a_r(x) b_r(xi) of the symbol (see `_terms`) multiplies fhat
    by b_r before an inverse FFT (skipped without b_r), then multiplies
    pointwise by a_r (skipped without a_r); the terms share one forward
    FFT.  A factored symbol is one term, so a multiplication symbol is
    exact at grid level; a general symbol is its cross approximation.
    """
    fhat = total = None
    for a, b in _terms(s, f.grid):
        out = f
        if b is not None:
            if fhat is None:
                fhat = fourier_transform(f, "forward")
            out = fourier_transform(
                SampledFunction(fhat.grid, b(fhat.grid) * fhat.values), "inverse")
        if a is not None:
            out = SampledFunction(f.grid, a(f.grid) * out.values)
        total = out if total is None else total + out
    if total is None:
        return SampledFunction(f.grid, np.zeros(f.grid.shape))
    return total


def discrete_adjoint_apply(s: Symbol, g: SampledFunction) -> SampledFunction:
    """Apply the exact conjugate transpose of the discretized operator.

    Matrix-free: per term, conj(a_r) g is transformed and multiplied by
    conj(b_r); the sum takes one inverse FFT.  It is the exact adjoint of
    what `apply_psido` computes, truncated terms included, so the discrete
    pairing <T u, phi> = <u, T* phi> holds to roundoff.
    """
    spectrum = None
    for a, b in _terms(s, g.grid):
        out = g
        if a is not None:
            out = SampledFunction(g.grid, np.conj(a(g.grid)) * g.values)
        if b is None:
            return out  # a multiplication symbol: pointwise and exact
        shat = fourier_transform(out, "forward")
        part = SampledFunction(shat.grid, np.conj(b(shat.grid)) * shat.values)
        spectrum = part if spectrum is None else spectrum + part
    if spectrum is None:
        return SampledFunction(g.grid, np.zeros(g.grid.shape))
    return fourier_transform(spectrum, "inverse")


# ---------------------------------------------------------------------------
# dyadic decomposition

def default_levels(grid: Grid) -> int:
    """Largest ring count whose top ring still fits under the resolvable band."""
    return max(1, int(math.floor(math.log2(grid.nyquist))) - 1)


@dataclass(frozen=True)
class DyadicDecomposition:
    """Frequency-ring pieces sigma_j of a symbol on a grid.

    Piece 0 is the low-frequency cap sigma * eta(|xi|); piece j >= 1 is
    sigma * zeta(2^-j |xi|), supported on 2^(j-1) <= |xi| <= 2^(j+1).
    Pieces are evaluated lazily on the dual grid; the dual grid and its
    radius are computed once per decomposition, the cutoffs per call
    (`sum_values` computes each dilated low-pass once for all pieces).
    The symbol sample of an x-dependent symbol is kept for the last x
    only, like `Symbol.sampled_factor` keeps the last grid.
    """

    symbol: Symbol
    grid: Grid
    levels: int
    # (x bytes, read-only samples) of the last x; replaced, never mutated
    _x_sample: Optional[tuple] = field(default=None, init=False, compare=False,
                                       repr=False)

    @cached_property
    def dual(self) -> Grid:
        return self.grid.dual()

    @cached_property
    def dual_radius(self) -> np.ndarray:
        """|xi| on the dual grid (read-only)."""
        r = self.dual.radius()
        r.flags.writeable = False
        return r

    def symbol_values(self, x=None) -> np.ndarray:
        """The raw symbol sampled on the dual grid (at x if x-dependent).

        Read-only: the symbol's memoised factor sample for an x-independent
        symbol, else the sample at the last x, evaluated once per x."""
        if self.symbol.x_independent:
            return self.symbol.sampled_factor("xi", self.dual)
        if x is None:
            raise InvalidInputError(
                "x is required for pieces of an x-dependent symbol")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.grid.dim,):
            raise InvalidInputError(f"x has shape {x.shape}, expected ({self.grid.dim},)")
        # keyed by the exact bits, so x = -0.0 is not served the sample at +0.0
        key = x.tobytes()
        entry = self._x_sample
        if entry is not None and entry[0] == key:
            return entry[1]
        values = self._separable_values(x) if self.symbol.kind == "separable" else None
        if values is None:
            # a view, so the read-only flag never reaches an array the evaluator keeps
            values = self.symbol.eval(x, self.dual.coord_stack()).view()
        values.flags.writeable = False
        object.__setattr__(self, "_x_sample", (key, values))
        return values

    def _separable_values(self, x: np.ndarray) -> Optional[np.ndarray]:
        """x_factor(x) times the memoised xi factor sample, the evaluator's
        own product, without the dual grid's coordinate stack; None if a
        value is not finite, so that Symbol.eval raises its own error."""
        s = self.symbol
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(s.x_factor(x) * s.sampled_factor("xi", self.dual),
                                    dtype=np.complex128)
        except SymbolEvaluationError:
            return None
        return values if np.isfinite(values).all() else None

    def cutoff_values(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.levels:
            raise InvalidInputError(f"piece index {j} outside 0..{self.levels}")
        r = self.dual_radius
        if j == 0:
            return low_pass_cutoff(r)
        return ring_cutoff(r / 2.0**j)

    def piece_values(self, j: int, x=None) -> np.ndarray:
        """sigma_j sampled on the dual grid (at the given x if x-dependent)."""
        return self.symbol_values(x) * self.cutoff_values(j)

    def sum_values(self, x=None) -> np.ndarray:
        """Sum of all pieces; equals sigma * eta(2^-J |xi|) up to roundoff.

        Each dilated low-pass L_j = eta(|xi| / 2^j) is computed once: ring
        j is L_j - L_(j-1), the bits of `cutoff_values(j)`, because
        2 (|xi| / 2^j) equals |xi| / 2^(j-1) exactly.  Ring j overwrites
        L_(j-1), which no later ring needs, and every term sigma * ring
        goes through one buffer before it is added."""
        sym = self.symbol_values(x)
        total = np.zeros(self.dual.shape, dtype=np.complex128)
        term = np.empty_like(total)
        below = None
        for j in range(self.levels + 1):
            low = low_pass_cutoff(self.dual_radius / 2.0**j)
            ring = low if below is None else np.subtract(low, below, out=below)
            total += np.multiply(sym, ring, out=term)
            below = low
        return total

    def truncation_values(self, x=None) -> np.ndarray:
        """The band-limited symbol sigma * eta(2^-J |xi|) itself."""
        return self.symbol_values(x) * low_pass_cutoff(self.dual_radius / 2.0**self.levels)


def dyadic_decompose(s: Symbol, grid: Grid, levels: int) -> DyadicDecomposition:
    """Split a symbol into the low cap and `levels` frequency rings.

    Requires levels >= 1 and the top ring to reach into the resolvable
    band (2^(levels-1) <= Nyquist); rings beyond the band are clipped by
    the grid and sampled as zero there.
    """
    if not isinstance(levels, int) or levels < 1:
        raise InvalidInputError(f"levels must be an integer >= 1, got {levels!r}")
    if 2.0 ** (levels - 1) > grid.nyquist:
        raise InvalidInputError(
            f"top ring starts at 2^{levels - 1}, beyond the grid Nyquist "
            f"{grid.nyquist:.3g}")
    return DyadicDecomposition(symbol=s, grid=grid, levels=levels)


# ---------------------------------------------------------------------------
# kernels

@dataclass(frozen=True)
class Kernel:
    """Samples of a kernel slice k(x, .) in the offset variable z."""

    grid: Grid
    values: np.ndarray
    symbol_params: SymbolClassParams
    levels: int
    piece_index: Optional[int] = None
    x_point: Optional[tuple] = None

    def sampled(self) -> SampledFunction:
        return SampledFunction(self.grid, self.values)


def _kernel_from_band(dd: DyadicDecomposition, band_values: np.ndarray,
                      piece_index, x) -> Kernel:
    back = fourier_transform(SampledFunction(dd.dual, band_values), "inverse")
    xp = None if x is None else tuple(float(v) for v in np.atleast_1d(x))
    return Kernel(grid=dd.grid, values=back.values,
                  symbol_params=dd.symbol.params, levels=dd.levels,
                  piece_index=piece_index, x_point=xp)


def kernel_piece(dd: DyadicDecomposition, j: int, x=None) -> Kernel:
    """Kernel of the j-th piece: inverse transform of sigma_j(x, .)."""
    return _kernel_from_band(dd, dd.piece_values(j, x), j, x)


def kernel_sum(dd: DyadicDecomposition, x=None) -> Kernel:
    """Sum of the piece kernels 0..levels.

    The transform is linear, so this is one inverse transform of the
    summed pieces; it equals the sum of `kernel_piece` up to roundoff.
    """
    return _kernel_from_band(dd, dd.sum_values(x), None, x)


# ---------------------------------------------------------------------------
# off-support integral representation

def support_mask(f: SampledFunction, threshold: float = SUPPORT_THRESHOLD) -> np.ndarray:
    return np.abs(f.values) > threshold


def offsupport_apply(k: Kernel, f: SampledFunction, x) -> complex:
    """Evaluate (T f)(x) = integral k(x, x - y) f(y) dy away from supp f.

    x must be a grid point at Euclidean distance >= 2h from the support of
    f (mask |f| > 1e-14); offsets wrap periodically like everything else
    on the box.
    """
    if not compatible_grids(k.grid, f.grid):
        raise InvalidInputError("kernel and function live on different grids")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if k.x_point is not None and not np.allclose(x, k.x_point, atol=1e-9):
        raise InvalidInputError(
            f"kernel was computed at x = {k.x_point}, queried at {x.tolist()}")
    ix = f.grid.index_of(x)
    mask = support_mask(f)
    if not mask.any():
        return 0.0 + 0.0j
    coords = f.grid.coord_stack()[mask]
    dist = float(np.min(np.linalg.norm(coords - x, axis=-1)))
    margin = OFFSUPPORT_MARGIN_CELLS * f.grid.spacing
    if dist < margin:
        raise PreconditionError(
            f"x = {x.tolist()} is at distance {dist:.3g} from supp f, "
            f"needs >= {margin:.3g}")
    n = f.grid.points_per_axis
    idx = np.nonzero(mask)
    # z = x - y sits at kernel index (x - y + R)/h = ix - iy + n/2 (wrapped)
    offset = tuple((ixi - idx_i + n // 2) % n for ixi, idx_i in zip(ix, idx))
    kvals = k.values[offset]
    return complex(f.grid.spacing**f.grid.dim * np.sum(kvals * f.values[mask]))
