"""Operator application, dyadic frequency decomposition, kernels, and the
exact discrete adjoint.

The operator acts by  (T f)(x) = (2R)^{-d} sum_m exp(i x.xi_m) sigma(x, xi_m) fhat(xi_m),
the Riemann-sum realization of symbol quantization on the periodic box.
Apply and adjoint take one path: the symbol is a sum of terms
a_r(x) b_r(xi), and each term costs an FFT pair around the multiplication
by b_r (skipped without b_r) and a pointwise multiplication by a_r
(skipped without a_r).  Every kind but "general" is one factored term.
A general symbol is compressed by adaptive cross approximation of its
sample matrix sigma(x_i, xi_j), to a residual of at most 1e-15 of the
largest probed entry, once per symbol and grid: apply and adjoint reuse
the terms until another grid replaces them.  Its cost follows its
numerical rank r: O(r N) evaluations once, and about 2(r + 1) FFTs per
call for N grid points, not N^2.  A rank above min(N, 128, 2^22 / N)
raises InvalidInputError.

The adjoint is the conjugate transpose of the discretized operator
matrix (for a general symbol, of the compressed one), realized
matrix-free, so the pairing identity
h^d sum (T u) conj(phi) = h^d sum u conj(T* phi) holds to roundoff.
An `operator_plan` runs the same term loops on raw arrays, with the same
values, for the norm ascent and the CLI's `apply` and `cz-check`.  Dyadic
kernels of even symbols (`bessel`, `wave`, `sep`) take the dual grid's
orthant.

Each factor is sampled, and a general symbol compressed, once per grid:
`Symbol.grid_memo` keeps the last grid's factor samples and
cross-approximation terms on the symbol, and `_terms` hands those arrays
to apply and adjoint.  That memo and the grid's dual-grid memo are the
only shared mutable state.  Each memo entry is written whole
and read-only, so concurrent evaluation stays safe: a racing caller at
worst samples the same grid again.  Apart from them, operators and
decompositions are pure given immutable inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PreconditionError, SymbolEvaluationError
from .grid import (Grid, SampledFunction, _all_finite, _forward_passes,
                   _inverse_passes, compatible_grids, even_inverse_transform,
                   fourier_transform)
from .symbols import (Symbol, SymbolClassParams, factor_product,
                      nonfinite_product_error)

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
    # the rank rows only, so the cap-sized buffers are freed
    a_terms, b_terms = a_terms[:rank].copy(), b_terms[:rank].copy()
    a_terms.flags.writeable = b_terms.flags.writeable = False
    return [(a_terms[r].reshape(grid.shape), b_terms[r].reshape(dual.shape))
            for r in range(rank)]


def _terms(s: Symbol, grid: Grid) -> list:
    """The symbol as sampled terms (a_r, b_r), sigma(x_i, xi_j) ~ sum_r
    a_r[i] b_r[j], a_r on the x grid and b_r on the dual grid (None when
    absent), all read-only and memoised on the symbol for the last grid: a
    factored symbol's term is its factor samples, a general symbol's terms
    are its cross approximation."""
    if s.kind == "general":
        return s.grid_memo("terms", grid, lambda: _general_terms(s, grid))
    b = None if s.xi_factor is None else s.sampled_factor("xi", grid.dual())
    a = None if s.x_factor is None else s.sampled_factor("x", grid)
    return [(a, b)]


def _overflow_error(s: Symbol, grid: Grid) -> SymbolEvaluationError:
    """The error for a non-finite result from finite samples: a separable
    symbol's first non-finite factor product a(x) b(xi), else the overflow
    of the symbol times the input's spectrum (or of their sum)."""
    return nonfinite_product_error(s, grid) or SymbolEvaluationError(
        f"{s.label}: the result overflows on {grid}, though the input and "
        f"every symbol sample are finite")


def _apply_terms(terms: list, v: np.ndarray, forward, inverse) -> np.ndarray:
    """sum_r a_r inverse(b_r forward(v)) in term order, on raw samples (see
    `apply_psido`); a single term's product overwrites the spectrum."""
    spectrum = total = None
    for a, b in terms:
        out = v
        if b is not None:
            if spectrum is None:
                spectrum = forward(v)
            out = inverse(np.multiply(
                b, spectrum, out=spectrum if len(terms) == 1 else None))
        if a is not None:
            # a transform's result is ours to overwrite, the caller's v is not
            out = np.multiply(a, out, out=None if out is v else out)
        total = out if total is None else total + out
    return np.zeros(v.shape, dtype=np.complex128) if total is None else total


def _adjoint_terms(conj_terms, v: np.ndarray, forward, inverse) -> np.ndarray:
    """inverse(sum_r conj(b_r) forward(conj(a_r) v)) from the terms
    (conj(a_r), conj(b_r)), the conjugate transpose of `_apply_terms`."""
    spectrum = None
    for conj_a, conj_b in conj_terms:
        out = v if conj_a is None else conj_a * v
        if conj_b is None:
            return out  # a multiplication symbol: pointwise and exact
        shat = forward(out)
        part = np.multiply(conj_b, shat, out=shat)
        spectrum = part if spectrum is None else spectrum + part
    return np.zeros(v.shape, dtype=np.complex128) if spectrum is None else inverse(spectrum)


def _conjugated(terms: list):
    """(conj(a_r), conj(b_r)) term by term, None where absent; a real
    factor is its own conjugate, not a copy."""
    return (tuple(np.conj(v) if np.iscomplexobj(v) else v for v in term) for term in terms)


def _transforms(f: SampledFunction) -> tuple:
    """forward and inverse `fourier_transform` of raw samples on f's grid
    and its dual; f's own samples go in as f, without a new wrapper."""
    grid, dual = f.grid, f.grid.dual()
    return (lambda v: fourier_transform(
                f if v is f.values else SampledFunction(grid, v), "forward").values,
            lambda v: fourier_transform(SampledFunction(dual, v), "inverse").values)


# numpy's warnings are off in apply and adjoint: a non-finite result of finite
# samples is caught by a SampledFunction and raised as `_overflow_error`.  The
# decorator costs 0.16 us a call more than a `with nullcontext()`.
@np.errstate(all="ignore")
def apply_psido(s: Symbol, f: SampledFunction) -> SampledFunction:
    """Apply the operator with symbol s to the sampled function f.

    Each term a_r(x) b_r(xi) of the symbol (see `_terms`) multiplies fhat
    by b_r before an inverse FFT (skipped without b_r), then multiplies
    pointwise by a_r (skipped without a_r); the terms share one forward
    FFT.  A factored symbol is one term, so a multiplication symbol is
    exact at grid level; a general symbol is its cross approximation.
    A result that is not finite raises SymbolEvaluationError: for a
    separable symbol whose factor product a(x) b(xi) is not finite
    somewhere on the grid it names the first such (x, xi), otherwise the
    overflow.
    """
    terms = _terms(s, f.grid)
    try:
        return SampledFunction(f.grid, _apply_terms(terms, f.values, *_transforms(f)))
    except InvalidInputError:  # a non-finite value from finite samples
        raise _overflow_error(s, f.grid) from None


@np.errstate(all="ignore")
def discrete_adjoint_apply(s: Symbol, g: SampledFunction) -> SampledFunction:
    """Apply the exact conjugate transpose of the discretized operator.

    Matrix-free: per term, conj(a_r) g is transformed and multiplied by
    conj(b_r); the sum takes one inverse FFT.  It is the exact adjoint of
    what `apply_psido` computes, truncated terms included, so the discrete
    pairing <T u, phi> = <u, T* phi> holds to roundoff.  A non-finite
    result raises as in `apply_psido`.
    """
    terms = _terms(s, g.grid)
    try:
        return SampledFunction(g.grid, _adjoint_terms(
            _conjugated(terms), g.values, *_transforms(g)))
    except InvalidInputError:  # a non-finite value from finite samples
        raise _overflow_error(s, g.grid) from None


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """The operator of a symbol on a grid, on raw complex arrays: the term
    loops of `apply_psido` and `discrete_adjoint_apply` with each b_r in
    FFT order and conj(a_r), conj(b_r) taken once.  An apply or adjoint
    is an FFT, the products and an inverse FFT, with h^d and 1/h^d as real
    multiplies of the float view: the centring shifts commute with every
    pointwise operation, and the inverse's (-1)^(m_1 + ... + m_d) signs
    would undo the forward's, as negation commutes with rounding.  So the
    results are the reference path's values, and its bits but for the
    sign of an exact zero, with no SampledFunction or copy per call; one
    finiteness check per result raises the same `_overflow_error`.  Cost:
    1.07-1.23x the bare fftn + ifftn pair at d = 1, n = 64, 512 and d = 2,
    n = 64 (`tools/call_overhead.py`).  apply and adjoint take samples of
    the grid's shape or a stack of them, shape (S, *grid.shape): every pass
    acts on the trailing axes and every factor broadcasts over the stack,
    so each sample gets its own bits."""

    symbol: Symbol
    grid: Grid
    terms: list             # (a_r, b_r), b_r in FFT order, None where absent
    scales: tuple           # h^d of the forward transform, 1/h^d of the inverse

    @functools.cached_property
    def conj_terms(self) -> list:
        """(conj(a_r), conj(b_r)), None where absent, at the first adjoint."""
        return list(_conjugated(self.terms))

    def _forward(self, v: np.ndarray) -> np.ndarray:
        return _scaled(_forward_passes(v, self.grid.dim), self.scales[0])

    def _inverse(self, spectrum: np.ndarray) -> np.ndarray:
        return _scaled(_inverse_passes(spectrum, self.grid.dim), self.scales[1])

    def _checked(self, out: np.ndarray) -> np.ndarray:
        if not _all_finite(out):
            raise _overflow_error(self.symbol, self.grid)
        return out

    @np.errstate(all="ignore")
    def apply(self, v: np.ndarray) -> np.ndarray:
        """T v, the values of `apply_psido`."""
        return self._checked(_apply_terms(self.terms, v, self._forward, self._inverse))

    @np.errstate(all="ignore")
    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """T* v, the values of `discrete_adjoint_apply`."""
        return self._checked(
            _adjoint_terms(self.conj_terms, v, self._forward, self._inverse))


def _scaled(spectrum: np.ndarray, factor: float) -> np.ndarray:
    parts = spectrum.view(np.float64)  # a transform's own C-ordered result
    np.multiply(parts, factor, out=parts)
    return spectrum


def operator_plan(s: Symbol, grid: Grid) -> OperatorPlan:
    """The plan of s on grid (see `OperatorPlan`), from its sampled terms."""
    terms = [(a, None if b is None else np.fft.ifftshift(b)) for a, b in _terms(s, grid)]
    return OperatorPlan(s, grid, terms, (grid.spacing**grid.dim,
                                         1.0 / grid.dual().dual().spacing**grid.dim))


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
    Pieces are evaluated lazily on the dual grid, and |xi| is taken from
    the grid on every call.  `symbol_values` samples an x-dependent symbol
    afresh on every call, so a caller walking all pieces at one x takes
    one sample and multiplies it by each cutoff of `rings()`, as
    `sum_values` does.  Each ring comes on its support box, with |xi| on
    that box only.  An `even` symbol's pieces are even: `kernel_sum`,
    `kernel_piece` and the CLI `dyadic` and `kernel-decay` take them with
    `orthant=True` on the nonnegative orthant (`orthant_box`), 2^-d of
    the points; other symbols, and `dyadic_envelope_check` (odd along odd
    beta_k), the whole grid.  Its other half mirrors the orthant only to
    roundoff: kernels move up to 5e-14 of max|k|, `dyadic` figures 2e-14
    of max|sigma|, decay fits as their samples carry them.
    """

    symbol: Symbol
    grid: Grid
    levels: int

    @property
    def dual(self) -> Grid:
        return self.grid.dual()

    @property
    def even(self) -> bool:  # the frequency factor's declaration, see `Symbol`
        return getattr(self.symbol.xi_factor, "even", False)

    def orthant_box(self, box=None) -> tuple:
        """The dual grid indices of the orthant (of a box of it), per axis FFT
        order 0..n/2, the Nyquist index -n/2 (index 0) standing in for +n/2."""
        if not self.even:
            raise InvalidInputError(f"{self.symbol.label} is not even: no orthant")
        n = self.grid.points_per_axis
        return (np.r_[n // 2:n, 0][box[0] if box else slice(None)],) * self.grid.dim

    def symbol_values(self, x=None, orthant: bool = False) -> np.ndarray:
        """The raw symbol on the dual grid or its orthant (at x if x-dependent).

        Read-only: the symbol's memoised factor sample for an x-independent
        symbol, else a sample evaluated at x on every call."""
        s = self.symbol
        if s.x_independent:
            return self._xi_sample(orthant)
        if x is None:
            raise InvalidInputError(
                "x is required for pieces of an x-dependent symbol")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.grid.dim,):
            raise InvalidInputError(f"x has shape {x.shape}, expected ({self.grid.dim},)")
        values = self._separable_values(x, orthant) if s.kind == "separable" else None
        if values is None:
            # a view, so the read-only flag never reaches an array the evaluator keeps
            values = s.eval(x, self._points() if orthant else self.dual.coord_stack()).view()
        values.flags.writeable = False
        return values

    def _points(self) -> np.ndarray:
        """Every point of the orthant, shape (..., dim)."""
        axis = np.abs(self.dual.axis_coords()[self.orthant_box()[0]])
        return np.stack(np.meshgrid(*[axis] * self.grid.dim, indexing="ij"), axis=-1)

    def _xi_sample(self, orthant: bool) -> np.ndarray:
        s, dual = self.symbol, self.dual
        if not orthant:
            return s.sampled_factor("xi", dual)
        return s.grid_memo("xi+", dual, lambda: s._sample_factor("xi", self._points()))

    def _separable_values(self, x: np.ndarray, orthant: bool) -> Optional[np.ndarray]:
        """x_factor(x) times the memoised xi factor sample, the evaluator's
        own product (on the orthant float64 if both are real), without the
        coordinate stack; None if a value is not finite, so that
        Symbol.eval raises its own error."""
        try:
            with np.errstate(all="ignore"):
                a, b = self.symbol.x_factor(x), self._xi_sample(orthant)
                if not orthant:
                    return factor_product(a, b)
                values = a * b
        except SymbolEvaluationError:
            return None
        return values if np.isfinite(values).all() else None

    def cutoff_values(self, j: int, orthant: bool = False) -> np.ndarray:
        if not 0 <= j <= self.levels:
            raise InvalidInputError(f"piece index {j} outside 0..{self.levels}")
        r = self.dual.radius(self.orthant_box() if orthant else None)
        if j == 0:
            return low_pass_cutoff(r)
        return ring_cutoff(r / 2.0**j)

    def rings(self, orthant: bool = False):
        """(box, ring) for pieces 0..levels: ring j is the cutoff of piece j
        on `box`, the centred box of the dual points with every
        |xi_k| < 2^(j+1) + dxi, and exactly +0.0 outside it, where
        |xi| > 2^(j+1); on the orthant, its part there, from index 0.  The
        boxes are nested and grow with j; the top one may be the whole grid.
        One dilated low-pass L_j = eta(|xi| / 2^j) per level, on its box
        only: ring j is L_j - L_(j-1), the bits of `cutoff_values(j)[box]`,
        as 2 (|xi| / 2^j) is |xi| / 2^(j-1) exactly."""
        dual, half, below = self.dual, self.grid.points_per_axis // 2, None
        for j in range(self.levels + 1):
            box = dual.centred_box(2.0 ** (j + 1) + dual.spacing)
            if orthant:  # indices n/2.. of the box, and -n/2 if it holds index 0
                box = (slice(0, box[0].stop - half + (box[0].start == 0)),) * self.grid.dim
            low = low_pass_cutoff(dual.radius(self.orthant_box(box) if orthant else box) / 2.0**j)
            ring = low.copy()
            if below is not None:  # L_(j-1) is +0.0 outside its own box
                start = box[0].start
                ring[tuple(slice(b.start - start, b.stop - start) for b in inner)] -= below
            yield box, ring
            below, inner = low, box

    def piece_values(self, j: int, x=None, orthant: bool = False) -> np.ndarray:
        """sigma_j on the dual grid or its orthant (at x if x-dependent)."""
        return self.symbol_values(x, orthant) * self.cutoff_values(j, orthant)

    def sum_values(self, x=None, orthant: bool = False) -> np.ndarray:
        """Sum of all pieces; equals sigma * eta(2^-J |xi|) up to roundoff.

        One symbol sample times each of `rings()`, added on the ring's box:
        outside, a signed zero would be added to a +0 total, which stays +0."""
        sym = self.symbol_values(x, orthant)
        total = np.zeros(sym.shape, dtype=sym.dtype if orthant else np.complex128)
        for box, ring in self.rings(orthant):
            part = total[box]
            part += sym[box] * ring
        return total

    def truncation_values(self, x=None) -> np.ndarray:
        """The band-limited symbol sigma * eta(2^-J |xi|) itself."""
        return self.symbol_values(x) * low_pass_cutoff(self.dual.radius() / 2.0**self.levels)


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
    """Samples of a kernel slice k(x, .) in z; if `even`, at offsets j h, j = 0..n/2 per axis."""

    grid: Grid
    samples: np.ndarray
    symbol_params: SymbolClassParams
    levels: int
    piece_index: Optional[int] = None
    x_point: Optional[tuple] = None
    even: bool = False

    @property
    def values(self) -> np.ndarray:
        return self.on_box((slice(None),) * self.grid.dim)

    def on_box(self, box) -> np.ndarray:
        """values[box], by one index gather from the offsets if `even`."""
        if not self.even:
            return self.samples[box]
        fold = np.abs(np.arange(self.grid.points_per_axis) - self.grid.points_per_axis // 2)
        return self.samples[np.ix_(*(fold[b] for b in box))]

    def sampled(self) -> SampledFunction:
        return SampledFunction(self.grid, self.values)


@np.errstate(all="ignore")  # an overflowing transform raises below, unwarned
def _kernel_from_band(dd: DyadicDecomposition, band_values: np.ndarray,
                      piece_index, x) -> Kernel:
    try:
        samples = (even_inverse_transform(band_values, dd.dual) if dd.even else  # on the orthant
                   fourier_transform(SampledFunction(dd.dual, band_values), "inverse").values)
    except InvalidInputError:  # a non-finite kernel from finite samples
        raise SymbolEvaluationError(
            f"{dd.symbol.label}: the kernel overflows on {dd.grid}, though "
            f"every symbol sample is finite") from None
    xp = None if x is None else tuple(float(v) for v in np.atleast_1d(x))
    return Kernel(grid=dd.grid, samples=samples, symbol_params=dd.symbol.params,
                  levels=dd.levels, piece_index=piece_index, x_point=xp, even=dd.even)


def kernel_piece(dd: DyadicDecomposition, j: int, x=None) -> Kernel:
    """Kernel of the j-th piece: inverse transform of sigma_j(x, .)."""
    return _kernel_from_band(dd, dd.piece_values(j, x, dd.even), j, x)


def kernel_sum(dd: DyadicDecomposition, x=None) -> Kernel:
    """Sum of the piece kernels 0..levels.

    The transform is linear, so this is one inverse transform of the
    summed pieces; it equals the sum of `kernel_piece` up to roundoff.
    An overflowing kernel raises SymbolEvaluationError, as in `kernel_piece`.
    """
    return _kernel_from_band(dd, dd.sum_values(x, dd.even), None, x)


# ---------------------------------------------------------------------------
# off-support integral representation

def support_mask(f: SampledFunction) -> np.ndarray:
    return np.abs(f.values) > SUPPORT_THRESHOLD


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
