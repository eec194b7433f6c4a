"""Operator application, dyadic frequency decomposition, kernels, and the
exact discrete adjoint.

The operator acts by  (T f)(x) = (2R)^{-d} sum_m exp(i x.xi_m) sigma(x, xi_m) fhat(xi_m),
the Riemann-sum realization of symbol quantization on the periodic box.
Every kind but "general" is a factored product a(x) b(xi) and takes one
path: an FFT pair around the multiplication by b when xi_factor exists,
then a pointwise (exact) multiplication by a when x_factor exists.
General symbols take the O(n^{2d}) quadratic path, capped per dimension.

The adjoint is the conjugate transpose of the discretized operator
matrix, realized matrix-free, so the pairing identity
h^d sum (T u) conj(phi) = h^d sum u conj(T* phi) holds to roundoff.

Each factor is sampled once per grid: `Symbol.sampled_factor` memoises
the last grid sample of each factor on the symbol, and a decomposition
computes its dual grid and dual radius once.  These memos are the only
shared mutable state.  Each memo entry is written whole and read-only, so
concurrent evaluation stays safe: a racing caller at worst samples the
same grid again.  Apart from them, operators and decompositions are pure
given immutable inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidInputError, PreconditionError
from .grid import (Grid, SampledFunction, compatible_grids, fourier_transform)
from .symbols import Symbol, SymbolClassParams

_GENERAL_N_CAP = {1: 4096, 2: 128, 3: 32}
_GENERAL_WARN_OPS = 2**24
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

def _check_general_cap(grid: Grid):
    cap = _GENERAL_N_CAP[grid.dim]
    if grid.points_per_axis > cap:
        raise InvalidInputError(
            f"general-symbol path is O(n^(2d)); n = {grid.points_per_axis} exceeds "
            f"the cap {cap} for d = {grid.dim}")
    if grid.total_points**2 > _GENERAL_WARN_OPS:
        warnings.warn(
            f"general-symbol path runs {grid.total_points}^2 symbol evaluations",
            RuntimeWarning, stacklevel=3)


def _general_apply(s: Symbol, f: SampledFunction) -> SampledFunction:
    _check_general_cap(f.grid)
    fhat = fourier_transform(f, "forward")
    d = f.grid.dim
    x_flat = f.grid.coord_stack().reshape(-1, d)
    xi_flat = fhat.grid.coord_stack().reshape(-1, d)
    fvec = fhat.values.reshape(-1)
    npts = x_flat.shape[0]
    out = np.empty(npts, dtype=np.complex128)
    chunk = max(1, 2**21 // npts)
    for lo in range(0, npts, chunk):
        sl = slice(lo, min(lo + chunk, npts))
        phases = np.exp(1j * (x_flat[sl] @ xi_flat.T))
        sym = s.eval(x_flat[sl, None, :], xi_flat[None, :, :])
        out[sl] = (phases * sym) @ fvec
    out *= (2.0 * f.grid.half_extent) ** (-d)
    return SampledFunction(f.grid, out.reshape(f.grid.shape))


def apply_psido(s: Symbol, f: SampledFunction) -> SampledFunction:
    """Apply the operator with symbol s to the sampled function f.

    A factored symbol a(x) b(xi) multiplies fhat by b between one forward
    and one inverse FFT (skipped without xi_factor), then multiplies
    pointwise by a (skipped without x_factor), so a multiplication symbol
    is exact at grid level.  "general" runs the quadratic-cost double sum
    (see the per-dimension caps).
    """
    if s.kind == "general":
        return _general_apply(s, f)
    out = f
    if s.xi_factor is not None:
        fhat = fourier_transform(f, "forward")
        bvals = s.sampled_factor("xi", fhat.grid)
        out = fourier_transform(SampledFunction(fhat.grid, bvals * fhat.values),
                                "inverse")
    if s.x_factor is not None:
        out = SampledFunction(f.grid, s.sampled_factor("x", f.grid) * out.values)
    return out


def _general_adjoint(s: Symbol, g: SampledFunction) -> SampledFunction:
    _check_general_cap(g.grid)
    d = g.grid.dim
    dual = g.grid.dual()
    x_flat = g.grid.coord_stack().reshape(-1, d)
    xi_flat = dual.coord_stack().reshape(-1, d)
    gvec = g.values.reshape(-1)
    npts = x_flat.shape[0]
    psi = np.empty(npts, dtype=np.complex128)
    chunk = max(1, 2**21 // npts)
    for lo in range(0, npts, chunk):
        sl = slice(lo, min(lo + chunk, npts))
        phases = np.exp(-1j * (xi_flat[sl] @ x_flat.T))
        sym = np.conj(s.eval(x_flat[None, :, :], xi_flat[sl, None, :]))
        psi[sl] = (phases * sym) @ gvec
    two_r = 2.0 * g.grid.half_extent
    psi *= two_r ** (-d)
    back = fourier_transform(SampledFunction(dual, psi.reshape(dual.shape)), "inverse")
    scale = g.grid.spacing**d * two_r**d
    return SampledFunction(g.grid, back.values * scale)


def discrete_adjoint_apply(s: Symbol, g: SampledFunction) -> SampledFunction:
    """Apply the exact conjugate transpose of the discretized operator.

    Matrix-free: the conjugated factors in reverse order, or the transposed
    double sum for "general"; the discrete pairing <T u, phi> = <u, T* phi>
    holds to roundoff by construction.
    """
    if s.kind == "general":
        return _general_adjoint(s, g)
    out = g
    if s.x_factor is not None:
        out = SampledFunction(g.grid, np.conj(s.sampled_factor("x", g.grid)) * g.values)
    if s.xi_factor is not None:
        shat = fourier_transform(out, "forward")
        bvals = s.sampled_factor("xi", shat.grid)
        out = fourier_transform(
            SampledFunction(shat.grid, np.conj(bvals) * shat.values), "inverse")
    return out


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
    radius are computed once per decomposition, the cutoffs per call.
    """

    symbol: Symbol
    grid: Grid
    levels: int

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

        Read-only for an x-independent symbol: it is the symbol's memoised
        factor sample."""
        if self.symbol.x_independent:
            return self.symbol.sampled_factor("xi", self.dual)
        if x is None:
            raise InvalidInputError(
                "x is required for pieces of an x-dependent symbol")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.grid.dim,):
            raise InvalidInputError(f"x has shape {x.shape}, expected ({self.grid.dim},)")
        return self.symbol.eval(x, self.dual.coord_stack())

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
        """Sum of all pieces; equals sigma * eta(2^-J |xi|) up to roundoff."""
        sym = self.symbol_values(x)
        total = np.zeros(self.dual.shape, dtype=np.complex128)
        for j in range(self.levels + 1):
            total += sym * self.cutoff_values(j)
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
