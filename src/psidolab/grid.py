"""Uniform box grids, sampled functions, and the discrete Fourier transform.

Conventions (used everywhere else in the package):

* physical domain is the periodic box [-R, R)^d with n points per axis,
  spacing h = 2R/n; point k of an axis sits at -R + k*h.
* the frequency (dual) grid has spacing pi/R and half extent
  xi_max = pi*n/(2R); it is again a uniform box grid, so the dual of the
  dual recovers the original box up to roundoff.
* forward transform approximates  F(xi) = integral exp(-i x.xi) f(x) dx
  by the left-endpoint Riemann sum h^d * sum_k exp(-i x_k.xi) f(x_k);
  the inverse carries the (2pi)^{-d} factor, so inverse(forward(f)) == f
  up to roundoff.

Because R * (pi/R) = pi, the boundary phase exp(+-i R xi_m) reduces to
the exact alternating sign (-1)^m per axis; no trigonometric roundoff
enters the transform beyond the FFT itself.

Grid geometry comes from the 1-D axis.  `squared_radius` broadcasts the
squared axis, adding in axis order, and `radius` is its square root; both
give the bits of the full coordinate arrays without building them.  The
built-in symbol factors sample a Grid the same way (see `Symbol`).  Only
callers that need every point as a vector (user factor callables, the
general path, the x-dependent dyadic sample, the support checks) build
`coord_stack`, of shape (*shape, d).

Cost of a transform: one FFT plus about one pass over the samples, in
place, and one result array.  n is even, so fftshift and ifftshift both
swap each half-block with the opposite one.  The forward direction runs
every FFT axis pass in a fresh output array (numpy's `out=`), flips the
sign of the samples whose index sum is odd in one contiguous pass, then
swaps the half-blocks and scales them by h^d in one pass through a single
block-sized temporary (2^-d of the array).  The inverse copies the
caller's samples into shifted order once, flips the signs, runs the
inverse FFT in that copy and divides by h^d in place.  The sign flip
multiplies the real and imaginary parts by a cached +-1.0 pattern of
shape (2, n, ..., n, 2), which is exact.  Both directions give the bits
of the out-of-place fftshift formulation, signed zeros included.
Wrapping the result in a SampledFunction adds one reduction, the
finiteness sum, and each grid computes its dual grid once.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

MAX_TOTAL_POINTS = 2**28  # desk-scale guardrail


@dataclass(frozen=True)
class Grid:
    """Uniform grid on the box [-half_extent, half_extent)^dim."""

    dim: int
    points_per_axis: int
    half_extent: float

    def __post_init__(self):
        d, n, R = self.dim, self.points_per_axis, self.half_extent
        if not _is_integer(d) or not 1 <= d <= 3:
            raise InvalidInputError(f"dim must be 1, 2 or 3, got {d!r}")
        if not _is_integer(n) or n < 8 or n % 2 != 0:
            raise InvalidInputError(f"points_per_axis must be even and >= 8, got {n!r}")
        if not ((_is_integer(R) or isinstance(R, float)) and math.isfinite(R) and R > 0):
            raise InvalidInputError(f"half_extent must be a positive real, got {R!r}")
        # plain Python numbers: equal grids compare, hash and print alike,
        # and n**d cannot wrap around as a fixed-width integer would
        d, n, R = int(d), int(n), int(R) if _is_integer(R) else float(R)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "points_per_axis", n)
        object.__setattr__(self, "half_extent", R)
        if n**d > MAX_TOTAL_POINTS:
            raise InvalidInputError(
                f"grid has {n}^{d} points, exceeding the 2^28 cap")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def total_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def nyquist(self) -> float:
        """Largest representable frequency magnitude per axis."""
        return math.pi * self.points_per_axis / (2.0 * self.half_extent)

    @property
    def freq_spacing(self) -> float:
        return math.pi / self.half_extent

    def axis_coords(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.points_per_axis)

    def meshgrid(self) -> list:
        """Coordinate arrays (indexing='ij'; axis 0 is x1, the slowest)."""
        ax = self.axis_coords()
        return list(np.meshgrid(*([ax] * self.dim), indexing="ij"))

    def coord_stack(self) -> np.ndarray:
        """All grid points as an array of shape (*shape, dim)."""
        return np.stack(self.meshgrid(), axis=-1)

    def squared_radius(self) -> np.ndarray:
        """|x|^2 at every grid point, from the squared 1-D axis.

        The squares add in axis order, ((x1^2 + x2^2) + x3^2), broadcast
        from per-axis views: the bits of summing the squared coordinate
        arrays, or the coordinate axis of `coord_stack`, without building
        either."""
        square = self.axis_coords() ** 2
        total = square.reshape((-1,) + (1,) * (self.dim - 1))
        for axis in range(1, self.dim):
            total = total + square.reshape((-1,) + (1,) * (self.dim - 1 - axis))
        return total

    def radius(self) -> np.ndarray:
        """Euclidean distance from the origin at every grid point: the
        square root of `squared_radius`, bit for bit the root of the summed
        squared coordinate arrays."""
        return np.sqrt(self.squared_radius())

    def dual(self) -> "Grid":
        """The DFT-dual frequency grid (spacing pi/R, Nyquist pi*n/(2R)).

        Computed once per grid and kept outside the dataclass fields, so
        equality, hashing and repr ignore it and `dataclasses.replace`
        copies start without it."""
        dual = self.__dict__.get("_dual")
        if dual is None:
            dual = Grid(self.dim, self.points_per_axis, self.nyquist)
            object.__setattr__(self, "_dual", dual)
        return dual

    def index_of(self, point, tol: float = 1e-9) -> tuple:
        """Grid index of an on-grid point; raises if any coordinate is off-grid."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        if pt.shape != (self.dim,):
            raise InvalidInputError(
                f"point has shape {pt.shape}, expected ({self.dim},)")
        idx = (pt + self.half_extent) / self.spacing
        rounded = np.rint(idx)
        if np.any(np.abs(idx - rounded) > tol * max(1.0, 1.0 / self.spacing)):
            raise InvalidInputError(f"point {pt.tolist()} is not on the grid")
        if np.any(rounded < 0) or np.any(rounded >= self.points_per_axis):
            raise InvalidInputError(f"point {pt.tolist()} lies outside the box")
        return tuple(int(i) for i in rounded)


def _is_integer(v) -> bool:
    # bool is an Integral, but True is no grid size
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def compatible_grids(a: Grid, b: Grid, rel_tol: float = 1e-12) -> bool:
    return (
        a.dim == b.dim
        and a.points_per_axis == b.points_per_axis
        and math.isclose(a.half_extent, b.half_extent, rel_tol=rel_tol)
    )


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on a Grid (row-major, x1 slowest)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape == (self.grid.total_points,):
            vals = vals.reshape(self.grid.shape)
        if vals.shape != self.grid.shape:
            raise InvalidInputError(
                f"values shape {np.shape(self.values)} does not match grid shape "
                f"{self.grid.shape}")
        if not _all_finite(vals):
            raise InvalidInputError("values contain NaN or Inf samples")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "SampledFunction":
        """Sample fn(*mesh) where mesh are the coordinate arrays of the grid."""
        vals = np.asarray(fn(*grid.meshgrid()), dtype=np.complex128)
        vals = np.broadcast_to(vals, grid.shape)
        return cls(grid, vals.copy())

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self.grid, other.grid)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _require_same_grid(self.grid, other.grid)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def conj(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.conj(self.values))


@np.errstate(over="ignore", invalid="ignore")
def _all_finite(vals: np.ndarray) -> bool:
    # a non-finite sample makes the sum non-finite, so a finite sum proves
    # every sample finite in one reduction; only a non-finite sum (which
    # finite samples can reach by overflow, quietly) checks each sample
    return cmath.isfinite(vals.sum()) or bool(np.isfinite(vals).all())


def _require_same_grid(a: Grid, b: Grid):
    if not compatible_grids(a, b):
        raise InvalidInputError(f"grids differ: {a} vs {b}")


def _apply_alternating_sign(arr: np.ndarray) -> np.ndarray:
    # exp(+-i R xi_m) with xi_m = m~ * pi/R equals (-1)^m along each axis,
    # so the sample at index m gets the sign (-1)^(m_1 + ... + m_d).
    # One contiguous in-place pass over the real and imaginary parts:
    # multiplying a float by +-1.0 is exact, signed zeros included, so
    # this gives the bits of negating the odd-sum samples (a complex
    # product with -1 + 0j would not: it turns 0 into -0 + 0j).  Callers
    # must pass a C-contiguous array they own: both pass a fresh fftn
    # output or shifted copy.
    pattern = _sign_pattern(arr.ndim, arr.shape[0])
    parts = arr.view(np.float64).reshape((arr.shape[0] // 2,) + pattern.shape)
    np.multiply(parts, pattern, out=parts)
    return arr


@functools.lru_cache(maxsize=64)
def _sign_pattern(ndim: int, n: int) -> np.ndarray:
    """Read-only +-1.0 of shape (2, n, ..., n, 2): the sign of an index pair
    (2k + i, m_2, ..., m_d) for either float of its sample, any k."""
    parity = np.indices((2,) + (n,) * (ndim - 1)).sum(axis=0) % 2
    pattern = np.repeat((1.0 - 2.0 * parity)[..., np.newaxis], 2, axis=-1)
    pattern.flags.writeable = False
    return pattern


@functools.lru_cache(maxsize=64)
def _opposite_half_blocks(ndim: int, n: int) -> tuple:
    """Index pairs (P, Q) of opposite half-blocks, covering the array once.

    For even n, fftshift and ifftshift both move block Q to P and P to Q.
    """
    lo, hi = slice(0, n // 2), slice(n // 2, None)
    return tuple(((lo,) + rest, (hi,) + tuple(hi if r is lo else lo for r in rest))
                 for rest in itertools.product((lo, hi), repeat=ndim - 1))


def fourier_transform(f: SampledFunction, direction: str = "forward") -> SampledFunction:
    """Discrete realization of the integral Fourier transform.

    Parameters
    ----------
    f : SampledFunction
        Samples on a box grid (physical side for "forward", frequency side
        for "inverse").
    direction : {"forward", "inverse"}
        "forward" returns samples of h^d * sum exp(-i x.xi) f(x) on the dual
        grid, in monotone frequency order.  "inverse" applies the
        (2pi)^{-d}-normalized inverse sum, returning samples on the dual of
        the input grid.

    Returns
    -------
    SampledFunction on the dual grid.
    """
    d, n = f.grid.dim, f.grid.points_per_axis
    if direction == "forward":
        scale = f.grid.spacing**d
        spectrum = np.fft.fftn(f.values, out=np.empty(f.grid.shape, np.complex128))
        _apply_alternating_sign(spectrum)
        # fftshift and the h^d scaling in one in-place pass; the sign flip
        # stays a negation, as a -h^d factor would turn -0.0 into +0.0
        block = np.empty((n // 2,) * d, dtype=spectrum.dtype)
        for p, q in _opposite_half_blocks(d, n):
            np.multiply(spectrum[q], scale, out=block)
            np.multiply(spectrum[p], scale, out=spectrum[q])
            spectrum[p] = block
        return SampledFunction(f.grid.dual(), spectrum)
    if direction == "inverse":
        out_grid = f.grid.dual()
        # ifftshift into a copy: the caller's samples stay untouched
        spectrum = np.empty_like(f.values)
        for p, q in _opposite_half_blocks(d, n):
            spectrum[p] = f.values[q]
            spectrum[q] = f.values[p]
        np.fft.ifftn(_apply_alternating_sign(spectrum), out=spectrum)
        np.divide(spectrum, out_grid.spacing**d, out=spectrum)
        return SampledFunction(out_grid, spectrum)
    raise InvalidInputError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def quadrature(f: SampledFunction) -> complex:
    """Left-endpoint Riemann sum h^d * sum(values) over the periodic box."""
    return complex(f.grid.spacing**f.grid.dim * f.values.sum())


def dual_pairing(f: SampledFunction, g: SampledFunction) -> complex:
    """Discrete dual product <f, g> = h^d * sum f * conj(g)."""
    _require_same_grid(f.grid, g.grid)
    return complex(f.grid.spacing**f.grid.dim * np.vdot(g.values, f.values))


def spectral_derivative(f: SampledFunction, beta) -> SampledFunction:
    """Partial derivative of multi-index beta, computed in frequency space."""
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    if len(beta) != f.grid.dim or any(b < 0 for b in beta):
        raise InvalidInputError(f"bad derivative multi-index {beta} for dim {f.grid.dim}")
    fhat = fourier_transform(f, "forward")
    mult = np.ones(fhat.grid.shape, dtype=np.complex128)
    mesh = fhat.grid.meshgrid()
    for axis, b in enumerate(beta):
        if b:
            mult = mult * (1j * mesh[axis]) ** b
    return fourier_transform(SampledFunction(fhat.grid, fhat.values * mult), "inverse")


def vector_pnorm(x, p) -> float:
    """The p-norm |x|_p on R^d; p = inf gives the max norm."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("vector has non-finite entries")
    if p == math.inf:
        return float(np.max(np.abs(x))) if x.size else 0.0
    p = float(p)
    if p < 1:
        raise InvalidInputError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def japanese_bracket(xi) -> float:
    """<xi> = (1 + |xi|^2)^(1/2), always >= 1."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return float(np.sqrt(1.0 + np.sum(xi**2)))


def random_band_limited(grid: Grid, rng: np.random.Generator,
                        band_fraction: float = 0.4) -> SampledFunction:
    """Random function whose spectrum lives in |xi| <= band_fraction * Nyquist.

    Normalized to unit sup norm; used as generic test input wherever the
    periodic surrogate must not feel the grid cutoff.
    """
    if not 0 < band_fraction <= 1:
        raise InvalidInputError(f"band_fraction must be in (0, 1], got {band_fraction}")
    dual = grid.dual()
    mask = dual.radius() <= band_fraction * grid.nyquist
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    spectrum = SampledFunction(dual, coeffs * mask)
    f = fourier_transform(spectrum, "inverse")
    peak = np.max(np.abs(f.values))
    if peak == 0:
        raise InvalidInputError("band contains no grid frequencies")
    return SampledFunction(grid, f.values / peak)
