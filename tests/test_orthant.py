"""Kernels of even symbols from the nonnegative orthant, against the full
complex path.

A symbol whose frequency factor declares itself even has even pieces, so
`kernel_sum` and `kernel_piece` sample, cut and transform them on the
orthant of the dual grid (FFT indices 0..n/2 per axis, the Nyquist index
-n/2 standing in for +n/2) and unfold the kernel where it is read.  The
references are the full path, kept here: one inverse `fourier_transform`
of the whole-grid sum or piece, and of the whole-grid band mirrored from
the orthant's (`mirrored`).  The orthant's samples are the whole grid's
at the same indices, but the dual axis -R' + h' i is not mirror-exact, so
the whole grid's other half differs from the mirror by roundoff, and a
steep cutoff edge magnifies that.  Bounds: kernel samples within 5e-14 of
max|k| of the whole grid's kernel and within 1e-14 of the mirrored band's
(the small grids of SMALL_GRIDS exceed 1e-14 against the former); a decay
fit moves as far as those sample moves carry it (`assert_fit_within`).
"""

import math

import numpy as np
import pytest

from psidolab import (Grid, InvalidInputError, KernelDecayParams, SampledFunction,
                      Symbol, SymbolClassParams, SymbolEvaluationError, decay_fit,
                      dyadic_decompose, fourier_transform, kernel_piece, kernel_sum,
                      operators)
from psidolab.estimates import DECAY_ROUNDOFF_FLOOR
from psidolab.cli import parse_symbol_spec
from psidolab.operators import Kernel

SPECS = ["bessel:-1", "bessel:1", "bessel:2", "wave:0", "sep:2,6:-1"]
# (d, n, R, levels): the top box is the whole grid in the first three, so
# the Nyquist index is read, and short of it in the last two
GRIDS = [(1, 64, 4.0, 5), (2, 32, 4.0, 4), (3, 16, 2.0, 3),
         (1, 256, 8.0, 4), (3, 32, 4.0, 2)]
# small grids where the whole grid's asymmetry moves kernels past 1e-14 of
# max|k| (up to 4.7e-14: wave:0 piece 3 at d=3 n=34): a whole top box at
# d=1 n=12, and a top box short of the grid at d=3 n=34
SMALL_GRIDS = [(1, 12, 0.5, 4), (3, 34, 1.0, 3)]
WHOLE_TOP = GRIDS[:3] + SMALL_GRIDS[:1]
WHOLE_GRID_BOUND, MIRRORED_BOUND = 5e-14, 1e-14


def case(d, n, R, levels, spec):
    sym = parse_symbol_spec(spec, 2.0 * R)
    dd = dyadic_decompose(sym, Grid(d, n, R), levels)
    x = None if sym.x_independent else np.array([0.375, -0.0, 1.25][:d])
    return dd, x


def full_path(dd, band):
    """The whole-grid band's kernel, by one inverse transform."""
    return fourier_transform(SampledFunction(dd.dual, band), "inverse").values


def mirrored(dd, orthant_band):
    """The whole-grid band mirrored from the orthant's: exactly even."""
    n = dd.grid.points_per_axis
    fold = np.abs(np.arange(n) - n // 2)
    return orthant_band[np.ix_(*[fold] * dd.grid.dim)]


def within(got, want, bound=MIRRORED_BOUND):
    return np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def assert_kernel_within(dd, got, band, orthant_band):
    """got against the whole grid's kernel of band, and against the
    mirrored orthant band's; the orthant band is the whole grid's there."""
    assert np.array_equal(band[np.ix_(*dd.orthant_box())].view(np.uint64),
                          orthant_band.astype(band.dtype).view(np.uint64))
    assert within(got.values, full_path(dd, band), WHOLE_GRID_BOUND)
    assert within(got.values, full_path(dd, mirrored(dd, orthant_band)))


@pytest.mark.parametrize("d, n, R, levels", GRIDS + SMALL_GRIDS)
@pytest.mark.parametrize("spec", SPECS)
def test_kernels_match_the_full_path(d, n, R, levels, spec):
    dd, x = case(d, n, R, levels, spec)
    assert dd.even
    whole = dd.grid.total_points
    top, _ = list(dd.rings())[-1]
    assert (top == (slice(0, n),) * d) == ((d, n, R, levels) in WHOLE_TOP)
    got = kernel_sum(dd, x)
    assert got.even and got.samples.shape == (n // 2 + 1,) * d
    # real symbols give real kernels; wave:0 is even but complex
    assert got.values.dtype == (np.complex128 if spec == "wave:0" else np.float64)
    assert got.values.shape == dd.grid.shape and got.values.size == whole
    assert_kernel_within(dd, got, dd.sum_values(x), dd.sum_values(x, orthant=True))
    box = dd.grid.centred_box(R / 2)
    assert np.array_equal(got.on_box(box), got.values[box])
    for j in range(levels + 1):
        piece = kernel_piece(dd, j, x)
        assert piece.even and piece.piece_index == j
        assert_kernel_within(dd, piece, dd.piece_values(j, x),
                             dd.piece_values(j, x, orthant=True))


def test_the_whole_grid_mirrors_the_orthant_to_roundoff_only():
    # the scan's worst case: the whole grid's band is not the mirror of its
    # own orthant, and its kernel is more than 1e-14 of max|k| from the
    # orthant's, which the mirrored band's kernel is within
    dd, x = case(*SMALL_GRIDS[1], "wave:0")
    band, half = dd.piece_values(3, x), dd.piece_values(3, x, orthant=True)
    assert not np.array_equal(band, mirrored(dd, half))
    got = kernel_piece(dd, 3, x).values
    assert not within(got, full_path(dd, band))
    assert within(got, full_path(dd, band), WHOLE_GRID_BOUND)
    assert within(got, full_path(dd, mirrored(dd, half)))


def assert_fit_within(got, want, maxk, shift, base, z_hi):
    """got, a fit of samples within shift of want's, moved no further than
    that carries: each shell maximum by at most shift; the envelope
    C = max |k| |z|^base over the window by shift z_hi^base; the slope,
    sum_i w_i log m_i with least-squares weights w_i of log c_i, by
    sum_i |w_i| |log(1 - shift / m_i)|, unbounded once shift >= m_i.  The
    fits' own roundoff: 4 ulp of C, 1e-13 of sum_i |w_i log m_i|."""
    assert got.shell_centers == want.shell_centers and len(got.shell_maxima) >= 2
    maxima = np.array(want.shell_maxima)
    assert np.max(np.abs(np.array(got.shell_maxima) - maxima)) <= shift
    assert abs(got.envelope_constant - want.envelope_constant) <= \
        shift * z_hi**base + 4 * np.spacing(want.envelope_constant)
    u = np.log(want.shell_centers)
    w = (u - u.mean()) / np.sum((u - u.mean()) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        moves = np.where(maxima > shift, -np.log1p(-shift / maxima), np.inf)
    assert abs(got.slope - want.slope) <= \
        np.sum(np.abs(w) * moves) + 1e-13 * np.sum(np.abs(w * np.log(maxima)))


# (d, n, R, levels, spec); the last three decay steeply: at n=256 to 1.6e-6
# of max|k| inside the window, where a sample move of 5e-14 of max|k| moves
# the slope by up to 3e-11 relative, and at n=22 into roundoff, whose
# shells the fit drops, keeping two or three
FITS = [(1, 256, 8.0, 5, "bessel:-1"), (2, 64, 4.0, 4, "bessel:-1"),
        (3, 32, 4.0, 3, "bessel:-1"), (1, 256, 8.0, 5, "sep:2,6:-1"),
        (2, 64, 4.0, 4, "sep:2,6:-1"), (3, 32, 4.0, 3, "sep:2,6:-1"),
        (1, 256, 8.0, 4, "bessel:2"), (2, 22, 8.0, 3, "bessel:2"),
        (3, 22, 2.0, 5, "bessel:2")]


@pytest.mark.parametrize("d, n, R, levels, spec", FITS)
def test_decay_fit_figures_match_the_full_path(d, n, R, levels, spec):
    dd, x = case(d, n, R, levels, spec)
    got = kernel_sum(dd, x)
    want = Kernel(dd.grid, full_path(dd, dd.sum_values(x)), dd.symbol.params, levels)
    maxk = np.max(np.abs(want.values))
    L = 2.0
    params = KernelDecayParams((0,) * d, (0,) * d, L)
    base = d + dd.symbol.params.m + L
    h = dd.grid.spacing
    for window, shells in (((4 * h, R / 2), 16), ((2 * h, 3 * R / 8), 5)):
        a, b = (decay_fit(k, window, params, num_shells=shells) for k in (got, want))
        assert_fit_within(a, b, maxk, WHOLE_GRID_BOUND * maxk, base, window[1])
        if n != 256 or spec != "bessel:2":  # far above roundoff: within 1e-13 relative
            assert max(abs(p - q) for p, q in zip(a.shell_maxima, b.shell_maxima)) \
                <= 1e-14 * maxk
            assert math.isclose(a.slope, b.slope, rel_tol=1e-13, abs_tol=0.0)
            assert math.isclose(a.envelope_constant, b.envelope_constant,
                                rel_tol=1e-13, abs_tol=0.0)


def test_decay_fit_drops_roundoff_shells():
    # bessel:2 at d=2 n=22 R=8 decays into roundoff inside the default
    # window: shell maxima down to 2.5e-18 of max|k|, once fitted to slopes
    # of -16.27 on the orthant and -15.24 on the full path.  Above the floor
    # both keep the same two shells and one slope; a window of roundoff
    # shells, or of one shell above it, is degenerate on both
    dd, _ = case(2, 22, 8.0, 3, "bessel:2")
    want = Kernel(dd.grid, full_path(dd, dd.sum_values()), dd.symbol.params, 3)
    kernels = (kernel_sum(dd), want)
    params = KernelDecayParams((0, 0), (0, 0), 2.0)
    floor = DECAY_ROUNDOFF_FLOOR * np.max(np.abs(want.values))
    a, b = (decay_fit(k, (4 * dd.grid.spacing, 4.0), params) for k in kernels)
    for fit in (a, b):
        assert not fit.degenerate and len(fit.shell_maxima) == 2
        assert min(fit.shell_maxima) > floor
    assert a.shell_centers == b.shell_centers
    assert math.isclose(a.slope, b.slope, rel_tol=1e-13, abs_tol=0.0)
    for window in ((2.95, 3.3), (2.95, 3.7)):
        for k in kernels:
            fit = decay_fit(k, window, params)
            assert fit.degenerate and fit.slope is None and len(fit.shell_maxima) < 2


def test_non_even_symbols_keep_the_full_path():
    trig = parse_symbol_spec("trig:2,6", 8.0)
    dd = dyadic_decompose(trig, Grid(2, 32, 4.0), 3)
    x = np.array([0.375, -0.0])
    k = kernel_sum(dd, x)
    assert not dd.even and not k.even and k.samples.shape == dd.grid.shape
    want = full_path(dd, dd.sum_values(x))
    assert np.array_equal(k.values.view(np.uint64), want.view(np.uint64))


def test_a_dropped_nyquist_fold_fails(monkeypatch):
    # the orthant's last index along each axis samples -n/2, which stands
    # in for +n/2: zeroing it, as if the fold were dropped, must break the
    # match wherever the top ring reaches the Nyquist frequency
    dd, x = case(*GRIDS[1], "bessel:-1")
    want = full_path(dd, dd.sum_values(x))
    assert within(kernel_sum(dd, x).values, want)
    plain = operators.even_inverse_transform

    def dropped(values, grid):
        values = values.copy()
        for axis in range(values.ndim):
            values[(slice(None),) * axis + (-1,)] = 0.0
        return plain(values, grid)

    monkeypatch.setattr(operators, "even_inverse_transform", dropped)
    assert not within(kernel_sum(dd, x).values, want)


def test_an_overflowing_kernel_raises_a_typed_error():
    # finite samples whose transform overflows, on the orthant and on the
    # full path: an error naming the overflow, with no numpy warning (the
    # suite turns RuntimeWarnings into errors) and not as invalid input
    def factor(xi):
        return np.full(xi.shape[:-1], 1e308)

    for even in (True, False):
        factor.even = even
        s = Symbol(lambda x, xi: factor(xi) + 0j, SymbolClassParams(m=0.0),
                   "multiplier", xi_factor=factor)
        dd = dyadic_decompose(s, Grid(2, 32, 4.0), 3)
        assert dd.even == even
        for call in (lambda: kernel_sum(dd), lambda: kernel_piece(dd, 1)):
            with pytest.raises(SymbolEvaluationError, match="kernel overflows"):
                call()


def test_only_an_even_symbol_has_an_orthant():
    # on a non-even symbol the orthant's index 0 would sample +R' where the
    # whole grid samples -R', and its DCT would assume a symmetry that is
    # not there: every orthant accessor refuses
    dd = dyadic_decompose(parse_symbol_spec("trig:2,6", 8.0), Grid(2, 32, 4.0), 3)
    x = np.array([0.375, -0.0])
    assert not dd.even
    for call in (lambda: dd.orthant_box(), lambda: dd.symbol_values(x, orthant=True),
                 lambda: dd.cutoff_values(1, orthant=True),
                 lambda: list(dd.rings(orthant=True)),
                 lambda: dd.piece_values(1, x, orthant=True),
                 lambda: dd.sum_values(x, orthant=True)):
        with pytest.raises(InvalidInputError, match="not even"):
            call()
