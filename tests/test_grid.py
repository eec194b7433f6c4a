import dataclasses
import itertools
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psidolab import (Grid, InvalidInputError, SampledFunction, dual_pairing,
                      fourier_transform, japanese_bracket, quadrature,
                      random_band_limited, spectral_derivative, vector_pnorm)
from psidolab.grid import _all_finite, _sign_pattern, compatible_grids
from conftest import gaussian


class TestGridValidation:
    def test_basic_properties(self):
        g = Grid(2, 64, 4.0)
        assert g.spacing == pytest.approx(0.125)
        assert g.shape == (64, 64)
        assert g.nyquist == pytest.approx(math.pi * 64 / 8.0)
        assert g.dual().half_extent == pytest.approx(g.nyquist)
        # numpy integers are accepted and stored as int, so equal grids
        # compare, hash and print alike
        for grid, plain in ((Grid(1, np.int64(16), 4.0), Grid(1, 16, 4.0)),
                            (Grid(np.int64(2), 16, 4.0), Grid(2, 16, 4.0))):
            assert grid == plain and hash(grid) == hash(plain)
            assert repr(grid) == repr(plain)
            assert type(grid.dim) is int and type(grid.points_per_axis) is int

    @pytest.mark.parametrize("bad", [
        dict(dim=0, points_per_axis=64, half_extent=1.0),
        dict(dim=4, points_per_axis=64, half_extent=1.0),
        dict(dim=1, points_per_axis=63, half_extent=1.0),
        dict(dim=1, points_per_axis=4, half_extent=1.0),
        dict(dim=1, points_per_axis=64, half_extent=-1.0),
        dict(dim=3, points_per_axis=1024, half_extent=1.0),  # 2^30 points
        dict(dim=1, points_per_axis=16, half_extent=True),
        dict(dim=True, points_per_axis=16, half_extent=4.0),
    ])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(InvalidInputError):
            Grid(**bad)

    @pytest.mark.parametrize("d, n, R", [
        (1, 16, 1e-300),   # nyquist^2 overflows
        (3, 8, 1e-110),    # h^3 underflows to 0: no plan could scale a transform
        (2, 16, 1e-160),   # 1 / h^2 overflows
        (3, 8, 1e200),     # h^3 overflows
        (1, 8, 1e155),     # R^2 overflows
        (1, 8, 10**155),   # R^2 overflows, R given as an int
        (1, 8, 10**400),   # the int R itself is beyond float64
    ])
    def test_rejects_boxes_out_of_float_range(self, d, n, R):
        with pytest.raises(InvalidInputError, match="half_extent"):
            Grid(d, n, R)

    @pytest.mark.parametrize("d, n, R", [(1, 16, 1e-150), (3, 8, 1e-95),
                                         (3, 8, 1e90), (1, 8, 1e150)])
    def test_keeps_extreme_boxes_in_float_range(self, d, n, R):
        g = Grid(d, n, R)
        assert 0.0 < g.dual().dual().spacing ** d < math.inf

    def test_all_finite_semantics(self):
        # a sum proves finiteness: NaN, +-inf and an inf / -inf pair (whose
        # sum is NaN) are caught, finite samples whose sum overflows pass,
        # in real, complex and stacked arrays, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for dtype in (float, complex):
                for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]):
                    vals = np.ones(16, dtype=dtype)
                    vals[:len(bad)] = bad
                    assert not _all_finite(vals)
                    assert not _all_finite(np.stack([np.ones(16), vals]))
                assert _all_finite(np.array([1e308, 1e308], dtype=dtype))
                assert _all_finite(np.full((3, 8, 8), -1e308, dtype=dtype))
            assert not _all_finite(np.array([1e308 + 1e308j, complex(0.0, np.nan)]))
            assert _all_finite(np.array([1e308j, 1e308j]))

    def test_values_must_match_and_be_finite(self, grid_1d):
        with pytest.raises(InvalidInputError):
            SampledFunction(grid_1d, np.ones(17))
        vals = np.ones(grid_1d.shape)
        vals[3] = np.nan
        with pytest.raises(InvalidInputError):
            SampledFunction(grid_1d, vals)
        message = "values contain NaN or Inf samples"
        with warnings.catch_warnings():
            # the checks raise the typed error alone, with no numpy warning
            warnings.simplefilter("error", RuntimeWarning)
            # NaN or Inf in either part; +inf and -inf together sum to NaN
            for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
                vals = np.ones(grid_1d.shape, dtype=complex)
                vals[5] = bad
                with pytest.raises(InvalidInputError, match=message):
                    SampledFunction(grid_1d, vals)
            vals = np.ones(grid_1d.shape)
            vals[[2, 7]] = np.inf, -np.inf
            with pytest.raises(InvalidInputError, match=message):
                SampledFunction(grid_1d, vals)
            # finite samples whose sum or sum of squares overflows are valid
            for big in (1e308 + 1e308j, 1e200, 1e200j):
                huge = np.full(grid_1d.shape, big)
                assert np.array_equal(SampledFunction(grid_1d, huge).values, huge)
            # a strided view is checked at the samples it holds
            wide = np.ones(2 * grid_1d.total_points)
            wide[1::2] = np.nan
            assert np.all(SampledFunction(grid_1d, wide[::2]).values == 1.0)
            wide[::2][9] = np.inf
            with pytest.raises(InvalidInputError, match=message):
                SampledFunction(grid_1d, wide[::2])

    def test_dual_memo_is_not_identity(self):
        g = Grid(2, 16, 3.0)
        fresh = Grid(2, 16, 3.0)
        assert g.dual() is g.dual()
        assert g.dual() == fresh.dual()
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert [f.name for f in dataclasses.fields(g)] == [
            "dim", "points_per_axis", "half_extent"]
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.dual() == g.dual()
        replaced = dataclasses.replace(g)
        assert replaced == g and "_dual" not in vars(replaced)
        assert replaced.dual() == g.dual() and replaced.dual() is not g.dual()
        assert compatible_grids(g.dual().dual(), g)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n, R", [(10, 0.7), (18, math.pi), (64, 6.0)])
    def test_radius_from_axes_is_bit_identical(self, dim, n, R):
        for g in (Grid(dim, n, R), Grid(dim, n, R).dual()):
            old = np.sqrt(sum(c**2 for c in g.meshgrid()))
            assert g.radius().shape == g.shape
            assert np.array_equal(g.radius().view(np.uint64), old.view(np.uint64))
            summed = np.sum(g.coord_stack() ** 2, axis=-1)
            assert np.array_equal(g.squared_radius().view(np.uint64),
                                  summed.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n, R", [(10, 0.7), (18, math.pi), (64, 6.0)])
    def test_centred_box_and_its_radius(self, dim, n, R):
        for g in (Grid(dim, n, R), Grid(dim, n, R).dual()):
            axis, h, half = g.axis_coords(), g.spacing, g.half_extent
            for bound in (0.6 * h, 1.5 * h, 0.3 * half, half - h / 2, 2 * half):
                box = g.centred_box(bound)
                assert len(box) == dim and all(b == box[0] for b in box)
                inside = np.abs(axis) < bound
                assert np.array_equal(np.flatnonzero(inside),
                                      np.arange(n)[box[0]]), bound
                # on the box, the bits of the whole grid's radius
                for got, whole in ((g.radius(box), g.radius()),
                                   (g.squared_radius(box), g.squared_radius())):
                    assert np.array_equal(got.view(np.uint64),
                                          whole[box].view(np.uint64)), bound

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, 10, 18, 32])
    def test_derivative_multiplier_from_axes_is_bit_identical(self, dim, n):
        # every beta <= 2 per axis against the loop over meshgrid arrays
        g = Grid(dim, n, 3.0).dual()
        mesh = g.meshgrid()
        for beta in itertools.product(range(3), repeat=dim):
            old = np.ones(g.shape, dtype=np.complex128)
            for axis, b in enumerate(beta):
                if b:
                    old = old * (1j * mesh[axis]) ** b
            new = g.derivative_multiplier(beta)
            assert new.shape == g.shape
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64)), beta

    def test_index_of_rejects_offgrid(self, grid_1d):
        assert grid_1d.index_of([0.0]) == (128,)
        with pytest.raises(InvalidInputError):
            grid_1d.index_of([0.01])


class TestFourierTransform:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for d, n in ((1, 64), (2, 32), (3, 16)):
            g = Grid(d, n, 3.0)
            f = SampledFunction(g, rng.standard_normal(g.shape)
                                + 1j * rng.standard_normal(g.shape))
            back = fourier_transform(fourier_transform(f, "forward"), "inverse")
            assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_gaussian_closed_form(self):
        # forward of exp(-x^2/2) is sqrt(2 pi) exp(-xi^2/2) in this convention
        g = Grid(1, 1024, 16.0)
        fh = fourier_transform(gaussian(g), "forward")
        xi = fh.grid.axis_coords()
        exact = math.sqrt(2 * math.pi) * np.exp(-0.5 * xi**2)
        # peak-normalized on |xi| <= 8 (the exact value decays to 1e-14
        # there, below the f64 roundoff floor of the transform)
        m = np.abs(xi) <= 8.0
        norm_err = np.abs(fh.values[m] - exact[m]) / exact.max()
        assert np.max(norm_err) <= 1e-8
        # pointwise relative where double precision can support it
        m6 = np.abs(xi) <= 6.0
        rel = np.abs(fh.values[m6] - exact[m6]) / exact[m6]
        assert np.max(rel) <= 1e-8

    def test_plancherel_against_direct_sums(self):
        # oracle: plain weighted sums of squares on both sides
        rng = np.random.default_rng(3)
        for d, n in ((1, 128), (2, 32)):
            g = Grid(d, n, 5.0)
            f = random_band_limited(g, rng)
            fh = fourier_transform(f, "forward")
            lhs = g.spacing**d * np.sum(np.abs(f.values) ** 2)
            rhs = ((2 * math.pi) ** (-d) * fh.grid.spacing**d
                   * np.sum(np.abs(fh.values) ** 2))
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8), (1, 10), (2, 10),
                                      (3, 10), (1, 18), (2, 18), (3, 18)])
    def test_matches_out_of_place_sign_flip(self, d, n):
        # reference: the sign flip as d out-of-place negations and numpy's
        # fftshift / ifftshift; the transform flips, shifts and scales in
        # place, which must give the same bits, signed zeros included, and
        # leave the caller's samples alone.  (A multiply by (-1)^m would
        # not do as reference: (-1 + 0j) * (0 + 0j) is -0 + 0j, not -0 - 0j.)
        def flip(arr):
            for axis in range(d):
                odd = (slice(None),) * axis + (slice(1, None, 2),)
                arr = arr.copy()
                arr[odd] = -arr[odd]
            return arr

        def bits(arr):
            return arr.view(np.uint64)

        g = Grid(d, n, 3.0)
        rng = np.random.default_rng(d)
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        zeros = np.where(rng.random(g.shape) < 0.5, noise, 0.0)
        zeros.real[rng.random(g.shape) < 0.3] = -0.0
        zeros.imag[rng.random(g.shape) < 0.3] = -0.0
        h = g.dual().dual().spacing
        for vals in (noise, zeros, np.full(g.shape, complex(-0.0, -0.0))):
            f = SampledFunction(g, vals.copy())
            fhat = SampledFunction(g.dual(), vals.copy())
            forward = np.fft.fftshift(flip(np.fft.fftn(vals)) * g.spacing**d)
            inverse = np.fft.ifftn(flip(np.fft.ifftshift(vals))) / h**d
            assert np.array_equal(bits(fourier_transform(f, "forward").values),
                                  bits(forward))
            assert np.array_equal(bits(fourier_transform(fhat, "inverse").values),
                                  bits(inverse))
            assert np.array_equal(bits(f.values), bits(vals))
            assert np.array_equal(bits(fhat.values), bits(vals))

    @pytest.mark.parametrize("d, n", [(d, n) for d in (1, 2, 3)
                                      for n in (8, 10, 18, 64, 512)
                                      if n**d <= 2**18] + [(1, 4096)])
    def test_bits_at_every_size(self, d, n):
        # reference: numpy's fftn / ifftn, the sign flip as d out-of-place
        # negations, fftshift / ifftshift and a complex division by h^d.
        # Noise leaves no zero float in the inverse, which then scales by a
        # real multiply; the others leave zeros, where it must divide
        def flip(arr):
            for axis in range(d):
                odd = (slice(None),) * axis + (slice(1, None, 2),)
                arr = arr.copy()
                arr[odd] = -arr[odd]
            return arr

        g = Grid(d, n, 3.0)
        rng = np.random.default_rng(n + d)
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        zeros = np.where(rng.random(g.shape) < 0.5, noise, 0.0)
        zeros.real[rng.random(g.shape) < 0.3] = -0.0
        impulse = np.zeros(g.shape, dtype=complex)  # a constant: zero imaginary parts
        impulse[(n // 2,) * d] = 1.5 - 0.0j
        h = g.dual().dual().spacing
        for vals, has_zero in ((noise, False), (zeros, False), (impulse, True),
                               (np.full(g.shape, complex(-0.0, -0.0)), True)):
            inverse = np.fft.ifftn(flip(np.fft.ifftshift(vals))) / h**d
            assert (inverse.view(np.float64) == 0).any() == has_zero
            forward = np.fft.fftshift(flip(np.fft.fftn(vals)) * g.spacing**d)
            got = fourier_transform(SampledFunction(g, vals), "forward").values
            assert np.array_equal(got.view(np.uint64), forward.view(np.uint64))
            got = fourier_transform(SampledFunction(g.dual(), vals), "inverse").values
            assert np.array_equal(got.view(np.uint64), inverse.view(np.uint64))

    def test_transforms_run_in_place(self):
        # the FFT passes write into one array the transform owns: no
        # d-dimensional temporary per axis pass, no copy beside the result
        g = Grid(3, 64, 4.0)
        rng = np.random.default_rng(3)
        f = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        fhat = SampledFunction(g.dual(), f.values)
        for _ in range(2):  # fill the dual grid and sign pattern caches
            fourier_transform(f, "forward")
            fourier_transform(fhat, "inverse")
        for arr, direction, bound in ((f, "forward", 1.25), (fhat, "inverse", 1.1)):
            tracemalloc.start()
            try:
                fourier_transform(arr, direction)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * f.values.nbytes, direction

    @pytest.mark.parametrize("dim", [2, 3])
    def test_any_memory_order(self, dim):
        # a transposed or Fortran-ordered sample transforms to the bits of
        # the C-ordered one, in both directions, and is left untouched
        g = Grid(dim, 16, 3.0)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        for grid, direction in ((g, "forward"), (g.dual(), "inverse")):
            want = fourier_transform(SampledFunction(grid, vals), direction).values
            for arr in (np.asfortranarray(vals), np.ascontiguousarray(vals.T).T):
                assert not arr.flags.c_contiguous
                kept = arr.copy(order="K")
                got = fourier_transform(SampledFunction(grid, arr), direction).values
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert np.array_equal(np.ascontiguousarray(arr).view(np.uint64),
                                      np.ascontiguousarray(kept).view(np.uint64))

    def test_sign_pattern_read_only(self):
        for d, n in ((1, 10), (2, 16), (3, 8)):
            pattern = _sign_pattern(d, n)
            lead = n if d == 1 else 2
            assert pattern.shape == (lead,) + (n,) * (d - 1) + (2,)
            assert not pattern.flags.writeable
            with pytest.raises(ValueError):
                pattern[(0,) * (d + 1)] = 1.0

    def test_bad_direction(self, grid_1d):
        with pytest.raises(InvalidInputError):
            fourier_transform(gaussian(grid_1d), "sideways")


class TestRandomBandLimited:
    def test_draws_do_not_depend_on_the_grid_instance(self):
        # a fresh grid per draw gives the bits of one grid drawn from again
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        g = Grid(2, 32, 4.0)
        for _ in range(4):
            a = random_band_limited(g, rng_a).values
            b = random_band_limited(Grid(2, 32, 4.0), rng_b).values
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestQuadrature:
    def test_box_measure(self):
        g = Grid(1, 8, 1.0)
        assert quadrature(SampledFunction(g, np.ones(8))) == pytest.approx(2.0)

    def test_gaussian_integral(self):
        g = Grid(1, 1024, 16.0)
        f = SampledFunction.from_callable(g, lambda x: np.exp(-x**2))
        assert quadrature(f).real == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_zero(self, grid_1d):
        assert quadrature(SampledFunction(grid_1d, np.zeros(grid_1d.shape))) == 0

    def test_linear_and_conjugation_equivariant(self, grid_1d):
        rng = np.random.default_rng(11)
        f = SampledFunction(grid_1d, rng.standard_normal(grid_1d.shape)
                            + 1j * rng.standard_normal(grid_1d.shape))
        g2 = SampledFunction(grid_1d, rng.standard_normal(grid_1d.shape))
        lin = quadrature(f + g2) - (quadrature(f) + quadrature(g2))
        assert abs(lin) <= 1e-14 * (abs(quadrature(f)) + abs(quadrature(g2)) + 1)
        # power-of-two scaling commutes with the sum exactly
        assert quadrature(2.0 * f) == 2.0 * quadrature(f)
        assert abs(quadrature(2.5 * f) - 2.5 * quadrature(f)) <= 1e-14
        # conjugation equivariance is exact: conj commutes with the sum
        assert quadrature(f.conj()) == complex(np.conj(quadrature(f)))

    def test_pairing_matches_quadrature(self, grid_1d):
        rng = np.random.default_rng(5)
        f = random_band_limited(grid_1d, rng)
        g2 = random_band_limited(grid_1d, rng)
        manual = quadrature(SampledFunction(grid_1d, f.values * np.conj(g2.values)))
        assert dual_pairing(f, g2) == pytest.approx(manual, abs=1e-15)


class TestSpectralDerivative:
    def test_sine_derivative(self):
        g = Grid(1, 64, math.pi)
        f = SampledFunction.from_callable(g, np.sin)
        df = spectral_derivative(f, (1,))
        assert np.max(np.abs(df.values - np.cos(g.axis_coords()))) <= 1e-12

    def test_rejects_bad_multi_index(self, grid_1d):
        with pytest.raises(InvalidInputError):
            spectral_derivative(gaussian(grid_1d), (1, 2))


class TestVectorNorms:
    def test_examples(self):
        assert vector_pnorm((3, 4), 2) == pytest.approx(5.0)
        assert vector_pnorm((1, -1), math.inf) == pytest.approx(1.0)
        assert vector_pnorm((1, 1, 1), 1) == pytest.approx(3.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidInputError):
            vector_pnorm((1.0, 2.0), 0.5)

    def test_bracket_values(self):
        assert japanese_bracket(0.0) == pytest.approx(1.0)
        assert japanese_bracket((3.0, 4.0)) == pytest.approx(math.sqrt(26))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=2),
           st.floats(0.1, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_bracket_monotone_in_magnitude(self, xi, scale):
        # |xi| <= |zeta| implies <xi> <= <zeta>
        xi = np.asarray(xi)
        assert japanese_bracket(xi) <= japanese_bracket(xi * (1.0 + scale)) + 1e-12
