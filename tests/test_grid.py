import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psidolab import (Grid, InvalidInputError, SampledFunction, dual_pairing,
                      fourier_transform, japanese_bracket, quadrature,
                      random_band_limited, spectral_derivative, vector_pnorm)
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

    def test_values_must_match_and_be_finite(self, grid_1d):
        with pytest.raises(InvalidInputError):
            SampledFunction(grid_1d, np.ones(17))
        vals = np.ones(grid_1d.shape)
        vals[3] = np.nan
        with pytest.raises(InvalidInputError):
            SampledFunction(grid_1d, vals)

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

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_matches_out_of_place_sign_flip(self, d, n):
        # reference: the sign flip as d out-of-place multiplies by (-1)^m;
        # the transform negates in place, which must give the same bits
        def flip(arr):
            sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            for axis in range(d):
                shape = [1] * d
                shape[axis] = n
                arr = arr * sign.reshape(shape)
            return arr

        g = Grid(d, n, 3.0)
        rng = np.random.default_rng(d)
        f = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        forward = np.fft.fftshift(flip(np.fft.fftn(f.values)) * g.spacing**d)
        assert np.array_equal(fourier_transform(f, "forward").values, forward)
        fhat = SampledFunction(g.dual(), f.values)
        h = g.dual().dual().spacing
        inverse = np.fft.ifftn(flip(np.fft.ifftshift(f.values))) / h**d
        assert np.array_equal(fourier_transform(fhat, "inverse").values, inverse)

    def test_bad_direction(self, grid_1d):
        with pytest.raises(InvalidInputError):
            fourier_transform(gaussian(grid_1d), "sideways")


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
