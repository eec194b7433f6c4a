import math

import numpy as np
import pytest

from psidolab import (Grid, InvalidInputError, PreconditionError,
                      SampledFunction, Symbol, SymbolClassParams,
                      apply_psido, bessel_multiplier, builtin_symbols,
                      constant_symbol, default_levels, discrete_adjoint_apply,
                      dual_pairing, dyadic_decompose, fourier_transform,
                      kernel_piece, kernel_sum, low_pass_cutoff, mixed_norm,
                      MixedExponent, offsupport_apply, quadrature,
                      random_band_limited, ring_cutoff, separable_symbol,
                      smoothness_coefficients, trig_multiplication)
from conftest import gaussian


def bump(grid, radius=1.0):
    mesh = grid.meshgrid()
    r2 = sum(c**2 for c in mesh) / radius**2
    vals = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    return SampledFunction(grid, vals)


def brute_force_apply_at(symbol, f, x):
    """Independent oracle: evaluate the double Riemann sum of the
    quantization formula longhand, no FFT anywhere."""
    g = f.grid
    d = g.dim
    xs = g.coord_stack().reshape(-1, d)
    xis = g.dual().coord_stack().reshape(-1, d)
    fvals = f.values.reshape(-1)
    h = g.spacing
    fhat = np.array([np.sum(np.exp(-1j * (xs @ xi)) * fvals) * h**d for xi in xis])
    sym = np.array([complex(symbol.eval(np.asarray(x, float), xi)) for xi in xis])
    return np.sum(np.exp(1j * (xis @ np.asarray(x, float))) * sym * fhat) \
        / (2.0 * g.half_extent) ** d


class TestApplyPaths:
    def test_identity_multiplication_exact(self, grid_1d):
        rng = np.random.default_rng(1)
        f = random_band_limited(grid_1d, rng)
        out = apply_psido(constant_symbol(1.0), f)
        assert np.array_equal(out.values, f.values)

    def test_identity_multiplier_roundoff(self, grid_1d):
        rng = np.random.default_rng(2)
        f = random_band_limited(grid_1d, rng)
        ident = Symbol(lambda x, xi: np.ones(np.broadcast_shapes(
            x.shape[:-1], xi.shape[:-1]), dtype=complex),
            SymbolClassParams(m=0.0), "multiplier")
        out = apply_psido(ident, f)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_spectral_derivative_symbol(self):
        g = Grid(1, 64, math.pi)
        f = SampledFunction.from_callable(g, np.sin)
        deriv = Symbol(lambda x, xi: 1j * xi[..., 0],
                       SymbolClassParams(m=1.0), "multiplier",
                       xi_factor=lambda xi: 1j * xi[..., 0])
        out = apply_psido(deriv, f)
        assert np.max(np.abs(out.values - np.cos(g.axis_coords()))) <= 1e-10

    def test_multiplication_is_pointwise(self, grid_1d):
        rng = np.random.default_rng(3)
        f = random_band_limited(grid_1d, rng)
        a = trig_multiplication(smoothness_coefficients(2, 4),
                                2 * grid_1d.half_extent)
        out = apply_psido(a, f)
        avals = a.x_factor(grid_1d.coord_stack())
        assert np.max(np.abs(out.values - avals * f.values)) <= 1e-10

    def test_matches_double_quadrature_oracle(self):
        g = Grid(1, 32, 4.0)
        f = gaussian(g)
        s = bessel_multiplier(-2.0)
        out = apply_psido(s, f)
        rng = np.random.default_rng(9)
        for idx in rng.choice(g.points_per_axis, size=16, replace=False):
            x = [g.axis_coords()[idx]]
            oracle = brute_force_apply_at(s, f, x)
            assert abs(out.values[idx] - oracle) <= 1e-6

    def test_separable_matches_general(self):
        g = Grid(1, 64, 4.0)
        rng = np.random.default_rng(5)
        f = random_band_limited(g, rng)
        a = trig_multiplication(smoothness_coefficients(1, 3), 2 * g.half_extent)
        s = separable_symbol(a, bessel_multiplier(-1.0))
        fast = apply_psido(s, f)
        slow = apply_psido(Symbol(s.evaluator, s.params, "general"), f)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-10

    def test_general_matches_multiplier(self):
        g = Grid(1, 64, 4.0)
        rng = np.random.default_rng(6)
        f = random_band_limited(g, rng)
        s = bessel_multiplier(-1.0)
        fast = apply_psido(s, f)
        slow = apply_psido(Symbol(s.evaluator, s.params, "general"), f)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-10

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("op", [apply_psido, discrete_adjoint_apply],
                             ids=["apply", "adjoint"])
    @pytest.mark.parametrize("index", range(5))
    def test_factored_matches_general(self, d, n, op, index):
        g = Grid(d, n, 4.0)
        s = builtin_symbols(2 * g.half_extent)[index]
        f = random_band_limited(g, np.random.default_rng(10 + index))
        fast = op(s, f)
        slow = op(Symbol(s.evaluator, s.params, "general"), f)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-10

    def test_linearity(self, grid_1d):
        rng = np.random.default_rng(7)
        f = random_band_limited(grid_1d, rng)
        h = random_band_limited(grid_1d, rng)
        s = bessel_multiplier(-1.0)
        lhs = apply_psido(s, 2.0 * f + (-0.5 + 1j) * h)
        rhs = 2.0 * apply_psido(s, f) + (-0.5 + 1j) * apply_psido(s, h)
        scale = np.max(np.abs(lhs.values)) + 1
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * scale

    def test_general_cap(self):
        g = Grid(2, 256, 4.0)
        f = SampledFunction(g, np.zeros(g.shape))
        s = Symbol(lambda x, xi: np.ones(np.broadcast_shapes(
            x.shape[:-1], xi.shape[:-1]), dtype=complex),
            SymbolClassParams(m=0.0), "general")
        with pytest.raises(InvalidInputError, match="cap"):
            apply_psido(s, f)


class TestDyadicDecomposition:
    def test_cutoff_shapes(self):
        r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        eta = low_pass_cutoff(r)
        assert eta[0] == 1.0 and eta[2] == 1.0 and eta[4] == 0.0 and eta[5] == 0.0
        assert 0.0 < eta[3] < 1.0
        zeta = ring_cutoff(np.array([0.25, 0.5, 1.0, 2.0, 2.5]))
        assert zeta[0] == 0.0 and zeta[-1] == 0.0
        assert zeta[2] == pytest.approx(1.0)

    def test_unit_symbol_partition(self):
        # telescoping: eta + sum of rings equals the widest cap
        g = Grid(1, 512, 16.0)
        dd = dyadic_decompose(constant_symbol(1.0), g, 4)
        total = dd.sum_values(x=[0.0])
        band = dd.dual.radius() <= 2.0**4
        assert np.max(np.abs(total - 1.0)[band]) <= 1e-12

    def test_reconstruction_every_builtin(self):
        g = Grid(1, 512, 16.0)
        for s in builtin_symbols(2 * g.half_extent):
            dd = dyadic_decompose(s, g, 4)
            x = None if s.kind == "multiplier" else np.array([0.375])
            band = dd.dual.radius() <= 2.0**4
            err = np.abs(dd.sum_values(x) - dd.symbol_values(x))[band]
            assert np.max(err) <= 1e-12, s.label

    def test_ring_support_exact(self):
        # piece 2 vanishes identically outside 2 <= |xi| <= 8
        g = Grid(1, 512, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-1.0), g, 4)
        r = dd.dual.radius()
        piece = np.abs(dd.piece_values(2))
        outside = (r < 2.0) | (r > 8.0)
        assert np.max(piece[outside]) == 0.0

    def test_level_validation(self):
        g = Grid(1, 64, 16.0)  # nyquist = 2 pi
        with pytest.raises(InvalidInputError):
            dyadic_decompose(constant_symbol(1.0), g, 0)
        with pytest.raises(InvalidInputError):
            dyadic_decompose(constant_symbol(1.0), g, 5)  # ring starts at 16 > 2pi
        assert default_levels(g) == 1

    def test_x_required_for_x_dependent(self):
        g = Grid(1, 64, 8.0)
        a = trig_multiplication(smoothness_coefficients(2, 3), 2 * g.half_extent)
        dd = dyadic_decompose(a, g, 2)
        with pytest.raises(InvalidInputError):
            dd.piece_values(0)


class TestKernels:
    def test_low_piece_total_mass(self):
        # quadrature of k_0 equals the symbol value at frequency zero
        g = Grid(1, 512, 16.0)
        dd = dyadic_decompose(constant_symbol(1.0), g, 4)
        k0 = kernel_piece(dd, 0, x=[0.0])
        assert quadrature(k0.sampled()).real == pytest.approx(1.0, abs=1e-10)

    def test_hermitian_symbols_give_real_kernels(self):
        g = Grid(1, 512, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-1.0), g, 4)
        for j in range(dd.levels + 1):
            k = kernel_piece(dd, j)
            assert np.max(np.abs(k.values.imag)) <= 1e-12

    def test_sum_of_pieces_matches_truncated_symbol(self):
        g = Grid(1, 512, 16.0)
        s = bessel_multiplier(-1.0)
        dd = dyadic_decompose(s, g, 4)
        total = kernel_sum(dd)
        direct = fourier_transform(
            SampledFunction(dd.dual, dd.truncation_values()), "inverse")
        assert np.max(np.abs(total.values - direct.values)) <= 1e-12

    def test_zero_symbol_zero_kernel(self):
        g = Grid(1, 64, 8.0)
        dd = dyadic_decompose(constant_symbol(0.0), g, 2)
        k = kernel_sum(dd, x=[0.0])
        assert np.max(np.abs(k.values)) == 0.0

    def test_closed_form_exponential_kernel(self):
        # order -2 multiplier in 1d: kernel is exp(-|z|)/2
        g = Grid(1, 2048, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, default_levels(g))
        k = kernel_sum(dd)
        z = g.radius()
        m = (z >= 0.1) & (z <= 5.0)
        exact = 0.5 * np.exp(-z[m])
        assert np.max(np.abs(k.values.real[m] - exact) / exact) <= 1e-3


class TestOffSupport:
    def test_cross_validates_against_apply(self):
        g = Grid(1, 4096, 32.0)
        s = bessel_multiplier(-2.0)
        dd = dyadic_decompose(s, g, default_levels(g))
        k = kernel_sum(dd)
        f = bump(g)
        val = offsupport_apply(k, f, [3.0])
        direct = apply_psido(s, f)
        assert abs(val - direct.values[g.index_of([3.0])]) <= 1e-4

    def test_identity_symbol_has_little_far_mass(self):
        g = Grid(1, 4096, 32.0)
        dd = dyadic_decompose(constant_symbol(1.0), g, default_levels(g))
        k = kernel_sum(dd, x=[3.0])
        f = bump(g)
        val = offsupport_apply(k, f, [3.0])
        l1 = float(np.sum(np.abs(f.values))) * g.spacing
        assert abs(val) <= 1e-3 * l1

    def test_rejects_x_inside_support(self):
        g = Grid(1, 1024, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, default_levels(g))
        k = kernel_sum(dd)
        f = bump(g)
        with pytest.raises(PreconditionError):
            offsupport_apply(k, f, [0.5])


class TestAdjoint:
    def test_duality_all_builtins(self, grid_1d):
        rng = np.random.default_rng(12)
        for s in builtin_symbols(2 * grid_1d.half_extent):
            for _ in range(10):
                u = random_band_limited(grid_1d, rng)
                phi = random_band_limited(grid_1d, rng)
                lhs = dual_pairing(apply_psido(s, u), phi)
                rhs = dual_pairing(u, discrete_adjoint_apply(s, phi))
                bound = (mixed_norm(u, MixedExponent((2.0,)))
                         * mixed_norm(phi, MixedExponent((2.0,))))
                assert abs(lhs - rhs) <= 1e-12 * bound, s.label

    def test_duality_general_kind(self):
        g = Grid(1, 48, 4.0)
        coupled = Symbol(
            lambda x, xi: np.exp(0.2j * x[..., 0]) / (1.0 + np.sum(xi**2, axis=-1)),
            SymbolClassParams(m=-2.0), "general")
        rng = np.random.default_rng(13)
        u = random_band_limited(g, rng)
        phi = random_band_limited(g, rng)
        lhs = dual_pairing(apply_psido(coupled, u), phi)
        rhs = dual_pairing(u, discrete_adjoint_apply(coupled, phi))
        bound = (mixed_norm(u, MixedExponent((2.0,)))
                 * mixed_norm(phi, MixedExponent((2.0,))))
        assert abs(lhs - rhs) <= 1e-12 * bound

    def test_multiplication_adjoint_is_conjugate(self, grid_1d):
        rng = np.random.default_rng(14)
        a = trig_multiplication(smoothness_coefficients(2, 4),
                                2 * grid_1d.half_extent)
        f = random_band_limited(grid_1d, rng)
        out = discrete_adjoint_apply(a, f)
        avals = a.x_factor(grid_1d.coord_stack())
        assert np.max(np.abs(out.values - np.conj(avals) * f.values)) <= 1e-12

    def test_real_even_multiplier_self_adjoint(self, grid_1d):
        rng = np.random.default_rng(15)
        s = bessel_multiplier(-2.0)
        f = SampledFunction(grid_1d, random_band_limited(grid_1d, rng).values.real)
        direct = apply_psido(s, f)
        adj = discrete_adjoint_apply(s, f)
        assert np.max(np.abs(direct.values - adj.values)) <= 1e-10
