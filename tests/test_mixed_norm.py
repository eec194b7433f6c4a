import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psidolab import (CZCheckConfig, Grid, InvalidInputError, MixedExponent,
                      SampledFunction, holder_dual, mixed_norm, partial_norm,
                      quadrature)
from psidolab.mixed_norm import _abs_power, exponent_tuple, iterated_pnorm

exponents = st.floats(1.05, 8.0)


class TestMixedExponent:
    def test_rejects_endpoints(self):
        for bad in (1.0, math.inf, 0.5):
            with pytest.raises(InvalidInputError):
                MixedExponent((2.0, bad))

    def test_holds_the_exponents_alone(self):
        assert [f.name for f in dataclasses.fields(MixedExponent)] == ["p"]
        assert MixedExponent.uniform(3, 2) == MixedExponent((3.0, 3.0))
        with pytest.raises(InvalidInputError, match="nonempty"):
            MixedExponent(())

    @pytest.mark.parametrize("bad", [1.0, math.inf, 0.5, math.nan])
    def test_inner_exponents_share_the_rule(self, grid_2d, bad):
        # the cancellation condition's inner exponents, none at l = 0, are
        # checked by the rule of a MixedExponent's components
        assert exponent_tuple(()) == () and exponent_tuple([2, 3.5]) == (2.0, 3.5)
        f = SampledFunction(grid_2d, np.ones(grid_2d.shape))
        for build in (lambda: MixedExponent((2.0, bad)),
                      lambda: exponent_tuple((2.0, bad)),
                      lambda: partial_norm(f, (bad,), [0.0]),
                      lambda: CZCheckConfig(t=1.0, x0prime=[0.0], Nconst=3.0,
                                            pbar=(bad,))):
            with pytest.raises(InvalidInputError, match="strictly inside"):
                build()

    def test_holder_dual_examples(self):
        assert holder_dual(MixedExponent((2.0, 2.0))).p == (2.0, 2.0)
        dual = holder_dual(MixedExponent((3.0, 1.5)))
        assert dual.p[0] == pytest.approx(1.5)
        assert dual.p[1] == pytest.approx(3.0)

    def test_holder_dual_of_simple_fractions_is_exact(self):
        # v / (v - 1) of the float nearest 4/3 is 4.000000000000001, which
        # would send the duality map through pow instead of a square
        ps = (4.0 / 3.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0)
        dual = holder_dual(MixedExponent(ps)).p
        assert dual == (4.0, 5.0, 3.0, 2.0, 1.5, 4.0 / 3.0, 1.25)
        assert holder_dual(MixedExponent(dual)).p == ps

    @given(st.lists(exponents, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_holder_dual_involution(self, ps):
        p = MixedExponent(tuple(ps))
        back = holder_dual(holder_dual(p))
        assert all(abs(a - b) <= 1e-12 * a for a, b in zip(back.p, p.p))


class TestMixedNorm:
    def test_unit_box_indicator(self):
        # indicator of [0,1]^2 on an aligned grid: every iterated norm is 1
        g = Grid(2, 64, 2.0)
        x1, x2 = g.meshgrid()
        ind = ((x1 >= 0) & (x1 < 1) & (x2 >= 0) & (x2 < 1)).astype(complex)
        f = SampledFunction(g, ind)
        val = mixed_norm(f, MixedExponent((3.0, 5.0)))
        assert abs(val - 1.0) <= 2 * g.spacing

    def test_separable_factorization(self):
        g = Grid(2, 128, 8.0)
        x1, x2 = g.meshgrid()
        gf = np.exp(-0.5 * x1**2)
        hf = np.exp(-0.25 * x2**2)
        f = SampledFunction(g, gf * hf)
        g1 = Grid(1, 128, 8.0)
        a = mixed_norm(SampledFunction(g1, np.exp(-0.5 * g1.axis_coords() ** 2)),
                       MixedExponent((3.0,)))
        b = mixed_norm(SampledFunction(g1, np.exp(-0.25 * g1.axis_coords() ** 2)),
                       MixedExponent((2.0,)))
        val = mixed_norm(f, MixedExponent((3.0, 2.0)))
        assert val == pytest.approx(a * b, rel=1e-8)

    def test_gaussian_l2(self):
        # ||exp(-x^2/2)||_2 = (integral exp(-x^2))^(1/2) = pi^(1/4)
        g = Grid(1, 512, 16.0)
        f = SampledFunction.from_callable(g, lambda x: np.exp(-0.5 * x**2))
        val = mixed_norm(f, MixedExponent((2.0,)))
        assert val == pytest.approx(math.pi**0.25, rel=1e-8)

    def test_dimension_mismatch(self, grid_2d):
        f = SampledFunction(grid_2d, np.ones(grid_2d.shape))
        with pytest.raises(InvalidInputError):
            mixed_norm(f, MixedExponent((2.0,)))


class TestPartialNorm:
    def test_split_zero_is_pointwise_abs(self, grid_2d):
        rng = np.random.default_rng(0)
        f = SampledFunction(grid_2d, rng.standard_normal(grid_2d.shape)
                            + 1j * rng.standard_normal(grid_2d.shape))
        pt = [grid_2d.axis_coords()[5], grid_2d.axis_coords()[9]]
        idx = grid_2d.index_of(pt)
        assert partial_norm(f, (), pt) == float(np.abs(f.values[idx]))

    def test_separable_inner_norm(self):
        g = Grid(2, 64, 4.0)
        x1, x2 = g.meshgrid()
        gf = np.exp(-x1**2)
        hf = np.cos(0.5 * x2) + 1.5
        f = SampledFunction(g, gf * hf)
        g1 = Grid(1, 64, 4.0)
        base = mixed_norm(SampledFunction(g1, np.exp(-g1.axis_coords() ** 2)),
                          MixedExponent((3.0,)))
        x2pt = g.axis_coords()[17]
        val = partial_norm(f, (3.0,), [x2pt])
        assert val == pytest.approx(base * abs(math.cos(0.5 * x2pt) + 1.5), rel=1e-8)

    def test_recomposition_consistency(self):
        # outer norm of the partial-norm field equals the full mixed norm
        g = Grid(2, 32, 2.0)
        rng = np.random.default_rng(4)
        f = SampledFunction(g, rng.standard_normal(g.shape))
        p = MixedExponent((2.5, 3.5))
        field = np.array([partial_norm(f, p.p[:1], [x2]) for x2 in g.axis_coords()])
        outer = (g.spacing * np.sum(field ** p.p[1])) ** (1.0 / p.p[1])
        assert outer == pytest.approx(mixed_norm(f, p), rel=1e-10)

    def test_offgrid_outer_point(self, grid_2d):
        f = SampledFunction(grid_2d, np.ones(grid_2d.shape))
        with pytest.raises(InvalidInputError):
            partial_norm(f, (2.0,), [0.0123])

    def test_more_inner_exponents_than_axes(self, grid_2d):
        # an error that counts both, not a negative outer shape
        f = SampledFunction(grid_2d, np.ones(grid_2d.shape))
        with pytest.raises(InvalidInputError,
                           match=r"^3 inner exponents for 2 axes$"):
            partial_norm(f, (2, 2, 2), [0.0])


class TestNormProperties:
    @given(st.integers(0, 2**31), st.lists(exponents, min_size=2, max_size=2),
           st.floats(-4.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, seed, ps, scale):
        g = Grid(2, 16, 2.0)
        rng = np.random.default_rng(seed)
        f = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        p = MixedExponent(tuple(ps))
        lhs = mixed_norm(scale * f, p)
        rhs = abs(scale) * mixed_norm(f, p)
        assert abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0)

    @given(st.integers(0, 2**31), st.lists(exponents, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed, ps):
        g = Grid(2, 16, 2.0)
        rng = np.random.default_rng(seed)
        f = SampledFunction(g, rng.standard_normal(g.shape))
        h = SampledFunction(g, rng.standard_normal(g.shape))
        p = MixedExponent(tuple(ps))
        assert mixed_norm(f + h, p) <= mixed_norm(f, p) + mixed_norm(h, p) + 1e-12

    @given(st.integers(0, 2**31), st.lists(exponents, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_modulus(self, seed, ps):
        g = Grid(2, 16, 2.0)
        rng = np.random.default_rng(seed)
        small = rng.standard_normal(g.shape)
        big = np.abs(small) + rng.uniform(0, 1, g.shape)
        p = MixedExponent(tuple(ps))
        assert (mixed_norm(SampledFunction(g, small), p)
                <= mixed_norm(SampledFunction(g, big), p) + 1e-12)

    @given(st.integers(0, 2**31), st.lists(exponents, min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_holder_pairing(self, seed, ps):
        g = Grid(2, 16, 2.0)
        rng = np.random.default_rng(seed)
        f = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        h = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        p = MixedExponent(tuple(ps))
        pairing = abs(quadrature(SampledFunction(g, f.values * np.conj(h.values))))
        bound = mixed_norm(f, p) * mixed_norm(h, holder_dual(p))
        assert pairing <= bound + 1e-10


class TestAbsPower:
    """mixed_norm._abs_power: exact small powers where pow is not needed."""

    @staticmethod
    def _samples(e):
        rng = np.random.default_rng(int(8 * (e + 1)))
        tiny = np.finfo(float).smallest_subnormal
        big = np.finfo(float).max
        parts = [rng.random(20000) * 10.0 ** rng.uniform(-40, 40, 20000),
                 np.abs(rng.standard_normal(20000)),
                 [0.0, tiny, 3 * tiny, 2.0**-1060, np.finfo(float).tiny,
                  1.0, 2.0, big, np.inf],
                 tiny * rng.uniform(1.0, 2.0**40, 200),    # subnormal inputs
                 big * rng.uniform(0.5, 1.0, 200)]         # near overflow
        if e > 1.0:
            # results near overflow and in the subnormal range
            parts += [big ** (1.0 / e) * rng.uniform(0.9, 1.1, 200),
                      1e-315 ** (1.0 / e) * rng.uniform(0.5, 2.0, 200)]
        return np.concatenate(parts)

    @pytest.mark.parametrize("e", [3.0, 4.0, 1.5, -0.5])
    def test_within_two_ulp_of_pow(self, e):
        a = self._samples(e)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            got, want = _abs_power(a, e), a ** e
        assert got.dtype == want.dtype == np.float64
        assert not np.isnan(got).any()
        # nonnegative floats, 0 and inf included, order like their bits
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
        assert np.array_equal(np.isinf(got), np.isinf(want))

    @pytest.mark.parametrize("e", [2.0, 1.0, 0.5, 4.0 / 3.0, 1.25, -2.0 / 3.0,
                                   2.0000000000000004, 3.5])
    def test_other_exponents_are_numpys_power(self, e):
        a = self._samples(e)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            got, want = _abs_power(a, e), a ** e
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", [(3.0,), (4.0, 1.5), (1.5, 3.0, 4.0)])
    def test_iterated_norm_at_the_exact_powers(self, p):
        # within roundoff of the same reduction through pow
        rng = np.random.default_rng(3)
        shape = (9, 8, 7)[:len(p)]
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = np.abs(v)
        for q in p:
            a = (0.25 * np.sum(a**q, axis=0)) ** (1.0 / q)
        assert iterated_pnorm(v, 0.25, p) == pytest.approx(float(a), rel=1e-14)
