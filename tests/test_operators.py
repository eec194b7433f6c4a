import dataclasses
import functools
import hashlib
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from psidolab import (Grid, InvalidInputError, PreconditionError,
                      SampledFunction, Symbol, SymbolClassParams,
                      SymbolEvaluationError, apply_psido, bessel_multiplier,
                      builtin_symbols, constant_symbol, default_levels,
                      discrete_adjoint_apply, dual_pairing, dyadic_decompose,
                      dyadic_envelope_check, fourier_transform, kernel_piece,
                      kernel_sum, low_pass_cutoff, mixed_norm, MixedExponent,
                      offsupport_apply, operator_norm_estimate, quadrature,
                      random_band_limited, ring_cutoff, SampleSpec,
                      separable_symbol, smoothness_coefficients,
                      trig_multiplication, verify_symbol_class,
                      wave_multiplier, with_params)
from psidolab import cli, estimates, operators, symbols
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


def quadratic_apply_adjoint(s, u, phi):
    """Reference: T u and T* phi by the O(N^2) double sums of the
    quantization formula, one block of rows of the (x, xi) matrix at a time.

    The phases are reduced exactly.  Per axis x_k = -R + k h and
    xi_m = m~ pi / R with m~ = m - n/2, so exp(i x_k . xi_m) is
    (-1)^(sum m~) exp(2 pi i (k . m~ mod n) / n).  exp(1j * (x @ xi))
    itself loses about |x . xi| ulp, up to 1.6e-14 of max|T u| at d=1
    n=256 for a symbol of order 0.8: more than the compressed apply's error.
    """
    g = u.grid
    d, n = g.dim, g.points_per_axis
    k = np.indices(g.shape, dtype=float).reshape(d, -1).T  # k . m~ is exact
    m = k - n // 2
    sign = np.where(m.sum(axis=1) % 2, -1.0, 1.0)
    x_flat = g.coord_stack().reshape(-1, d)
    xi_flat = g.dual().coord_stack().reshape(-1, d)
    uhat = fourier_transform(u, "forward").values.reshape(-1)
    gvec = phi.values.reshape(-1)
    npts = x_flat.shape[0]
    out = np.empty(npts, dtype=np.complex128)
    psi = np.zeros(npts, dtype=np.complex128)
    chunk = max(1, 2**21 // npts)
    for lo in range(0, npts, chunk):
        sl = slice(lo, min(lo + chunk, npts))
        phases = sign * np.exp((2j * np.pi / n) * ((k[sl] @ m.T) % n))
        block = phases * s.eval(x_flat[sl, None, :], xi_flat[None, :, :])
        out[sl] = block @ uhat
        psi += np.conj(block).T @ gvec[sl]
    two_r = 2.0 * g.half_extent
    out *= two_r ** (-d)
    psi *= two_r ** (-d)
    back = fourier_transform(SampledFunction(g.dual(), psi.reshape(g.shape)), "inverse")
    return (SampledFunction(g, out.reshape(g.shape)),
            SampledFunction(g, back.values * (g.spacing**d * two_r**d)))


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

    def test_general_rank_cap(self):
        # the grid caps the rank of a general symbol, not its size: a
        # constant applies at rank 1 where the old n cap refused the grid
        g = Grid(2, 256, 4.0)
        f = random_band_limited(g, np.random.default_rng(4))
        ones = lambda x, xi: np.ones(np.broadcast_shapes(  # noqa: E731
            x.shape[:-1], xi.shape[:-1]), dtype=complex)
        s = Symbol(ones, SymbolClassParams(m=0.0), "general")
        assert len(operators._general_terms(s, g)) == 1
        fast = apply_psido(Symbol(ones, SymbolClassParams(m=0.0), "multiplier"), f)
        assert np.max(np.abs(apply_psido(s, f).values - fast.values)) <= 1e-12
        # numerically full rank: the cap of 128 for 512 points stops it
        noise = Symbol(lambda x, xi: np.sin(1e6 * x[..., 0] * xi[..., 0]) + 0j,
                       SymbolClassParams(m=0.0), "general", label="noise")
        g = Grid(1, 512, 4.0)
        with pytest.raises(InvalidInputError, match=r"noise: .* rank 128, "
                           r"the cap 128 .*points_per_axis=512"):
            apply_psido(noise, random_band_limited(g, np.random.default_rng(4)))

    @pytest.mark.parametrize("d, n, coeffs, m", [
        (1, 64, (1e160, 1e160), 150.0), (2, 16, (1e150,), 140.0)])
    def test_overflowing_factor_product_names_first_point(self, d, n, coeffs, m):
        # finite factors whose product overflows at some (x, xi): the error
        # Symbol.eval raises on the whole (x, xi) matrix, x slowest
        g = Grid(d, n, 4.0)
        s = separable_symbol(trig_multiplication(coeffs, 8.0), bessel_multiplier(m))
        x = g.coord_stack().reshape(-1, 1, d)
        xi = g.dual().coord_stack().reshape(1, -1, d)
        with pytest.raises(SymbolEvaluationError) as want:
            s.eval(x, xi)
        f = random_band_limited(g, np.random.default_rng(9))
        for op in (apply_psido, discrete_adjoint_apply):
            with pytest.raises(SymbolEvaluationError) as got:
                op(s, f)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("kind", ["multiplier", "separable"])
    def test_overflowing_result_is_a_symbol_error(self, kind):
        # finite input and finite symbol samples, <xi>^100 |fhat| > 1e308:
        # a typed error naming the symbol and the overflow, no RuntimeWarning
        # (the suite turns those into errors), not "invalid input"
        g = Grid(1, 64, 4.0)
        f = random_band_limited(g, np.random.default_rng(0)) * 1e200
        s = bessel_multiplier(100.0)
        if kind == "separable":
            s = separable_symbol(trig_multiplication((1.0,), 8.0), s)
        for op in (apply_psido, discrete_adjoint_apply):
            with pytest.raises(SymbolEvaluationError,
                               match=rf"^{re.escape(s.label)}: the result overflows"):
                op(s, f)
        # the finite path still answers
        assert np.all(np.isfinite(apply_psido(s, f * 1e-100).values))

    def test_overflowing_symbol_raises_typed_error(self):
        # <xi>^120 overflows near the Nyquist frequency 2048 pi
        g = Grid(1, 4096, 1.0)
        f = gaussian(g, 0.1)
        for op in (apply_psido, discrete_adjoint_apply):
            with np.errstate(over="ignore"), \
                    pytest.raises(SymbolEvaluationError, match="bessel:120"):
                op(bessel_multiplier(120.0), f)


def coupled_symbol(x1_only, weights, amp, freq, order, vary, mix):
    """(1 + amp cos(freq t)) <xi>^(order + vary sin t) + mix e^(it) <xi>^-2
    with t = x1 or t = x . weights: x-dependent, no factor split."""
    def ev(x, xi):
        t = x[..., 0] if x1_only else x @ np.asarray(weights[:x.shape[-1]])
        br2 = 1.0 + np.sum(xi**2, axis=-1)
        return ((1.0 + amp * np.cos(freq * t)) * br2 ** (0.5 * (order + vary * np.sin(t)))
                + mix * np.exp(1j * t) / br2)

    return Symbol(ev, SymbolClassParams(m=order + abs(vary)), "general",
                  label="coupled")


_SMALL_N = {1: (16, 64, 256), 2: (8, 16, 32), 3: (8,)}  # plus the example at d=3 n=16


@st.composite
def coupled_cases(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from(_SMALL_N[d]))
    grid = Grid(d, n, draw(st.sampled_from((1.0, math.pi, 4.0))))
    real = st.floats(-1.0, 1.0)
    symbol = coupled_symbol(
        draw(st.booleans()), draw(st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3)),
        draw(st.floats(0.0, 0.5)), draw(st.integers(0, 2)), draw(st.floats(-2.0, 0.5)),
        draw(st.floats(-0.3, 0.3)), draw(real))
    return grid, symbol, draw(st.integers(0, 2**32 - 1))


def x1_case(d, n):
    # x-dependence through x1 only: n^(d-1) copies of every row
    s = coupled_symbol(True, (1.0,) * 3, 0.3, 1, -1.0, 0.2, 0.5)
    return Grid(d, n, math.pi), s, 7


def out_of_place_apply(s, f):
    """Reference: apply_psido with every product in a new array."""
    fhat = total = None
    for a, b in operators._terms(s, f.grid):
        out = f.values
        if b is not None:
            if fhat is None:
                fhat = fourier_transform(f, "forward")
            out = fourier_transform(SampledFunction(fhat.grid, b * fhat.values),
                                    "inverse").values
        if a is not None:
            out = a * out
        total = out if total is None else total + out
    return total


def out_of_place_adjoint(s, g):
    """Reference: discrete_adjoint_apply with every product in a new array."""
    spectrum = None
    for a, b in operators._terms(s, g.grid):
        out = g.values if a is None else np.conj(a) * g.values
        if b is None:
            return out
        part = np.conj(b) * fourier_transform(SampledFunction(g.grid, out)).values
        spectrum = part if spectrum is None else spectrum + part
    return fourier_transform(SampledFunction(g.grid.dual(), spectrum), "inverse").values


class TestInPlaceProducts:
    # a coupled symbol of rank 2: its terms share one forward transform
    RANK_TWO = Symbol(
        lambda x, xi: (np.cos(x[..., 0]) / (1.0 + np.sum(xi**2, axis=-1))
                       + np.sin(x[..., 0]) / (2.0 + np.sum(xi**2, axis=-1)) + 0j),
        SymbolClassParams(m=-2.0), "general", label="rank-two")

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
    def test_same_bits_and_inputs_untouched(self, d, n):
        g = Grid(d, n, 4.0)
        rng = np.random.default_rng(d)
        assert len(operators._terms(self.RANK_TWO, g)) == 2
        for s in builtin_symbols(2 * g.half_extent) + [self.RANK_TWO]:
            f = random_band_limited(g, rng)
            before = f.values.copy()
            for op, ref in ((apply_psido, out_of_place_apply),
                            (discrete_adjoint_apply, out_of_place_adjoint)):
                got, want = op(s, f).values, ref(s, f)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), s.label
                assert np.array_equal(f.values.view(np.uint64), before.view(np.uint64))


class TestOperatorPlan:
    """operator_plan works on raw arrays with the bits of the reference
    path: apply_psido and discrete_adjoint_apply."""

    @staticmethod
    def symbols(g):
        mult = trig_multiplication(smoothness_coefficients(2, 6), 2 * g.half_extent)
        coupled = coupled_symbol(False, (1.0, 0.5, 0.3), 0.3, 1, -1.0, 0.2, 0.5)
        return [bessel_multiplier(-1.0), wave_multiplier(0.0), mult,
                constant_symbol(-2.5), separable_symbol(mult, bessel_multiplier(-1.0)),
                TestInPlaceProducts.RANK_TWO, coupled]

    @staticmethod
    def inputs(g, rng):
        delta = np.zeros(g.shape, dtype=np.complex128)
        delta[(g.points_per_axis // 2,) * g.dim] = 1.0
        noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        noise[..., 0] = 0.0
        return [random_band_limited(g, rng).values, delta, noise]

    # at R = 0.67 the dual grid's dual has another h^d than the grid at
    # each (d, n) here, so the inverse must take its scale from the former
    @pytest.mark.parametrize("R", [4.0, 0.67])
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_same_bits_as_the_reference_path(self, d, n, R):
        g = Grid(d, n, R)
        assert (g.dual().dual().spacing**d != g.spacing**d) == (R == 0.67)
        rng = np.random.default_rng(d)
        kinds = set()
        for s in self.symbols(g):
            kinds.add(s.kind)
            plan = operators.operator_plan(s, g)
            for v in self.inputs(g, rng):
                before = v.copy()
                for got, op in ((plan.apply(v), apply_psido),
                                (plan.adjoint(v), discrete_adjoint_apply)):
                    want = op(s, SampledFunction(g, v)).values
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                        (s.label, op.__name__)
                assert np.array_equal(v.view(np.uint64), before.view(np.uint64))
        assert kinds == {"multiplier", "multiplication", "separable", "general"}
        assert len(operators._terms(self.symbols(g)[-1], g)) > 1

    @staticmethod
    def zero_heavy_inputs(g, rng):
        """Inputs whose transforms and products meet exact zeros: all +0,
        all -0, real and imaginary constants, a delta and scattered signed
        zeros in a band-limited sample."""
        ones = np.ones(g.shape, dtype=np.complex128)
        delta = np.zeros(g.shape, dtype=np.complex128)
        delta[(0,) * g.dim] = 1.0 - 2.0j
        scattered = random_band_limited(g, rng).values.copy()
        flat = scattered.reshape(-1)
        flat[::3], flat[1::5] = complex(-0.0, 0.0), complex(0.0, -0.0)
        flat[2::7] = complex(-0.0, -0.0)
        return [np.zeros(g.shape, dtype=np.complex128), np.full(g.shape, complex(-0.0, -0.0)),
                0.5 * ones, -3j * ones, delta, scattered]

    @pytest.mark.parametrize("R", [4.0, 0.67])
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_values_and_nonzero_bits_of_the_reference_path(self, d, n, R):
        # the plan skips the centring signs and scales its float view: its
        # values are the reference path's, and so are its bits, but for
        # the sign of a float that is exactly zero; a stack gives each
        # sample the bits of that sample alone
        g = Grid(d, n, R)
        inputs = self.zero_heavy_inputs(g, np.random.default_rng(20 + d))
        stack = np.stack(inputs)
        before = stack.copy()
        complex_b = set()
        for s in self.symbols(g):
            plan = operators.operator_plan(s, g)
            complex_b.update(np.iscomplexobj(b) for _, b in plan.terms if b is not None)
            for run, op in ((plan.apply, apply_psido), (plan.adjoint, discrete_adjoint_apply)):
                stacked = run(stack)
                for v, got_stacked in zip(inputs, stacked):
                    got = run(v)
                    want = op(s, SampledFunction(g, v)).values
                    assert np.array_equal(got, want), (s.label, op.__name__)
                    nonzero = want.view(np.float64) != 0
                    assert np.array_equal(got.view(np.float64)[nonzero].view(np.uint64),
                                          want.view(np.float64)[nonzero].view(np.uint64))
                    assert np.array_equal(got_stacked.view(np.uint64), got.view(np.uint64))
                assert np.array_equal(stack.view(np.uint64), before.view(np.uint64))
        assert complex_b == {False, True}

    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_pairing(self, d, n):
        g = Grid(d, n, 4.0)
        rng = np.random.default_rng(10 + d)
        for s in self.symbols(g):
            plan = operators.operator_plan(s, g)
            u, phi = random_band_limited(g, rng).values, random_band_limited(g, rng).values
            lhs = np.vdot(phi, plan.apply(u))
            rhs = np.vdot(plan.adjoint(phi), u)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), s.label

    def test_apply_takes_no_conjugates(self):
        # the CLI's apply builds a plan per run: a complex factor (wave:0)
        # is conjugated only at the first adjoint, not for the apply
        g = Grid(2, 16, 4.0)
        plan = operators.operator_plan(wave_multiplier(0.0), g)
        v = random_band_limited(g, np.random.default_rng(0)).values
        plan.apply(v)
        assert "conj_terms" not in vars(plan)
        plan.adjoint(v)
        assert np.iscomplexobj(vars(plan)["conj_terms"][0][1])

    def test_zero_rank_symbol_gives_zeros(self):
        g = Grid(2, 8, 4.0)
        zero = Symbol(lambda x, xi: np.zeros(np.broadcast_shapes(x.shape, xi.shape)[:-1]),
                      SymbolClassParams(m=0.0), "general", label="zero")
        plan = operators.operator_plan(zero, g)
        v = random_band_limited(g, np.random.default_rng(0)).values
        for out in (plan.apply(v), plan.adjoint(v)):
            assert out.shape == g.shape and out.dtype == np.complex128 and not out.any()

    @pytest.mark.parametrize("d, n, coeffs, m, scale", [
        (1, 64, (1e160, 1e160), 150.0, 1.0), (2, 16, (1e150,), 140.0, 1.0),
        (1, 64, (1.0,), 100.0, 1e200)])
    def test_overflow_raises_the_reference_error(self, d, n, coeffs, m, scale):
        g = Grid(d, n, 4.0)
        s = separable_symbol(trig_multiplication(coeffs, 8.0), bessel_multiplier(m))
        f = random_band_limited(g, np.random.default_rng(9)) * scale
        plan = operators.operator_plan(s, g)
        for run, op in ((plan.apply, apply_psido), (plan.adjoint, discrete_adjoint_apply)):
            with pytest.raises(SymbolEvaluationError) as want:
                op(s, f)
            with pytest.raises(SymbolEvaluationError) as got:
                run(f.values)
            assert str(got.value) == str(want.value)


class TestGeneralCompression:
    @settings(max_examples=12, deadline=None)
    @given(coupled_cases())
    @example((Grid(1, 256, 4.0),
              coupled_symbol(False, (1.0,) * 3, 0.5, 2, 0.5, 0.3, 1.0), 3))
    @example(x1_case(2, 32))
    @example(x1_case(3, 16))
    def test_matches_quadratic_reference(self, case):
        grid, s, seed = case
        rng = np.random.default_rng(seed)
        u, phi = random_band_limited(grid, rng), random_band_limited(grid, rng)
        ref_apply, ref_adjoint = quadratic_apply_adjoint(s, u, phi)
        tu, tphi = apply_psido(s, u), discrete_adjoint_apply(s, phi)
        for got, ref in ((tu, ref_apply), (tphi, ref_adjoint)):
            err = np.max(np.abs(got.values - ref.values))
            assert err <= 1e-14 * np.max(np.abs(ref.values))
        bound = (mixed_norm(u, MixedExponent((2.0,) * grid.dim))
                 * mixed_norm(phi, MixedExponent((2.0,) * grid.dim)))
        assert abs(dual_pairing(tu, phi) - dual_pairing(u, tphi)) <= 1e-12 * bound

    def compressions(self, monkeypatch) -> list:
        """The grid of every cross approximation from here on."""
        grids = []
        compress = operators._general_terms

        def counted(s, grid):
            grids.append(grid)
            return compress(s, grid)

        monkeypatch.setattr(operators, "_general_terms", counted)
        return grids

    def test_one_compression_per_symbol_and_grid(self, monkeypatch):
        grid, s, _ = x1_case(2, 16)
        other = Grid(2, 16, 4.0)
        f, g = (random_band_limited(grid, np.random.default_rng(i)) for i in (1, 2))
        want = (apply_psido(dataclasses.replace(s), f).values,
                discrete_adjoint_apply(dataclasses.replace(s), g).values)
        grids = self.compressions(monkeypatch)
        got = (apply_psido(s, f).values, discrete_adjoint_apply(s, g).values)
        apply_psido(s, f)
        assert grids == [grid]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        # the last grid only: a new grid compresses, and so does the old one again
        apply_psido(s, random_band_limited(other, np.random.default_rng(3)))
        discrete_adjoint_apply(s, g)
        assert grids == [grid, other, grid]
        # copies start empty, and are not the symbol's memo
        for copy in (dataclasses.replace(s), with_params(s, rho=0.5)):
            apply_psido(copy, f)
        apply_psido(s, f)
        assert grids == [grid, other, grid, grid, grid]

    def test_power_iteration_compresses_once(self, monkeypatch):
        grid, s, _ = x1_case(2, 16)
        grids = self.compressions(monkeypatch)
        est = operator_norm_estimate(s, grid, MixedExponent((2.0, 2.0)),
                                     "power_iteration_p2", budget=40)
        assert est.iterations > 1
        assert grids == [grid]

    def test_memo_terms_read_only_and_compact(self):
        grid, s, _ = x1_case(2, 16)
        terms = operators._terms(s, grid)
        assert operators._terms(s, grid) is terms
        assert len(terms) >= 2
        for a, b in terms:
            for arr in (a, b):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr.flat[0] = 0
                # the rank rows alone, not the cap-sized buffer they came from
                root = arr
                while root.base is not None:
                    root = root.base
                assert root.nbytes == len(terms) * grid.total_points * 16

    def test_zero_symbol_is_rank_zero(self):
        g = Grid(2, 16, 4.0)
        zero = Symbol(lambda x, xi: np.zeros(np.broadcast_shapes(
            x.shape[:-1], xi.shape[:-1]), dtype=complex),
            SymbolClassParams(m=0.0), "general")
        f = random_band_limited(g, np.random.default_rng(5))
        assert operators._general_terms(zero, g) == []
        for op in (apply_psido, discrete_adjoint_apply):
            out = op(zero, f)
            assert out.grid == g and np.array_equal(out.values, np.zeros(g.shape))

    @pytest.mark.parametrize("evaluator, point", [
        # 1/|xi| is infinite at xi = 0, a dual grid point: every full row sees it
        (lambda x, xi: 1.0 / np.sqrt(np.sum(xi**2, axis=-1)) + 0j,
         r"xi=\[0\.0, 0\.0\]"),
        # 1/x1 is infinite on x1 = 0: every full column sees it
        (lambda x, xi: 1.0 / x[..., 0] + 0j, r"x=\[0\.0, "),
        # exp(40 |x|^2) overflows near the corners of the box
        (lambda x, xi: np.exp(40.0 * np.sum(x**2, axis=-1))
         / (1.0 + np.sum(xi**2, axis=-1)), r"xi=\["),
    ], ids=["xi-only", "x-only", "overflow"])
    def test_non_finite_raises_typed_error(self, evaluator, point):
        g = Grid(2, 32, 4.0)
        s = Symbol(evaluator, SymbolClassParams(m=0.0), "general", label="bad")
        f = random_band_limited(g, np.random.default_rng(6))
        for op in (apply_psido, discrete_adjoint_apply):
            with pytest.raises(SymbolEvaluationError,
                               match="bad: non-finite value at .*" + point):
                op(s, f)

    def test_deterministic(self):
        first = determinism_digest()
        np.random.seed(12345)
        np.random.random(100)
        assert determinism_digest() == first
        here = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(here.parent / "src"), str(here)]))
        code = "import test_operators as t; print(t.determinism_digest())"
        fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout.strip()
        assert fresh == first


def determinism_digest() -> str:
    """Rank and output bits of a coupled apply and adjoint at d=2 n=32."""
    g = Grid(2, 32, math.pi)
    s = coupled_symbol(False, (1.0, 0.7, 0.45), 0.3, 1, -1.0, 0.2, 0.5)
    f = random_band_limited(g, np.random.default_rng(8))
    digest = hashlib.sha256()
    for op in (apply_psido, discrete_adjoint_apply):
        digest.update(op(s, f).values.tobytes())
    return f"{len(operators._general_terms(s, g))} {digest.hexdigest()}"


def counting_symbol(calls: dict, args: list = None) -> Symbol:
    """A separable symbol whose factors count their calls in `calls`, and
    append (which, type, shape) of what they are given to `args`."""
    def a(x):
        calls["x"] += 1
        if args is not None:
            args.append(("x", type(x), x.shape))
        return 1.0 + 0.25 * np.cos(x[..., 0]) + 0j

    def b(xi):
        calls["xi"] += 1
        if args is not None:
            args.append(("xi", type(xi), xi.shape))
        return (1.0 + np.sum(xi**2, axis=-1)) ** -0.5 + 0j

    return Symbol(lambda x, xi: a(x) * b(xi), SymbolClassParams(m=-1.0),
                  "separable", x_factor=a, xi_factor=b, label="counting")


class TestFactorSamples:
    def test_each_factor_sampled_once_per_grid(self):
        calls = {"x": 0, "xi": 0}
        s = counting_symbol(calls)
        g = Grid(2, 32, 4.0)
        f = random_band_limited(g, np.random.default_rng(1))
        first = apply_psido(s, f)
        for _ in range(20):
            assert np.array_equal(apply_psido(s, f).values, first.values)
            discrete_adjoint_apply(s, f)
        assert calls == {"x": 1, "xi": 1}
        other = Grid(2, 32, 5.0)
        apply_psido(s, random_band_limited(other, np.random.default_rng(2)))
        assert calls == {"x": 2, "xi": 2}

    def test_unmarked_factor_gets_coordinate_stack(self):
        calls, args = {"x": 0, "xi": 0}, []
        s = counting_symbol(calls, args)
        g = Grid(2, 16, 3.0)
        assert not hasattr(s.x_factor, "takes_grid")
        x_vals = s.sampled_factor("x", g)
        xi_vals = s.sampled_factor("xi", g.dual())
        assert args == [("x", np.ndarray, (16, 16, 2)),
                        ("xi", np.ndarray, (16, 16, 2))]
        assert np.array_equal(x_vals, s.x_factor(g.coord_stack()))
        assert np.array_equal(xi_vals, s.xi_factor(g.dual().coord_stack()))

    def test_copies_start_empty(self):
        calls = {"x": 0, "xi": 0}
        s = counting_symbol(calls)
        f = random_band_limited(Grid(1, 64, 4.0), np.random.default_rng(3))
        apply_psido(s, f)
        for copy in (with_params(s, rho=0.5), dataclasses.replace(s)):
            before = dict(calls)
            apply_psido(copy, f)
            assert calls == {"x": before["x"] + 1, "xi": before["xi"] + 1}
        # the memo is not part of the symbol's identity
        assert dataclasses.replace(s) == s
        assert hash(dataclasses.replace(s)) == hash(s)
        assert "_samples" not in repr(s)

    def test_cached_arrays_read_only(self):
        g = Grid(1, 64, 4.0)
        s = bessel_multiplier(-1.0)
        dd = dyadic_decompose(s, g, 2)
        sep = separable_symbol(
            trig_multiplication(smoothness_coefficients(2, 3), 8.0), s)
        for arr in (s.sampled_factor("xi", g.dual()), dd.symbol_values(),
                    dyadic_decompose(sep, g, 2).symbol_values([0.5])):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_concurrent_callers_on_alternating_grids(self):
        # equal shapes, so a sample paired with the other grid would not
        # fail to broadcast but silently give different values; tiny grids
        # keep the threads in the Python code around the memo
        grids = [Grid(1, 16, 4.0), Grid(1, 16, 5.0)]
        s = separable_symbol(
            trig_multiplication(smoothness_coefficients(2, 6), 8.0),
            bessel_multiplier(-1.0))
        inputs = [random_band_limited(g, np.random.default_rng(i))
                  for i, g in enumerate(grids)]
        serial = [(apply_psido(dataclasses.replace(s), f).values,
                   discrete_adjoint_apply(dataclasses.replace(s), f).values)
                  for f in inputs]
        rounds = 100
        matches = []

        def worker(offset):
            for k in range(rounds):
                i = (offset + k) % 2
                got = (apply_psido(s, inputs[i]).values,
                       discrete_adjoint_apply(s, inputs[i]).values)
                matches.append(all(np.array_equal(a, b)
                                   for a, b in zip(got, serial[i])))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(2 * (os.cpu_count() or 1) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(matches) == rounds * len(threads) and all(matches)


def complex_twin(s: Symbol) -> Symbol:
    """s with every factor returning its values as complex128, (b, +0j),
    the samples real factors gave before they were kept real."""
    def twin(factor):
        if factor is None:
            return None

        @functools.wraps(factor)   # keeps the takes_grid mark
        def complex_factor(p):
            return np.asarray(factor(p), dtype=np.complex128)

        return complex_factor

    return symbols._factored(s.params, s.label, x_factor=twin(s.x_factor),
                             xi_factor=twin(s.xi_factor))


def real_factor_symbols(period: float) -> list:
    trig = trig_multiplication(smoothness_coefficients(2, 6), period, N=2)
    return [bessel_multiplier(-1.0), trig, constant_symbol(2.0),
            separable_symbol(trig, bessel_multiplier(-1.0))]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


class TestRealFactors:
    """Real factors sample as float64 and every consumer casts them to
    (b, +0), so each result has the bits of a twin whose factors return
    complex128.  conj((b, +0)) is (b, -0): the adjoint could differ from
    the twin's in the sign of an exact zero, which generic inputs never
    produce."""

    def test_dtype_rule(self):
        g = Grid(2, 8, 3.0)
        bessel = bessel_multiplier(-1.0)
        user_real = Symbol(lambda x, xi: np.cos(xi[..., 0]) + 0j,
                           SymbolClassParams(m=0.0), "multiplier",
                           xi_factor=lambda xi: np.cos(xi[..., 0]))
        user_complex = Symbol(lambda x, xi: np.exp(1j * xi[..., 0]),
                              SymbolClassParams(m=0.0), "multiplier",
                              xi_factor=lambda xi: np.exp(1j * xi[..., 0]))
        from_evaluator = Symbol(bessel.evaluator, bessel.params, "multiplier")
        cases = [(s, np.float64) for s in real_factor_symbols(6.0)
                 + [constant_symbol(-3 + 0j), user_real]]
        cases += [(s, np.complex128) for s in (
            wave_multiplier(0.0), constant_symbol(2.0 - 1.5j),
            constant_symbol(complex(1.0, -0.0)), user_complex, from_evaluator)]
        for s, dtype in cases:
            for which, grid in (("x", g), ("xi", g.dual())):
                if getattr(s, f"{which}_factor") is not None:
                    got = s.sampled_factor(which, grid)
                    assert got.dtype == dtype, (s.label, which)
                    assert not got.flags.writeable

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_same_bits_as_complex_twin(self, d):
        g = Grid(d, 16, 4.0)
        rng = np.random.default_rng(20 + d)
        f = random_band_limited(g, rng)
        stack = np.stack([f.values, random_band_limited(g, rng).values])
        x = g.axis_coords()[[3] * d]
        spec = SampleSpec(dim=d, xi_max=8.0, num_x=3, num_xi=8)
        exponents = [MixedExponent.uniform(2.0, d), MixedExponent.uniform(4.0, d),
                     MixedExponent((3.0, 1.5, 1.25)[:d])]
        for s in real_factor_symbols(2 * g.half_extent):
            t = complex_twin(s)
            for op in (apply_psido, discrete_adjoint_apply):
                assert np.array_equal(bits(op(s, f).values), bits(op(t, f).values)), s.label
            plans = operators.operator_plan(s, g), operators.operator_plan(t, g)
            for v in (f.values, stack):
                assert np.array_equal(bits(plans[0].apply(v)), bits(plans[1].apply(v)))
                assert np.array_equal(bits(plans[0].adjoint(v)), bits(plans[1].adjoint(v)))
            at = None if s.x_independent else x
            dds = [dyadic_decompose(sym, g, default_levels(g)) for sym in (s, t)]
            assert np.array_equal(bits(dds[0].sum_values(at)), bits(dds[1].sum_values(at)))
            for j in range(dds[0].levels + 1):
                assert np.array_equal(bits(dds[0].piece_values(j, at)),
                                      bits(dds[1].piece_values(j, at)))
            assert np.array_equal(bits(kernel_sum(dds[0], at).values),
                                  bits(kernel_sum(dds[1], at).values))
            for p in exponents:
                assert estimates._norm_bracket(s, g, p) == estimates._norm_bracket(t, g, p)
            ours, theirs = (verify_symbol_class(sym, spec, cap=10.0) for sym in (s, t))
            assert [(e.alpha, e.beta, float(e.fitted_constant).hex(), e.witness_x,
                     e.witness_xi, e.passed) for e in ours.entries] == \
                [(e.alpha, e.beta, float(e.fitted_constant).hex(), e.witness_x,
                  e.witness_xi, e.passed) for e in theirs.entries], s.label


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

    @pytest.mark.parametrize("dim, n, R, levels", [
        (1, 512, 16.0, 5), (2, 64, math.pi, 3), (3, 32, 4.0, 2)])
    def test_rings_are_the_cutoffs(self, dim, n, R, levels):
        dd = dyadic_decompose(bessel_multiplier(-1.0), Grid(dim, n, R), levels)
        # each ring embedded into zeros gives the whole-grid cutoff's bits
        for j, (box, ring) in enumerate(dd.rings()):
            got = np.zeros(dd.dual.shape)
            got[box] = ring
            want = dd.cutoff_values(j)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), j
        assert j == levels

    @pytest.mark.parametrize("kind", ["sep", "trig", "general"])
    def test_one_sample_per_x(self, kind, monkeypatch, tmp_path):
        # walking every piece at one x samples an x-dependent symbol once:
        # the CLI dyadic and kernel-decay handlers and the envelope check
        samples = []
        plain_eval = Symbol.eval

        def counted_eval(self, x, xi):
            samples.append("eval")
            return plain_eval(self, x, xi)

        monkeypatch.setattr(Symbol, "eval", counted_eval)
        trig = trig_multiplication(smoothness_coefficients(2, 6), 8.0)
        s = {"sep": separable_symbol(trig, bessel_multiplier(-1.0)),
             "trig": trig,
             "general": Symbol(
                 lambda x, xi: np.exp(0.1j * np.sum(x * xi, axis=-1))
                 / (1.0 + np.sum(xi**2, axis=-1)),
                 SymbolClassParams(m=0.0), "general", label="coupled")}[kind]
        if s.x_factor is not None:
            x_factor = s.x_factor

            def counted_factor(x):
                samples.append("x_factor")
                return x_factor(x)

            s = dataclasses.replace(s, x_factor=counted_factor)
        one = ["x_factor"] if kind == "sep" else ["eval"]
        monkeypatch.setattr(cli, "parse_symbol_spec", lambda spec, period: s)
        for command in ("dyadic", "kernel-decay"):
            samples.clear()
            code = cli.main([command, "--symbol", kind, "--d", "2", "--n", "32",
                             "--R", "4", "--levels", "3", "--x", "0.5,-0.0",
                             "--out-dir", str(tmp_path)])
            assert code == 0 and samples == one, command
        samples.clear()
        rep = dyadic_envelope_check(dyadic_decompose(s, Grid(2, 32, 4.0), 3),
                                    0, (0, 0), (0, 0), x=[0.5, -0.0])
        assert len(rep.ratios) == 4 and samples == one

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_separable_sample_from_factors(self, dim, n, monkeypatch):
        # x_factor(x) times the memoised xi sample: the bits of the
        # evaluator on the dual grid's points, with no coordinate stack built
        g = Grid(dim, n, 4.0)
        s = separable_symbol(
            trig_multiplication(smoothness_coefficients(2, 6), 8.0),
            bessel_multiplier(-1.0))
        points = [np.full(dim, 0.375), np.full(dim, -0.0), np.linspace(-1.0, 0.5, dim)]
        want = [s.eval(p, g.dual().coord_stack()) for p in points]
        stacks = []
        coord_stack = Grid.coord_stack

        def counted(self):
            stacks.append(self)
            return coord_stack(self)

        monkeypatch.setattr(Grid, "coord_stack", counted)
        dd = dyadic_decompose(s, g, 2)
        for p, w in zip(points, want):
            got = dd.symbol_values(p)
            assert np.array_equal(got.view(np.uint64), w.view(np.uint64))
        assert stacks == []

    def test_separable_overflow_raises_eval_error(self):
        # a non-finite xi factor, and finite factors whose product overflows
        g = Grid(1, 64, 4.0)
        for coeff, m in ((0.3, 400.0), (1e160, 150.0)):
            s = separable_symbol(trig_multiplication((coeff,), 8.0),
                                 bessel_multiplier(m), label="big")
            x = np.array([0.0])
            with pytest.raises(SymbolEvaluationError) as want:
                s.eval(x, g.dual().coord_stack())
            with pytest.raises(SymbolEvaluationError) as got:
                dyadic_decompose(s, g, 2).symbol_values(x)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dim, n, R, levels", [
        (1, 512, 16.0, 5), (2, 64, math.pi, 3), (3, 32, 4.0, 2)])
    def test_sum_values_matches_piece_accumulation(self, dim, n, R, levels):
        g = Grid(dim, n, R)
        for s in (bessel_multiplier(-1.0), separable_symbol(
                trig_multiplication(smoothness_coefficients(2, 6), 2 * R),
                wave_multiplier(-0.5))):
            dd = dyadic_decompose(s, g, levels)
            x = None if s.x_independent else np.full(dim, 0.375)
            want = np.zeros(dd.dual.shape, dtype=np.complex128)
            for j in range(levels + 1):
                want += dd.symbol_values(x) * dd.cutoff_values(j)
            got = dd.sum_values(x)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), s.label

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


    @pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
    @pytest.mark.parametrize("s", [bessel_multiplier(-1.0), wave_multiplier(0.0)],
                             ids=["bessel", "wave"])
    def test_kernel_sum_matches_sum_of_piece_kernels(self, s, d, n):
        # reference: one inverse transform per piece, summed pointwise
        g = Grid(d, n, 4.0)
        dd = dyadic_decompose(s, g, default_levels(g))
        explicit = sum(kernel_piece(dd, j).values for j in range(dd.levels + 1))
        total = kernel_sum(dd).values
        assert np.max(np.abs(total - explicit)) <= 1e-14 * np.max(np.abs(explicit))


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

    def test_zero_input_gives_zero(self):
        # an empty support leaves every x off it: (T 0)(x) = 0
        g = Grid(1, 1024, 16.0)
        k = kernel_sum(dyadic_decompose(bessel_multiplier(-2.0), g, default_levels(g)))
        val = offsupport_apply(k, SampledFunction(g, np.zeros(g.shape)), [0.5])
        assert val == 0j and type(val) is complex

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
