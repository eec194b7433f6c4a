import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psidolab import (Grid, InvalidInputError, SampleSpec, Symbol,
                      SymbolClassParams, SymbolEvaluationError,
                      bessel_multiplier, builtin_symbols, constant_symbol,
                      eval_symbol, finite_diff_derivative, schwartz_seminorm,
                      separable_symbol, trig_multiplication, smoothness_coefficients,
                      verify_symbol_class, wave_multiplier, with_params)
from psidolab import symbols
from psidolab.symbols import (FD_ORDER_CAP, DerivativeBoundEntry,
                              DerivativeBoundReport, iter_multi_indices,
                              multi_index_order)
from conftest import gaussian


# ---------------------------------------------------------------------------
# reference: every stencil term expanded and evaluated on its own, summed in
# term order (the finite-difference path before distinct points were shared)

_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))                  # / (12 s)
_D2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))    # / (12 s^2)


def _ref_terms(alpha, beta, dim, step):
    plan = []
    for var, mi in ((0, alpha), (1, beta)):
        for axis, order in enumerate(mi):
            plan += [(var, axis, _D2)] * (order // 2)
            if order % 2:
                plan.append((var, axis, _D1))
    terms = [(np.zeros(dim), np.zeros(dim), 1.0)]
    denom = 1.0
    for var, axis, stencil in plan:
        denom *= 12.0 * step ** (2 if stencil is _D2 else 1)
        new = []
        for dx, dxi, w in terms:
            for offset, coeff in stencil:
                ndx, ndxi = dx, dxi
                if var == 0:
                    ndx = dx.copy()
                    ndx[axis] += offset * step
                else:
                    ndxi = dxi.copy()
                    ndxi[axis] += offset * step
                new.append((ndx, ndxi, w * coeff))
        terms = new
    return terms, denom


def _ref_derivative(s, alpha, beta, x, xi, step):
    shape = np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    if multi_index_order(alpha) > 0 and s.x_independent:
        return np.zeros(shape, dtype=np.complex128)
    if multi_index_order(beta) > 0 and s.xi_independent:
        return np.zeros(shape, dtype=np.complex128)
    if multi_index_order(alpha) + multi_index_order(beta) == 0:
        return s.eval(x, xi)
    terms, denom = _ref_terms(alpha, beta, x.shape[-1], step)
    acc = np.zeros(shape, dtype=np.complex128)
    for dx, dxi, w in terms:
        acc += w * s.eval(x + dx, xi + dxi)
    return acc / denom


def _ref_verify(s, spec, cap):
    p = s.params
    x_all, xi_all = spec.points()
    bracket = np.sqrt(1.0 + np.sum(xi_all**2, axis=-1))
    entries = []
    for alpha in iter_multi_indices(spec.dim, min(p.N, FD_ORDER_CAP)):
        for beta in iter_multi_indices(spec.dim, min(p.Nprime, FD_ORDER_CAP)):
            if multi_index_order(alpha) + multi_index_order(beta) > FD_ORDER_CAP:
                continue
            deriv = _ref_derivative(s, alpha, beta, x_all, xi_all, spec.step)
            weight = bracket ** (-p.m + p.rho * multi_index_order(beta)
                                 - p.delta * multi_index_order(alpha))
            weighted = np.abs(deriv) * weight
            i = int(np.argmax(weighted))
            fitted = float(weighted[i])
            entries.append(DerivativeBoundEntry(
                alpha=alpha, beta=beta, fitted_constant=fitted,
                witness_x=tuple(float(v) for v in x_all[i]),
                witness_xi=tuple(float(v) for v in xi_all[i]),
                passed=bool(np.isfinite(fitted) and fitted <= cap)))
    return DerivativeBoundReport(entries=entries, cap=cap)


def _bits(report):
    """Every float of a report as hex, so == compares bit for bit."""
    return [(e.alpha, e.beta, e.fitted_constant.hex(),
             [v.hex() for v in e.witness_x], [v.hex() for v in e.witness_xi],
             e.passed) for e in report.entries]


# ---------------------------------------------------------------------------
# reference: the stencil plan with each pair's 1-D stencils rebuilt and the
# distinct offsets found by sorting whole float rows as void keys (the plan
# before offsets got integer ids)

def _ref_axis_stencil(stencils, step):
    terms = [(0.0, 1.0)]
    for stencil in stencils:
        terms = [(off + o * step, w * c) for off, w in terms for o, c in stencil]
    return np.array(terms)


def _ref_fd_stencil(alpha, beta, dim, step):
    offsets, weights, denom = np.zeros((1, 2, dim)), np.ones(1), 1.0
    for var, mi in enumerate((alpha, beta)):
        for axis, order in enumerate(mi):
            if not order:
                continue
            stencils = [_D2] * (order // 2) + [_D1] * (order % 2)
            for stencil in stencils:
                denom *= 12.0 * step ** (2 if stencil is _D2 else 1)
            axis_terms = _ref_axis_stencil(stencils, step)
            offsets = np.repeat(offsets, len(axis_terms), axis=0)
            offsets[:, var, axis] = np.tile(axis_terms[:, 0], len(weights))
            weights = np.outer(weights, axis_terms[:, 1]).ravel()
    return offsets, weights, denom


def _ref_distinct_rows(offsets):
    offsets = np.ascontiguousarray(offsets)
    keys = offsets.view(np.dtype((np.void, offsets.itemsize * offsets.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(len(by_use))
    return offsets[first[by_use]], rank[inverse.ravel()]


def _ref_fd_plan(s, pairs, dim, step):
    plans, stencils = [], []
    for alpha, beta in pairs:
        a, b = multi_index_order(alpha), multi_index_order(beta)
        if (a and s.x_independent) or (b and s.xi_independent):
            plans.append(None)
        elif a + b == 0:
            plans.append(symbols._RAW)
        else:
            plans.append(len(stencils))
            stencils.append(_ref_fd_stencil(alpha, beta, dim, step))
    raw = symbols._RAW in plans
    if not stencils:
        return plans, np.zeros((0, 2, dim)), raw
    table, index = _ref_distinct_rows(
        np.concatenate([o for o, _, _ in stencils]).reshape(-1, 2 * dim))
    rows = np.split(raw + index, np.cumsum([len(w) for _, w, _ in stencils])[:-1])
    plans = [(rows[plan], stencils[plan][1], stencils[plan][2])
             if isinstance(plan, int) else plan for plan in plans]
    return plans, table.reshape(-1, 2, dim), raw


def _ref_factor_rows(table, raw):
    out = []
    for var in (0, 1):
        shifts, index = _ref_distinct_rows(table[:, var])
        out.append((shifts, np.concatenate([np.zeros(int(raw), dtype=index.dtype),
                                            raw + index])))
    return tuple(out)


def _all_pairs(dim, N=FD_ORDER_CAP, Nprime=FD_ORDER_CAP):
    return [(alpha, beta) for alpha in iter_multi_indices(dim, N)
            for beta in iter_multi_indices(dim, Nprime)
            if multi_index_order(alpha) + multi_index_order(beta) <= FD_ORDER_CAP]


def coupled_symbol(delta=0.25):
    """sigma = (1 + 0.3 cos x1) <xi>^(-1 + 0.2 sin x1), the benchmark's
    coupled symbol, claimed with delta > 0 so the delta|alpha| weight runs."""

    def ev(x, xi):
        x1 = x[..., 0]
        bracket = np.sqrt(1.0 + np.sum(xi**2, axis=-1))
        return (1.0 + 0.3 * np.cos(x1)) * bracket ** (-1.0 + 0.2 * np.sin(x1)) + 0j

    return Symbol(ev, SymbolClassParams(m=-0.8, delta=delta, N=2, Nprime=2),
                  "general", label="coupled")


REFERENCE_SYMBOLS = builtin_symbols(2.0) + [coupled_symbol()]


def counted_factors(s: Symbol) -> Symbol:
    """A copy of the separable s recording the point shapes each factor and
    its evaluator are called with, in `calls`."""
    calls = {"x": [], "xi": [], "eval": []}

    def counted(which, fn):
        def wrapped(*args):
            calls[which].append(np.shape(args[-1]))
            return fn(*args)
        return wrapped

    copy = Symbol(counted("eval", s.evaluator), s.params, s.kind,
                  x_factor=counted("x", s.x_factor),
                  xi_factor=counted("xi", s.xi_factor), label=s.label)
    object.__setattr__(copy, "calls", calls)
    return copy


@st.composite
def _derivative_orders(draw, dim):
    """alpha, beta of the given dimension with |alpha| + |beta| <= FD_ORDER_CAP."""
    budget, orders = FD_ORDER_CAP, []
    for _ in range(2 * dim):
        orders.append(draw(st.integers(0, budget)))
        budget -= orders[-1]
    order = draw(st.permutations(orders))
    return tuple(order[:dim]), tuple(order[dim:])


class TestEvalSymbol:
    def test_constant(self):
        s = constant_symbol(1.0)
        assert eval_symbol(s, [0.3], [2.0]) == 1.0

    def test_bessel_at_zero(self):
        s = bessel_multiplier(-2.0)
        assert eval_symbol(s, [0.0], [0.0]) == pytest.approx(1.0)

    def test_bessel_at_known_point(self):
        # <(1, sqrt(2))>^2 = 4, so the order -2 multiplier gives 1/4
        s = bessel_multiplier(-2.0)
        val = eval_symbol(s, [0.0, 0.0], [1.0, math.sqrt(2.0)])
        assert val == pytest.approx(0.25)

    def test_nonfinite_value_names_witness(self):
        def singular(x, xi):
            with np.errstate(divide="ignore"):
                return 1.0 / np.sum(xi, axis=-1)

        s = Symbol(singular, SymbolClassParams(m=0.0), "general")
        with pytest.raises(SymbolEvaluationError, match="xi="):
            s.eval(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_params_validation(self):
        with pytest.raises(InvalidInputError):
            SymbolClassParams(m=0.0, rho=1.5)
        with pytest.raises(InvalidInputError):
            SymbolClassParams(m=0.0, delta=1.0)
        with pytest.raises(InvalidInputError):
            SymbolClassParams(m=0.0, N=3)
        with pytest.raises(InvalidInputError, match="order m must be finite"):
            SymbolClassParams(m=math.nan)

    def test_eval_rejects_point_shapes(self):
        s = bessel_multiplier(-1.0)
        with pytest.raises(InvalidInputError, match="coordinate axis"):
            s.eval(0.0, [1.0])
        with pytest.raises(InvalidInputError, match="x has dimension 2, xi has 1"):
            s.eval(np.zeros((1, 2)), np.zeros((1, 1)))


class TestSymbolFactors:
    def test_kind_factor_mismatch_rejected(self):
        ev = lambda x, xi: np.ones(np.broadcast_shapes(  # noqa: E731
            x.shape[:-1], xi.shape[:-1])) + 0j
        params = SymbolClassParams(m=0.0)
        factor = lambda v: np.ones(v.shape[:-1]) + 0j  # noqa: E731
        for kind, factors in (("separable", {}),
                              ("separable", {"x_factor": factor}),
                              ("multiplier", {"x_factor": factor}),
                              ("multiplication", {"xi_factor": factor}),
                              ("general", {"xi_factor": factor})):
            with pytest.raises(InvalidInputError, match=kind):
                Symbol(ev, params, kind, **factors)
        # the factories' own checks
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            trig_multiplication((0.1, math.nan), 2.0)
        with pytest.raises(InvalidInputError, match="needs a multiplication symbol"):
            separable_symbol(bessel_multiplier(-1.0), bessel_multiplier(-1.0))

    def test_missing_factor_samples_evaluator(self):
        b = bessel_multiplier(-1.0)
        bare = Symbol(b.evaluator, b.params, "multiplier")
        xi = np.linspace(-3.0, 3.0, 7)[:, None]
        assert np.array_equal(bare.xi_factor(xi), b.xi_factor(xi))
        # a copy with a new evaluator samples that evaluator, not the old one
        doubled = replace(bare, evaluator=lambda x, xi: 2 * b.evaluator(x, xi))
        assert np.array_equal(doubled.xi_factor(xi), 2 * b.xi_factor(xi))
        t = trig_multiplication(smoothness_coefficients(2, 4), 2.0)
        bare = Symbol(t.evaluator, t.params, "multiplication")
        assert np.array_equal(bare.x_factor(xi), t.x_factor(xi))


def grid_path_symbols(period: float) -> list:
    """Every built-in, plus more trig, const and radial instances."""
    return builtin_symbols(period) + [
        bessel_multiplier(0.5), wave_multiplier(-1.5),
        trig_multiplication((0.3, -0.2, 0.05), 0.5 * period),
        constant_symbol(2.0 - 1.5j)]


def points_path(s: Symbol) -> Symbol:
    """s with unmarked factors, so sampled_factor passes the coordinate stack."""
    def unmarked(factor):
        return None if factor is None else (lambda p: factor(p))

    return Symbol(s.evaluator, s.params, s.kind, x_factor=unmarked(s.x_factor),
                  xi_factor=unmarked(s.xi_factor), label=s.label)


# labels of the grid_path_symbols whose factors have complex values
COMPLEX_FACTORS = ("wave:", "const:(2-1.5j)")


class TestGridFactorPath:
    """Built-in factors sampled from a Grid's axes give the bits, and the
    dtype, of the same factors evaluated at every grid point: float64 for
    the real ones, complex128 for wave and a complex const."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, 18])
    @pytest.mark.parametrize("R", [0.7, math.pi])
    def test_matches_points_path(self, dim, n, R):
        g = Grid(dim, n, R)
        for s in grid_path_symbols(2 * R):
            for which in ("x", "xi"):
                factor = getattr(s, f"{which}_factor")
                if factor is None:
                    continue
                assert factor.takes_grid is True
                dtype = np.complex128 if s.label.startswith(COMPLEX_FACTORS) else np.float64
                for grid in (g, g.dual()):
                    got = s.sampled_factor(which, grid)
                    want = np.asarray(factor(grid.coord_stack()))
                    assert got.dtype == want.dtype == dtype, (s.label, which)
                    assert got.shape == want.shape == grid.shape
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                        (s.label, which, grid)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, 18])
    @pytest.mark.parametrize("terms", range(8, 13))
    def test_long_series_within_bound(self, dim, n, terms):
        # both paths sum the series with the same reduction, so a long
        # series rounds alike on the axis and at every point, also at d >= 2
        g = Grid(dim, n, 0.7)
        s = trig_multiplication(smoothness_coefficients(2, terms), 2 * g.half_extent)
        for grid in (g, g.dual()):
            got = s.sampled_factor("x", grid)
            want = np.asarray(s.x_factor(grid.coord_stack()))
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == grid.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), grid

    def test_overflow_names_same_point_as_points_path(self):
        g = Grid(2, 16, 0.7)
        # the trig product overflows first at index (1, 1), not at the corner
        cases = [("x", trig_multiplication((1e160,), 4 * g.half_extent), g),
                 ("xi", bessel_multiplier(400.0), g.dual()),
                 ("xi", wave_multiplier(400.0), g.dual()),
                 ("x", constant_symbol(complex(math.inf, 0.0)), g)]
        for which, s, grid in cases:
            messages = []
            for sym in (s, points_path(s)):
                with pytest.raises(SymbolEvaluationError) as err:
                    sym.sampled_factor(which, grid)
                messages.append(str(err.value))
            assert messages[0] == messages[1], s.label
        trig_message = f"non-finite x_factor value at x={g.coord_stack()[1, 1].tolist()}"
        with pytest.raises(SymbolEvaluationError, match=re.escape(trig_message)):
            cases[0][1].sampled_factor("x", g)


class TestEvenDeclaration:
    """A factor's `even` attribute declares its value bit for bit unchanged
    by a sign flip of any coordinate; the dyadic kernels of an even
    frequency factor are computed on the nonnegative orthant."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_declared_factors_are_even(self, dim):
        rng = np.random.default_rng(40 + dim)
        points = rng.uniform(-50.0, 50.0, (64, dim)) * rng.choice(
            [1e-3, 1.0, 1e3], (64, 1))
        declared = []
        for s in grid_path_symbols(2.0) + [bessel_multiplier(3.0), wave_multiplier(2.0)]:
            for factor in (s.x_factor, s.xi_factor):
                if factor is None or not getattr(factor, "even", False):
                    continue
                declared.append(s.label)
                want = np.asarray(factor(points))
                # -P, and a sign flip of each coordinate alone
                flips = [-np.ones(dim)] + [np.where(np.arange(dim) == k, -1.0, 1.0)
                                           for k in range(dim)]
                for flip in flips:
                    got = np.asarray(factor(points * flip))
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                        (s.label, flip)
        # every radial built-in declares it, with both of its profiles
        assert sorted(set(declared)) == ["bessel:-1.0", "bessel:0.5", "bessel:3.0",
                                         "sep(trig:6,bessel:-1.0)", "wave:-1.5",
                                         "wave:0.0", "wave:2.0"]

    def test_only_radial_factors_declare_it(self):
        for s in builtin_symbols(2.0):
            for factor in (s.x_factor, s.xi_factor):
                if factor is not None:
                    assert getattr(factor, "even", False) == (factor is s.xi_factor), s.label

    def test_user_factors_are_not_even_unless_they_say_so(self):
        xi_factor = lambda xi: 1.0 / (1.0 + np.sum(xi**2, axis=-1))  # noqa: E731
        s = Symbol(lambda x, xi: xi_factor(xi) + 0j, SymbolClassParams(m=-2.0),
                   "multiplier", xi_factor=xi_factor)
        assert not getattr(s.xi_factor, "even", False)
        bare = Symbol(s.evaluator, s.params, "multiplier")  # samples its evaluator
        assert not getattr(bare.xi_factor, "even", False)
        xi_factor.even = True
        assert s.xi_factor.even is True

    def test_wrapped_factor_keeps_the_flag(self):
        factor = bessel_multiplier(-1.0).xi_factor

        @functools.wraps(factor)
        def wrapped(p):
            return factor(p)

        assert wrapped.even is True and wrapped.takes_grid is True


class TestFiniteDifference:
    def test_quadratic_exact(self):
        s = Symbol(lambda x, xi: xi[..., 0] ** 2 + 0j,
                   SymbolClassParams(m=2.0), "multiplier")
        val = finite_diff_derivative(s, 0, 2, [0.3], [1.1], step=0.05)
        assert val.real == pytest.approx(2.0, abs=1e-6)

    def test_constant_derivatives_vanish(self):
        s = constant_symbol(3.0)
        for alpha, beta in ((1, 0), (0, 1), (2, 2)):
            val = finite_diff_derivative(s, alpha, beta, [0.0], [1.0], step=0.1)
            assert abs(val) <= 1e-8

    def test_bessel_first_derivative(self):
        # d/dxi <xi>^-1 = -xi <xi>^-3; at xi = 1 this is -2^(-3/2)
        s = bessel_multiplier(-1.0)
        val = finite_diff_derivative(s, 0, 1, [0.0], [1.0], step=0.05)
        assert val.real == pytest.approx(-(2.0 ** -1.5), abs=1e-5)

    def test_cubic_exact_to_stencil_tolerance(self):
        s = Symbol(lambda x, xi: (xi[..., 0] ** 3 + 2 * x[..., 0] ** 3) + 0j,
                   SymbolClassParams(m=3.0), "general")
        d_xi = finite_diff_derivative(s, 0, 3, [0.5], [0.7], step=0.2)
        d_x = finite_diff_derivative(s, 3, 0, [0.5], [0.7], step=0.2)
        assert d_xi.real == pytest.approx(6.0, abs=1e-8)
        assert d_x.real == pytest.approx(12.0, abs=1e-8)

    def test_order_cap_and_step_guard(self):
        s = bessel_multiplier(-1.0)
        with pytest.raises(InvalidInputError):
            finite_diff_derivative(s, 5, 4, [0.0], [1.0], step=0.1)
        with pytest.raises(InvalidInputError):
            finite_diff_derivative(s, 2, 2, [0.0], [1.0], step=1e-5)
        with pytest.raises(InvalidInputError):
            finite_diff_derivative(s, 0, 1, [0.0], [1.0], step=0.0)
        # multi-indices: a scalar beyond d = 1, a wrong length, a negative entry
        for alpha, x, match in ((1, [0.0, 0.0], "scalar multi-index"),
                                ((0, 0), [0.0], "has length 2, expected 1"),
                                ((-1,), [0.0], "negative entries")):
            with pytest.raises(InvalidInputError, match=match):
                finite_diff_derivative(s, alpha, 0, x, [1.0] * len(x), step=0.1)
        # order 2 passes the cancellation guard, but 12 step^2 underflows
        with pytest.raises(InvalidInputError, match="step 1e-300 .* underflows"):
            finite_diff_derivative(wave_multiplier(0.0), 0, 2, [0.0], [1.0], step=1e-300)

    @pytest.mark.parametrize("s, step, reason", [
        (bessel_multiplier(-1.0), 1e-5, "cancellation guard"),
        (wave_multiplier(0.0), 1e-300, "underflows")])
    def test_class_verification_applies_the_step_guards(self, s, step, reason):
        spec = SampleSpec(dim=1, xi_max=64.0, step=step)
        with pytest.raises(InvalidInputError, match=f"step {step}.*{reason}"):
            verify_symbol_class(s, spec, 10.0)


class TestMatchesPerTermReference:
    """Shared distinct stencil points give the per-term sums bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3),
           s=st.sampled_from(REFERENCE_SYMBOLS), step=st.floats(1e-3, 0.2))
    def test_finite_diff_derivative(self, data, dim, s, step):
        alpha, beta = data.draw(_derivative_orders(dim))
        coords = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        x = np.array(data.draw(coords))
        xi = 20.0 * np.array(data.draw(coords))
        got = finite_diff_derivative(s, alpha, beta, x, xi, step)
        want = complex(_ref_derivative(s, alpha, beta, x, xi, step))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3), s=st.sampled_from(REFERENCE_SYMBOLS),
           claim=st.sampled_from([(0, 0), (0, 2), (2, 0), (2, 2), (0, 4), (4, 0)]),
           num_x=st.integers(1, 3), num_xi=st.integers(2, 6),
           seed=st.integers(0, 2**16), step=st.floats(1e-3, 0.2))
    def test_verify_symbol_class(self, dim, s, claim, num_x, num_xi, seed, step):
        s = with_params(s, N=claim[0], Nprime=claim[1])
        spec = SampleSpec(dim=dim, xi_max=64.0, num_x=num_x, num_xi=num_xi,
                          seed=seed, step=step)
        assert (_bits(verify_symbol_class(s, spec, cap=10.0))
                == _bits(_ref_verify(s, spec, cap=10.0)))

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 3), terms=st.integers(8, 12),
           claim=st.sampled_from([(2, 0), (2, 2), (0, 2)]),
           num_x=st.integers(1, 3), num_xi=st.integers(2, 6),
           seed=st.integers(0, 2**16), step=st.floats(1e-3, 0.2))
    def test_verify_separable_long_series(self, dim, terms, claim, num_x, num_xi,
                                          seed, step):
        trig = trig_multiplication(smoothness_coefficients(2, terms), 2.0)
        s = with_params(separable_symbol(trig, bessel_multiplier(-1.0)),
                        N=claim[0], Nprime=claim[1])
        spec = SampleSpec(dim=dim, xi_max=64.0, num_x=num_x, num_xi=num_xi,
                          seed=seed, step=step)
        assert (_bits(verify_symbol_class(s, spec, cap=10.0))
                == _bits(_ref_verify(s, spec, cap=10.0)))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 3),
           s=st.sampled_from([bessel_multiplier(-1.0), bessel_multiplier(0.5),
                              wave_multiplier(0.0)]),
           Nprime=st.sampled_from([0, 2, 4]), num_x=st.integers(2, 6),
           num_xi=st.integers(2, 8), seed=st.integers(0, 2**16),
           step=st.floats(1e-3, 0.2))
    def test_verify_multiplier_over_several_x(self, dim, s, Nprime, num_x, num_xi,
                                              seed, step):
        s = with_params(s, N=2, Nprime=Nprime)
        spec = SampleSpec(dim=dim, xi_max=64.0, num_x=num_x, num_xi=num_xi,
                          seed=seed, step=step)
        assert (_bits(verify_symbol_class(s, spec, cap=10.0))
                == _bits(_ref_verify(s, spec, cap=10.0)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_builtin_at_its_claim(self, dim):
        for s in REFERENCE_SYMBOLS:
            if dim == 3:
                # the separable claim (N, N') = (2, 4) has 350 pairs at d = 3,
                # seconds of per-term reference evaluations
                s = with_params(s, Nprime=min(s.params.Nprime, 2))
            spec = SampleSpec(dim=dim, xi_max=64.0, num_x=2, num_xi=12, seed=dim)
            assert (_bits(verify_symbol_class(s, spec, cap=10.0))
                    == _bits(_ref_verify(s, spec, cap=10.0)))


class TestStencilPlan:
    """The plan over integer offset ids is the float-row plan bit for bit."""

    # 0.1 / 2^k share one pattern of float sums; 1/3 has another.  At each,
    # some shifts with equal integer sums have distinct float sums, which
    # integer keys would merge
    STEPS = (0.1, 0.05, 0.025, 1 / 3)
    # all pairs up to the order cap at d = 1, 2; at d = 3 all 3,003 pairs
    # make 5.2M reference rows (about 3 s and 1.2 GB to sort per step), so
    # the claims the lab verifies there instead: the benchmark's bessel
    # N' = 8, its mirror in x, and the mixed (N, N') = (2, 4) and (4, 2)
    PAIRS = {1: [_all_pairs(1)], 2: [_all_pairs(2)],
             3: [_all_pairs(3, 0, 8), _all_pairs(3, 8, 0), _all_pairs(3, 2, 4),
                 _all_pairs(3, 4, 2)]}
    GENERAL = Symbol(lambda x, xi: np.sum(x + xi, axis=-1) + 0j,
                     SymbolClassParams(m=0.0), "general")

    def test_a_step_where_integer_keys_merge_float_distinct_offsets(self):
        merging = []
        for step in self.STEPS:
            _, table, _, _ = symbols._fd_plan(self.GENERAL, _all_pairs(2), 2, step)
            integer = np.rint(table / step).reshape(len(table), -1)
            if len(np.unique(integer, axis=0)) < len(table):
                merging.append(step)
        assert 1 / 3 in merging and 0.1 in merging

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_float_row_plan(self, dim, step):
        multiplier = with_params(bessel_multiplier(-1.0), N=8, Nprime=8)
        for pairs in self.PAIRS[dim]:
            for s in (self.GENERAL, multiplier):
                plans, table, raw, shift_ids = symbols._fd_plan(s, pairs, dim, step)
                want_plans, want_table, want_raw = _ref_fd_plan(s, pairs, dim, step)
                assert raw == want_raw
                assert table.shape == want_table.shape
                assert table.tobytes() == want_table.tobytes()
                assert len(plans) == len(want_plans)
                for got, want in zip(plans, want_plans):
                    if not isinstance(want, tuple):
                        assert got is want
                        continue
                    rows, weights, denom = got
                    assert np.array_equal(rows, want[0])
                    assert weights.tobytes() == want[1].tobytes()
                    assert denom.hex() == want[2].hex()
                for raw in (False, True):
                    got = symbols._factor_rows(table, shift_ids, raw)
                    for (shifts, index), (want_shifts, want_index) in zip(
                            got, _ref_factor_rows(want_table, raw)):
                        assert shifts.tobytes() == want_shifts.tobytes()
                        assert np.array_equal(index, want_index)

    @pytest.mark.parametrize("step", STEPS)
    def test_finite_diff_derivative_bits(self, step):
        x, xi = np.array([0.3, -0.7]), np.array([5.0, -11.0])
        for s in REFERENCE_SYMBOLS:
            for alpha, beta in [((0, 0), (0, 0)), ((1, 0), (0, 3)), ((2, 1), (1, 0)),
                                ((0, 0), (4, 4)), ((3, 1), (2, 2)), ((0, 8), (0, 0))]:
                got = finite_diff_derivative(s, alpha, beta, x, xi, step)
                want = complex(_ref_derivative(s, alpha, beta, x, xi, step))
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(),
                                                            want.imag.hex())


    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_fd_sum_bits(self, n):
        # reference: every prefix sum, in term order, and the last one read
        def accumulated(plans, vals):
            out = []
            for plan in plans:
                if plan is None:
                    out.append(np.zeros(n, dtype=np.complex128))
                elif plan is symbols._RAW:
                    out.append(vals[0])
                else:
                    rows, weights, denom = plan
                    terms = vals[rows] * weights[:, None]
                    out.append((np.add.accumulate(terms, axis=0)[-1] + 0.0) / denom)
            return out

        rng = np.random.default_rng(n)
        vals = rng.standard_normal((40, n)) * 10.0 ** rng.integers(-8, 9, (40, n))
        vals = vals + 1j * rng.standard_normal((40, n))
        vals[rng.random(vals.shape) < 0.2] = complex(-0.0, -0.0)
        plans = [None, symbols._RAW]
        for count in (1, 2, 9, 33):  # 9 and more rows: numpy would sum pairwise
            rows = rng.integers(0, 40, count)
            weights = rng.integers(-6, 7, count).astype(float)
            plans.append((rows, weights, 12.0 * count))
        plans.append((np.array([3, 3]), np.array([1.0, -1.0]), 2.0))  # exact 0
        got = symbols._fd_sum(plans, vals, n)
        for g, want in zip(got, accumulated(plans, vals), strict=True):
            assert np.array_equal(g.view(np.uint64), want.view(np.uint64))


class TestVerifySymbolClass:
    def test_constant_passes_with_unit_constant(self):
        s = constant_symbol(1.0)
        report = verify_symbol_class(s, SampleSpec(dim=1, xi_max=64.0), cap=10.0)
        assert report.global_pass
        assert report.entry((0,), (0,)).fitted_constant == pytest.approx(1.0)

    def test_sample_spec_and_cap_validation(self):
        for fields, match in (({"dim": 4}, "dim must be 1..3"),
                              ({"num_xi": 1}, "num_x >= 1 and num_xi >= 2"),
                              ({"num_x": 2, "num_xi": 2**13 + 1}, "larger than 2")):
            with pytest.raises(InvalidInputError, match=match):
                SampleSpec(**{"dim": 1, "xi_max": 64.0, **fields})
        with pytest.raises(InvalidInputError, match="cap must be positive"):
            verify_symbol_class(constant_symbol(1.0), SampleSpec(dim=1, xi_max=64.0),
                                cap=0.0)

    def test_global_pass_reads_the_entries(self):
        # a report built from its entries alone passes when every pair does
        good, bad = (DerivativeBoundEntry((0,), (b,), 1.0, (0.0,), (0.0,), ok)
                     for b, ok in ((0, True), (1, False)))
        assert DerivativeBoundReport(entries=[good], cap=10.0).global_pass
        assert not DerivativeBoundReport(entries=[good, bad], cap=10.0).global_pass

    def test_bessel_constants_small(self):
        # calculus oracle: |d^b <xi>^-1| <= b! <xi>^(-1-b), so the sharp
        # constants are 1, 1, 2, 6, 24 for b = 0..4
        s = with_params(bessel_multiplier(-1.0), Nprime=4)
        report = verify_symbol_class(s, SampleSpec(dim=1, xi_max=64.0), cap=25.0)
        assert report.global_pass
        for b, bound in ((0, 1.0), (1, 1.0), (2, 2.0), (3, 6.0), (4, 24.0)):
            fitted = report.entry((0,), (b,)).fitted_constant
            assert fitted <= bound + 0.05
        assert all(e.fitted_constant <= 3.0
                   for e in report.entries if sum(e.beta) <= 2)

    def test_wave_fails_full_gain_claim_but_passes_no_gain(self):
        # |d_xi e^{i<xi>}| = |xi|/<xi>: no decay gain, so rho = 1 must fail
        spec = SampleSpec(dim=1, xi_max=64.0)
        bad = with_params(wave_multiplier(0.0), rho=1.0, Nprime=2)
        report = verify_symbol_class(bad, spec, cap=10.0)
        assert not report.global_pass
        assert not report.entry((0,), (1,)).passed
        assert report.entry((0,), (1,)).fitted_constant > 30.0
        good = with_params(wave_multiplier(0.0), rho=0.0, Nprime=2)
        assert verify_symbol_class(good, spec, cap=10.0).global_pass

    def test_monotone_in_claimed_order(self):
        spec = SampleSpec(dim=1, xi_max=32.0)
        s = with_params(bessel_multiplier(-1.0), Nprime=2)
        low = verify_symbol_class(s, spec, cap=100.0)
        high = verify_symbol_class(with_params(s, m=0.0), spec, cap=100.0)
        for e_low, e_high in zip(low.entries, high.entries):
            assert e_high.fitted_constant <= e_low.fitted_constant + 1e-12

    def test_multiplier_reports_are_x_flat(self):
        s = with_params(bessel_multiplier(-1.0), N=2, Nprime=0)
        report = verify_symbol_class(s, SampleSpec(dim=1, xi_max=16.0), cap=5.0)
        for e in report.entries:
            if sum(e.alpha) >= 1:
                assert e.fitted_constant == 0.0

    def test_truncated_series_smoothness_shows_up(self):
        # long series with slow decay: high x-derivatives blow past the cap
        period = 2.0
        rough = trig_multiplication(smoothness_coefficients(1, 64), period, N=4)
        spec = SampleSpec(dim=1, xi_max=4.0, x_extent=1.0, num_x=24, num_xi=8)
        report = verify_symbol_class(rough, spec, cap=50.0)
        assert report.entry((4,), (0,)).fitted_constant > 50.0
        assert not report.global_pass

    def test_blocks_match_reference(self):
        # 1,152 samples and 2,000 terms at (alpha, beta) = ((1,), (7,)): the
        # samples are split over several blocks of about 2^20 points
        trig = trig_multiplication((0.3, -0.1), 2.0)
        s = counted_factors(with_params(
            separable_symbol(trig, bessel_multiplier(-1.0)), Nprime=8))
        spec = SampleSpec(dim=1, xi_max=64.0, num_x=24, num_xi=48, seed=3)
        report = verify_symbol_class(s, spec, cap=10.0)
        assert len(s.calls["x"]) >= 2
        assert _bits(report) == _bits(_ref_verify(s, spec, cap=10.0))

    def test_multiplier_evaluated_once_per_xi(self, monkeypatch):
        # 1,944 evaluation rows (the unshifted point and 1,943 distinct
        # offsets), each at the 48 xi samples of the first x, not at all 288
        s = with_params(bessel_multiplier(-1.0), Nprime=8)
        spec = SampleSpec(dim=3, xi_max=64.0, seed=11)
        calls = []
        plain_eval = Symbol.eval

        def counted_eval(self, x, xi):
            calls.append(np.shape(xi))
            return plain_eval(self, x, xi)

        monkeypatch.setattr(Symbol, "eval", counted_eval)
        report = verify_symbol_class(s, spec, cap=10.0)
        assert calls == [(1944, 48, 3)]
        # flat in x, so every maximum is tied across the x cloud: the
        # witness is the first sample, at x = 0
        assert all(e.witness_x == (0.0, 0.0, 0.0) for e in report.entries)

    def test_separable_factors_once_per_shift(self):
        # sep:2,6:-1 at d = 2: 1,626 evaluation rows, but 25 distinct x
        # shifts and 65 distinct xi shifts, each factor also at the
        # unshifted samples; the evaluator itself is not called
        trig = trig_multiplication(smoothness_coefficients(2, 6), 2.0)
        s = counted_factors(separable_symbol(trig, bessel_multiplier(-1.0)))
        verify_symbol_class(s, SampleSpec(dim=2, xi_max=64.0, seed=11), cap=10.0)
        assert s.calls == {"x": [(26, 288, 2)], "xi": [(66, 288, 2)], "eval": []}

    def test_overflow_raises_like_reference(self):
        s = with_params(bessel_multiplier(120.0), Nprime=4)
        spec = SampleSpec(dim=1, xi_max=1024.0)
        with pytest.raises(SymbolEvaluationError) as got:
            verify_symbol_class(s, spec, cap=10.0)
        with pytest.raises(SymbolEvaluationError) as want:
            _ref_verify(s, spec, cap=10.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("x_coeff, m", [(0.3, 120.0), (1e160, 60.0)])
    def test_separable_overflow_raises_like_reference(self, x_coeff, m):
        # a non-finite xi factor, and finite factors whose product overflows
        trig = trig_multiplication((x_coeff,), 2.0)
        s = with_params(separable_symbol(trig, bessel_multiplier(m)), Nprime=4)
        spec = SampleSpec(dim=1, xi_max=1024.0)
        with pytest.raises(SymbolEvaluationError) as got:
            verify_symbol_class(s, spec, cap=10.0)
        with pytest.raises(SymbolEvaluationError) as want:
            _ref_verify(s, spec, cap=10.0)
        assert str(got.value) == str(want.value)

    def test_first_bad_point_in_a_later_block(self):
        # the xi shift -2 step (the first offset used) fails only at the
        # last x sample, in the last block; +2 step fails in every block
        spec = SampleSpec(dim=1, xi_max=64.0, num_x=341, num_xi=48, seed=3)
        x_all, xi_all = spec.points()
        x_last = x_all[-1, 0]
        lo = xi_all.min() - 1.5 * spec.step
        hi = xi_all.max() + 1.5 * spec.step

        def trap(x, xi):
            out = np.ones(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]),
                          dtype=np.complex128)
            out[(x[..., 0] == x_last) & (xi[..., 0] < lo)] = np.inf
            out[xi[..., 0] > hi] = np.inf
            return out

        s = Symbol(trap, SymbolClassParams(m=0.0, Nprime=8), "general")
        with pytest.raises(SymbolEvaluationError) as got:
            verify_symbol_class(s, spec, cap=10.0)
        with pytest.raises(SymbolEvaluationError) as want:
            _ref_verify(s, spec, cap=10.0)
        assert str(got.value) == str(want.value)
        assert f"x=[{float(x_last)!r}]" in str(got.value)


class TestSchwartzSeminorm:
    def test_gaussian_sup(self):
        g = Grid(1, 512, 16.0)
        f = gaussian(g)
        assert schwartz_seminorm(f, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_first_moment_component(self):
        # sup |x exp(-x^2/2)| = exp(-1/2); the (N=1, N'=0) seminorm is the
        # max of that against the plain sup, hence 1
        g = Grid(1, 512, 16.0)
        f = gaussian(g)
        weighted = float(np.max(np.abs(g.axis_coords()) * np.abs(f.values)))
        assert weighted == pytest.approx(math.exp(-0.5), abs=1e-6)
        assert schwartz_seminorm(f, 1, 0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self, grid_1d):
        z = gaussian(grid_1d) * 0.0
        assert schwartz_seminorm(z, 2, 2) == 0.0

    def test_derivative_component(self):
        g = Grid(1, 512, 16.0)
        f = gaussian(g)
        # sup |d/dx exp(-x^2/2)| = exp(-1/2) < 1, so the seminorm stays 1
        assert schwartz_seminorm(f, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_guard_on_spectral_order(self, grid_1d):
        with pytest.raises(InvalidInputError):
            schwartz_seminorm(gaussian(grid_1d), 0, 5)
        for N, Nprime in ((-1, 0), (1.0, 0), (0, -1)):
            with pytest.raises(InvalidInputError, match="nonnegative integers"):
                schwartz_seminorm(gaussian(grid_1d), N, Nprime)
