import math
from dataclasses import replace

import numpy as np
import pytest

from psidolab import (Grid, InvalidInputError, SampleSpec, Symbol,
                      SymbolClassParams, SymbolEvaluationError,
                      bessel_multiplier, constant_symbol, eval_symbol,
                      finite_diff_derivative, schwartz_seminorm,
                      trig_multiplication, smoothness_coefficients,
                      verify_symbol_class, wave_multiplier, with_params)
from conftest import gaussian


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


class TestVerifySymbolClass:
    def test_constant_passes_with_unit_constant(self):
        s = constant_symbol(1.0)
        report = verify_symbol_class(s, SampleSpec(dim=1, xi_max=64.0), cap=10.0)
        assert report.global_pass
        assert report.entry((0,), (0,)).fitted_constant == pytest.approx(1.0)

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

    def test_report_csv(self, tmp_path):
        report = verify_symbol_class(constant_symbol(1.0),
                                     SampleSpec(dim=1, xi_max=8.0), cap=2.0)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "alpha,beta,fitted_C,witness_x,witness_xi,pass"


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
