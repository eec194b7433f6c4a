import math

import numpy as np
import pytest

from psidolab import (CZCheckConfig, Grid, InfeasibleBudgetError,
                      InvalidInputError, KernelDecayParams, MixedExponent,
                      NormBoundInputs, PreconditionError, SampledFunction,
                      Symbol, SymbolClassParams, apply_psido,
                      bessel_multiplier, condition_report, constant_symbol,
                      cz_condition_check, cz_sweep, decay_fit, default_levels,
                      dyadic_decompose, dyadic_envelope_check, kernel_sum,
                      make_cancellation_test_function,
                      operator_norm_estimate, smoothness_budget,
                      theorem_norm_bound, with_params)


# ---------------------------------------------------------------------------
# decay fits

class TestDecayFit:
    def test_bounded_kernel_envelope(self):
        # 1d order -2 kernel exp(-|z|)/2 is bounded near 0; with L = 1.5 the
        # predicted power is -0.5 and the envelope constant stays finite
        g = Grid(1, 2048, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, default_levels(g))
        k = kernel_sum(dd)
        fit = decay_fit(k, (0.1, 2.0), KernelDecayParams((0,), (0,), L=1.5))
        assert fit.passed and not fit.degenerate
        assert fit.predicted_exponent == pytest.approx(-0.5)
        assert np.isfinite(fit.envelope_constant)

    def test_degenerate_zero_kernel(self):
        g = Grid(1, 256, 8.0)
        dd = dyadic_decompose(constant_symbol(0.0), g, 2)
        k = kernel_sum(dd, x=[0.0])
        fit = decay_fit(k, (0.25, 2.0), KernelDecayParams((0,), (0,), L=1.0))
        assert fit.degenerate and fit.slope is None
        assert fit.envelope_constant == 0.0

    def test_rejects_inadmissible_L(self):
        # rho = 1/2: the minimum L is (1/2)(floor((d+m)/rho)+1) > 0
        g = Grid(1, 256, 8.0)
        dd = dyadic_decompose(with_params(bessel_multiplier(0.0), rho=0.5), g, 2)
        k = kernel_sum(dd)
        with pytest.raises(InvalidInputError, match="admissible"):
            decay_fit(k, (0.25, 2.0), KernelDecayParams((0,), (0,), L=0.0))

    def test_rejects_bad_window(self):
        g = Grid(1, 256, 8.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, 2)
        k = kernel_sum(dd)
        with pytest.raises(InvalidInputError, match="window"):
            decay_fit(k, (1e-4, 2.0), KernelDecayParams((0,), (0,), L=1.5))
        with pytest.raises(InvalidInputError, match="window"):
            decay_fit(k, (0.5, 7.9), KernelDecayParams((0,), (0,), L=1.5))

    def test_envelope_grows_with_window(self):
        # sup over a superset cannot shrink
        g = Grid(1, 2048, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, default_levels(g))
        k = kernel_sum(dd)
        params = KernelDecayParams((0,), (0,), L=1.5)
        small = decay_fit(k, (0.1, 1.0), params)
        big = decay_fit(k, (0.1, 2.0), params)
        assert big.envelope_constant >= small.envelope_constant - 1e-15


# ---------------------------------------------------------------------------
# ring envelopes

class TestDyadicEnvelope:
    def test_unit_order_rings_scale_exactly(self):
        # m = 0, M = 0: sup |k_j| doubles per ring, so r_j is flat
        g = Grid(1, 2048, 16.0)
        dd = dyadic_decompose(bessel_multiplier(0.0), g, 6)
        rep = dyadic_envelope_check(dd, 0, (0,), (0,))
        assert rep.exponent == pytest.approx(1.0)
        assert rep.ring_spread <= 1.1

    def test_flat_band_rings_vanish(self):
        # Nyquist = 1 grid: every ring lies beyond the band, only the cap
        # survives, so the unit symbol has pure piece-0 mass
        g = Grid(1, 64, 32.0 * math.pi)
        assert g.nyquist == pytest.approx(1.0)
        dd = dyadic_decompose(constant_symbol(1.0), g, 1)
        rep = dyadic_envelope_check(dd, 0, (0,), (0,), x=[0.0])
        assert rep.ratios[0] > 0.0
        assert all(r <= 1e-10 * rep.ratios[0] for r in rep.ratios[1:])
        assert rep.degenerate

    def test_weighted_envelope_changes_slope_by_two_rho(self):
        # raising M from 0 to 2 lowers the per-ring growth rate of the raw
        # suprema by rho * 2
        g = Grid(1, 4096, 16.0)
        s = bessel_multiplier(-1.0)
        dd = dyadic_decompose(s, g, 6)
        slopes = []
        for M in (0, 2):
            rep = dyadic_envelope_check(dd, M, (0,), (0,), pass_factor=100.0)
            sups = np.array(rep.suprema[2:])
            slopes.append(np.mean(np.log2(sups[1:] / sups[:-1])))
        assert slopes[1] - slopes[0] == pytest.approx(-2.0, abs=0.3)

    def test_validation(self):
        g = Grid(1, 512, 16.0)
        dd = dyadic_decompose(bessel_multiplier(-1.0), g, 3)
        with pytest.raises(InvalidInputError):
            dyadic_envelope_check(dd, -1, (0,), (0,))
        with pytest.raises(InvalidInputError):
            dyadic_envelope_check(dd, 12, (0,), (0,))  # M > Nprime
        with pytest.raises(InvalidInputError):
            dyadic_envelope_check(dd, 0, (0,), (3,))


# ---------------------------------------------------------------------------
# cancellation class

class TestCancellationFunction:
    def test_zero_mean_rows(self):
        g = Grid(2, 128, 4.0)
        f = make_cancellation_test_function(g, 1, 1.0, [0.0])
        h = g.spacing
        means = np.abs(f.values.sum(axis=1)) * h
        assert float(np.max(means)) <= 1e-12

    def test_support_mask_exact(self):
        g = Grid(2, 128, 4.0)
        f = make_cancellation_test_function(g, 1, 1.0, [0.0])
        x2 = g.meshgrid()[1]
        outside = np.abs(x2) > 1.0
        assert np.max(np.abs(f.values[outside])) == 0.0

    def test_rescaled_t_keeps_cancellation(self):
        g = Grid(2, 128, 4.0)
        for t in (0.5, 1.0, 2.0):
            f = make_cancellation_test_function(g, 1, t, [0.0])
            means = np.abs(f.values.sum(axis=1)) * g.spacing
            assert float(np.max(means)) <= 1e-12
            assert np.max(np.abs(f.values)) > 0

    def test_split_zero(self):
        g = Grid(1, 256, 4.0)
        f = make_cancellation_test_function(g, 0, 1.0, [0.0])
        assert abs(f.values.sum()) * g.spacing <= 1e-12

    def test_too_small_t(self):
        g = Grid(2, 64, 4.0)
        with pytest.raises(InvalidInputError, match="t"):
            make_cancellation_test_function(g, 1, 3 * g.spacing, [0.0])

    def test_slab_must_fit(self):
        g = Grid(2, 64, 4.0)
        with pytest.raises(InvalidInputError, match="box"):
            make_cancellation_test_function(g, 1, 1.0, [3.8])


class TestCZCondition:
    @staticmethod
    def _cfg(l, t, x0, pbar_inner, d, Nconst=3.0):
        full = MixedExponent(tuple(pbar_inner) + (2.0,) * (d - l), split=l)
        return CZCheckConfig(l=l, t=t, x0prime=x0, Nconst=Nconst, pbar=full)

    def test_identity_symbol_gives_zero_ratio(self):
        g = Grid(2, 64, 4.0)
        f = make_cancellation_test_function(g, 1, 1.0, [0.0])
        cfg = self._cfg(1, 1.0, [0.0], (2.0,), 2)
        rep = cz_condition_check(lambda u: apply_psido(constant_symbol(1.0), u),
                                 cfg, f)
        assert rep.ratio == 0.0

    def test_nonzero_mean_rejected_with_diagnostic(self):
        g = Grid(2, 64, 4.0)
        x2 = g.meshgrid()[1]
        fvals = np.where(np.abs(x2) < 1.0, 1.0, 0.0)
        f = SampledFunction(g, fvals)
        cfg = self._cfg(1, 1.0, [0.0], (2.0,), 2)
        with pytest.raises(PreconditionError, match="zero-mean"):
            cz_condition_check(lambda u: u, cfg, f)

    def test_support_escape_rejected(self):
        g = Grid(2, 64, 4.0)
        f = make_cancellation_test_function(g, 1, 2.0, [0.0])
        cfg = self._cfg(1, 0.5, [0.0], (2.0,), 2)
        with pytest.raises(PreconditionError, match="slab"):
            cz_condition_check(lambda u: u, cfg, f)

    def test_translation_invariance(self):
        g = Grid(2, 64, 4.0)
        s = bessel_multiplier(-4.0)
        apply_fn = lambda u: apply_psido(s, u)  # noqa: E731
        f = make_cancellation_test_function(g, 1, 0.5, [0.0])
        cfg0 = self._cfg(1, 0.5, [0.0], (2.0,), 2)
        base = cz_condition_check(apply_fn, cfg0, f)
        shift_cells = 11
        shifted = SampledFunction(g, np.roll(f.values, shift_cells, axis=1))
        x0 = shift_cells * g.spacing
        cfg1 = self._cfg(1, 0.5, [x0], (2.0,), 2)
        moved = cz_condition_check(apply_fn, cfg1, shifted)
        assert moved.ratio == pytest.approx(base.ratio, abs=1e-10)

    def test_sweep_ratios_stable(self):
        g = Grid(2, 64, 4.0)
        s = bessel_multiplier(-4.0)
        reports = cz_sweep(lambda u: apply_psido(s, u), g, 1, [0.0], 3.0,
                           MixedExponent((2.0, 2.0), split=1), (0.5, 1.0))
        ratios = [r.ratio for r in reports]
        assert all(np.isfinite(ratios))
        assert max(ratios) <= 10 * np.median(ratios)


# ---------------------------------------------------------------------------
# norm bound formula

class TestTheoremNormBound:
    def test_printed_product(self):
        val = theorem_norm_bound(NormBoundInputs(MixedExponent((2.0, 2.0)),
                                                 c1=1.0, cq=1.0, cprime=1.0))
        assert val == pytest.approx(8.0)

    def test_single_axis_factor(self):
        val = theorem_norm_bound(NormBoundInputs(MixedExponent((1.5,)),
                                                 c1=1.0, cq=1.0, cprime=1.0))
        assert val == pytest.approx(2.0 ** (2.0 / 3.0) * 2.0)

    def test_linear_in_constants(self):
        p = MixedExponent((2.0, 3.0))
        one = theorem_norm_bound(NormBoundInputs(p, c1=1.0, cq=1.0))
        two = theorem_norm_bound(NormBoundInputs(p, c1=2.0, cq=2.0))
        assert two == pytest.approx(2.0 * one)

    def test_permutation_symmetry(self):
        a = theorem_norm_bound(NormBoundInputs(MixedExponent((2.0, 5.0, 3.0)),
                                               c1=0.7, cq=1.3))
        b = theorem_norm_bound(NormBoundInputs(MixedExponent((5.0, 3.0, 2.0)),
                                               c1=0.7, cq=1.3))
        assert a == pytest.approx(b, rel=1e-15)

    def test_positive_inputs_required(self):
        with pytest.raises(InvalidInputError):
            NormBoundInputs(MixedExponent((2.0,)), c1=-1.0, cq=1.0)


# ---------------------------------------------------------------------------
# operator norms

class TestOperatorNorm:
    def test_constant_symbol_every_method(self):
        g = Grid(1, 128, 8.0)
        s = constant_symbol(-2.5)
        for method, p in (("power_iteration_p2", MixedExponent((2.0,))),
                          ("random_ascent", MixedExponent((4.0,)))):
            est = operator_norm_estimate(s, g, p, method, budget=60)
            assert est.value == pytest.approx(2.5, abs=1e-6)

    def test_power_iteration_finds_multiplier_sup(self):
        g = Grid(1, 512, 8.0)
        est = operator_norm_estimate(bessel_multiplier(-1.0), g,
                                     MixedExponent((2.0,)),
                                     "power_iteration_p2", budget=200)
        assert est.value == pytest.approx(1.0, rel=0.02)

    def test_ascent_never_beats_power_iteration_at_p2(self):
        g = Grid(1, 128, 8.0)
        s = bessel_multiplier(-1.0)
        power = operator_norm_estimate(s, g, MixedExponent((2.0,)),
                                       "power_iteration_p2", budget=300)
        ascent = operator_norm_estimate(s, g, MixedExponent((2.0,)),
                                        "random_ascent", budget=300)
        assert ascent.value <= power.value + 1e-6

    def test_mixed_exponent_hill_climb_runs(self):
        g = Grid(2, 16, 4.0)
        est = operator_norm_estimate(bessel_multiplier(-1.0), g,
                                     MixedExponent((2.0, 3.0)),
                                     "random_ascent", budget=40, seed=1)
        assert 0 < est.value <= 1.5

    def test_zero_operator_every_method(self):
        # the adjoint ascent start of a zero operator vanishes; it is skipped
        g = Grid(1, 32, 4.0)
        for method, p in (("power_iteration_p2", MixedExponent((2.0,))),
                          ("random_ascent", MixedExponent((4.0,)))):
            est = operator_norm_estimate(constant_symbol(0), g, p, method)
            assert (est.value, est.converged) == (0.0, True)

    def test_power_iteration_requires_p2(self):
        g = Grid(1, 64, 8.0)
        with pytest.raises(InvalidInputError):
            operator_norm_estimate(constant_symbol(1.0), g,
                                   MixedExponent((3.0,)),
                                   "power_iteration_p2", budget=10)


class TestNecessaryConditionProbe:
    @staticmethod
    def _unit_multiplier():
        return Symbol(lambda x, xi: np.ones(np.broadcast_shapes(
            x.shape[:-1], xi.shape[:-1]), dtype=complex),
            SymbolClassParams(m=0.0), "multiplier",
            xi_factor=lambda xi: np.ones(xi.shape[:-1], dtype=complex))

    def test_unit_symbol_is_flat(self):
        from psidolab import necessary_condition_probe
        rep = necessary_condition_probe(self._unit_multiplier(), 4.0,
                                        (16, 32), half_extent=4.0, budget=40)
        assert all(abs(e - 1.0) <= 1e-6 for e in rep.estimates)
        assert not rep.grows

    def test_probe_preconditions(self):
        from psidolab import necessary_condition_probe
        with pytest.raises(InvalidInputError):
            necessary_condition_probe(constant_symbol(1.0), 4.0, (16, 32),
                                      half_extent=4.0)
        with pytest.raises(InvalidInputError):
            necessary_condition_probe(self._unit_multiplier(), 2.0, (16, 32),
                                      half_extent=4.0)


# ---------------------------------------------------------------------------
# condition predicates

class TestConditionReport:
    def test_full_gain_boundary(self):
        rep = condition_report(0.0, 1.0, 0.0, 1, 4.0)
        assert rep.necessary_lp and rep.sufficient_thm32
        assert rep.necessary_margins[0] == pytest.approx(0.0)
        assert rep.sufficient_margin == pytest.approx(0.0)

    def test_half_gain_thresholds_d1(self):
        rep = condition_report(0.0, 0.5, 0.0, 1, 4.0)
        assert rep.necessary_rhs[0] == pytest.approx(-0.125)
        assert rep.sufficient_rhs == pytest.approx(-1.25)
        assert not rep.necessary_lp and not rep.sufficient_thm32

    def test_half_gain_threshold_d2(self):
        rep = condition_report(-2.0, 0.5, 0.0, 2, 4.0)
        assert rep.sufficient_rhs == pytest.approx(-1.75)
        assert rep.sufficient_thm32

    def test_margin_linear_in_m(self):
        base = condition_report(-1.0, 0.5, 0.0, 2, 3.0)
        bumped = condition_report(-1.0 + 0.25, 0.5, 0.0, 2, 3.0)
        assert base.sufficient_margin - bumped.sufficient_margin == pytest.approx(0.25)
        assert (base.necessary_margins[0] - bumped.necessary_margins[0]
                == pytest.approx(0.25))

    def test_mixed_exponent_componentwise(self):
        rep = condition_report(0.0, 0.5, 0.0, 2, MixedExponent((2.0, 4.0)))
        assert rep.necessary_rhs[0] == pytest.approx(0.0)
        assert rep.necessary_rhs[1] == pytest.approx(-0.25)
        assert not rep.necessary_lp


# ---------------------------------------------------------------------------
# smoothness budget

def brute_force_budget(d, m, rho, delta, search_cap=60):
    """Independent oracle: scan even integers, checking the printed
    inequalities literally."""
    fe = d if d % 2 == 0 else d - 1
    evens = range(0, search_cap + 1, 2)
    N = next(n for n in evens
             if n > ((3 - delta) * d + (5 - delta) * (1 - delta)) / (1 - delta) ** 2)
    Np = next(n for n in evens
              if n > 6 * d + 12 and n >= d + 1 and n > (d + m + 1) / rho)
    M = 0
    assert N - M > (d + (fe + 2) * delta) / (1 - delta)
    assert N - M >= (-m + (1 - delta) * d + (fe + 2) * delta) / (1 - delta)
    Mp = next(n for n in evens
              if Np - n >= fe + 2 and n >= d + 1 and n > (d + m + 1) / rho
              and n >= d)
    return N, Np, M, Mp


class TestSmoothnessBudget:
    def test_reference_case_d1(self):
        b = smoothness_budget(1, 0.0, 1.0, 0.0)
        assert (b.N, b.Nprime, b.M, b.Mprime) == (10, 20, 0, 4)
        assert (b.N, b.Nprime, b.M, b.Mprime) == brute_force_budget(1, 0.0, 1.0, 0.0)

    def test_reference_case_d2_half_delta(self):
        b = smoothness_budget(2, 0.0, 1.0, 0.5)
        assert (b.N, b.Nprime) == (30, 26)
        assert (b.N, b.Nprime, b.M, b.Mprime) == brute_force_budget(2, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [0.0, -1.0, -3.0])
    @pytest.mark.parametrize("rho", [1.0, 0.75, 0.5])
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_matches_brute_force_grid(self, d, m, rho, delta):
        b = smoothness_budget(d, m, rho, delta)
        assert (b.N, b.Nprime, b.M, b.Mprime) == brute_force_budget(d, m, rho, delta)
        assert b.all_satisfied

    def test_nprime_independent_of_delta_when_main_binds(self):
        vals = {smoothness_budget(1, 0.0, 1.0, dl).Nprime for dl in (0.0, 0.3, 0.6)}
        assert vals == {20}

    def test_self_verification(self):
        b = smoothness_budget(2, -1.0, 0.8, 0.2)
        names = [name for name, *_ in b.verify()]
        assert "Mprime_duality" in names and "Nprime_kernel" in names
        assert b.all_satisfied

    def test_infeasible_window_raises_with_binding_constraints(self):
        # rho tiny: M' must exceed (d+m+1)/rho, colliding with the N' gap
        with pytest.raises(InfeasibleBudgetError, match="Mprime_kernel"):
            smoothness_budget(1, 0.0, 0.05, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            smoothness_budget(1, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            smoothness_budget(1, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            smoothness_budget(0, 0.0, 1.0, 0.0)
