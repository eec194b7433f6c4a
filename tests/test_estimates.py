import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psidolab import (CZCheckConfig, Grid, InfeasibleBudgetError,
                      InvalidInputError, KernelDecayParams, MixedExponent,
                      NormBoundInputs, PreconditionError, SampledFunction,
                      Symbol, SymbolClassParams, apply_psido,
                      bessel_multiplier, builtin_symbols, condition_report,
                      constant_symbol,
                      cz_condition_check, cz_sweep, decay_fit, default_levels,
                      dyadic_decompose, dyadic_envelope_check, kernel_sum,
                      make_cancellation_test_function,
                      operator_norm_estimate, smoothness_budget,
                      smoothness_coefficients, theorem_norm_bound,
                      trig_multiplication, wave_multiplier, with_params)
from psidolab import cli, estimates
from psidolab.mixed_norm import (_abs_power, holder_dual, iterated_pnorm,
                                 pnorm_levels)
from psidolab.operators import operator_plan


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
        # rho = 0 admits no L at all
        wave = kernel_sum(dyadic_decompose(wave_multiplier(0.0), g, 2))
        with pytest.raises(InvalidInputError, match="need rho > 0"):
            decay_fit(wave, (0.25, 2.0), KernelDecayParams((0,), (0,), L=0.0))
        # rho = 1 admits L = 0, where m = -5 leaves the exponent d + m + L <= 0
        low = kernel_sum(dyadic_decompose(bessel_multiplier(-5.0), g, 2))
        with pytest.raises(InvalidInputError, match="= -4.0 must be positive"):
            decay_fit(low, (0.25, 2.0), KernelDecayParams((0,), (0,), L=0.0))

    def test_rejects_bad_window(self):
        g = Grid(1, 256, 8.0)
        dd = dyadic_decompose(bessel_multiplier(-2.0), g, 2)
        k = kernel_sum(dd)
        with pytest.raises(InvalidInputError, match="window"):
            decay_fit(k, (1e-4, 2.0), KernelDecayParams((0,), (0,), L=1.5))
        with pytest.raises(InvalidInputError, match="window"):
            decay_fit(k, (0.5, 7.9), KernelDecayParams((0,), (0,), L=1.5))
        # inside the band, but strictly between two grid radii
        with pytest.raises(InvalidInputError, match="no grid points"):
            decay_fit(k, (2.1 * g.spacing, 2.9 * g.spacing),
                      KernelDecayParams((0,), (0,), L=1.5))

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

    @pytest.mark.parametrize("m, spread, passed", [(-1.25, 2.649, True),
                                                    (-1.3, 3.150, False)])
    def test_ring_spread_passes_up_to_three(self, m, spread, passed):
        # claiming m = -1.25 or -1.3 for <xi>^-1 tilts r_j by 2^(0.25 j) or
        # 2^(0.3 j): spreads either side of ENVELOPE_PASS_FACTOR = 3
        g = Grid(1, 2048, 16.0)
        dd = dyadic_decompose(with_params(bessel_multiplier(-1.0), m=m), g, 6)
        rep = dyadic_envelope_check(dd, 0, (0,), (0,))
        assert estimates.ENVELOPE_PASS_FACTOR == 3.0
        assert rep.ring_spread == pytest.approx(spread, abs=1e-3)
        assert rep.passed is passed and not rep.degenerate

    def test_alpha_envelopes_vanish_for_x_independent_symbols(self):
        # d_x^alpha of an x-independent symbol is zero on every ring, so the
        # report is degenerate; an x-dependent symbol is refused
        g = Grid(1, 256, 8.0)
        dd = dyadic_decompose(bessel_multiplier(-1.0), g, 3)
        rep = dyadic_envelope_check(dd, 0, (1,), (0,))
        assert rep.ratios == rep.suprema == (0.0,) * 4
        assert rep.ring_spread is None and rep.passed and rep.degenerate
        dd = dyadic_decompose(cli.parse_symbol_spec("sep:2,6:-1", 16.0), g, 3)
        with pytest.raises(InvalidInputError, match="x-independent"):
            dyadic_envelope_check(dd, 0, (1,), (0,))

    def test_weighted_envelope_changes_slope_by_two_rho(self):
        # raising M from 0 to 2 lowers the per-ring growth rate of the raw
        # suprema by rho * 2
        g = Grid(1, 4096, 16.0)
        s = bessel_multiplier(-1.0)
        dd = dyadic_decompose(s, g, 6)
        slopes = []
        for M in (0, 2):
            rep = dyadic_envelope_check(dd, M, (0,), (0,))
            sups = np.array(rep.suprema[2:])
            slopes.append(np.mean(np.log2(sups[1:] / sups[:-1])))
        assert slopes[1] - slopes[0] == pytest.approx(-2.0, abs=0.3)

    def test_ratio_beyond_the_float_range_of_2_je(self):
        # 2^(3 * 346) overflows a float, 2^(3 * -399) underflows to zero;
        # every supremum is finite and so is every ratio
        g = Grid(1, 64, 16.0)
        high = dyadic_envelope_check(
            dyadic_decompose(bessel_multiplier(345.0), g, 3), 0, (0,), (0,))
        assert high.exponent == 346.0
        assert high.ratios[3] == math.ldexp(high.suprema[3], -1038)
        assert high.ratios[3] == pytest.approx(1.25e-37, rel=1e-2)
        low = dyadic_envelope_check(
            dyadic_decompose(bessel_multiplier(-400.0), g, 3), 0, (0,), (0,))
        assert low.exponent == -399.0
        assert low.ratios[3] == math.ldexp(low.suprema[3], 1197)
        for rep in (high, low):
            assert all(math.isfinite(r) and r > 0.0 for r in rep.ratios)
            # the ratios 2^(j e) holds as a float keep the plain quotient's bits
            for j in range(3):
                assert rep.ratios[j] == rep.suprema[j] / 2.0 ** (j * rep.exponent)

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
        f = make_cancellation_test_function(g, 1.0, [0.0])
        h = g.spacing
        means = np.abs(f.values.sum(axis=1)) * h
        assert float(np.max(means)) <= 1e-12

    def test_support_mask_exact(self):
        g = Grid(2, 128, 4.0)
        f = make_cancellation_test_function(g, 1.0, [0.0])
        x2 = g.meshgrid()[1]
        outside = np.abs(x2) > 1.0
        assert np.max(np.abs(f.values[outside])) == 0.0

    def test_rescaled_t_keeps_cancellation(self):
        g = Grid(2, 128, 4.0)
        for t in (0.5, 1.0, 2.0):
            f = make_cancellation_test_function(g, t, [0.0])
            means = np.abs(f.values.sum(axis=1)) * g.spacing
            assert float(np.max(means)) <= 1e-12
            assert np.max(np.abs(f.values)) > 0

    def test_split_zero(self):
        g = Grid(1, 256, 4.0)
        f = make_cancellation_test_function(g, 1.0, [0.0])
        assert abs(f.values.sum()) * g.spacing <= 1e-12

    def test_too_small_t(self):
        g = Grid(2, 64, 4.0)
        with pytest.raises(InvalidInputError, match="t"):
            make_cancellation_test_function(g, 3 * g.spacing, [0.0])

    def test_slab_must_fit(self):
        g = Grid(2, 64, 4.0)
        with pytest.raises(InvalidInputError, match="box"):
            make_cancellation_test_function(g, 1.0, [3.8])
        with pytest.raises(InvalidInputError, match=r"y' has shape \(3,\)"):
            make_cancellation_test_function(g, 1.0, [0.0, 0.0, 0.0])


class TestCZCondition:
    @staticmethod
    def _cfg(t, x0, pbar, Nconst=3.0):
        return CZCheckConfig(t=t, x0prime=x0, Nconst=Nconst, pbar=pbar)

    def test_split_is_the_count_of_inner_exponents(self):
        assert [f.name for f in dataclasses.fields(CZCheckConfig)] == [
            "t", "x0prime", "Nconst", "pbar"]
        for pbar in ((), (2.0,), (2, 3)):
            cfg = CZCheckConfig(t=1.0, x0prime=[0.0], Nconst=3.0, pbar=pbar)
            assert cfg.l == len(pbar) and cfg.pbar == tuple(map(float, pbar))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError, match="t must be positive"):
            self._cfg(0.0, [0.0], (2.0,))
        with pytest.raises(InvalidInputError, match="Nconst must exceed 1"):
            self._cfg(1.0, [0.0], (2.0,), Nconst=1.0)
        # l = d inner exponents leave no trailing axis
        f = make_cancellation_test_function(Grid(1, 64, 4.0), 1.0, [0.0])
        with pytest.raises(InvalidInputError, match=r"split l = 1 outside 0\.\.0"):
            cz_condition_check(lambda u: u, self._cfg(1.0, [], (2.0,)), f)

    def test_identity_symbol_gives_zero_ratio(self):
        g = Grid(2, 64, 4.0)
        f = make_cancellation_test_function(g, 1.0, [0.0])
        cfg = self._cfg(1.0, [0.0], (2.0,))
        rep = cz_condition_check(lambda u: apply_psido(constant_symbol(1.0), u),
                                 cfg, f)
        assert rep.ratio == 0.0

    def test_nonzero_mean_rejected_with_diagnostic(self):
        g = Grid(2, 64, 4.0)
        x2 = g.meshgrid()[1]
        fvals = np.where(np.abs(x2) < 1.0, 1.0, 0.0)
        f = SampledFunction(g, fvals)
        cfg = self._cfg(1.0, [0.0], (2.0,))
        with pytest.raises(PreconditionError, match="zero-mean"):
            cz_condition_check(lambda u: u, cfg, f)

    def test_support_escape_rejected(self):
        g = Grid(2, 64, 4.0)
        f = make_cancellation_test_function(g, 2.0, [0.0])
        cfg = self._cfg(0.5, [0.0], (2.0,))
        with pytest.raises(PreconditionError, match="slab"):
            cz_condition_check(lambda u: u, cfg, f)

    @pytest.mark.parametrize("d, n, l, seed", [
        (1, 64, 0, 1), (2, 32, 0, 2), (2, 32, 1, 3), (3, 16, 1, 4), (3, 16, 2, 5)])
    def test_escape_reports_the_reach_of_every_support_point(self, d, n, l, seed):
        # the reach is taken per trailing axis over the support's
        # projection: the maximum the coordinate stack of the support gives
        g = Grid(d, n, 4.0)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1.0, 1.0, d - l)
        for density in (0.02, 0.3):
            values = np.where(rng.uniform(size=g.shape) < density,
                              rng.standard_normal(g.shape), 0.0)
            mask = np.abs(values) > 1e-14
            reach = np.max(np.abs(g.coord_stack()[mask][:, l:] - x0), axis=-1).max()
            cfg = CZCheckConfig(t=0.5 * reach, x0prime=x0, Nconst=3.0,
                                pbar=(2.0,) * l)
            with pytest.raises(PreconditionError) as err:
                cz_condition_check(lambda u: u, cfg, SampledFunction(g, values))
            assert f"support escapes the slab: |x' - x0'|_inf reaches {reach:.6g} " \
                in str(err.value)

    def test_translation_invariance(self):
        g = Grid(2, 64, 4.0)
        s = bessel_multiplier(-4.0)
        apply_fn = lambda u: apply_psido(s, u)  # noqa: E731
        f = make_cancellation_test_function(g, 0.5, [0.0])
        cfg0 = self._cfg(0.5, [0.0], (2.0,))
        base = cz_condition_check(apply_fn, cfg0, f)
        shift_cells = 11
        shifted = SampledFunction(g, np.roll(f.values, shift_cells, axis=1))
        x0 = shift_cells * g.spacing
        cfg1 = self._cfg(0.5, [x0], (2.0,))
        moved = cz_condition_check(apply_fn, cfg1, shifted)
        assert moved.ratio == pytest.approx(base.ratio, abs=1e-10)

    def test_sweep_ratios_stable(self):
        g = Grid(2, 64, 4.0)
        s = bessel_multiplier(-4.0)
        reports = cz_sweep(lambda u: apply_psido(s, u), g, [0.0], 3.0, (2.0,),
                           (0.5, 1.0))
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

# random_ascent results at budget 60, seeds 0, 1, 2, as (value.hex(),
# converged, iterations), on Grid(1, 128, 8.0) for d = 1 and Grid(2, 32, 4.0)
# for d = 2: every exponent gap of a uniform p is 0, so the duality map's
# level factors must leave these bits alone
UNIFORM_ASCENT = {
    ("wave:0", 4.0, 1): [("0x1.d4b8e423d41b9p+0", True, 60)] * 3,
    ("wave:0", 4.0, 2): [("0x1.987560f7d6505p+1", True, 60)] * 3,
    ("wave:0", 4.0 / 3.0, 1): [("0x1.d4b8e423cbfbap+0", True, 60)] * 3,
    ("wave:0", 4.0 / 3.0, 2): [("0x1.987560f7d7fdap+1", True, 60)] * 3,
    ("bessel:-1", 4.0, 1): [("0x1.0000000000000p+0", True, 60)] * 3,
    ("bessel:-1", 4.0, 2): [("0x1.0000000000001p+0", True, 60)] * 3,
    ("bessel:-1", 4.0 / 3.0, 1): [("0x1.fffffffffffffp-1", True, 60)] * 3,
    ("bessel:-1", 4.0 / 3.0, 2): [("0x1.0000000000000p+0", True, 60)] * 3,
}

# random_ascent results at the default budget 300, seeds 0, 1, 2, as
# (value.hex(), reason, iterations), on Grid(2, 32, 4.0) for the 2-d
# exponents and Grid(3, 16, 4.0) for (2, 4, 1.25): the duality map's level
# factors and the operator plan's applies must leave these bits alone
MIXED_ASCENT = {
    ("bessel:-1", (3.0, 1.5)): [
        ("0x1.0000000000001p+0", "settled", 156),
        ("0x1.0000000000001p+0", "settled", 155),
        ("0x1.0000000000001p+0", "settled", 157),
    ],
    ("bessel:-1", (1.5, 3.0)): [
        ("0x1.0000000000004p+0", "settled", 157),
        ("0x1.0000000000004p+0", "settled", 156),
        ("0x1.0000000000004p+0", "settled", 159),
    ],
    ("wave:0", (3.0, 1.5)): [("0x1.fd08b6bffc87cp+0", "settled", 229)] * 3,
    ("wave:0", (1.5, 3.0)): [
        ("0x1.fd08b6bfd4c21p+0", "settled", 214),
        ("0x1.fd08b6bf9a084p+0", "settled", 230),
        ("0x1.fd08b6bf9a084p+0", "settled", 230),
    ],
    ("bessel:-1", (2.0, 4.0, 1.25)): [("0x1.0000000000000p+0", "settled", 26)] * 3,
}

# On Grid(1, 128, 8.0) and Grid(2, 32, 4.0) the kernel of bessel:-1 is
# nonnegative, so its bracket is [1, 1] in closed form and the public
# estimate stops at its first apply, that of the plane-wave start 0:
# (value.hex(), reason, iterations).  The pins above hold, for these
# cases, the ascent run with the bracket left open; every other pin holds
# the public estimate.
CLOSED_FORM_ASCENT = {
    ("bessel:-1", (4.0,)): ("0x1.0000000000000p+0", "bracket_closed", 1),
    ("bessel:-1", (4.0, 4.0)): ("0x1.fffffffffffffp-1", "bracket_closed", 1),
    ("bessel:-1", (4.0 / 3.0,)): ("0x1.fffffffffffffp-1", "bracket_closed", 1),
    ("bessel:-1", (4.0 / 3.0,) * 2): ("0x1.0000000000000p+0", "bracket_closed", 1),
    ("bessel:-1", (3.0, 1.5)): ("0x1.0000000000000p+0", "bracket_closed", 1),
    ("bessel:-1", (1.5, 3.0)): ("0x1.ffffffffffff7p-1", "bracket_closed", 1),
}

ASCENT_SYMBOLS = {"wave:0": lambda: wave_multiplier(0.0),
                  "bessel:-1": lambda: bessel_multiplier(-1.0)}


def coupled_symbol():
    """(1 + 0.3 cos x_1 + 0.2i sin x_d xi_1) / (1 + |xi|^2): rank two."""
    return Symbol(lambda x, xi: (1.0 + 0.3 * np.cos(x[..., 0])
                                 + 0.2j * np.sin(x[..., -1]) * xi[..., 0])
                  / (1.0 + np.sum(xi**2, axis=-1)),
                  SymbolClassParams(m=-1.0), "general", label="coupled")


def reference_ascent(s, grid, p, budget, rng, peak, plane, upper,
                     histories=None):
    """The schedule of `estimates._boyd_ascent` (a screening round of 4
    iterations, then successive halving) with every start on its own, a
    stack of one sample, each iteration in start order; appends each
    start's ratios to histories if given."""
    pp, qq = p.p, holder_dual(p).p
    h = grid.spacing
    plan = operator_plan(s, grid)
    xs = [start[None] / iterated_pnorm(start, h, pp)
          for start in estimates._ascent_starts(s, plan, peak, rng)
          if start.any()]
    ratios = [[] for _ in xs]
    if histories is not None:
        histories.extend(ratios)
    settled = [False] * len(xs)
    live, contenders = list(range(len(xs))), list(range(len(xs)))
    k, screening, top, used = 4, True, 0.0, 0
    while live and used < budget:
        for _ in range(k):
            for j in list(live):
                if used == budget:
                    break
                used += 1
                y = plan.apply(xs[j])
                levels = pnorm_levels(y, h, pp)
                ratio = levels[-1].item()
                prev = ratios[j][-1] if ratios[j] else -1.0
                ratios[j].append(ratio)
                top = max(top, ratio)
                closed = estimates._closed(max(top, plane), upper)
                if closed:
                    return top, closed, used
                if abs(ratio - prev) <= 1e-10 * max(ratio, 1.0):
                    settled[j] = True
                    live.remove(j)
                    continue
                z = plan.adjoint(estimates._duality_map(y, h, pp, levels))
                if not z.any():
                    settled[j] = True
                    live.remove(j)
                    continue
                x = estimates._duality_map(z, h, qq)
                xs[j] = x / iterated_pnorm(x[0], h, pp)
        best = [max(r, default=0.0) for r in ratios]
        lead = max(contenders, key=best.__getitem__)
        # behind the lead, settled starts and starts not above plane leave
        contenders = [j for j in contenders
                      if j == lead or not settled[j] and best[j] > plane]
        if not screening:   # successive halving: the better half, rounded up
            contenders = sorted(sorted(contenders, key=lambda j: -best[j])
                                [:(len(contenders) + 1) // 2])
        live = [j for j in live if j in contenders]
        # round 1 gives the live starts half the budget left; then k doubles
        k = max(4, (budget - used) // (2 * len(live) or 1)) if screening else 2 * k
        screening = False
    best = [max(r, default=0.0) for r in ratios]
    lead = max(contenders, key=best.__getitem__)
    return top, "settled" if settled[lead] else "budget", used


def stacked_and_reference(s, g, p, budget, seed, plane, upper):
    """(value.hex(), reason, iterations) of the stack and of the reference."""
    p = MixedExponent(p)
    peak, _, _ = estimates._norm_bracket(s, g, p)
    runs = [fn(s, g, p, budget, np.random.default_rng(seed), peak, plane, upper)
            for fn in (estimates._boyd_ascent, reference_ascent)]
    return [(value.hex(), reason, used) for value, reason, used in runs]


# (spec, d, n, p): multiplier, separable and general symbols at d = 1..3,
# uniform and mixed exponents
STACK_CASES = [
    ("bessel:-1", 1, 64, (4.0,)), ("wave:0", 1, 128, (1.5,)),
    ("sep:2,6:-1", 1, 64, (3.0,)), ("general", 1, 32, (4.0,)),
    ("wave:0", 2, 16, (3.0, 1.5)), ("bessel:-1", 2, 32, (4.0, 4.0)),
    ("sep:2,6:-1", 2, 16, (1.5, 3.0)), ("general", 2, 8, (3.0, 1.5)),
    ("bessel:-1", 3, 8, (2.0, 4.0, 1.25)), ("sep:2,6:-1", 3, 8, (4.0, 4.0, 4.0)),
    ("general", 3, 8, (1.5, 3.0, 2.0)),
]


def stack_symbol(spec, g):
    if spec == "general":
        return coupled_symbol()
    return cli.parse_symbol_spec(spec, 2.0 * g.half_extent)


class TestOperatorNorm:
    def test_constant_symbol_every_method(self):
        s = constant_symbol(-2.5)
        for grid, method, p in (
                (Grid(1, 128, 8.0), "power_iteration_p2", MixedExponent((2.0,))),
                (Grid(1, 128, 8.0), "random_ascent", MixedExponent((4.0,))),
                (Grid(2, 32, 4.0), "random_ascent", MixedExponent((3.0, 1.5)))):
            est = operator_norm_estimate(s, grid, p, method, budget=60)
            assert est.value == pytest.approx(2.5, abs=1e-6)

    def test_power_iteration_finds_multiplier_sup(self):
        g = Grid(1, 512, 8.0)
        est = operator_norm_estimate(bessel_multiplier(-1.0), g,
                                     MixedExponent((2.0,)),
                                     "power_iteration_p2", budget=200)
        assert est.value == pytest.approx(1.0, rel=0.02)

    def test_power_iteration_starts_at_the_top_plane_wave(self):
        # <xi>^1 peaks at the corners of the dual grid, outside the band a
        # random band-limited start reaches; the plane wave there is an
        # eigenfunction, so the first apply closes [max|b|, max|b|]
        est = operator_norm_estimate(bessel_multiplier(1.0), Grid(1, 512, 8.0),
                                     MixedExponent((2.0,)), "power_iteration_p2")
        assert est.value == pytest.approx(100.53593838, rel=1e-10)
        assert (est.reason, est.converged, est.iterations) == ("bracket_closed", True, 1)
        assert est.lower == est.upper == pytest.approx(est.value, rel=1e-15)

    def test_power_iteration_on_a_multiplication_starts_at_the_delta(self):
        # trig:2,6: a(x) alone, so the delta at argmax|a| is an eigenfunction
        # and the bracket is [sup|a|, sup|a|] = [1.96, 1.96] at every p
        g = Grid(2, 32, 8.0)
        s = trig_multiplication(smoothness_coefficients(2, 6), 2 * g.half_extent)
        est = operator_norm_estimate(s, g, MixedExponent.uniform(2.0, 2),
                                     "power_iteration_p2")
        assert (est.reason, est.iterations) == ("bracket_closed", 1)
        assert est.value == pytest.approx(1.96, rel=1e-15)
        assert est.lower == est.upper == pytest.approx(1.96, rel=1e-15)
        for p in ((4.0, 4.0), (3.0, 1.5)):
            _, plane, upper = estimates._norm_bracket(s, g, MixedExponent(p))
            assert plane == upper == est.upper

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("spec", list(ASCENT_SYMBOLS))
    def test_bracket_against_the_dense_matrix(self, spec, d, n):
        # T's matrix, one column per unit sample: with the weight h^d on
        # both sides ||T||_1 is its largest column sum, ||T||_inf its
        # largest row sum and ||T||_2 its top singular value
        g, s = Grid(d, n, 4.0), ASCENT_SYMBOLS[spec]()
        units = np.eye(g.total_points).reshape((-1,) + g.shape)
        T = np.stack([apply_psido(s, SampledFunction(g, u)).values.ravel()
                      for u in units], axis=1)
        one, inf = np.abs(T).sum(axis=0).max(), np.abs(T).sum(axis=1).max()
        # theta = 1/2 at p = 4: upper = (||c||_1 max|b|)^(1/2), plane = max|b|
        _, top, upper = estimates._norm_bracket(s, g, MixedExponent.uniform(4.0, d))
        c1 = upper**2 / top
        assert c1 == pytest.approx(one, rel=1e-12)
        assert c1 == pytest.approx(inf, rel=1e-12)
        if (spec, d) == ("wave:0", 2):
            assert c1 == pytest.approx(3.62998836158, rel=1e-11)
        # theta = 2/3 at p = 3 and at (3, 1.5)
        _, _, mixed = estimates._norm_bracket(s, g, MixedExponent((3.0, 1.5)[:d]))
        assert mixed == pytest.approx(c1 ** (1 / 3) * top ** (2 / 3), rel=1e-12)
        _, plane, two = estimates._norm_bracket(s, g, MixedExponent.uniform(2.0, d))
        assert plane == two == top
        assert np.linalg.norm(T, 2) == pytest.approx(top, rel=1e-12)

    def test_peak_of_a_factored_symbol_is_argmax_b(self, monkeypatch):
        # no l2 norm of a real x factor: only a general symbol's complex
        # terms are weighted by theirs
        seen = []
        pnorm = estimates.iterated_pnorm
        monkeypatch.setattr(estimates, "iterated_pnorm",
                            lambda v, h, p: seen.append((v.dtype, p)) or pnorm(v, h, p))
        g = Grid(2, 16, 4.0)
        for spec in ("sep:2,6:-1", "sep:4,6:-2", "bessel:-1", "wave:0"):
            s = stack_symbol(spec, g)
            peak, _, _ = estimates._norm_bracket(s, g, MixedExponent((3.0, 1.5)))
            b = np.abs(s.sampled_factor("xi", g.dual()))
            assert b[peak] == b.max()
            assert peak == np.unravel_index(np.argmax(b), b.shape)
        # only the two sep symbols' plane ratios, ||a||_p at p itself
        assert seen == [(np.dtype(np.float64), (3.0, 1.5))] * 2
        seen.clear()
        estimates._norm_bracket(coupled_symbol(), g, MixedExponent((3.0, 1.5)))
        assert seen == [(np.dtype(np.complex128), (2.0, 2.0))] * 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bracket_holds_for_every_builtin(self, d):
        g = Grid(d, {1: 64, 2: 16, 3: 8}[d], 4.0)
        exponents = [(2.0,) * d, (4.0,) * d, (4.0 / 3.0,) * d,
                     tuple((3.0, 1.5)[k % 2] for k in range(d)),
                     tuple((1.5, 3.0)[k % 2] for k in range(d))]
        for s in builtin_symbols(2.0 * g.half_extent):
            for p in exponents:
                methods = ["random_ascent"] + ["power_iteration_p2"] * (p[0] == 2.0)
                for method in methods:
                    est = operator_norm_estimate(s, g, MixedExponent(p), method,
                                                 budget=60, seed=d)
                    assert (est.value <= est.lower
                            <= est.upper * (1.0 + estimates.BRACKET_RTOL)), (s.label, p)
                    if method == "random_ascent":
                        # start 0 is the plane wave (the delta for a(x))
                        rtol = 1.0 - estimates.BRACKET_RTOL
                        assert est.value >= est.lower * rtol, (s.label, p)

    def test_ascent_never_beats_power_iteration_at_p2(self):
        g = Grid(1, 128, 8.0)
        s = bessel_multiplier(-1.0)
        power = operator_norm_estimate(s, g, MixedExponent((2.0,)),
                                       "power_iteration_p2", budget=300)
        ascent = operator_norm_estimate(s, g, MixedExponent((2.0,)),
                                        "random_ascent", budget=300)
        assert ascent.value <= power.value + 1e-6

    @pytest.mark.parametrize("spec, p, floor", [
        ("bessel:-1", (3.0, 1.5), 0.99), ("bessel:-1", (1.5, 3.0), 0.99),
        ("wave:0", (3.0, 1.5), 1.9)],
        ids=["bessel:-1-p3,1.5", "bessel:-1-p1.5,3", "wave:0-p3,1.5"])
    def test_mixed_exponent_ascent_reaches_the_sup(self, spec, p, floor):
        # a multiplier maps the plane wave at its largest |b| to itself times
        # b, so the norm is at least max|b| (1 for bessel:-1) for every p
        g = Grid(2, 64, 8.0)
        for seed in (1, 2, 3):
            est = operator_norm_estimate(ASCENT_SYMBOLS[spec](), g,
                                         MixedExponent(p), "random_ascent",
                                         seed=seed)
            assert floor <= est.value and est.iterations <= 300

    def test_mixed_ascent_schedule(self, monkeypatch):
        # seven starts, stacked apply by apply.  Round 0 screens them at
        # k = 4; the plane-wave start 0 settles at its second apply.  For
        # bessel:-1 the six others trail its ratio 1 and leave, and start 0,
        # settled and last, ends the ascent.  For wave:0 the six climb past
        # it, so the settled start 0 leaves instead; round 1 gives the six
        # k = max(4, (60 - 26) // 12) = 4, then the halving keeps three at
        # k = 8 until the budget cuts the last apply to one start
        heights = []
        apply = estimates.OperatorPlan.apply
        monkeypatch.setattr(estimates.OperatorPlan, "apply",
                            lambda plan, v: heights.append(len(v)) or apply(plan, v))
        g, p = Grid(2, 16, 4.0), MixedExponent((2.0, 3.0))
        est = operator_norm_estimate(bessel_multiplier(-1.0), g, p,
                                     "random_ascent", budget=40, seed=1)
        assert heights == [7, 7, 6, 6]
        assert (est.reason, est.iterations) == ("settled", 26)
        assert 0.99 <= est.value <= 1.0 == est.lower
        heights.clear()
        est = operator_norm_estimate(wave_multiplier(0.0), g, p,
                                     "random_ascent", budget=60, seed=1)
        assert heights == [7, 7, 6, 6] + [6] * 4 + [3, 3, 3, 1]
        assert (est.reason, est.iterations) == ("budget", 60)

    def test_mixed_bessel_settles_at_the_plane_wave(self):
        # the plane-wave start reaches the norm 1 of bessel:-1 at once; the
        # other starts approach it from below, so the screening round drops
        # them and the settled start 0 is the last contender
        g, p = Grid(2, 64, 8.0), MixedExponent((3.0, 1.5))
        for seed in (1, 2, 3):
            est = operator_norm_estimate(bessel_multiplier(-1.0), g, p,
                                         "random_ascent", seed=seed)
            assert est.reason == "settled" and est.iterations <= 150
            assert est.value == pytest.approx(1.0, rel=estimates.BRACKET_RTOL)

    @staticmethod
    def _pinned_run(spec, g, p, budget, seed):
        """(value, reason, iterations) of the public estimate, or, where the
        bracket is closed in closed form, of the ascent with it left open,
        after the public estimate is checked against CLOSED_FORM_ASCENT."""
        s, p = ASCENT_SYMBOLS[spec](), MixedExponent(p)
        est = operator_norm_estimate(s, g, p, "random_ascent", budget=budget,
                                     seed=seed)
        if (spec, p.p) not in CLOSED_FORM_ASCENT:
            return est.value, est.reason, est.iterations
        assert ((est.value.hex(), est.reason, est.iterations)
                == CLOSED_FORM_ASCENT[spec, p.p])
        assert est.lower == est.upper == 1.0
        peak, _, _ = estimates._norm_bracket(s, g, p)
        return estimates._boyd_ascent(s, g, p, budget,
                                      np.random.default_rng(seed), peak, 0.0, None)

    @pytest.mark.parametrize("spec, q, d", list(UNIFORM_ASCENT),
                             ids=[f"{s}-q{q:.3g}-d{d}" for s, q, d in UNIFORM_ASCENT])
    def test_uniform_ascent_bits(self, spec, q, d):
        g = Grid(1, 128, 8.0) if d == 1 else Grid(2, 32, 4.0)
        for seed, want in enumerate(UNIFORM_ASCENT[spec, q, d]):
            value, reason, used = self._pinned_run(spec, g, (q,) * d, 60, seed)
            assert (value.hex(), reason != "budget", used) == want

    @pytest.mark.parametrize("spec, p", list(MIXED_ASCENT),
                             ids=[f"{s}-p{','.join(f'{q:g}' for q in p)}"
                                  for s, p in MIXED_ASCENT])
    def test_mixed_ascent_bits(self, spec, p):
        g = Grid(2, 32, 4.0) if len(p) == 2 else Grid(3, 16, 4.0)
        for seed, want in enumerate(MIXED_ASCENT[spec, p]):
            value, reason, used = self._pinned_run(spec, g, p, 300, seed)
            assert (value.hex(), reason, used) == want

    @pytest.mark.parametrize("spec, d, n, p", STACK_CASES,
                             ids=[f"{s}-d{d}-p{','.join(f'{q:g}' for q in p)}"
                                  for s, d, n, p in STACK_CASES])
    def test_stack_equals_start_by_start(self, spec, d, n, p):
        # with the certified bracket and with the bracket left open
        g = Grid(d, n, 4.0)
        s = stack_symbol(spec, g)
        _, plane, upper = estimates._norm_bracket(s, g, MixedExponent(p))
        for seed, bracket in ((1, (plane, upper)), (2, (0.0, None))):
            stacked, reference = stacked_and_reference(s, g, p, 60, seed, *bracket)
            assert stacked == reference

    def test_later_start_closes_while_an_earlier_one_runs(self):
        # with the bracket open, the adjoint-image start 2 has the largest
        # first ratio; an upper bound equal to it closes the bracket at that
        # ratio, in the first stacked apply: the stack must count starts 0,
        # 1 and 2 and stop there, while start 0 is still live
        g, p = Grid(1, 32, 4.0), (3.0,)
        s = wave_multiplier(0.0)
        peak, _, _ = estimates._norm_bracket(s, g, MixedExponent(p))
        histories = []
        reference_ascent(s, g, MixedExponent(p), 60, np.random.default_rng(0),
                         peak, 0.0, None, histories)
        first = [ratios[0] for ratios in histories]
        assert len(first) == 7 and np.argmax(first) == 2 and len(histories[0]) > 1
        stacked, reference = stacked_and_reference(s, g, p, 60, 0, 0.0, first[2])
        assert stacked == reference == (first[2].hex(), "bracket_closed", 3)

    def test_zero_operator_stack(self):
        # closed at once by its bracket [0, 0]; left open, the T* step of
        # each of the six starts that run (the adjoint start vanishes)
        # vanishes at its first apply, which settles it
        g, p = Grid(2, 16, 4.0), (3.0, 1.5)
        for upper, reason, used in ((0.0, "zero_operator", 1), (None, "settled", 6)):
            stacked, reference = stacked_and_reference(constant_symbol(0), g, p, 60,
                                                       0, 0.0, upper)
            assert stacked == reference == ((0.0).hex(), reason, used)

    @pytest.mark.parametrize("width", [1, 2])
    def test_stack_narrower_than_the_starts(self, monkeypatch, width):
        # a stack bound of one or two grids: starts wait and fill freed places
        g, p = Grid(2, 16, 4.0), (3.0, 1.5)
        monkeypatch.setattr(estimates, "ASCENT_STACK_SAMPLES",
                            width * g.total_points + g.total_points // 2)
        s = bessel_multiplier(-1.0)
        for seed, budget in ((0, 60), (3, 300)):
            stacked, reference = stacked_and_reference(s, g, p, budget, seed, 0.0, None)
            assert stacked == reference

    def test_grid_above_the_stack_bound(self):
        # 2^17 samples: one start at a time
        g = Grid(1, 2**17, 64.0)
        assert g.total_points > estimates.ASCENT_STACK_SAMPLES
        s = wave_multiplier(0.0)
        _, plane, upper = estimates._norm_bracket(s, g, MixedExponent((3.0,)))
        stacked, reference = stacked_and_reference(s, g, (3.0,), 6, 0, plane, upper)
        assert stacked == reference

    def test_closed_form_bracket_stops_the_ascent_at_once(self):
        # the bracket is tested on max(best, plane): a bracket closed in
        # closed form stops the ascent at its first apply, not its budget
        g = Grid(2, 32, 8.0)
        s = trig_multiplication(smoothness_coefficients(2, 6), 2 * g.half_extent)
        est = operator_norm_estimate(s, g, MixedExponent.uniform(4.0, 2),
                                     "random_ascent")
        assert (est.reason, est.iterations) == ("bracket_closed", 1)
        # start 0, the delta at argmax|a|, measures sup|a| one ulp above
        # upper: the closed bracket caps value and lower at upper
        assert est.lower == est.upper == pytest.approx(1.96, rel=1e-15)
        assert est.value <= est.lower
        # a p=2 multiplier, and bessel:-1 where its kernel is nonnegative
        for s, g, p in ((wave_multiplier(0.0), Grid(1, 128, 8.0), (2.0,)),
                        (bessel_multiplier(-1.0), Grid(2, 32, 4.0), (3.0, 1.5))):
            est = operator_norm_estimate(s, g, MixedExponent(p), "random_ascent")
            assert (est.reason, est.iterations) == ("bracket_closed", 1)
            assert est.lower == pytest.approx(est.upper, rel=estimates.BRACKET_RTOL)

    def test_power_iteration_bits_ignore_blas_threads(self):
        # the norms are summed without BLAS, whose threads (above about 16k
        # samples) reorder a dot product's sum
        here = Path(__file__).resolve().parent
        code = ("from psidolab import Grid, MixedExponent, operator_norm_estimate\n"
                "from psidolab.cli import parse_symbol_spec\n"
                "g = Grid(2, 128, 8.0)\n"
                "s = parse_symbol_spec('sep:2,6:-1', 16.0)\n"
                "e = operator_norm_estimate(s, g, MixedExponent((2.0, 2.0)),"
                " 'power_iteration_p2')\n"
                "print(e.value.hex(), e.reason, e.iterations, e.upper.hex())\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(here.parent / "src"),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            outputs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True, timeout=120,
                capture_output=True, text=True).stdout)
        assert outputs[0] == outputs[1] and "settled" in outputs[0]

    @pytest.mark.parametrize("p", [(3.0, 1.5), (1.5, 3.0), (2.0, 4.0, 1.25)]
                             + [(q,) * d for q in (4.0, 4.0 / 3.0, 3.0, 1.5)
                                for d in (1, 2)])
    def test_duality_map_attains_hoelder_equality(self, p):
        # <v, J_p(v)> = ||v||_p ||J_p(v)||_p', with a zero x1 line and a zero
        # outer slice (A_k = 0 there: no 0 ** negative, no NaN); at d = 1
        # two zero samples
        d, h = len(p), 0.25
        rng = np.random.default_rng(7)
        shape = (8, 6, 5)[:d]
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[(slice(None), 2) + (0,) * (d - 2) if d > 1 else 2] = 0.0
        v[..., -1] = 0.0
        pprime = tuple(q / (q - 1.0) for q in p)
        j = estimates._duality_map(v[None], h, p)[0]
        assert np.all(np.isfinite(j)) and not j[..., -1].any()
        pairing = h**d * np.vdot(v, j)
        bound = iterated_pnorm(v, h, p) * iterated_pnorm(j, h, pprime)
        assert pairing.real == pytest.approx(bound, rel=1e-12)
        assert abs(pairing.imag) <= 1e-12 * bound

    def test_zero_operator_every_method(self):
        # the adjoint ascent start of a zero operator vanishes; it is skipped
        for grid, method, p in (
                (Grid(1, 32, 4.0), "power_iteration_p2", MixedExponent((2.0,))),
                (Grid(1, 32, 4.0), "random_ascent", MixedExponent((4.0,))),
                (Grid(2, 16, 4.0), "random_ascent", MixedExponent((3.0, 1.5)))):
            est = operator_norm_estimate(constant_symbol(0), grid, p, method)
            assert (est.value, est.converged) == (0.0, True)
            assert (est.reason, est.iterations) == ("zero_operator", 1)
            assert est.lower == est.upper == 0.0

    @pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 2.0, 3.0, 4.0])
    def test_dual_map_bits_with_and_without_zeros(self, q):
        # reference: J_q(v) = v |v|^(q - 2) over the nonzero samples only,
        # as gathers, +0 elsewhere; v itself at q = 2
        def gathered(v):
            if q == 2.0:
                return v
            a = np.abs(v)
            out = np.zeros_like(v)
            nz = a > 0
            out[nz] = v[nz] * _abs_power(a[nz], q - 2.0)
            return out

        rng = np.random.default_rng(int(10 * q))
        noise = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        zeros = noise.copy()
        zeros[rng.random(noise.shape) < 0.2] = 0.0
        zeros[rng.random(noise.shape) < 0.1] = complex(-0.0, -0.0)
        axis = noise.real * 1j  # zero real parts, nonzero moduli
        for v in (noise, zeros, axis, noise[0], np.zeros(8, dtype=complex)):
            got = estimates._dual_map(v, q, np.abs(v))
            assert np.array_equal(got.view(np.uint64), gathered(v).view(np.uint64))

    def test_dual_map_at_q2_is_a_copy_of_v(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        v[0, :4] = [0.0, complex(-0.0, 1.0), complex(1.0, -0.0),
                    complex(-0.0, -0.0)]
        got = estimates._dual_map(v, 2.0, np.abs(v))
        assert got is not v
        assert np.array_equal(got.view(np.uint64), v.view(np.uint64))

    @pytest.mark.parametrize("q", [4.0 / 3.0, 1.5, 1.25])
    def test_dual_map_below_q2_is_plus_zero_at_zeros(self, q):
        # a^(q - 2) is infinite at a = 0; those samples map to +0, not NaN
        rng = np.random.default_rng(5)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        zeros = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0),
                 complex(-0.0, -0.0)]
        v[::16] = zeros
        with np.errstate(divide="raise", invalid="raise"):
            got = estimates._dual_map(v, q, np.abs(v))
        assert not np.isnan(got).any()
        assert np.array_equal(got[::16].copy().view(np.uint64),
                              np.zeros(4, dtype=complex).view(np.uint64))
        nz = np.abs(v) > 0
        want = np.abs(v[nz]) ** (q - 1.0) * np.exp(1j * np.angle(v[nz]))
        assert np.allclose(got[nz], want, rtol=1e-14, atol=0.0)

    def test_power_iteration_stops_at_its_budget(self):
        # sep:2,6:-1 settles at 1.2441 after 19 iterations (open bracket
        # [., 1.4]); a budget of one stops at the first ratio, unconverged
        s = cli.parse_symbol_spec("sep:2,6:-1", 16.0)
        est = operator_norm_estimate(s, Grid(1, 512, 8.0), MixedExponent((2.0,)),
                                     "power_iteration_p2", budget=1)
        assert (est.reason, est.converged, est.iterations) == ("budget", False, 1)
        assert est.lower == est.value == pytest.approx(1.02832, rel=1e-5)
        assert est.upper == pytest.approx(1.4, rel=1e-15)

    def test_power_iteration_requires_p2(self):
        g = Grid(1, 64, 8.0)
        with pytest.raises(InvalidInputError):
            operator_norm_estimate(constant_symbol(1.0), g,
                                   MixedExponent((3.0,)),
                                   "power_iteration_p2", budget=10)

    @pytest.mark.parametrize("p, method, budget, match", [
        ((4.0,), "random_ascent", 0, "budget must be >= 1"),
        ((4.0, 4.0), "random_ascent", 300, "2 components for a 1-d grid"),
        ((4.0,), "svd", 300, "unknown method 'svd'")])
    def test_input_checks(self, p, method, budget, match):
        with pytest.raises(InvalidInputError, match=match):
            operator_norm_estimate(constant_symbol(1.0), Grid(1, 64, 8.0),
                                   MixedExponent(p), method, budget=budget)

    @pytest.mark.parametrize("spec, d, n, R", [("sep:2,6:-1", 1, 512, 8.0),
                                                ("sep:2,6:-1", 3, 8, 4.0),
                                                ("sep:2,6:-2", 2, 16, 8.0)])
    def test_p2_estimates_match_the_largest_singular_value(self, spec, d, n, R):
        # the bracket stays open here, so only the dense matrix knows the
        # norm: with the weight h^d on both sides ||T||_2 is its top
        # singular value; one stacked plan apply of the identity builds it
        g = Grid(d, n, R)
        s = cli.parse_symbol_spec(spec, 2.0 * R)
        units = np.eye(g.total_points, dtype=complex).reshape((-1,) + g.shape)
        svd = np.linalg.norm(operator_plan(s, g).apply(units).reshape(len(units), -1).T, 2)
        p = MixedExponent.uniform(2.0, d)
        ests = [operator_norm_estimate(s, g, p, "power_iteration_p2")]
        ests += [operator_norm_estimate(s, g, p, "random_ascent", seed=seed)
                 for seed in (1, 2, 3)]
        for est in ests:
            assert est.reason == "settled"
            assert est.value == pytest.approx(svd, rel=1e-10)
            assert est.lower <= svd * (1 + estimates.BRACKET_RTOL)
            assert svd <= est.upper * (1 + estimates.BRACKET_RTOL)


PROBE_SYMBOLS = {"bessel:-1": lambda: bessel_multiplier(-1.0),
                 "bessel:-4": lambda: bessel_multiplier(-4.0),
                 "wave:0": lambda: wave_multiplier(0.0),
                 "wave:-0.5": lambda: wave_multiplier(-0.5),
                 "wave:-1": lambda: wave_multiplier(-1.0)}


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
        assert all(abs(est.lower - 1.0) <= 1e-6 for est in rep.runs)
        assert not rep.grows

    def test_closed_brackets_keep_the_verdict_flat(self):
        # at R=8 the bracket of bessel:-1 is [1, 1] at every resolution, so
        # each ascent stops at its first apply with a small measured ratio;
        # the lower bounds are 1 and the verdict stays flat
        from psidolab import necessary_condition_probe
        rep = necessary_condition_probe(bessel_multiplier(-1.0), 4.0,
                                        (64, 128, 256, 512), half_extent=8.0)
        assert {est.reason for est in rep.runs} == {"bracket_closed"}
        assert [est.lower for est in rep.runs] == [1.0] * 4
        assert (rep.growth, rep.variation, rep.grows) == (0.0, 0.0, False)

    def test_probe_preconditions(self):
        from psidolab import necessary_condition_probe
        with pytest.raises(InvalidInputError):
            necessary_condition_probe(constant_symbol(1.0), 4.0, (16, 32),
                                      half_extent=4.0)
        with pytest.raises(InvalidInputError):
            necessary_condition_probe(self._unit_multiplier(), 2.0, (16, 32),
                                      half_extent=4.0)
        with pytest.raises(InvalidInputError, match="expect: expected"):
            necessary_condition_probe(self._unit_multiplier(), 4.0, (16, 32),
                                      half_extent=4.0, expect="grows")

    @pytest.mark.parametrize("expect", ["report", "growth", "stable"])
    def test_zero_multiplier_is_rejected(self, expect):
        from psidolab import necessary_condition_probe
        zero = Symbol(lambda x, xi: np.zeros(xi.shape[:-1]),
                      SymbolClassParams(m=0.0), "multiplier", label="zero")
        with pytest.raises(InvalidInputError, match="'zero' is 0 on the grid of n=16"):
            necessary_condition_probe(zero, 4.0, (16, 32), half_extent=4.0,
                                      expect=expect)

    @pytest.mark.parametrize("R", [8.0, 32.0])
    @pytest.mark.parametrize("p", [4.0, 4.0 / 3.0])
    @pytest.mark.parametrize("spec", PROBE_SYMBOLS)
    def test_certificates_agree_with_full_budget_verdicts(self, spec, p, R):
        # whenever the brackets certify a verdict, the full-budget run with
        # no verdict asked reaches it too; a run they cannot certify is
        # that run, bit for bit
        from psidolab import necessary_condition_probe
        s = PROBE_SYMBOLS[spec]()
        res = (64, 128, 256, 512)
        full = necessary_condition_probe(s, p, res, half_extent=R, seed=1)
        assert not full.certified
        full_verdict = {"growth": full.grows,
                        "stable": full.variation <= estimates.PROBE_STABLE_TOLERANCE}
        certified = set()
        for expect in ("growth", "stable"):
            rep = necessary_condition_probe(s, p, res, half_extent=R, seed=1,
                                            expect=expect)
            if rep.certified:
                certified.add(expect)
                assert full_verdict[expect]
                assert (rep.grows if expect == "growth" else
                        rep.variation <= estimates.PROBE_STABLE_TOLERANCE)
                assert "verdict" in {est.reason for est in rep.runs}
                assert not any(est.converged for est in rep.runs)
            else:
                assert rep == full
        assert certified == ({"growth"} if (spec, R) == ("wave:0", 32.0) else
                             {"stable"} if spec.startswith("bessel") else set())

    @pytest.mark.parametrize("R, expect, hexes", [
        (8.0, "growth", ("0x1.bd34424747096p+0", "0x1.d6020ed05a434p+0",
                         "0x1.e80e6bf226eddp+0", "0x1.f628533b2dd81p+0")),
        (32.0, "report", ("0x1.6740742751ed6p+0", "0x1.98fa04b65e0f0p+0",
                          "0x1.bc8754b9c6b9bp+0", "0x1.d5bac5b348aadp+0"))])
    def test_uncertified_runs_keep_their_bits(self, R, expect, hexes):
        # the estimates of wave:0 at p=4, seed 1, as before certificates:
        # growth at R=8 cannot be certified, and report asks for no verdict
        from psidolab import necessary_condition_probe
        rep = necessary_condition_probe(wave_multiplier(0.0), 4.0,
                                        (64, 128, 256, 512), half_extent=R,
                                        seed=1, expect=expect)
        assert tuple(est.lower.hex() for est in rep.runs) == hexes
        assert [est.reason for est in rep.runs] == ["budget"] * 4
        assert not rep.certified

    def test_growth_certificate(self):
        # the benchmark's probe: the n=512 ascent runs first and stops once
        # its lower bound certifies growth over the n=64 upper bound; the
        # other resolutions report their brackets, lower = max|b| = 1
        from psidolab import necessary_condition_probe
        rep = necessary_condition_probe(wave_multiplier(0.0), 4.0,
                                        (64, 128, 256, 512), half_extent=32.0,
                                        seed=1, expect="growth")
        target = (1 + estimates.PROBE_GROWTH_THRESHOLD) * (1 + estimates.BRACKET_RTOL)
        assert rep.certified and rep.grows
        lowers = [est.lower for est in rep.runs]
        uppers = [est.upper for est in rep.runs]
        assert [est.reason for est in rep.runs] == ["verdict"] * 4
        assert [est.iterations for est in rep.runs] == [0, 0, 0, 16]
        assert lowers[-1] >= target * uppers[0]
        assert rep.growth == lowers[-1] / uppers[0] - 1
        assert lowers == [1.0, 1.0, 1.0, lowers[-1]]
        assert rep.variation == lowers[-1] / min(uppers) - 1

    def test_stability_certificate(self):
        from psidolab import necessary_condition_probe
        rep = necessary_condition_probe(self._unit_multiplier(), 4.0, (16, 32),
                                        half_extent=4.0, expect="stable")
        assert rep.certified and rep.variation == 0.0
        for est in rep.runs:
            assert (est.reason, est.iterations, est.converged) == ("verdict", 0, False)
            assert est.lower == est.upper == 1.0

    def test_a_target_moves_no_iterate(self, monkeypatch):
        # the ascent tests its target after each ratio, where it tests its
        # bracket: it stops at the first lower bound that reaches the
        # target, on the trajectory of the ascent without one
        s, g, p = wave_multiplier(0.0), Grid(1, 128, 32.0), MixedExponent((4.0,))
        peak, plane, upper = estimates._norm_bracket(s, g, p)

        def ascent(target=None):
            return estimates._boyd_ascent(s, g, p, 300, np.random.default_rng(3),
                                          peak, plane, upper, target)

        lowers, closed = [], estimates._closed
        monkeypatch.setattr(estimates, "_closed",
                            lambda lower, up: lowers.append(lower) or closed(lower, up))
        free = ascent()
        monkeypatch.setattr(estimates, "_closed", closed)
        assert ascent(target=2 * upper) == free
        for target in (lowers[0], lowers[20], 0.5 * (lowers[40] + lowers[41]),
                       lowers[-1]):
            top, reason, used = ascent(target)
            first = next(i for i, v in enumerate(lowers) if v >= target)
            assert (reason, used, max(top, plane)) == ("verdict", first + 1,
                                                       lowers[first])


# ---------------------------------------------------------------------------
# condition predicates

class TestConditionReport:
    def test_full_gain_boundary(self):
        rep = condition_report(0.0, 1.0, 0.0, 1, 4.0)
        assert rep.necessary_lp and rep.sufficient_thm32
        assert rep.necessary_margins[0] == pytest.approx(0.0)
        assert rep.sufficient_margin == pytest.approx(0.0)

    def test_rejects_bad_class_parameters(self):
        for rho, delta in ((1.5, 0.0), (1.0, 1.0)):
            with pytest.raises(InvalidInputError, match="bad class parameters"):
                condition_report(0.0, rho, delta, 1, 4.0)

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
        # an infinite order or a vanishing rho: an error, not an OverflowError
        for m, rho in ((math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0), (0.0, 1e-320)):
            with pytest.raises(InvalidInputError):
                smoothness_budget(1, m, rho, 0.0)
        with pytest.raises(InvalidInputError):
            smoothness_budget(0, 0.0, 1.0, 0.0)
