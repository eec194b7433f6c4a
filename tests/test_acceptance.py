"""End-to-end acceptance checks.

One test per criterion; each prints a PASS line with the measured numbers
(run with `pytest -s tests/test_acceptance.py` to see them) and enforces
both the numeric tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from psidolab import (CZCheckConfig, Grid, KernelDecayParams, MixedExponent,
                      SampledFunction, apply_psido, bessel_multiplier,
                      builtin_symbols, constant_symbol, cz_condition_check,
                      cz_sweep, decay_fit, discrete_adjoint_apply,
                      dual_pairing, dyadic_decompose, dyadic_envelope_check,
                      kernel_sum, make_cancellation_test_function, mixed_norm,
                      holder_dual, necessary_condition_probe,
                      operator_norm_estimate, quadrature,
                      random_band_limited, smoothness_budget, wave_multiplier)


class Stopwatch:
    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.t0 = time.perf_counter()

    def done(self, label, detail):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s (limit {self.limit}s)"
        print(f"PASS {label}: {detail} [{elapsed:.2f}s]")


def test_criterion_01_identity_operator():
    watch = Stopwatch(1.0)
    g = Grid(1, 256, 8.0)
    rng = np.random.default_rng(101)
    sym = constant_symbol(1.0)
    worst = 0.0
    for _ in range(20):
        f = random_band_limited(g, rng)
        out = apply_psido(sym, f)
        worst = max(worst, float(np.max(np.abs(out.values - f.values))))
    assert worst <= 1e-10
    watch.done("criterion-01 identity", f"sup error {worst:.2e} <= 1e-10")


def test_criterion_02_closed_form_kernel():
    watch = Stopwatch(5.0)
    g = Grid(1, 4096, 32.0)
    dd = dyadic_decompose(bessel_multiplier(-2.0), g, 8)
    kern = kernel_sum(dd)
    z = g.radius()
    window = (z >= 0.1) & (z <= 5.0)
    exact = 0.5 * np.exp(-z[window])
    rel = np.max(np.abs(kern.values.real[window] - exact) / exact)
    assert rel <= 1e-4
    watch.done("criterion-02 kernel", f"max rel error {rel:.2e} <= 1e-4 on 0.1<=|z|<=5")


def test_criterion_03_dyadic_reconstruction():
    watch = Stopwatch(2.0)
    g = Grid(1, 512, 16.0)
    levels = 4
    worst_recon = 0.0
    worst_leak = 0.0
    for sym in builtin_symbols(2 * g.half_extent):
        dd = dyadic_decompose(sym, g, levels)
        x = None if sym.kind == "multiplier" else np.array([0.375])
        r = dd.dual.radius()
        band = r <= 2.0**levels
        err = np.abs(dd.sum_values(x) - dd.symbol_values(x))[band]
        worst_recon = max(worst_recon, float(np.max(err)))
        for j in range(1, levels + 1):
            outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
            leak = float(np.max(np.abs(dd.piece_values(j, x))[outside]))
            worst_leak = max(worst_leak, leak)
    assert worst_recon <= 1e-12
    assert worst_leak == 0.0
    watch.done("criterion-03 dyadic",
               f"reconstruction {worst_recon:.2e} <= 1e-12, ring leak {worst_leak}")


def test_criterion_04_plancherel_norm():
    watch = Stopwatch(5.0)
    g = Grid(1, 512, 8.0)
    est = operator_norm_estimate(bessel_multiplier(-1.0), g,
                                 MixedExponent((2.0,)), "power_iteration_p2",
                                 budget=200, seed=7)
    assert abs(est.value - 1.0) <= 0.02
    watch.done("criterion-04 plancherel-norm",
               f"estimate {est.value:.5f} within 2% of 1")


def test_criterion_05_decay_slope():
    watch = Stopwatch(30.0)
    g = Grid(2, 256, 3.0)
    dd = dyadic_decompose(bessel_multiplier(-1.0), g, 6)
    kern = kernel_sum(dd)
    fit = decay_fit(kern, (0.05, 0.5), KernelDecayParams((0, 0), (0, 0), L=0.0))
    assert fit.slope is not None and -1.15 <= fit.slope <= -0.85
    watch.done("criterion-05 decay-slope",
               f"slope {fit.slope:.3f} in [-1.15, -0.85] (predicted -1)")


def test_criterion_06_dyadic_envelope():
    watch = Stopwatch(10.0)
    g = Grid(1, 2048, 16.0)
    dd = dyadic_decompose(bessel_multiplier(-1.0), g, 6)
    rep = dyadic_envelope_check(dd, 0, (0,), (0,))
    assert rep.passed and rep.ring_spread is not None and rep.ring_spread <= 3.0
    watch.done("criterion-06 envelope",
               f"max r_j / min r_j = {rep.ring_spread:.3f} <= 3 over j=1..6")


def test_criterion_07_cz_condition():
    watch = Stopwatch(60.0)
    g = Grid(2, 128, 4.0)
    pbar = (2.0,)
    sym = bessel_multiplier(-4.0)
    reports = cz_sweep(lambda f: apply_psido(sym, f), g, [0.0], 3.0, pbar,
                       (0.25, 0.5, 1.0, 2.0))
    ratios = [r.ratio for r in reports]
    assert all(math.isfinite(r) for r in ratios)
    med = float(np.median(ratios))
    assert max(ratios) <= 10.0 * med
    f = make_cancellation_test_function(g, 1.0, [0.0])
    cfg = CZCheckConfig(t=1.0, x0prime=[0.0], Nconst=3.0, pbar=pbar)
    ident = cz_condition_check(lambda u: apply_psido(constant_symbol(1.0), u),
                               cfg, f)
    assert ident.ratio == 0.0
    watch.done("criterion-07 cz-condition",
               f"ratios {[f'{r:.3g}' for r in ratios]}, max <= 10x median, "
               f"identity ratio {ident.ratio}")


def test_criterion_08_duality():
    watch = Stopwatch(5.0)
    g = Grid(1, 256, 8.0)
    rng = np.random.default_rng(808)
    p2 = MixedExponent((2.0,))
    worst = 0.0
    for sym in builtin_symbols(2 * g.half_extent):
        for _ in range(50):
            u = random_band_limited(g, rng)
            phi = random_band_limited(g, rng)
            gap = abs(dual_pairing(apply_psido(sym, u), phi)
                      - dual_pairing(u, discrete_adjoint_apply(sym, phi)))
            scale = mixed_norm(u, p2) * mixed_norm(phi, p2)
            worst = max(worst, gap / scale)
    assert worst <= 1e-12
    watch.done("criterion-08 duality",
               f"worst normalized pairing gap {worst:.2e} <= 1e-12 "
               f"(5 symbols x 50 pairs)")


def test_criterion_09_budget_calculator():
    watch = Stopwatch(1.0)
    b1 = smoothness_budget(1, 0.0, 1.0, 0.0)
    assert (b1.N, b1.Nprime, b1.M, b1.Mprime) == (10, 20, 0, 4)
    b2 = smoothness_budget(2, 0.0, 1.0, 0.5)
    assert (b2.N, b2.Nprime) == (30, 26)

    def exhaustive(d, m, rho, delta):
        fe = d if d % 2 == 0 else d - 1
        evens = range(0, 61, 2)
        N = next(n for n in evens if n > ((3 - delta) * d
                                          + (5 - delta) * (1 - delta))
                 / (1 - delta) ** 2)
        Np = next(n for n in evens if n > 6 * d + 12 and n >= d + 1
                  and n > (d + m + 1) / rho)
        Mp = next(n for n in evens if Np - n >= fe + 2 and n >= d + 1
                  and n > (d + m + 1) / rho and n >= d)
        return N, Np, 0, Mp

    assert exhaustive(1, 0.0, 1.0, 0.0) == (10, 20, 0, 4)
    assert exhaustive(2, 0.0, 1.0, 0.5) == (30, 26, 0, 4)
    assert b1.all_satisfied and b2.all_satisfied
    watch.done("criterion-09 budget",
               "(d=1): N=10 N'=20 M=0 M'=4; (d=2, delta=1/2): N=30 N'=26; "
               "exhaustive search agrees")


def test_criterion_10_necessary_condition_probe():
    watch = Stopwatch(120.0)
    resolutions = (64, 128, 256, 512)
    grow = necessary_condition_probe(wave_multiplier(0.0), 4.0, resolutions,
                                     half_extent=32.0, budget=300, seed=12345)
    assert grow.grows, f"growth {grow.growth:+.1%} below 20%"
    flat = necessary_condition_probe(bessel_multiplier(-1.0), 4.0, resolutions,
                                     half_extent=32.0, budget=300, seed=12345)
    assert flat.variation <= 0.05, f"variation {flat.variation:.1%} above 5%"
    watch.done("criterion-10 probe",
               f"oscillating symbol grows {grow.growth:+.1%} (>= 20%), "
               f"smoothing symbol varies {flat.variation:.2%} (<= 5%)")


def test_criterion_11_mixed_norm_suite():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(1111)
    sizes = {1: 64, 2: 24, 3: 12}
    cases = 0
    for trial in range(100):
        d = (trial % 3) + 1
        g = Grid(d, sizes[d], 2.0)
        ps = tuple(rng.uniform(1.1, 6.0, size=d))
        p = MixedExponent(ps)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = SampledFunction(g, vals)
        h = SampledFunction(g, rng.standard_normal(g.shape)
                            + 1j * rng.standard_normal(g.shape))
        c = rng.uniform(-3, 3)
        assert abs(mixed_norm(c * f, p) - abs(c) * mixed_norm(f, p)) \
            <= 1e-12 * max(1.0, mixed_norm(f, p))
        assert mixed_norm(f + h, p) <= mixed_norm(f, p) + mixed_norm(h, p) + 1e-12
        pairing = abs(quadrature(SampledFunction(g, f.values * np.conj(h.values))))
        assert pairing <= mixed_norm(f, p) * mixed_norm(h, holder_dual(p)) + 1e-10
        # separability on gaussian products
        widths = rng.uniform(0.5, 1.5, size=d)
        ax = g.axis_coords()
        factors = [np.exp(-0.5 * (ax / w) ** 2) for w in widths]
        prod = factors[0]
        for fac in factors[1:]:
            prod = np.multiply.outer(prod, fac)
        g1 = Grid(1, sizes[d], 2.0)
        expected = 1.0
        for w, q in zip(widths, ps):
            expected *= mixed_norm(SampledFunction(g1, np.exp(-0.5 * (ax / w) ** 2)),
                                   MixedExponent((q,)))
        assert mixed_norm(SampledFunction(g, prod), p) \
            == pytest.approx(expected, rel=1e-8)
        cases += 1
    assert cases == 100
    watch.done("criterion-11 mixed-norm",
               "homogeneity, triangle, separability, pairing over 100 cases, "
               "d in {1,2,3}")
