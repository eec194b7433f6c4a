"""The benchmark tracer's contract with the package it wraps.

``psidobench/tracing.py`` patches psidolab functions and methods by name;
a rename there would otherwise only fail in ``--trace 1`` benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import psidolab
from psidolab import Grid, MixedExponent, Symbol, operators
from psidolab.operators import DyadicDecomposition

TRACING = Path(__file__).resolve().parent.parent / "psidobench" / "tracing.py"
spec = importlib.util.spec_from_file_location("psidobench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


# the factories are looked up after install, so the symbols are built
# through their traced bindings
SYMBOLS = {"bessel:-1": lambda: psidolab.bessel_multiplier(-1.0),
           "const:-2.5": lambda: psidolab.constant_symbol(-2.5)}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("spec", list(SYMBOLS))
def test_power_iteration_self_check_and_uninstall(spec, d):
    traced = [(operators, "apply_psido"), (Grid, "meshgrid"), (Symbol, "eval"),
              (DyadicDecomposition, "piece_values")]
    originals = [vars(owner)[attr] for owner, attr in traced]
    tracer = tracing.Tracer().install()
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(traced, originals))
        # the estimator too goes through its traced binding
        sym = SYMBOLS[spec]()
        est = psidolab.operator_norm_estimate(
            sym, Grid(d, {1: 128, 2: 32, 3: 16}[d], 4.0),
            MixedExponent.uniform(2.0, d), "power_iteration_p2", budget=60, seed=3)
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in traced] == originals
    kind = sym.kind
    transforms = tracer.calls["grid.fourier_transform"]
    if kind == "multiplier":
        [(k, converged, counted, expected)] = tracer.selfcheck
        assert expected == (4 * k - 1 if converged else 4 * k + 1)
        assert counted == transforms == expected
    else:
        # a constant is a multiplication: it starts at a delta, its applies
        # take no transform and the tracer checks multipliers only
        assert kind == "multiplication" and not tracer.selfcheck
        assert transforms == 0
    assert (est.reason, est.iterations) == ("bracket_closed", 1)
    applies = tracer.counters["estimates.norm.applies"]
    assert applies > 0
    assert applies == (tracer.calls[f"operators.apply.{kind}"]
                       + tracer.calls[f"operators.adjoint.{kind}"])


def test_mixed_ascent_runs_on_the_plan():
    # the ascent applies T and T* through an operator plan, which calls
    # numpy's FFT directly: the traced transforms are the bracket's kernel
    # (theta < 1 at (3, 1.5)), the plane-wave start, the band-limited
    # impulse and the 4 random starts, and no apply or adjoint span opens,
    # so the applies counter reads 0 while the iterations are still counted
    tracer = tracing.Tracer().install()
    try:
        est = psidolab.operator_norm_estimate(
            psidolab.bessel_multiplier(-1.0), Grid(2, 16, 4.0),
            MixedExponent((3.0, 1.5)), "random_ascent", budget=40, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.calls["grid.fourier_transform"] == 7
    assert tracer.calls["grid.random_band_limited"] == 4
    assert tracer.counters["estimates.norm.applies"] == 0
    assert not any(n.startswith(("operators.apply.", "operators.adjoint."))
                   for n in tracer.calls)
    assert tracer.counters["estimates.norm.iterations"] == est.iterations > 0
