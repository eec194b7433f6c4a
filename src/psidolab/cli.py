"""Configuration-driven experiment runner (console script ``psido-lab``).

One experiment per invocation.  Parameters come from an optional JSON
config file plus command-line flags; flags win.  Every experiment writes
a JSON report (and CSV sweep tables unless disabled) into --out-dir and
exits 0 when all enabled assertions pass, 1 on an assertion failure, and
2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio, reporting
from .errors import (InfeasibleBudgetError, InvalidInputError,
                     SymbolEvaluationError)
from .estimates import (CZCheckConfig, KernelDecayParams, condition_report,
                        cz_condition_check, cz_sweep, decay_fit,
                        necessary_condition_probe, operator_norm_estimate,
                        smoothness_budget)
from .grid import Grid
from .mixed_norm import MixedExponent
from .operators import (apply_psido, default_levels, dyadic_decompose,
                        kernel_sum)
from .symbols import (Symbol, bessel_multiplier, constant_symbol,
                      separable_symbol, smoothness_coefficients,
                      SampleSpec, trig_multiplication, verify_symbol_class,
                      wave_multiplier, with_params)

EXPERIMENTS = ("apply", "verify-symbol", "dyadic", "kernel-decay", "cz-check",
               "norm-estimate", "budget", "conditions", "probe")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    params: dict


# ---------------------------------------------------------------------------
# parsing helpers

_SPEC_FIELDS = {"const": 1, "bessel": 1, "wave": 1, "trig": 1, "sep": 2}


def parse_symbol_spec(spec, period: float) -> Symbol:
    """Symbol from a compact spec string or a config mapping.

    Strings const:C | bessel:M | wave[:M] | trig:S,K | sep:S,K:M (S =
    x-smoothness, K = series length, M = order) abbreviate mappings, e.g.
    sep:S,K:M is {"kind": "sep", "m": M, "x_part": {"smoothness": S, "terms": K}}.
    Mappings may add trig "coeffs" and "period", and a class claim (m, rho,
    delta, N, Nprime) overriding the family's; a trig factor claims
    N = S - S % 2 unless N is given.
    """
    try:
        cfg = spec if isinstance(spec, dict) else _spec_mapping(str(spec))
        kind = cfg.get("kind")
        if kind == "const":
            sym = constant_symbol(complex(cfg.get("value", 1.0)))
        elif kind == "bessel":
            sym = bessel_multiplier(float(cfg["m"]))
        elif kind == "wave":
            sym = wave_multiplier(float(cfg.get("m", 0.0)))
        elif kind == "trig":
            smoothness = int(cfg.get("smoothness", 2))
            coeffs = cfg.get("coeffs")
            if coeffs is None:
                coeffs = smoothness_coefficients(smoothness, int(cfg.get("terms", 6)))
            elif len(coeffs) == 0:
                raise InvalidInputError("coeffs must list at least one coefficient")
            sym = trig_multiplication(coeffs, float(cfg.get("period", period)),
                                      N=smoothness - smoothness % 2)
        elif kind == "sep":
            x_part = parse_symbol_spec({**cfg.get("x_part", {}), "kind": "trig"}, period)
            sym = separable_symbol(x_part, bessel_multiplier(float(cfg["m"])))
        else:
            raise InvalidInputError(f"unknown symbol kind {kind!r}")
        # N and Nprime pass unconverted, so SymbolClassParams rejects fractions
        claim = {k: cfg[k] if k in ("N", "Nprime") else float(cfg[k])
                 for k in ("m", "rho", "delta", "N", "Nprime") if k in cfg}
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad symbol spec {spec!r}: {exc}") from None
    return with_params(sym, **claim) if claim else sym


def _spec_mapping(spec: str) -> dict:
    """The config mapping a spec string abbreviates."""
    kind, *fields = ("wave:0" if spec == "wave" else spec).split(":")
    if len(fields) != _SPEC_FIELDS.get(kind):
        raise InvalidInputError("unknown kind or wrong number of fields")
    if kind == "const":
        return {"kind": kind, "value": complex(fields[0])}
    if kind in ("bessel", "wave"):
        return {"kind": kind, "m": float(fields[0])}
    s, k = (int(v) for v in fields[0].split(","))
    x_part = {"smoothness": s, "terms": k}
    if kind == "trig":
        return {"kind": kind, **x_part}
    return {"kind": kind, "m": float(fields[1]), "x_part": x_part}


def _floats(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise InvalidInputError(f"expected a comma list of numbers, got {text!r}") from None


def _ints(text) -> tuple:
    return tuple(int(v) for v in _floats(text))


def _grid_from(params: dict) -> Grid:
    d = int(params.get("d", 1))
    n = int(params.get("n", 256))
    R = float(params.get("R", 8.0))
    return Grid(d, n, R)


def _symbol_for_grid(params: dict, grid: Grid) -> Symbol:
    spec = params.get("symbol")
    if spec is None:
        raise InvalidInputError("--symbol is required for this experiment")
    return parse_symbol_spec(spec, period=2.0 * grid.half_extent)


def _x_point(params: dict, grid: Grid):
    if params.get("x") is not None:
        return np.asarray(_floats(params["x"]))
    return np.zeros(grid.dim)


# ---------------------------------------------------------------------------
# experiment handlers: each returns (checks, tables, stdout lines)

def _run_apply(params):
    if not params.get("input") or not params.get("output"):
        raise InvalidInputError("apply needs --input and --output PSLB paths")
    f = fileio.read_pslb(params["input"])
    sym = _symbol_for_grid(params, f.grid)
    out = apply_psido(sym, f)
    fileio.write_pslb(params["output"], out)
    sup = float(np.max(np.abs(out.values)))
    checks = [reporting.make_check("output_finite", True, sup_norm=sup,
                                   output=str(params["output"]))]
    return checks, {}, [f"wrote {params['output']} (sup |Tf| = {sup:.6g})"]


def _run_verify_symbol(params):
    d = int(params.get("d", 1))
    x_extent = float(params.get("x_extent", 1.0))
    spec = SampleSpec(
        dim=d,
        xi_max=float(params.get("xi_max", 64.0)),
        x_extent=x_extent,
        num_x=int(params.get("num_x", 6)),
        num_xi=int(params.get("num_xi", 48)),
        seed=int(params.get("seed", 0)),
        step=float(params.get("step", 0.05)),
    )
    if params.get("symbol") is None:
        raise InvalidInputError("--symbol is required for this experiment")
    sym = parse_symbol_spec(params["symbol"], period=2.0 * x_extent)
    cap = float(params.get("cap", 10.0))
    report = verify_symbol_class(sym, spec, cap)
    rows = [reporting.sweep_row(
        f"a={' '.join(map(str, e.alpha))};b={' '.join(map(str, e.beta))}",
        e.fitted_constant, cap, e.fitted_constant / cap, e.passed)
        for e in report.entries]
    checks = [reporting.make_check("class_claim", report.global_pass,
                                   cap=cap, pairs=len(report.entries))]
    return checks, {"constants": rows}, []


def _decomposition(params):
    """The dyadic decomposition to run on, and the x its pieces are taken at."""
    grid = _grid_from(params)
    sym = _symbol_for_grid(params, grid)
    dd = dyadic_decompose(sym, grid, int(params.get("levels") or default_levels(grid)))
    return dd, None if sym.x_independent else _x_point(params, grid)


def _run_dyadic(params):
    dd, x = _decomposition(params)
    radius = dd.dual_radius
    band = radius <= 2.0**dd.levels
    recon_err = float(np.max(np.abs(dd.sum_values(x) - dd.symbol_values(x))[band]))
    support_ok = True
    rows = []
    for j in range(dd.levels + 1):
        piece = np.abs(dd.piece_values(j, x))
        outside = ~((radius >= 2.0 ** (j - 1)) & (radius <= 2.0 ** (j + 1))) \
            if j else (radius > 2.0)
        leak = float(np.max(piece[outside])) if outside.any() else 0.0
        support_ok &= leak == 0.0
        rows.append(reporting.sweep_row(j, float(np.max(piece)), None, leak,
                                        leak == 0.0))
    checks = [
        reporting.make_check("reconstruction", recon_err <= 1e-12,
                             max_error=recon_err, band=2.0**dd.levels),
        reporting.make_check("ring_support", support_ok),
    ]
    return checks, {"pieces": rows}, []


def _run_kernel_decay(params):
    dd, x = _decomposition(params)
    grid = dd.grid
    kern = kernel_sum(dd, x)
    window = _floats(params.get("window", (4 * grid.spacing, grid.half_extent / 2)))
    alpha = _ints(params.get("alpha", "0," * (grid.dim - 1) + "0"))
    beta = _ints(params.get("beta", "0," * (grid.dim - 1) + "0"))
    dparams = KernelDecayParams(alpha=alpha, beta=beta,
                                L=float(params.get("L", 0.0)))
    fit = decay_fit(kern, window, dparams,
                    num_shells=int(params.get("shells", 16)))
    checks = [reporting.make_check(
        "envelope_finite", fit.passed, envelope=fit.envelope_constant,
        slope=fit.slope, predicted_exponent=fit.predicted_exponent,
        degenerate=fit.degenerate)]
    if params.get("slope_range") is not None and fit.slope is not None:
        lo, hi = _floats(params["slope_range"])
        checks.append(reporting.make_check(
            "slope_in_range", lo <= fit.slope <= hi, slope=fit.slope,
            range=[lo, hi]))
    rows = [reporting.sweep_row(c, v, fit.envelope_constant * c**fit.predicted_exponent,
                                v / (fit.envelope_constant * c**fit.predicted_exponent)
                                if fit.envelope_constant else None, True)
            for c, v in zip(fit.shell_centers, fit.shell_maxima)]
    if params.get("decay_csv"):
        fileio.write_radial_decay_csv(params["decay_csv"], kern.sampled())
    lines = [f"slope = {fit.slope}, envelope C = {fit.envelope_constant:.6g}"]
    return checks, {"shells": rows}, lines


def _run_cz_check(params):
    loaded = fileio.read_pslb(params["input"]) if params.get("input") else None
    grid = loaded.grid if loaded is not None else _grid_from(params)
    sym = _symbol_for_grid(params, grid)
    l = int(params.get("l", 0))
    x0prime = _floats(params.get("x0prime", ",".join("0" * (grid.dim - l))))
    Nconst = float(params.get("Nconst", grid.dim + 1))
    inner = _floats(params.get("pbar", "")) if params.get("pbar") else ()
    if len(inner) != l:
        raise InvalidInputError(f"--pbar must list {l} inner exponents")
    full = MixedExponent(tuple(inner) + (2.0,) * (grid.dim - l), split=l)
    apply_fn = lambda f: apply_psido(sym, f)  # noqa: E731
    if loaded is not None:
        ts = _floats(params.get("t", "1"))
        cfg = CZCheckConfig(l=l, t=float(ts[0]), x0prime=x0prime,
                            Nconst=Nconst, pbar=full)
        reports = [cz_condition_check(apply_fn, cfg, loaded)]
    else:
        ts = _floats(params.get("t", "0.5,1"))
        reports = cz_sweep(apply_fn, grid, l, x0prime, Nconst, full, ts,
                           inner_profile=params.get("inner_profile", "gaussian"),
                           outer_profile=params.get("outer_profile", "bump"))
    ratios = [r.ratio for r in reports]
    finite = all(math.isfinite(r) for r in ratios)
    checks = [reporting.make_check("ratios_finite", finite, ratios=ratios)]
    if len(ratios) >= 2:
        med = float(np.median(ratios))
        factor = float(params.get("max_median_factor", 10.0))
        ok = max(ratios) <= factor * med if med > 0 else max(ratios) == 0.0
        checks.append(reporting.make_check(
            "sweep_stability", ok, max_ratio=max(ratios), median=med,
            factor=factor))
    rows = [reporting.sweep_row(r.t, r.lhs, r.rhs, r.ratio, True) for r in reports]
    return checks, {"ratios": rows}, [f"ratios: {ratios}"]


def _run_norm_estimate(params):
    grid = _grid_from(params)
    sym = _symbol_for_grid(params, grid)
    pvals = _floats(params.get("p", "2"))
    if len(pvals) == 1:
        p = MixedExponent.uniform(pvals[0], grid.dim)
    else:
        p = MixedExponent(pvals)
    est = operator_norm_estimate(sym, grid, p,
                                 method=params.get("method", "random_ascent"),
                                 budget=int(params.get("budget", 300)),
                                 seed=int(params.get("seed", 0)))
    checks = []
    rows = [reporting.sweep_row(grid.points_per_axis, est.value, None, None,
                                est.converged)]
    lines = [f"estimate = {est.value:.8g} ({est.method}, "
             f"{'converged' if est.converged else 'UNCONVERGED'})"]
    return checks, {"estimate": rows}, lines


def _run_budget(params):
    budget = smoothness_budget(int(params.get("d", 1)),
                               float(params.get("m", 0.0)),
                               float(params.get("rho", 1.0)),
                               float(params.get("delta", 0.0)))
    line = f"N={budget.N} N'={budget.Nprime} M={budget.M} M'={budget.Mprime}"
    rows = [reporting.sweep_row(name, lhs, rhs, None, ok)
            for name, lhs, _op, rhs, ok in budget.verify()]
    checks = [reporting.make_check("budget_inequalities", budget.all_satisfied,
                                   N=budget.N, Nprime=budget.Nprime,
                                   M=budget.M, Mprime=budget.Mprime)]
    return checks, {"constraints": rows}, [line]


def _run_conditions(params):
    pvals = _floats(params.get("p", "2"))
    p = pvals[0] if len(pvals) == 1 else MixedExponent(pvals)
    rep = condition_report(float(params.get("m", 0.0)),
                           float(params.get("rho", 1.0)),
                           float(params.get("delta", 0.0)),
                           int(params.get("d", 1)), p)
    rows = [reporting.sweep_row(f"necessary_p{i + 1}", m, r, None, m >= 0)
            for i, (m, r) in enumerate(zip(rep.necessary_margins, rep.necessary_rhs))]
    rows.append(reporting.sweep_row("sufficient", rep.sufficient_margin,
                                    rep.sufficient_rhs, None,
                                    rep.sufficient_margin >= 0))
    lines = [f"necessary_lp = {rep.necessary_lp}  sufficient_thm32 = {rep.sufficient_thm32}"]
    return [], {"margins": rows}, lines


def _run_probe(params):
    half_extent = float(params.get("R", 32.0))
    sym = parse_symbol_spec(params.get("symbol", "wave:0"),
                            period=2.0 * half_extent)
    rep = necessary_condition_probe(
        sym,
        p=float(params.get("p", 4.0)),
        resolutions=_ints(params.get("resolutions", "64,128,256,512")),
        half_extent=half_extent,
        dim=int(params.get("d", 1)),
        budget=int(params.get("budget", 300)),
        seed=int(params.get("seed", 0)),
        growth_threshold=float(params.get("growth_threshold", 0.2)),
    )
    expect = params.get("expect", "report")
    checks = []
    if expect == "growth":
        checks.append(reporting.make_check("norm_growth", rep.grows,
                                           growth=rep.growth,
                                           threshold=rep.growth_threshold))
    elif expect == "stable":
        tol = float(params.get("stable_tolerance", 0.05))
        checks.append(reporting.make_check("norm_stability",
                                           rep.variation <= tol,
                                           variation=rep.variation, tolerance=tol))
    rows = [reporting.sweep_row(n, est, rep.estimates[0],
                                est / rep.estimates[0], conv)
            for n, est, conv in zip(rep.resolutions, rep.estimates, rep.converged)]
    lines = [f"estimates: {dict(zip(rep.resolutions, [round(e, 6) for e in rep.estimates]))}",
             f"growth = {rep.growth:+.2%}, variation = {rep.variation:.2%}"]
    return checks, {"estimates": rows}, lines


_HANDLERS = {
    "apply": _run_apply,
    "verify-symbol": _run_verify_symbol,
    "dyadic": _run_dyadic,
    "kernel-decay": _run_kernel_decay,
    "cz-check": _run_cz_check,
    "norm-estimate": _run_norm_estimate,
    "budget": _run_budget,
    "conditions": _run_conditions,
    "probe": _run_probe,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; writes report files and returns the exit code."""
    params = config.params
    checks, tables, lines = _HANDLERS[config.kind](params)
    for line in lines:
        print(line)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    out_dir = Path(params.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    # echo only the experiment parameters; output plumbing does not affect
    # the numbers and would break byte-for-byte determinism across out-dirs
    echo = {k: v for k, v in params.items()
            if k not in ("out_dir", "json", "csv", "config")}
    report = reporting.build_report(config.kind, echo,
                                    params.get("seed", 0), checks, tables)
    if params.get("json", True):
        path = reporting.write_json_report(
            report, out_dir / f"{config.kind}-report.json")
        print(f"report: {path}")
    if params.get("csv", True):
        for name, rows in tables.items():
            reporting.write_sweep_csv(out_dir / f"{config.kind}-{name}.csv", rows)
    return 0 if reporting.all_passed(checks) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub):
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--R", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out-dir", dest="out_dir", default=None)
    sub.add_argument("--json", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--csv", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--config", default=None, help="JSON config file; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psido-lab",
        description="numerical experiments with pseudodifferential operators")
    subs = parser.add_subparsers(dest="kind", required=True)

    def sub(name, *flags):
        s = subs.add_parser(name)
        _add_common(s)
        for flag in flags:
            s.add_argument(flag, default=None)
        return s

    sub("apply", "--symbol", "--input", "--output")
    sub("verify-symbol", "--symbol", "--xi-max", "--x-extent", "--cap",
        "--num-x", "--num-xi", "--step")
    sub("dyadic", "--symbol", "--levels", "--x")
    sub("kernel-decay", "--symbol", "--levels", "--x", "--window", "--L",
        "--alpha", "--beta", "--shells", "--slope-range", "--decay-csv")
    sub("cz-check", "--symbol", "--l", "--t", "--x0prime", "--Nconst",
        "--pbar", "--input", "--max-median-factor", "--inner-profile",
        "--outer-profile")
    sub("norm-estimate", "--symbol", "--p", "--method", "--budget")
    sub("budget", "--m", "--rho", "--delta")
    sub("conditions", "--m", "--rho", "--delta", "--p")
    sub("probe", "--symbol", "--p", "--resolutions", "--budget",
        "--growth-threshold", "--stable-tolerance", "--expect")
    return parser


def _merge_params(args: argparse.Namespace) -> dict:
    params = {}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InvalidInputError(f"config {args.config} must hold a JSON object")
        params.update(loaded)
    for key, value in vars(args).items():
        if key in ("kind", "config") or value is None:
            continue
        params[key] = value
    return params


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(kind=args.kind, params=_merge_params(args))
        return run(config)
    except (InvalidInputError, SymbolEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
