"""Configuration-driven experiment runner (console script ``psido-lab``).

One experiment per invocation, stated once in `_COMMANDS` as its handler
and flags.  Parameters come from an optional JSON config file, keyed by
the experiment's flags, plus those flags; flags win.  Every number is read
where it arrives, by `_int` / `_float` or the list readers `_ints` /
`_floats`: integers must be whole (3.0 is 3, 2.5 an error) and booleans
are not numbers.  Every experiment writes a JSON report (and CSV sweep
tables unless disabled) into --out-dir and exits 0 when all enabled
assertions pass, 1 on an assertion failure, and 2 on invalid input or an
unreadable or unwritable path.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import fileio, reporting
from .errors import (InfeasibleBudgetError, InvalidInputError,
                     SymbolEvaluationError)
from .estimates import (PROBE_GROWTH_THRESHOLD, PROBE_STABLE_TOLERANCE,
                        CZCheckConfig, KernelDecayParams, condition_report,
                        cz_condition_check, cz_sweep, decay_fit,
                        necessary_condition_probe, operator_norm_estimate,
                        smoothness_budget)
from .grid import Grid, SampledFunction
from .mixed_norm import MixedExponent, exponent_tuple
from .operators import (default_levels, dyadic_decompose, kernel_sum,
                        operator_plan)
from .symbols import (Symbol, bessel_multiplier, constant_symbol,
                      separable_symbol, smoothness_coefficients,
                      SampleSpec, trig_multiplication, verify_symbol_class,
                      wave_multiplier, with_params)

CZ_MEDIAN_FACTOR = 10.0   # sweep_stability: max ratio <= this times the median


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
    N = S - S % 2 unless N is given.  S and K must be whole numbers.
    """
    try:
        cfg = spec if isinstance(spec, dict) else _spec_mapping(str(spec))
        kind = cfg.get("kind")
        if kind == "const":
            value = cfg.get("value", 1.0)
            if isinstance(value, bool):
                raise InvalidInputError(f"value: expected a number, got {value!r}")
            sym = constant_symbol(complex(value))
        elif kind == "bessel":
            sym = bessel_multiplier(_floats(cfg["m"], "m", 1)[0])
        elif kind == "wave":
            sym = wave_multiplier(_float(cfg, "m", 0.0))
        elif kind == "trig":
            smoothness = _int(cfg, "smoothness", 2)
            coeffs = cfg.get("coeffs")
            if coeffs is None:
                coeffs = smoothness_coefficients(smoothness, _int(cfg, "terms", 6))
            elif len(coeffs) == 0:
                raise InvalidInputError("coeffs must list at least one coefficient")
            sym = trig_multiplication(_floats(coeffs, "coeffs"),
                                      _float(cfg, "period", period),
                                      N=smoothness - smoothness % 2)
        elif kind == "sep":
            x_part = parse_symbol_spec({**cfg.get("x_part", {}), "kind": "trig"}, period)
            sym = separable_symbol(x_part, bessel_multiplier(_floats(cfg["m"], "m", 1)[0]))
        else:
            raise InvalidInputError(f"unknown symbol kind {kind!r}")
        # N and Nprime pass unconverted, so SymbolClassParams rejects fractions
        claim = {k: cfg[k] if k in ("N", "Nprime") else _floats(cfg[k], k, 1)[0]
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
        return {"kind": kind, "m": _floats(fields[0], "M", 1)[0]}
    s, k = _ints(fields[0], "S,K", 2)
    x_part = {"smoothness": s, "terms": k}
    if kind == "trig":
        return {"kind": kind, **x_part}
    return {"kind": kind, "m": _floats(fields[1], "M", 1)[0], "x_part": x_part}


def _floats(text, key: str, count=None) -> tuple:
    """Numbers from a comma list or a config list; exactly `count` if given.

    Booleans and NaN are not numbers: JSON true is not 1."""
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    want = "numbers" if count is None else "a number" if count == 1 else f"{count} numbers"
    try:
        if any(isinstance(v, bool) for v in items):
            raise TypeError
        values = tuple(float(v) for v in items)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or any(map(math.isnan, values)) or count not in (None, len(values)):
        raise InvalidInputError(f"{key}: expected {want}, got {text!r}")
    return values


def _ints(text, key: str, count=None) -> tuple:
    """Whole numbers, read as `_floats` reads them: 3.0 is 3, 2.5 an error."""
    values = _floats(text, key, count)
    if not all(v.is_integer() for v in values):
        want = "a whole number" if count == 1 else "whole numbers"
        raise InvalidInputError(f"{key}: expected {want}, got {text!r}")
    return tuple(int(v) for v in values)


def _float(params: dict, key: str, default) -> float:
    """The number params[key]; `default` when it is missing or null."""
    value = params.get(key)
    return default if value is None else _floats(value, key, 1)[0]


def _int(params: dict, key: str, default) -> int:
    """The whole number params[key]; `default` when it is missing or null.
    An int or a string of digits is read exactly, so seeds beyond 2^53 stay
    exact."""
    value = params.get(key)
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)
    return default if value is None else (
        value if type(value) is int else _ints(value, key, 1)[0])


def _grid_from(params: dict) -> Grid:
    return Grid(_int(params, "d", 1), _int(params, "n", 256),
                _float(params, "R", 8.0))


def _symbol(params: dict, half_extent: float) -> Symbol:
    if params.get("symbol") is None:
        raise InvalidInputError("--symbol is required for this experiment")
    return parse_symbol_spec(params["symbol"], period=2.0 * half_extent)


def _x_point(params: dict, grid: Grid):
    if params.get("x") is not None:
        return np.asarray(_floats(params["x"], "x"))
    return np.zeros(grid.dim)


# ---------------------------------------------------------------------------
# experiment handlers: each returns (checks, tables, stdout lines)

def _run_apply(params):
    if not params.get("input") or not params.get("output"):
        raise InvalidInputError("apply needs --input and --output PSLB paths")
    f = fileio.read_pslb(params["input"])
    sym = _symbol(params, f.grid.half_extent)
    # apply_psido's values without its shifts, signs or copies, checked finite
    out = operator_plan(sym, f.grid).apply(f.values)
    fileio.write_pslb(params["output"], (f.grid, out))
    sup = float(np.max(np.abs(out)))
    checks = [reporting.make_check("output_finite", True, sup_norm=sup,
                                   output=str(params["output"]))]
    return checks, {}, [f"wrote {params['output']} (sup |Tf| = {sup:.6g})"]


def _run_verify_symbol(params):
    x_extent = _float(params, "x_extent", 1.0)
    spec = SampleSpec(
        dim=_int(params, "d", 1),
        xi_max=_float(params, "xi_max", 64.0),
        x_extent=x_extent,
        num_x=_int(params, "num_x", 6),
        num_xi=_int(params, "num_xi", 48),
        seed=_int(params, "seed", 0),
        step=_float(params, "step", 0.05),
    )
    sym = _symbol(params, x_extent)
    cap = _float(params, "cap", 10.0)
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
    sym = _symbol(params, grid.half_extent)
    dd = dyadic_decompose(sym, grid, _int(params, "levels", default_levels(grid)))
    return dd, None if sym.x_independent else _x_point(params, grid)


def _run_dyadic(params):
    dd, x = _decomposition(params)
    sym = dd.symbol_values(x, dd.even)  # an even symbol on its orthant
    # a piece is zero outside its ring's box: its max, leak and sum are
    # there, and the boxes are nested, so the sum lives on the last one
    rings = list(dd.rings(dd.even))
    top, n = rings[-1][0], dd.dual.points_per_axis
    origin = [b.indices(n)[0] for b in top]
    total = np.zeros(sym[top].shape, dtype=np.complex128)
    rows = []
    for j, (box, ring) in enumerate(rings):
        piece = sym[box] * ring
        part = total[tuple(slice(b.indices(n)[0] - o, b.indices(n)[1] - o)
                           for b, o in zip(box, origin))]
        part += piece
        mag, r = np.abs(piece), dd.dual.radius(dd.orthant_box(box) if dd.even else box)
        outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1)) if j else r > 2.0
        leak = float(np.max(mag, where=outside, initial=0.0))
        rows.append(reporting.sweep_row(j, float(np.max(mag)), None, leak,
                                        leak == 0.0))
    # the reconstruction is checked on the band |xi| <= 2^levels, inside the top box
    band = r <= 2.0**dd.levels
    recon_err = float(np.max(np.abs(part[band] - sym[box][band])))
    checks = [
        reporting.make_check("reconstruction", recon_err <= 1e-12,
                             max_error=recon_err, band=2.0**dd.levels),
        reporting.make_check("ring_support", all(row["pass"] for row in rows)),
    ]
    return checks, {"pieces": rows}, []


def _run_kernel_decay(params):
    dd, x = _decomposition(params)
    grid = dd.grid
    window = _floats(params.get("window", (4 * grid.spacing, grid.half_extent / 2)),
                     "window", 2)
    slope_range = (None if params.get("slope_range") is None
                   else _floats(params["slope_range"], "slope_range", 2))
    alpha = _ints(params.get("alpha", (0,) * grid.dim), "alpha")
    beta = _ints(params.get("beta", (0,) * grid.dim), "beta")
    dparams = KernelDecayParams(alpha=alpha, beta=beta, L=_float(params, "L", 0.0))
    kern = kernel_sum(dd, x)
    fit = decay_fit(kern, window, dparams, num_shells=_int(params, "shells", 16))
    checks = [reporting.make_check(
        "envelope_finite", fit.passed, envelope=fit.envelope_constant,
        slope=fit.slope, predicted_exponent=fit.predicted_exponent,
        degenerate=fit.degenerate)]
    if slope_range is not None and fit.slope is not None:
        lo, hi = slope_range
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


def _median(values) -> float:
    """np.median's bits, without the NaN check that imports numpy.ma."""
    return math.nan if any(map(math.isnan, values)) else float(statistics.median(values))


def _run_cz_check(params):
    loaded = fileio.read_pslb(params["input"]) if params.get("input") else None
    grid = loaded.grid if loaded is not None else _grid_from(params)
    sym = _symbol(params, grid.half_extent)
    l = _int(params, "l", 0)
    x0prime = _floats(params.get("x0prime", ",".join("0" * (grid.dim - l))), "x0prime")
    if not 0 <= l <= grid.dim - 1:   # before the plan and the test functions
        raise InvalidInputError(f"split l = {l} outside 0..{grid.dim - 1}")
    Nconst = _float(params, "Nconst", grid.dim + 1.0)
    pbar = _floats(params["pbar"], "pbar") if params.get("pbar") else ()
    if len(pbar) != l:
        raise InvalidInputError(f"--pbar must list {l} inner exponents")
    pbar = exponent_tuple(pbar)
    plan = operator_plan(sym, grid)  # every width's test function runs on it
    apply_fn = lambda f: SampledFunction(grid, plan.apply(f.values))  # noqa: E731
    if loaded is not None:
        ts = _floats(params.get("t", "1"), "t")
        cfg = CZCheckConfig(ts[0], x0prime, Nconst, pbar)
        reports = [cz_condition_check(apply_fn, cfg, loaded)]
    else:
        ts = _floats(params.get("t", "0.5,1"), "t")
        reports = cz_sweep(apply_fn, grid, x0prime, Nconst, pbar, ts)
    ratios = [r.ratio for r in reports]
    finite = all(math.isfinite(r) for r in ratios)
    checks = [reporting.make_check("ratios_finite", finite, ratios=ratios)]
    if len(ratios) >= 2:
        med = _median(ratios)
        ok = max(ratios) <= CZ_MEDIAN_FACTOR * med if med > 0 else max(ratios) == 0.0
        checks.append(reporting.make_check(
            "sweep_stability", ok, max_ratio=max(ratios), median=med,
            factor=CZ_MEDIAN_FACTOR))
    rows = [reporting.sweep_row(r.t, r.lhs, r.rhs, r.ratio, True) for r in reports]
    return checks, {"ratios": rows}, [f"ratios: {ratios}"]


def _run_norm_estimate(params):
    grid = _grid_from(params)
    sym = _symbol(params, grid.half_extent)
    pvals = _floats(params.get("p", "2"), "p")
    if len(pvals) == 1:
        p = MixedExponent.uniform(pvals[0], grid.dim)
    else:
        p = MixedExponent(pvals)
    est = operator_norm_estimate(sym, grid, p,
                                 method=params.get("method", "random_ascent"),
                                 budget=_int(params, "budget", 300),
                                 seed=_int(params, "seed", 0))
    checks = []
    rows = [reporting.sweep_row(grid.points_per_axis, est.estimate, None, None,
                                est.converged, lower=est.lower,
                                upper=est.upper, reason=est.reason)]
    upper = "none" if est.upper is None else f"{est.upper:.8g}"
    lines = [f"estimate = {est.estimate:.8g} ({est.method}, {est.reason}), "
             f"bracket [{est.lower:.8g}, {upper}]"]
    return checks, {"estimate": rows}, lines


def _order_triple(params) -> tuple:
    """The class order (m, rho, delta) of the budget and conditions runs."""
    return (_float(params, "m", 0.0), _float(params, "rho", 1.0),
            _float(params, "delta", 0.0))


def _run_budget(params):
    budget = smoothness_budget(_int(params, "d", 1), *_order_triple(params))
    line = f"N={budget.N} N'={budget.Nprime} M={budget.M} M'={budget.Mprime}"
    rows = [reporting.sweep_row(name, lhs, rhs, None, ok)
            for name, lhs, _op, rhs, ok in budget.verify()]
    checks = [reporting.make_check("budget_inequalities", budget.all_satisfied,
                                   N=budget.N, Nprime=budget.Nprime,
                                   M=budget.M, Mprime=budget.Mprime)]
    return checks, {"constraints": rows}, [line]


def _run_conditions(params):
    pvals = _floats(params.get("p", "2"), "p")
    p = pvals[0] if len(pvals) == 1 else MixedExponent(pvals)
    rep = condition_report(*_order_triple(params), _int(params, "d", 1), p)
    rows = [reporting.sweep_row(f"necessary_p{i + 1}", m, r, None, m >= 0)
            for i, (m, r) in enumerate(zip(rep.necessary_margins, rep.necessary_rhs))]
    rows.append(reporting.sweep_row("sufficient", rep.sufficient_margin,
                                    rep.sufficient_rhs, None,
                                    rep.sufficient_margin >= 0))
    lines = [f"necessary_lp = {rep.necessary_lp}  sufficient_thm32 = {rep.sufficient_thm32}"]
    return [], {"margins": rows}, lines


def _run_probe(params):
    expect = params.get("expect", "report")
    half_extent = _float(params, "R", 32.0)
    sym = parse_symbol_spec(params.get("symbol", "wave:0"),
                            period=2.0 * half_extent)
    rep = necessary_condition_probe(
        sym,
        p=_float(params, "p", 4.0),
        resolutions=_ints(params.get("resolutions", "64,128,256,512"), "resolutions"),
        half_extent=half_extent,
        dim=_int(params, "d", 1),
        budget=_int(params, "budget", 300),
        seed=_int(params, "seed", 0),
        expect=expect,
    )
    checks = []
    if expect == "growth":
        checks.append(reporting.make_check("norm_growth", rep.grows,
                                           growth=rep.growth,
                                           threshold=PROBE_GROWTH_THRESHOLD,
                                           certified=rep.certified))
    elif expect == "stable":
        checks.append(reporting.make_check(
            "norm_stability", rep.variation <= PROBE_STABLE_TOLERANCE,
            variation=rep.variation, tolerance=PROBE_STABLE_TOLERANCE,
            certified=rep.certified))
    rows = [reporting.sweep_row(n, est, rep.estimates[0],
                                est / rep.estimates[0], conv, lower=lower,
                                upper=upper, reason=reason, iterations=used)
            for n, est, conv, lower, upper, reason, used in zip(
                rep.resolutions, rep.estimates, rep.converged, rep.lowers,
                rep.uppers, rep.reasons, rep.iterations)]
    lines = [f"estimates: {dict(zip(rep.resolutions, [round(e, 6) for e in rep.estimates]))}",
             f"growth = {rep.growth:+.2%}, variation = {rep.variation:.2%}, "
             f"certified = {rep.certified}"]
    return checks, {"estimates": rows}, lines


# every experiment once: its handler and the flags beyond the common ones
_COMMANDS = {
    "apply": (_run_apply, "--symbol --input --output"),
    "verify-symbol": (_run_verify_symbol, "--symbol --xi-max --x-extent --cap "
                      "--num-x --num-xi --step"),
    "dyadic": (_run_dyadic, "--symbol --levels --x"),
    "kernel-decay": (_run_kernel_decay, "--symbol --levels --x --window --L "
                     "--alpha --beta --shells --slope-range --decay-csv"),
    "cz-check": (_run_cz_check, "--symbol --l --t --x0prime --Nconst --pbar --input"),
    "norm-estimate": (_run_norm_estimate, "--symbol --p --method --budget"),
    "budget": (_run_budget, "--m --rho --delta"),
    "conditions": (_run_conditions, "--m --rho --delta --p"),
    "probe": (_run_probe, "--symbol --p --resolutions --budget --expect"),
}


def run(kind: str, params: dict) -> int:
    """Execute one experiment; writes report files and returns the exit code."""
    checks, tables, lines = _COMMANDS[kind][0](params)
    for line in lines:
        print(line)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    out_dir = Path(params.get("out_dir") or ".")
    # echo only the experiment parameters; output plumbing does not affect
    # the numbers and would break byte-for-byte determinism across out-dirs
    echo = {k: v for k, v in params.items()
            if k not in ("out_dir", "json", "csv", "config")}
    report = reporting.build_report(kind, echo, params.get("seed", 0), checks, tables)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if params.get("json", True):
            path = reporting.write_json_report(report, out_dir / f"{kind}-report.json")
            print(f"report: {path}")
        if params.get("csv", True):
            for name, rows in tables.items():
                reporting.write_sweep_csv(out_dir / f"{kind}-{name}.csv", rows)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write to out-dir {out_dir}: {exc.strerror or exc}") from None
    return 0 if reporting.all_passed(checks) else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub):
    for flag in ("--d", "--n", "--R", "--seed"):   # read in `_merge_params`
        sub.add_argument(flag, default=None)
    sub.add_argument("--out-dir", dest="out_dir", default=None)
    sub.add_argument("--json", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--csv", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--config", default=None, help="JSON config file; flags win")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged and
    every flag defaults to None, so no run's values reach the next."""
    parser = argparse.ArgumentParser(
        prog="psido-lab",
        description="numerical experiments with pseudodifferential operators")
    subs = parser.add_subparsers(dest="kind", required=True)
    for name, (_handler, flags) in _COMMANDS.items():
        sub = subs.add_parser(name)
        _add_common(sub)
        for flag in flags.split():
            sub.add_argument(flag, default=None)
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
        for key in loaded:   # the experiment's flags, as the parser names them
            if key == "kind" or key not in vars(args):
                raise InvalidInputError(f"config key {key!r} is not a parameter of {args.kind}")
        params.update(loaded)
    params.update((key, value) for key, value in vars(args).items()
                  if key not in ("kind", "config") and value is not None)
    for key, number in {"d": _int, "n": _int, "R": _float, "seed": _int}.items():
        if params.get(key) is not None:   # echoed as numbers: --n 64.0 as 64
            params[key] = number(params, key, None)
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args.kind, _merge_params(args))
    except (InvalidInputError, SymbolEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
