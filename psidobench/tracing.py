"""Per-layer tracing for the psidolab benchmark, done from outside the package.

`Tracer.install()` replaces each public function of a layer at every module
binding inside psidolab (``fourier_transform`` is imported by name into
``grid``, ``operators`` and ``estimates``, so patching one module alone
would miss most calls), plus a few methods on the ``Grid``,
``SampledFunction``, ``Symbol`` and ``DyadicDecomposition`` classes.

Every wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it called, so summing self times over all
spans never counts an interval twice.  Counters (points, bytes, rows,
iterations) are recorded at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

_MARK = "_psidobench_span"


class Tracer:
    """Span bookkeeping: per-span-name call counts, self time and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)      # inclusive time, for non-recursive spans
        self.counters = defaultdict(int)
        self.fft_shapes = defaultdict(int)     # (shape, direction) -> calls
        self.selfcheck = []                    # (k, converged, transforms, expected)
        self._stack = []                       # [start, child_time] per open span
        self._patched = []                     # (owner, attribute, original)

    # -- span core ---------------------------------------------------------

    def span(self, fn, name, after=None):
        """Wrap fn so each call is a span named name (or name(args) if callable).

        `after(args, kwargs, result)` runs after the call, outside the
        timed interval, to record counters.
        """
        if getattr(fn, _MARK, False):
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                label = name(*args, **kwargs) if callable(name) else name
                self.calls[label] += 1
                self.self_s[label] += elapsed - frame[1]
                self.total_s[label] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _rebind(self, modules, original, wrapped):
        """Point every module-level binding of `original` at `wrapped`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.span(original, name, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- instrumentation of psidolab ----------------------------------------

    def install(self):
        # the package re-exports the function mixed_norm under the module's
        # name, so modules are looked up by their dotted names
        names = ("grid", "symbols", "mixed_norm", "operators", "estimates",
                 "fileio", "reporting", "cli")
        (grid, symbols, mixed_norm, operators, estimates, fileio, reporting,
         cli) = (importlib.import_module(f"psidolab.{n}") for n in names)
        mods = [sys.modules["psidolab"], grid, symbols, mixed_norm,
                operators, estimates, fileio, reporting, cli]

        def fn(module, attr, name, after=None):
            original = getattr(module, attr)
            self._rebind(mods, original, self.span(original, name, after))

        # grid
        def ft_after(args, kwargs, result):
            f = args[0]
            direction = args[1] if len(args) > 1 else kwargs.get("direction", "forward")
            self.counters["grid.fourier_transform.points"] += f.values.size
            self.fft_shapes[(f.values.shape, direction)] += 1

        fn(grid, "fourier_transform", "grid.fourier_transform", ft_after)
        fn(grid, "random_band_limited", "grid.random_band_limited")
        self._patch_method(grid.SampledFunction, "__post_init__",
                           "grid.SampledFunction")
        for method in ("meshgrid", "coord_stack", "radius", "dual"):
            self._patch_method(grid.Grid, method, "grid.geometry")

        # symbols
        def eval_after(args, kwargs, result):
            self.counters["symbols.eval.points"] += result.size

        self._patch_method(symbols.Symbol, "eval", "symbols.eval", eval_after)
        for factory in ("bessel_multiplier", "wave_multiplier", "constant_symbol",
                        "trig_multiplication", "separable_symbol"):
            self._wrap_factory(symbols, factory, mods)

        self._wrap_verify(symbols, mods)

        # operators
        fn(operators, "apply_psido",
           lambda s, *a, **k: f"operators.apply.{s.kind}")
        fn(operators, "discrete_adjoint_apply",
           lambda s, *a, **k: f"operators.adjoint.{s.kind}")
        fn(operators, "dyadic_decompose", "operators.dyadic")
        for method in ("symbol_values", "cutoff_values", "piece_values",
                       "sum_values", "truncation_values"):
            self._patch_method(operators.DyadicDecomposition, method,
                               "operators.dyadic")
        fn(operators, "kernel_piece", "operators.kernel")
        fn(operators, "kernel_sum", "operators.kernel")

        # mixed norms
        fn(mixed_norm, "mixed_norm", "mixed_norm.mixed_norm")
        fn(mixed_norm, "iterated_pnorm", "mixed_norm.iterated_pnorm")

        # estimates
        self._wrap_norm_estimate(estimates, mods)
        fn(estimates, "cz_condition_check", "estimates.cz")
        fn(estimates, "cz_sweep", "estimates.cz")
        fn(estimates, "necessary_condition_probe", "estimates.probe")
        fn(estimates, "decay_fit", "estimates.decay_fit")

        # file formats and reports
        def pslb_after(args, kwargs, result):
            self.counters["fileio.pslb.bytes"] += Path(args[0]).stat().st_size

        def csv_after(args, kwargs, result):
            self.counters["fileio.csv.rows"] += args[1].values.size

        fn(fileio, "write_pslb", "fileio.pslb", pslb_after)
        fn(fileio, "read_pslb", "fileio.pslb", pslb_after)
        fn(fileio, "write_radial_decay_csv", "fileio.csv", csv_after)
        fn(fileio, "write_function_csv", "fileio.csv", csv_after)

        def report_after(args, kwargs, result):
            self.counters["reporting.bytes"] += Path(result).stat().st_size

        fn(reporting, "build_report", "reporting")
        fn(reporting, "write_json_report", "reporting", report_after)
        fn(reporting, "write_sweep_csv", "reporting", report_after)

        fn(cli, "main", "cli")
        return self

    def _wrap_factory(self, module, attr, mods):
        """Symbols built by this factory sample their x / xi factors in spans.

        Only the factor callables are spans; the cheap factory call is not.
        A separable symbol reuses the already wrapped factors of its parts.
        """
        original = getattr(module, attr)

        def points(args, kwargs, result):
            self.counters["symbols.factor.points"] += result.size

        def factory(*args, **kwargs):
            sym = original(*args, **kwargs)
            wrapped = {k: self.span(f, "symbols.factor", points)
                       for k in ("x_factor", "xi_factor")
                       if (f := getattr(sym, k)) is not None}
            return dataclasses.replace(sym, **wrapped)

        functools.update_wrapper(factory, original)
        self._rebind(mods, original, factory)

    def _wrap_verify(self, symbols, mods):
        original = symbols.verify_symbol_class

        def verify(s, spec, cap):
            c = self.counters
            before = c["symbols.eval.points"]
            report = original(s, spec, cap)
            c["symbols.verify.eval_points"] += c["symbols.eval.points"] - before
            c["symbols.verify.sample_pairs"] += (
                len(report.entries) * spec.num_x * spec.num_xi)
            c["symbols.verify.failing_pairs"] += sum(
                not e.passed for e in report.entries)
            return report

        functools.update_wrapper(verify, original)
        self._rebind(mods, original, self.span(verify, "symbols.verify"))

    def _wrap_norm_estimate(self, estimates, mods):
        original = estimates.operator_norm_estimate
        ft = "grid.fourier_transform"

        def applies():
            return sum(c for n, c in self.calls.items()
                       if n.startswith(("operators.apply.", "operators.adjoint.")))

        def counted(s, grid, p, method, budget=300, seed=0):
            ft_before, ap_before = self.calls[ft], applies()
            est = original(s, grid, p, method, budget=budget, seed=seed)
            self.counters["estimates.norm.iterations"] += est.iterations
            self.counters["estimates.norm.converged"] += est.converged
            self.counters["estimates.norm.applies"] += applies() - ap_before
            if method == "power_iteration_p2" and s.kind == "multiplier":
                k = est.iterations
                expected = 4 * k - 1 if est.converged else 4 * k + 1
                self.selfcheck.append((k, est.converged,
                                       self.calls[ft] - ft_before, expected))
            return est

        functools.update_wrapper(counted, original)
        self._rebind(mods, original, self.span(counted, "estimates.norm"))
