"""The benchmark's workloads: fixed batches of psidolab experiments.

An operation is one experiment: either ``psidolab.cli.main(argv)`` run in
the benchmark process, or (for the coupled symbol that no CLI spec reaches)
one ``apply_psido`` + ``discrete_adjoint_apply`` pair followed by the
pairing check.  `build(workload, seed, workdir)` is the set-up: it turns
the workload seed into concrete operations and writes their input files.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("grid-large", "sweep-small", "symbol-eval")
# working set of the host-speed reference job timed between operations
REFERENCE = {"grid-large": "dram", "sweep-small": "cache", "symbol-eval": "dram"}

PAIRING_RTOL = 1e-12
VERIFY_CAP = "10"


@dataclass
class Outcome:
    failed: bool
    detail: str


@dataclass
class CliOp:
    """One ``psido-lab`` invocation; its reports go to a fresh out-dir."""

    label: str
    key: tuple             # (symbol, grid) identity, for the repeat share
    argv: list

    def run(self, out_dir: Path) -> int:
        from psidolab import cli
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return cli.main(self.argv + ["--out-dir", str(out_dir)])
            except SystemExit as exc:    # argparse rejects bad flags this way
                return exc.code

    def judge(self, code: int, out_dir: Path) -> Outcome:
        """Exit 2 or a failed report check is a failure; a verify-symbol
        class verdict (exit 1, only `class_claim` false) is a measurement."""
        if code == 2:
            return Outcome(True, "exit 2")
        kind = self.argv[0]
        report = json.loads((out_dir / f"{kind}-report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if kind == "verify-symbol":
            rows = report["tables"]["constants"]
            pairs = sum(not row["pass"] for row in rows)
            ok = failed in ([], ["class_claim"]) and code == (1 if pairs else 0)
            return Outcome(not ok, f"exit {code}, {pairs}/{len(rows)} pairs over cap")
        if failed or code != 0:
            return Outcome(True, f"exit {code}, failed checks {failed}")
        return Outcome(False, "exit 0")


def coupled_symbol():
    """sigma(x, xi) = (1 + 0.3 cos x1) <xi>^(-1 + 0.2 sin x1): no factor split."""
    from psidolab.symbols import Symbol, SymbolClassParams

    def ev(x, xi):
        x1 = x[..., 0]
        bracket = np.sqrt(1.0 + np.sum(xi**2, axis=-1))
        return (1.0 + 0.3 * np.cos(x1)) * bracket ** (-1.0 + 0.2 * np.sin(x1)) + 0j

    return Symbol(ev, SymbolClassParams(m=-0.8), "general", label="coupled")


@dataclass
class CoupledOp:
    """T u and T* phi through the general (quadratic) path, then the pairing."""

    label: str
    key: tuple
    u: object
    phi: object

    def run(self, out_dir: Path):
        from psidolab import apply_psido, discrete_adjoint_apply, dual_pairing
        sym = coupled_symbol()
        lhs = dual_pairing(apply_psido(sym, self.u), self.phi)
        rhs = dual_pairing(self.u, discrete_adjoint_apply(sym, self.phi))
        return lhs, rhs

    def judge(self, pairing, out_dir: Path) -> Outcome:
        lhs, rhs = pairing
        residual = abs(lhs - rhs)
        ok = residual <= PAIRING_RTOL * abs(lhs)
        return Outcome(not ok, f"pairing residual {residual:.3e} vs |<Tu,phi>| {abs(lhs):.3e}")


def _grid_key(d, n, R):
    return (int(d), int(n), float(R))


def _cli(label, symbol, grid, argv):
    return CliOp(label, (str(symbol), grid), [str(a) for a in argv])


def _grid_large(workdir: Path, rng) -> list:
    # one experiment per (symbol, grid): nothing here repeats, so cross-call
    # caches cannot pay off, while large FFTs, geometry and file output dominate
    from psidolab import Grid, fileio, random_band_limited
    apply_grid = Grid(3, 128, 6.0)
    src = workdir / "apply-input.pslb"
    fileio.write_pslb(src, random_band_limited(apply_grid, rng))
    return [
        _cli("kernel-decay bessel:-1 d3 n128", "bessel:-1", _grid_key(3, 128, 4),
             ["kernel-decay", "--symbol", "bessel:-1", "--d", 3, "--n", 128,
              "--R", 4, "--levels", 4]),
        _cli("dyadic bessel:-1 d3 n128", "bessel:-1", _grid_key(3, 128, 8),
             ["dyadic", "--symbol", "bessel:-1", "--d", 3, "--n", 128, "--R", 8]),
        _cli("power norm bessel:-1 d3 n64", "bessel:-1", _grid_key(3, 64, 4),
             ["norm-estimate", "--symbol", "bessel:-1", "--d", 3, "--n", 64,
              "--R", 4, "--method", "power_iteration_p2",
              "--seed", rng.integers(2**31)]),
        _cli("apply sep:2,6:-1 d3 n128", "sep:2,6:-1", _grid_key(3, 128, 6),
             ["apply", "--symbol", "sep:2,6:-1", "--input", src,
              "--output", workdir / "apply-output.pslb"]),
        _cli("kernel-decay bessel:-1 d2 n512 csv", "bessel:-1", _grid_key(2, 512, 3),
             ["kernel-decay", "--symbol", "bessel:-1", "--d", 2, "--n", 512,
              "--R", 3, "--levels", 6, "--decay-csv", workdir / "decay.csv"]),
    ]


def _sweep_small(workdir: Path, rng) -> list:
    # the notebook sweep: many small runs, most repeating a (symbol, grid)
    # pair under a new seed; per-call overhead dominates, FFT size does not
    ops = []
    for _ in range(3):
        ops.append(_cli("probe wave:0 p4", "wave:0", ("d1", "n64..512", 32.0),
                        ["probe", "--symbol", "wave:0", "--p", 4,
                         "--resolutions", "64,128,256,512", "--R", 32,
                         "--expect", "growth", "--seed", rng.integers(2**31)]))
    for _ in range(4):
        ops.append(_cli("hill-climb bessel:-1 p3,1.5 d2 n64", "bessel:-1",
                        _grid_key(2, 64, 8),
                        ["norm-estimate", "--symbol", "bessel:-1", "--d", 2,
                         "--n", 64, "--R", 8, "--p", "3,1.5",
                         "--seed", rng.integers(2**31)]))
    for _ in range(3):
        ops.append(_cli("boyd wave:0 p4 d2 n64", "wave:0", _grid_key(2, 64, 8),
                        ["norm-estimate", "--symbol", "wave:0", "--d", 2,
                         "--n", 64, "--R", 8, "--p", 4,
                         "--seed", rng.integers(2**31)]))
    for _ in range(3):
        ops.append(_cli("power norm bessel:-1 d1 n512", "bessel:-1",
                        _grid_key(1, 512, 8),
                        ["norm-estimate", "--symbol", "bessel:-1", "--d", 1,
                         "--n", 512, "--R", 8, "--method", "power_iteration_p2",
                         "--seed", rng.integers(2**31)]))
    ops.append(_cli("cz-check sep:2,6:-2 d3 n64 l2", "sep:2,6:-2",
                    _grid_key(3, 64, 4),
                    ["cz-check", "--symbol", "sep:2,6:-2", "--d", 3, "--n", 64,
                     "--R", 4, "--l", 2, "--pbar", "2,3", "--x0prime", 0,
                     "--Nconst", 3, "--t", "0.5,1,2"]))
    ops.append(_cli("cz-check bessel:-4 d2 n128", "bessel:-4", _grid_key(2, 128, 4),
                    ["cz-check", "--symbol", "bessel:-4", "--d", 2, "--n", 128,
                     "--R", 4, "--l", 1, "--x0prime", 0, "--Nconst", 3,
                     "--pbar", 2, "--t", "0.25,0.5,1,2"]))
    return ops


def _symbol_eval(workdir: Path, rng) -> list:
    # symbol sampling and the quadratic general path: ~10^5 Symbol.eval
    # calls from finite-difference stencils, almost no transforms
    from psidolab import Grid, random_band_limited
    config = workdir / "bessel-nprime8.json"
    config.write_text(json.dumps(
        {"symbol": {"kind": "bessel", "m": -1, "Nprime": 8}}))
    ops = [
        _cli("verify bessel:-1 N'=8 d3", "bessel:-1,Nprime=8", ("samples", 3),
             ["verify-symbol", "--config", config, "--d", 3, "--cap", VERIFY_CAP,
              "--seed", rng.integers(2**31)]),
        _cli("verify sep:2,6:-1 d2", "sep:2,6:-1", ("samples", 2),
             ["verify-symbol", "--symbol", "sep:2,6:-1", "--d", 2,
              "--cap", VERIFY_CAP, "--seed", rng.integers(2**31)]),
    ]
    for d, n in ((1, 2048), (2, 64), (3, 16)):
        grid = Grid(d, n, math.pi)
        u = random_band_limited(grid, rng)
        phi = random_band_limited(grid, rng)
        ops.append(CoupledOp(f"coupled apply+adjoint d{d} n{n}", ("coupled", _grid_key(d, n, math.pi)),
                             u, phi))
    return ops


_BUILDERS = {"grid-large": _grid_large, "sweep-small": _sweep_small,
             "symbol-eval": _symbol_eval}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Operations of one batch, with their inputs generated from `seed`."""
    return _BUILDERS[workload](workdir, np.random.default_rng(seed))


def repeat_share(ops) -> tuple:
    """(ops that repeat an earlier op's (symbol, grid) pair, ops)."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats, len(ops)
