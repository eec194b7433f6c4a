"""Dyadic rings on their support boxes, bit for bit against the whole grid.

`DyadicDecomposition.rings()` yields each ring on the centred box outside
which it is exactly zero, and `sum_values` (so `kernel_sum`),
`dyadic_envelope_check`, `decay_fit` and the CLI `dyadic` / `kernel-decay`
handlers work on those boxes only.  The references here are the
whole-grid computations: `whole_grid_rings` walks every cutoff on the
whole grid (the box of every ring is then the grid), and `whole_grid_*`
are the full-grid loops.  Every comparison is of uint64 views, except
where an even symbol's kernel or CLI figures come from the nonnegative
orthant: those are held to the orthant's bounds against the whole grid
(see `within_kernel_bound` and `assert_figures_close`).
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from psidolab import (Grid, SampledFunction, Symbol, SymbolClassParams,
                      dyadic_decompose, dyadic_envelope_check,
                      fourier_transform, kernel_sum)
from psidolab import cli, operators
from psidolab.estimates import DecayFitResult, KernelDecayParams, decay_fit
from psidolab.operators import DyadicDecomposition


def coupled():
    return Symbol(lambda x, xi: np.exp(0.1j * np.sum(x * xi, axis=-1))
                  / (1.0 + np.sum(xi**2, axis=-1)),
                  SymbolClassParams(m=0.0), "general", label="coupled")


# (d, n, R, levels, spec): every symbol kind at d = 1..3; sep at d=2 has its
# top ring clipped by Nyquist (box = whole grid), and at R = 1 ring 0's box
# is 3 points per axis
CASES = [
    (1, 256, 8.0, 5, "bessel:-1"),
    (1, 64, 4.0, 3, "sep:2,6:-1"),
    (2, 32, 4.0, 3, "wave:0"),
    (2, 32, 4.0, 4, "sep:2,6:-1"),
    (2, 16, 1.0, 3, "general"),
    (3, 16, 1.0, 3, "trig:2,6"),
    (3, 16, 2.0, 2, "bessel:-2"),
    (3, 16, 2.0, 2, "sep:2,6:-1"),
]
DECAY_CASES = [c for c in CASES if c[4] != "wave:0"]  # wave has rho = 0


def ids(cases):
    return [f"d{d}-n{n}-R{R}-L{levels}-{spec}" for d, n, R, levels, spec in cases]


DECAY_L = 2.0  # extra decay: d + m + L > 0 for every case


def case(d, n, R, levels, spec):
    sym = coupled() if spec == "general" else cli.parse_symbol_spec(spec, 2.0 * R)
    dd = dyadic_decompose(sym, Grid(d, n, R), levels)
    x = None if sym.x_independent else np.array([-0.0, 0.375, -0.0][:d])
    return dd, x


def bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def whole_grid_rings(dd, orthant=False):
    """The cutoffs of pieces 0..levels, each on the whole grid."""
    assert not orthant
    whole = (slice(None),) * dd.grid.dim
    for j in range(dd.levels + 1):
        yield whole, dd.cutoff_values(j)


def whole_grid_sum(dd, x):
    sym = dd.symbol_values(x)
    total = np.zeros(dd.dual.shape, dtype=np.complex128)
    for j in range(dd.levels + 1):
        total += sym * dd.cutoff_values(j)
    return total


def whole_grid_suprema(dd, M, beta, x):
    """sup |z|^M |d^beta k_j| per ring, each piece on the whole grid."""
    weight = dd.grid.radius() ** M if M else np.ones(dd.grid.shape)
    deriv = dd.dual.derivative_multiplier(beta)
    sym = dd.symbol_values(x)
    sups = []
    for j in range(dd.levels + 1):
        kj = fourier_transform(SampledFunction(
            dd.dual, sym * dd.cutoff_values(j) * deriv), "inverse")
        sups.append(float(np.max(weight * np.abs(kj.values))))
    return sups


def whole_grid_decay_fit(kernel, window, params, num_shells):
    """decay_fit's statistics from the whole grid's radius and |k|."""
    d, p = kernel.grid.dim, kernel.symbol_params
    base = (d + p.m + p.delta * sum(params.alpha) + sum(params.beta) + params.L)
    z_lo, z_hi = window
    radius = kernel.grid.radius()
    mag = np.abs(kernel.values)
    in_window = (radius >= z_lo) & (radius <= z_hi)
    if float(mag[in_window].max()) == 0.0:
        return DecayFitResult(None, 0.0, -base, (), (), True, True)
    edges = np.geomspace(z_lo, z_hi, num_shells + 1)
    centers, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (radius >= a) & (radius < b)
        if sel.any() and float(mag[sel].max()) > 0:
            centers.append(math.sqrt(a * b))
            maxima.append(float(mag[sel].max()))
    if len(centers) < 2:
        return DecayFitResult(None, 0.0, -base, tuple(centers), tuple(maxima),
                              True, True)
    slope = float(np.polyfit(np.log(centers), np.log(maxima), 1)[0])
    envelope = float(np.max(mag[in_window] * radius[in_window] ** base))
    return DecayFitResult(slope, envelope, -base, tuple(centers), tuple(maxima),
                          False, bool(np.isfinite(envelope)))


def within_kernel_bound(got, want):
    """Kernel samples within 1e-14 of max|k| of the reference."""
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def orthant_index(dd):
    """Dual index per axis of the orthant: FFT order 0..n/2, with -n/2."""
    n = dd.grid.points_per_axis
    return np.r_[n // 2:n, 0]


def box_side(dd, j):
    """Points per axis with |xi_k| < 2^(j+1) + dxi, counted on the axis."""
    axis = dd.dual.axis_coords()
    return int(np.count_nonzero(np.abs(axis) < 2.0 ** (j + 1) + dd.dual.spacing))


@pytest.mark.parametrize("d, n, R, levels, spec", CASES, ids=ids(CASES))
def test_rings_are_zero_outside_their_boxes(d, n, R, levels, spec):
    dd, _ = case(d, n, R, levels, spec)
    for j, (box, ring) in enumerate(dd.rings()):
        cutoff = dd.cutoff_values(j)
        assert ring.shape == (box_side(dd, j),) * d
        assert same_bits(ring, cutoff[box]), j
        outside = np.ones(dd.dual.shape, dtype=bool)
        outside[box] = False
        # +0.0 outside: the bits of zero, not merely equal to it
        assert not cutoff.view(np.uint64)[outside].any(), j
        assert np.all(dd.dual.radius()[outside] > 2.0 ** (j + 1)), j


@pytest.mark.parametrize("d, n, R, levels, spec", CASES, ids=ids(CASES))
def test_sum_and_kernel_sum_match_the_whole_grid(d, n, R, levels, spec):
    dd, x = case(d, n, R, levels, spec)
    want = whole_grid_sum(dd, x)
    assert same_bits(dd.sum_values(x), want)
    back = fourier_transform(SampledFunction(dd.dual, want), "inverse")
    got = kernel_sum(dd, x).values
    # every symbol here but the general and the x-only one is even, and
    # its kernel comes from the orthant, whose sum has the whole grid's bits
    assert dd.even == (spec not in ("general", "trig:2,6"))
    if dd.even:
        index = np.ix_(*[orthant_index(dd)] * d)
        assert same_bits(dd.sum_values(x, orthant=True), want[index])
        assert within_kernel_bound(got, back.values)
    else:
        assert same_bits(got, back.values)


@pytest.mark.parametrize("d, n, R, levels, spec", CASES, ids=ids(CASES))
def test_envelope_check_matches_the_whole_grid(d, n, R, levels, spec, monkeypatch):
    dd, x = case(d, n, R, levels, spec)
    pairs = ((0, (0,) * d), (1, (1,) + (0,) * (d - 1)), (2, (0,) * (d - 1) + (2,)))
    for M, beta in ((M, beta) for M, beta in pairs if M <= dd.symbol.params.Nprime):
        got = dyadic_envelope_check(dd, M, (0,) * d, beta, x=x)
        assert same_bits(got.suprema, whole_grid_suprema(dd, M, beta, x)), M
        with monkeypatch.context() as m:
            m.setattr(DyadicDecomposition, "rings", whole_grid_rings)
            want = dyadic_envelope_check(dd, M, (0,) * d, beta, x=x)
        assert got == want and same_bits(got.ratios, want.ratios), M


def test_envelope_pieces_carry_signed_zeros_the_boxes_drop():
    # the whole-grid piece sym * ring * (i xi)^beta holds -0.0 outside the
    # top box, where the boxed piece holds +0.0; the transforms then differ
    # only in the sign of exact zeros, so the suprema keep their bits
    dd, x = case(2, 64, 4.0, 3, "wave:0")
    beta = (1, 0)
    *_, (box, _) = dd.rings()
    piece = dd.symbol_values(x) * dd.cutoff_values(dd.levels) \
        * dd.dual.derivative_multiplier(beta)
    outside = np.ones(dd.dual.shape, dtype=bool)
    outside[box] = False
    parts = piece.view(np.float64).reshape(piece.shape + (2,))[outside]
    assert not np.any(parts) and np.any(np.signbit(parts))
    rep = dyadic_envelope_check(dd, 1, (0, 0), beta, x=x)
    assert same_bits(rep.suprema, whole_grid_suprema(dd, 1, beta, x))


@pytest.mark.parametrize("d, n, R, levels, spec", DECAY_CASES, ids=ids(DECAY_CASES))
def test_decay_fit_matches_the_whole_grid(d, n, R, levels, spec):
    dd, x = case(d, n, R, levels, spec)
    kern = kernel_sum(dd, x)
    h, zero = dd.grid.spacing, (0,) * d
    params = KernelDecayParams(zero, zero, DECAY_L)
    for window, shells in (((2 * h, R / 2), 16), ((2 * h, 3 * R / 8), 5),
                           ((2.5 * h, R / 2), 2)):
        got = decay_fit(kern, window, params, num_shells=shells)
        want = whole_grid_decay_fit(kern, window, params, shells)
        assert got == want, window
        assert same_bits(got.shell_maxima, want.shell_maxima), window
        assert same_bits([got.envelope_constant, got.slope or 0.0],
                         [want.envelope_constant, want.slope or 0.0]), window


def test_whole_grid_and_tiny_boxes_occur():
    # the cases above include a top ring clipped by Nyquist, whose box is
    # the whole grid, and a ring 0 whose box is 3 points per axis
    dd, _ = case(2, 32, 4.0, 4, "sep:2,6:-1")
    *_, (top, _) = dd.rings()
    assert top == (slice(0, 32),) * 2
    dd, _ = case(3, 16, 1.0, 3, "trig:2,6")
    (low, ring), *_ = dd.rings()
    assert low == (slice(7, 10),) * 3 and ring.shape == (3, 3, 3)


def test_each_cutoff_is_evaluated_on_its_box_only(monkeypatch, tmp_path):
    sizes = []
    plain = operators.low_pass_cutoff

    def counted(r):
        sizes.append(np.size(r))
        return plain(r)

    monkeypatch.setattr(operators, "low_pass_cutoff", counted)
    dd, x = case(3, 32, 2.0, 3, "sep:2,6:-1")
    want = [box_side(dd, j) ** 3 for j in range(dd.levels + 1)]
    assert want[0] < want[-1] < dd.dual.total_points
    dd.sum_values(x)
    assert sizes == want
    sizes.clear()
    dyadic_envelope_check(dd, 0, (0,) * 3, (0,) * 3, x=x)
    assert sizes == want
    sizes.clear()
    # sep is even, so the CLI cuts each ring on the orthant's part of its box
    assert cli.main(["dyadic", "--symbol", "sep:2,6:-1", "--d", "3", "--n", "32",
                     "--R", "2", "--levels", "3", "--x=-0.0,0.375,-0.0",
                     "--out-dir", str(tmp_path)]) == 0
    assert sizes == [(box_side(dd, j) // 2 + 1) ** 3 for j in range(dd.levels + 1)]


@pytest.mark.parametrize("spec", ["bessel:-1", "sep:2,6:-1"])
def test_dyadic_walk_forms_no_whole_grid_radius(spec, monkeypatch, tmp_path):
    # the rings, then the leak and reconstruction checks, take |xi| on the
    # rings' boxes: on the orthant's part of each for these even symbols,
    # on the whole grid's boxes with the even declaration cleared; the top
    # box is short of the whole grid here
    dd, _ = case(3, 32, 2.0, 3, spec)
    sides = [box_side(dd, j) for j in range(dd.levels + 1)]
    assert sides[-1] < 32
    plain = Grid.radius
    for orthant in (True, False):
        calls = []

        def recorded(grid, box=None):
            out = plain(grid, box)
            calls.append((box, out.size))
            return out

        with monkeypatch.context() as m:
            m.setattr(Grid, "radius", recorded)
            if not orthant:
                m.setattr(DyadicDecomposition, "even", property(lambda dd: False))
            assert cli.main(["dyadic", "--symbol", spec, "--d", "3", "--n", "32",
                             "--R", "2", "--levels", "3", "--x=-0.0,0.375,-0.0",
                             "--out-dir", str(tmp_path / str(orthant))]) == 0
        boxes, sizes = zip(*calls)
        assert None not in boxes
        assert list(sizes) == 2 * [(side // 2 + 1 if orthant else side) ** 3
                                   for side in sides]
        if not orthant:
            assert boxes[-1] != (slice(0, 32),) * 3


def report(path, out_dir):
    rep = json.loads(path.read_text().replace(str(out_dir), "OUT"))
    rep.pop("timestamp")
    return rep


def sweep_rows(rows):
    """Sweep-table rows, from a report or parsed from its CSV, as numbers."""
    def value(key, v):
        if isinstance(v, str):
            return None if v == "" else v == "True" if key == "pass" else float(v)
        return v
    return [{k: value(k, v) for k, v in row.items()} for row in rows]


# the whole grid's other half mirrors the orthant to roundoff only, which
# moves a `dyadic` figure by up to 1.93e-14 of max|sigma| (wave:0 at d=3
# n=34, the last of CLI_CASES) in a scan of d = 1..3, n = 8..256
DYADIC_BOUND = 2e-14
CLI_CASES = CASES + [(3, 34, 0.5, 4, "wave:0")]


def assert_figures_close(got, want):
    """An even symbol's CLI outputs from the orthant against the full
    path's: the same keys, flags, radii and row layout; each `dyadic`
    figure (piece max, leak, reconstruction error) within DYADIC_BOUND of
    max|sigma|; the kernel-decay slope, envelope and predicted bounds
    within 1e-13 relative; shell maxima and radial |k| within 1e-14 of
    max|k|, and each shell's ratio within what those allow."""
    (reports, csvs), (want_reports, want_csvs) = got, want
    assert csvs.keys() == want_csvs.keys()
    tables = {}
    for name, text in want_csvs.items():
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        got_rows = list(csv.DictReader(io.StringIO(csvs[name].decode())))
        if name == "decay.csv":
            maxk = max(float(row["abs_k"]) for row in rows)
            assert [row["abs_z"] for row in got_rows] == [row["abs_z"] for row in rows]
            assert max(abs(float(a["abs_k"]) - float(b["abs_k"]))
                       for a, b in zip(got_rows, rows)) <= 1e-14 * maxk
        else:
            tables[name.rsplit("-", 1)[0]] = (sweep_rows(got_rows), sweep_rows(rows))
    for rep, want_rep in zip(reports, want_reports):
        kind = want_rep["experiment"]
        name, rows = next(iter(want_rep["tables"].items()))
        pairs = [(sweep_rows(rep["tables"][name]), sweep_rows(rows)), tables[kind]]
        scale = max(row["measured"] for row in rows)  # max|sigma| for dyadic
        for check, want_check in zip(rep.pop("checks"), want_rep.pop("checks")):
            assert check.keys() == want_check.keys()
            for key, w in want_check.items():
                g = check[key]
                if isinstance(w, float):
                    tol = DYADIC_BOUND * scale if kind == "dyadic" else 1e-13 * abs(w)
                    assert abs(g - w) <= tol, (kind, key, g, w)
                else:
                    assert g == w, (kind, key)
        for got_rows, want_rows in pairs:
            assert len(got_rows) == len(want_rows)
            for g, w in zip(got_rows, want_rows):
                assert g["j_or_t"] == w["j_or_t"] and g["pass"] == w["pass"]
                if kind == "dyadic":
                    assert g["predicted"] is w["predicted"] is None
                    for key in ("measured", "ratio"):
                        assert abs(g[key] - w[key]) <= DYADIC_BOUND * scale, (key, g, w)
                    continue
                bound = w["predicted"]
                assert abs(g["measured"] - w["measured"]) <= 1e-14 * maxk, (g, w)
                assert abs(g["predicted"] - bound) <= 1e-13 * bound, (g, w)
                assert abs(g["ratio"] - w["ratio"]) <= (1e-13 * w["ratio"]
                                                        + 1e-14 * maxk / bound), (g, w)
        rep.pop("tables"), want_rep.pop("tables")
        assert rep == want_rep


@pytest.mark.parametrize("d, n, R, levels, spec", CLI_CASES, ids=ids(CLI_CASES))
def test_cli_outputs_match_the_whole_grid(d, n, R, levels, spec, monkeypatch,
                                          tmp_path):
    # the dyadic report and pieces CSV; for rho > 0 also the kernel-decay
    # report, shells CSV and radial CSV.  The "whole" side runs the full
    # complex path: no even declaration, every ring on the whole grid.
    # Other symbols keep their bytes; an even symbol's figures come from
    # the orthant, within its bounds
    if spec == "general":  # no spec string reaches a coupled symbol
        monkeypatch.setattr(cli, "parse_symbol_spec", lambda s, period: coupled())
    common = ["--symbol", spec, "--d", str(d), "--n", str(n), "--R", str(R),
              "--levels", str(levels), "--x=" + ",".join(["-0.0", "0.375", "-0.0"][:d])]
    commands = [["dyadic"]]
    if (d, n, R, levels, spec) in DECAY_CASES:
        # at n = 16 the default window would start at 4h = R/2: start at 2h
        window = ["--window", f"{4 * R / n},{R / 2}"] if n == 16 else []
        commands.append(["kernel-decay", "--L", str(DECAY_L), *window])
    outputs = {}
    for side in ("boxes", "whole"):
        out = tmp_path / side
        with monkeypatch.context() as m:
            if side == "whole":
                m.setattr(DyadicDecomposition, "even", property(lambda dd: False))
                m.setattr(DyadicDecomposition, "rings", whole_grid_rings)
            for command in commands:
                csv = ["--decay-csv", str(out / "decay.csv")] if command != ["dyadic"] else []
                assert cli.main(command + csv + common + ["--out-dir", str(out)]) == 0
        outputs[side] = ([report(path, out) for path in sorted(out.glob("*.json"))],
                         {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert len(outputs["boxes"][1]) == 2 * len(commands) - 1
    if case(d, n, R, levels, spec)[0].even:
        assert_figures_close(outputs["boxes"], outputs["whole"])
    else:
        assert outputs["boxes"] == outputs["whole"]


@pytest.mark.parametrize("d, j", [(2, 2), (2, 3), (3, 2)])
def test_ring_support_fails_on_a_planted_leak(d, j, monkeypatch, tmp_path, capsys):
    # ring j with a nonzero value where |xi| < 2^(j-1), on the orthant the
    # CLI takes for bessel:-1 and on the whole grid (even declaration
    # cleared): at the whole grid's box centre, xi = 0, and at the
    # orthant's index (1, 0, ...), |xi| = pi/R.  The dyadic run must report
    # exactly that leak for piece j and fail ring_support.  Neither point
    # is in its box's first row, so a leak read from one row misses it
    planted = 0.25
    plain = DyadicDecomposition.rings
    for orthant in (True, False):
        leaks = []

        def leaky(dd, on_orthant=False):
            assert on_orthant == orthant
            sym = dd.symbol_values(None, on_orthant)
            for k, (box, ring) in enumerate(plain(dd, on_orthant)):
                if k == j:
                    at = ((1,) + (0,) * (d - 1) if on_orthant
                          else tuple(side // 2 for side in ring.shape))
                    index = dd.orthant_box(box) if on_orthant else box
                    assert dd.dual.radius(index)[at] < 2.0 ** (j - 1)
                    ring = ring.copy()
                    ring[at] = planted
                    leaks.append(abs(sym[box][at] * planted))
                yield box, ring

        out = tmp_path / str(orthant)
        with monkeypatch.context() as m:
            m.setattr(DyadicDecomposition, "rings", leaky)
            if not orthant:
                m.setattr(DyadicDecomposition, "even", property(lambda dd: False))
            assert cli.main(["dyadic", "--symbol", "bessel:-1", "--d", str(d), "--n",
                             "16", "--R", "2", "--levels", "3", "--out-dir", str(out)]) == 1
        assert "FAIL ring_support" in capsys.readouterr().out.splitlines()
        rows = json.loads((out / "dyadic-report.json").read_text())["tables"]["pieces"]
        assert leaks[0] > 0 and (leaks[0] == planted) == (not orthant)
        assert [(row["ratio"], row["pass"]) for row in rows] == [
            (leaks[0] if k == j else 0.0, k != j) for k in range(4)]
