"""Dyadic rings on their support boxes, bit for bit against the whole grid.

`DyadicDecomposition.rings()` yields each ring on the centred box outside
which it is exactly zero, and `sum_values` (so `kernel_sum`),
`dyadic_envelope_check`, `decay_fit` and the CLI `dyadic` / `kernel-decay`
handlers work on those boxes only.  The references here are the
whole-grid computations: `whole_grid_rings` walks every cutoff on the
whole grid (the box of every ring is then the grid), and `whole_grid_*`
are the full-grid loops.  Every comparison is of uint64 views.
"""

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


def whole_grid_rings(dd):
    """The cutoffs of pieces 0..levels, each on the whole grid."""
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
    assert same_bits(kernel_sum(dd, x).values, back.values)


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
    assert cli.main(["dyadic", "--symbol", "sep:2,6:-1", "--d", "3", "--n", "32",
                     "--R", "2", "--levels", "3", "--x=-0.0,0.375,-0.0",
                     "--out-dir", str(tmp_path)]) == 0
    assert sizes == want


@pytest.mark.parametrize("spec", ["bessel:-1", "sep:2,6:-1"])
def test_dyadic_walk_forms_no_whole_grid_radius(spec, monkeypatch, tmp_path):
    # the rings, the leak check and the reconstruction check take |xi| on
    # the rings' boxes, the top one short of the whole grid here
    boxes = []
    plain = Grid.radius

    def recorded(grid, box=None):
        boxes.append(box)
        return plain(grid, box)

    monkeypatch.setattr(Grid, "radius", recorded)
    assert cli.main(["dyadic", "--symbol", spec, "--d", "3", "--n", "32", "--R", "2",
                     "--levels", "3", "--x=-0.0,0.375,-0.0",
                     "--out-dir", str(tmp_path)]) == 0
    assert len(boxes) == 2 * 4 and None not in boxes
    assert boxes[-1] != (slice(0, 32),) * 3


def report(path, out_dir):
    rep = json.loads(path.read_text().replace(str(out_dir), "OUT"))
    rep.pop("timestamp")
    return rep


@pytest.mark.parametrize("d, n, R, levels, spec", CASES, ids=ids(CASES))
def test_cli_outputs_match_the_whole_grid(d, n, R, levels, spec, monkeypatch,
                                          tmp_path):
    # the dyadic report and pieces CSV; for rho > 0 also the kernel-decay
    # report, shells CSV and radial CSV
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
                m.setattr(DyadicDecomposition, "rings", whole_grid_rings)
            for command in commands:
                csv = ["--decay-csv", str(out / "decay.csv")] if command != ["dyadic"] else []
                assert cli.main(command + csv + common + ["--out-dir", str(out)]) == 0
        outputs[side] = ([report(path, out) for path in sorted(out.glob("*.json"))],
                         [path.read_bytes() for path in sorted(out.glob("*.csv"))])
    assert len(outputs["boxes"][1]) == 2 * len(commands) - 1
    assert outputs["boxes"] == outputs["whole"]


@pytest.mark.parametrize("d, j", [(2, 2), (2, 3), (3, 2)])
def test_ring_support_fails_on_a_planted_leak(d, j, monkeypatch, tmp_path, capsys):
    # ring j with a nonzero value at its box centre, xi = 0, where
    # |xi| < 2^(j-1): the dyadic run must report exactly that leak for
    # piece j (|bessel:-1| is 1 at xi = 0) and fail ring_support; the
    # centre is in no box's first row, so a leak read from one row misses it
    planted = 0.25
    plain = DyadicDecomposition.rings

    def leaky(dd):
        for k, (box, ring) in enumerate(plain(dd)):
            if k == j:
                centre = tuple(side // 2 for side in ring.shape)
                assert dd.dual.radius(box)[centre] == 0.0
                ring = ring.copy()
                ring[centre] = planted
            yield box, ring

    monkeypatch.setattr(DyadicDecomposition, "rings", leaky)
    assert cli.main(["dyadic", "--symbol", "bessel:-1", "--d", str(d), "--n", "16",
                     "--R", "2", "--levels", "3", "--out-dir", str(tmp_path)]) == 1
    assert "FAIL ring_support" in capsys.readouterr().out.splitlines()
    rows = json.loads((tmp_path / "dyadic-report.json").read_text())["tables"]["pieces"]
    assert [(row["ratio"], row["pass"]) for row in rows] == [
        (planted if k == j else 0.0, k != j) for k in range(4)]
