import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from psidolab import (CZCheckConfig, Grid, SampledFunction, Symbol,
                      cz_condition_check, cz_sweep, make_cancellation_test_function,
                      random_band_limited)
from psidolab import apply_psido, cli, fileio
from psidolab.cli import main, parse_symbol_spec
from psidolab.errors import InvalidInputError
from psidolab.fileio import read_pslb, write_pslb
from psidolab.operators import DyadicDecomposition


def run_cli(*args):
    return main(list(args))


class TestSymbolSpecs:
    def test_known_kinds(self):
        assert parse_symbol_spec("const:1", 4.0).kind == "multiplication"
        assert parse_symbol_spec("bessel:-2", 4.0).kind == "multiplier"
        assert parse_symbol_spec("wave:0", 4.0).kind == "multiplier"
        assert parse_symbol_spec("trig:2,6", 4.0).kind == "multiplication"
        assert parse_symbol_spec("sep:2,6:-1", 4.0).kind == "separable"

    def test_bad_specs(self):
        for bad in ("nosuch:1", "bessel", "trig:x,y", "bessel:-1:junk",
                    "wave:0:junk", {"kind": "bessel", "m": -1, "N": 2.9},
                    {"kind": "bessel", "m": -1, "Nprime": 4.5},
                    {"kind": "trig", "coeffs": []},
                    {"kind": "trig", "smoothness": 2, "terms": 3, "period": "inf"},
                    {"kind": "trig", "smoothness": 2, "terms": 3, "period": "nan"},
                    {"kind": "trig", "coeffs": [float("nan"), 0.1]},
                    # series sizes are whole numbers; booleans are not numbers
                    "trig:2.5,6", {"kind": "trig", "smoothness": 2.5},
                    {"kind": "trig", "terms": 6.7},
                    {"kind": "sep", "m": -1, "x_part": {"smoothness": 2.5}},
                    {"kind": "trig", "smoothness": True},
                    {"kind": "trig", "coeffs": [True, 0.1]},
                    {"kind": "bessel", "m": True}, {"kind": "const", "value": True}):
            with pytest.raises(InvalidInputError):
                parse_symbol_spec(bad, 4.0)

    def test_mapping_spec_with_class_claim(self):
        sym = parse_symbol_spec({"kind": "bessel", "m": -2, "rho": 0.5,
                                 "delta": 0.25, "N": 2, "Nprime": 6}, 4.0)
        assert sym.kind == "multiplier"
        assert (sym.params.m, sym.params.rho, sym.params.delta) == (-2.0, 0.5, 0.25)
        assert (sym.params.N, sym.params.Nprime) == (2, 6)
        trig = parse_symbol_spec({"kind": "trig", "coeffs": [0.2, 0.1],
                                  "N": 2}, 4.0)
        assert trig.kind == "multiplication"
        with pytest.raises(InvalidInputError):
            parse_symbol_spec({"kind": "bessel"}, 4.0)

    def test_string_is_shorthand_for_mapping(self):
        pairs = [
            ("const:2", {"kind": "const", "value": 2}),
            ("bessel:-2", {"kind": "bessel", "m": -2}),
            ("wave", {"kind": "wave"}),
            ("wave:0.5", {"kind": "wave", "m": 0.5}),
            ("trig:3,4", {"kind": "trig", "smoothness": 3, "terms": 4}),
            ("sep:4,6:-1", {"kind": "sep", "m": -1,
                            "x_part": {"smoothness": 4, "terms": 6}}),
            ("trig:4.0,6", {"kind": "trig", "smoothness": 4.0, "terms": 6.0}),
        ]
        for text, mapping in pairs:
            a = parse_symbol_spec(text, 4.0)
            b = parse_symbol_spec(mapping, 4.0)
            assert (a.kind, a.label, a.params) == (b.kind, b.label, b.params), text
        assert parse_symbol_spec("sep:4,6:-1", 4.0).params.N == 4


class TestBudgetCommand:
    def test_reference_output(self, tmp_path, capsys):
        code = run_cli("budget", "--d", "1", "--m", "0", "--rho", "1",
                       "--delta", "0", "--out-dir", str(tmp_path))
        out = capsys.readouterr().out
        assert code == 0
        assert "N=10 N'=20 M=0 M'=4" in out
        report = json.loads((tmp_path / "budget-report.json").read_text())
        assert report["checks"][0]["passed"] is True
        assert (tmp_path / "budget-constraints.csv").exists()

    def test_infeasible_exits_one(self, tmp_path, capsys):
        code = run_cli("budget", "--d", "1", "--m", "0", "--rho", "0.05",
                       "--delta", "0", "--out-dir", str(tmp_path))
        assert code == 1
        assert "Mprime_kernel" in capsys.readouterr().err


class TestApplyCommand:
    def test_identity_round_trip(self, tmp_path):
        g = Grid(1, 128, 8.0)
        f = random_band_limited(g, np.random.default_rng(0))
        src = tmp_path / "f.bin"
        dst = tmp_path / "g.bin"
        write_pslb(src, f)
        code = run_cli("apply", "--symbol", "const:1", "--input", str(src),
                       "--output", str(dst), "--out-dir", str(tmp_path))
        assert code == 0
        out = read_pslb(dst)
        assert np.max(np.abs(out.values - f.values)) <= 1e-10

    @pytest.mark.parametrize("spec", ["const:0.5-2j", "bessel:-1", "wave:0",
                                      "trig:2,6", "sep:2,6:-1"])
    @pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
    def test_payload_is_apply_psidos(self, tmp_path, spec, d, n):
        # the CLI applies T on one operator plan: apply_psido's bits, signed
        # zeros included, for an input holding signed zeros and an all-zero one
        g = Grid(d, n, 4.0)
        signed = random_band_limited(g, np.random.default_rng(d)).values.copy()
        flat = signed.reshape(-1)
        flat[::3], flat[1::5] = complex(-0.0, 0.0), complex(0.0, -0.0)
        flat[2::7] = complex(-0.0, -0.0)
        header = fileio._HEADER.size
        for name, values in (("signed", signed), ("zero", np.zeros(g.shape, complex))):
            src, dst = tmp_path / f"{name}.pslb", tmp_path / f"{name}-out.pslb"
            write_pslb(src, SampledFunction(g, values))
            assert run_cli("apply", "--symbol", spec, "--input", str(src),
                           "--output", str(dst), "--out-dir", str(tmp_path)) == 0
            want = apply_psido(parse_symbol_spec(spec, 2.0 * g.half_extent), read_pslb(src))
            got = dst.read_bytes()
            assert got[:header] == src.read_bytes()[:header]
            assert np.array_equal(np.frombuffer(got, "<u8", offset=header),
                                  want.values.view(np.uint64).reshape(-1))

    def test_missing_paths_exit_two(self, tmp_path):
        assert run_cli("apply", "--symbol", "const:1",
                       "--out-dir", str(tmp_path)) == 2

    def test_overflowing_factor_product_exits_two(self, tmp_path, capsys):
        # finite factors, about 1e160 and <xi>^150 <= 1e210, whose product
        # overflows: the symbol's error naming the point, no numpy warning
        src = tmp_path / "f.pslb"
        write_pslb(src, random_band_limited(Grid(1, 64, 4.0), np.random.default_rng(0)))
        config = tmp_path / "sep.json"
        config.write_text(json.dumps({"symbol": {
            "kind": "sep", "m": 150, "x_part": {"coeffs": [1e160, 1e160]}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("apply", "--config", str(config), "--input", str(src),
                           "--output", str(tmp_path / "g.pslb"),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: sep(trig:2,bessel:150.0): non-finite value at x=[-3.875], "
            "xi=[-25.132741228718345]\n")
        assert not (tmp_path / "g.pslb").exists()

    def test_overflowing_result_exits_two(self, tmp_path, capsys):
        # a finite input whose product with <xi>^100 overflows: one error
        # line naming the symbol and the overflow, no numpy warning
        src = tmp_path / "f.pslb"
        g = Grid(1, 64, 4.0)
        write_pslb(src, random_band_limited(g, np.random.default_rng(0)) * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("apply", "--symbol", "bessel:100", "--input", str(src),
                           "--output", str(tmp_path / "g.pslb"),
                           "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bessel:100.0: the result overflows on {g}, though the input "
            "and every symbol sample are finite\n")
        assert not (tmp_path / "g.pslb").exists()


class TestCzCommand:
    def test_nonzero_mean_input_exits_two(self, tmp_path, capsys):
        g = Grid(2, 32, 4.0)
        x1, x2 = g.meshgrid()
        f = SampledFunction(g, np.where(np.abs(x2) < 1.0, 1.0, 0.0)
                            * np.exp(-x1**2))
        src = tmp_path / "bad.bin"
        write_pslb(src, f)
        code = run_cli("cz-check", "--symbol", "bessel:-4", "--l", "1",
                       "--x0prime", "0", "--pbar", "2", "--t", "1",
                       "--input", str(src), "--out-dir", str(tmp_path))
        assert code == 2
        assert "zero-mean" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, error", [
        (("--l", "1"), "--pbar must list 1 inner exponents"),
        (("--l", "1", "--pbar", "1"), "exponents must lie strictly inside (1, inf), got 1.0"),
        (("--l", "1", "--pbar", "1", "--t", "0.01"),      # read before the widths
         "exponents must lie strictly inside (1, inf), got 1.0"),
        (("--l", "2", "--pbar", "2,2"), "x0prime: expected numbers, got ''"),
        (("--l", "2", "--pbar", "2,2", "--x0prime", "0"), "split l = 2 outside 0..1"),
        (("--l", "1", "--pbar", "2", "--x0prime", "0,0"),
         "x0prime has 2 components, expected 1"),
        (("--l", "0", "--x0prime", "0"), "x0prime has 1 components, expected 2"),
        (("--l", "2", "--pbar", "2,2", "--x0prime", "0", "--t", "0.01"),
         "split l = 2 outside 0..1"),   # before the plan and the widths
    ])
    def test_split_disagreements_exit_two(self, tmp_path, capsys, flags, error):
        # --l must agree with the count of --pbar, and the x0prime
        # coordinates with d - l
        code = run_cli("cz-check", "--symbol", "wave:0", "--d", "2", "--n", "64",
                       "--R", "4", *flags, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_passes(self, tmp_path):
        code = run_cli("cz-check", "--symbol", "bessel:-4", "--d", "2",
                       "--n", "64", "--R", "4", "--l", "1", "--x0prime", "0",
                       "--Nconst", "3", "--pbar", "2", "--t", "0.5,1",
                       "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "cz-check-ratios.csv").read_text().splitlines()
        assert rows[0] == "j_or_t,measured,predicted,ratio,pass"
        assert len(rows) == 3
        report = json.loads((tmp_path / "cz-check-report.json").read_text())
        stability = report["checks"][1]
        assert stability["name"] == "sweep_stability" and stability["passed"]
        assert repr(stability["factor"]) == "10.0" and cli.CZ_MEDIAN_FACTOR == 10.0


    @pytest.mark.parametrize("spec, d, n, l, ts", [
        ("sep:2,6:-2", 3, 32, 2, (1.0, 2.0)), ("bessel:-4", 2, 64, 1, (0.5, 1.0, 2.0)),
        ("wave:0", 2, 64, 0, (0.5, 1.0))])
    def test_ratios_are_apply_psidos(self, tmp_path, spec, d, n, l, ts):
        # cz-check applies T on one operator plan: each width's lhs, rhs and
        # ratio carry the bits of the same check through apply_psido, on
        # the sweep's test functions and on a PSLB input
        g = Grid(d, n, 4.0)
        sym = parse_symbol_spec(spec, 2.0 * g.half_extent)
        pbar = (2.0, 3.0)[:l]
        x0 = [0.0] * (d - l)
        common = ["--symbol", spec, "--l", str(l), "--x0prime", ",".join(["0"] * (d - l)),
                  "--Nconst", "3", "--out-dir", str(tmp_path)]
        if l:
            common += ["--pbar", ",".join(["2", "3"][:l])]
        report = tmp_path / "cz-check-report.json"

        def rows():
            return [(r["measured"].hex(), r["predicted"].hex(), r["ratio"].hex())
                    for r in json.loads(report.read_text())["tables"]["ratios"]]

        assert run_cli("cz-check", *common, "--d", str(d), "--n", str(n), "--R", "4",
                       "--t", ",".join(map(str, ts))) == 0
        want = cz_sweep(lambda u: apply_psido(sym, u), g, x0, 3.0, pbar, ts)
        assert rows() == [(r.lhs.hex(), r.rhs.hex(), r.ratio.hex()) for r in want]
        assert any(r.lhs > 0 for r in want)  # N t > R excludes no point
        src = tmp_path / "f.pslb"
        write_pslb(src, make_cancellation_test_function(g, ts[0], x0))
        assert run_cli("cz-check", *common, "--input", str(src), "--t", str(ts[0])) == 0
        cfg = CZCheckConfig(t=ts[0], x0prime=x0, Nconst=3.0, pbar=pbar)
        want = cz_condition_check(lambda u: apply_psido(sym, u), cfg, read_pslb(src))
        assert rows() == [(want.lhs.hex(), want.rhs.hex(), want.ratio.hex())]

    def test_sweep_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma for its NaN check, about 15 ms a process
        code = ("import sys; from psidolab import cli; "
                "code = cli.main(sys.argv[1:]); "
                "assert code == 0, code; "
                "assert 'numpy.ma' not in sys.modules")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", code, "cz-check", "--symbol",
                        "bessel:-4", "--d", "2", "--n", "64", "--R", "4",
                        "--l", "1", "--x0prime", "0", "--Nconst", "3",
                        "--pbar", "2", "--t", "0.5,1,2", "--out-dir", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=120)
        report = json.loads((tmp_path / "cz-check-report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        ratios = checks["ratios_finite"]["ratios"]
        assert len(ratios) == 3
        assert checks["sweep_stability"]["median"] == float(np.median(ratios))

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [0.1, 0.7, 0.2], [0.1, 0.7, 0.2, 0.3],
        [1e308, 1.7e308], [math.inf, 1.0], [1.0, math.inf, 2.0],
        [1.0, math.nan, 2.0], [math.nan, 0.5],
        list(np.random.default_rng(4).uniform(0, 1, 10)),
        list(np.random.default_rng(5).uniform(0, 1, 11))])
    def test_median_bits_match_numpy(self, values):
        with np.errstate(over="ignore"):
            want = np.float64(np.median(values))
        got = np.float64(cli._median(values))
        assert got.view(np.uint64) == want.view(np.uint64)


class TestVerifyCommand:
    def test_false_claim_exits_one(self, tmp_path):
        # the oscillating multiplier cannot carry a full decay-gain claim
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"symbol": "wave:0", "xi_max": 64.0,
                                   "cap": 10.0}))
        honest = run_cli("verify-symbol", "--config", str(cfg),
                         "--out-dir", str(tmp_path))
        assert honest == 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "m": 0.0, "rho": 1.0, "delta": 0.0}))
        code = run_cli("budget", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "budget-report.json").read_text())
        assert report["checks"][0]["N"] == 10
        # flags win over the file
        code = run_cli("budget", "--config", str(cfg), "--d", "2",
                       "--out-dir", str(tmp_path))
        report = json.loads((tmp_path / "budget-report.json").read_text())
        assert report["checks"][0]["N"] == 12

    @pytest.mark.parametrize("symbol", ["wave:0", "bessel:-1"])
    def test_step_too_small_exits_two(self, tmp_path, capsys, symbol):
        # the stencils of step 1e-300 cannot be evaluated: one error line
        # naming the step, no RuntimeWarning, no report
        code = run_cli("verify-symbol", "--symbol", symbol, "--step", "1e-300",
                       "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: step 1e-300 too small") and err.count("\n") == 1
        assert not (tmp_path / "verify-symbol-report.json").exists()

    @pytest.mark.parametrize("flags", [
        ("--xi-max", "inf"), ("--x-extent", "inf"), ("--step", "0"),
        ("--step", "-0.05")])
    def test_sample_set_needs_finite_positive_sizes(self, tmp_path, capsys, flags):
        code = run_cli(*VERIFY, "--d", "1", "--cap", "10", *flags,
                       "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite and positive" in err
        assert not (tmp_path / "verify-symbol-report.json").exists()


class TestDeterminism:
    @staticmethod
    def _strip_timestamp(path):
        data = json.loads(path.read_text())
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    def test_identical_config_and_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ("norm-estimate", "--symbol", "bessel:-1", "--d", "1", "--n",
                "64", "--R", "8", "--p", "4", "--method", "random_ascent",
                "--budget", "60", "--seed", "42")
        assert run_cli(*args, "--out-dir", str(a)) == 0
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert (self._strip_timestamp(a / "norm-estimate-report.json")
                == self._strip_timestamp(b / "norm-estimate-report.json"))

    def test_reused_parser_keeps_no_values(self, tmp_path):
        # the parser is built once per process: a flag given to one run
        # must not reach the next, nor may the next build another parser
        a, b = tmp_path / "a", tmp_path / "b"
        args = ("norm-estimate", "--symbol", "bessel:-1", "--d", "1", "--n",
                "64", "--R", "8", "--p", "2", "--budget", "10")
        assert run_cli(*args, "--seed", "42", "--out-dir", str(a)) == 0
        parser = cli.build_parser()
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert cli.build_parser() is parser
        first = json.loads((a / "norm-estimate-report.json").read_text())
        second = json.loads((b / "norm-estimate-report.json").read_text())
        assert first["seed"] == first["config"]["seed"] == 42
        assert second["seed"] == 0 and "seed" not in second["config"]

    def test_empty_check_report_is_valid(self, tmp_path):
        code = run_cli("conditions", "--d", "1", "--m", "0", "--rho", "1",
                       "--delta", "0", "--p", "2.5", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "conditions-report.json").read_text())
        assert report["checks"] == []
        assert report["schema_version"] == 1


class TestNormEstimateCommand:
    def test_closed_bracket_reports_its_lower_bound(self, tmp_path, capsys):
        # a p=2 multiplier's bracket [1, 1] closes at the first apply, whose
        # measured ratio need not reach it: the report and the line give lower
        code = run_cli("norm-estimate", "--symbol", "bessel:-1", "--d", "1",
                       "--n", "512", "--R", "8", "--p", "2",
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert "estimate = 1 (random_ascent, bracket_closed)" in capsys.readouterr().out
        report = json.loads((tmp_path / "norm-estimate-report.json").read_text())
        row = report["tables"]["estimate"][0]
        assert row["measured"] == row["lower"] == row["upper"] == 1.0
        assert row["reason"] == "bracket_closed"

    def test_settled_run_reports_its_lower_bound(self, tmp_path):
        # the ascent settles one ulp under the plane-wave ratio 1, which
        # certifies lower = 1: the report gives lower, not the settled ratio
        code = run_cli("norm-estimate", "--symbol", "bessel:-1", "--d", "1",
                       "--n", "64", "--R", "32", "--p", "1.3333333333333333",
                       "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "norm-estimate-report.json").read_text())
        row = report["tables"]["estimate"][0]
        assert row["reason"] == "settled"
        assert row["measured"] == row["lower"] == 1.0

    @pytest.mark.parametrize("d, n, R", [(1, 16, "1e-300"), (3, 8, "1e-110")])
    def test_box_out_of_float_range_exits_two(self, tmp_path, capsys, d, n, R):
        # such a box once printed overflow warnings and a bracket [1, 1], or
        # reported its underflowed transform as NaN or Inf samples
        code = run_cli("norm-estimate", "--symbol", "bessel:-1", "--d", str(d),
                       "--n", str(n), "--R", R, "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: half_extent {float(R)!r}") and err.count("\n") == 1


class TestProbeCommand:
    @pytest.mark.parametrize("expect, check, key, value", [
        ("growth", "norm_growth", "threshold", 0.2),
        ("stable", "norm_stability", "tolerance", 0.05)])
    def test_verdicts_state_their_constants(self, tmp_path, capsys, expect,
                                            check, key, value):
        # wave:0 at p=4 grows 13.76% from n=64 to n=128: short of the growth
        # threshold and beyond the stable tolerance, so either verdict fails
        # and neither is certified
        code = run_cli("probe", "--symbol", "wave:0", "--p", "4", "--resolutions",
                       "64,128", "--R", "32", "--expect", expect,
                       "--out-dir", str(tmp_path))
        assert code == 1
        assert "variation = 13.76%, certified = False" in capsys.readouterr().out
        [got] = json.loads((tmp_path / "probe-report.json").read_text())["checks"]
        assert got["name"] == check and not got["passed"] and got[key] == value
        assert got["certified"] is False

    @pytest.mark.parametrize("argv, check, key, value", [
        (("--symbol", "wave:0", "--resolutions", "64,128,256,512", "--expect",
          "growth", "--seed", "1"), "norm_growth", "growth", 0.23085354770042388),
        (("--symbol", "bessel:-1", "--expect", "stable"), "norm_stability",
         "variation", 0.004460965755511026)])
    def test_certified_verdicts(self, tmp_path, capsys, argv, check, key, value):
        # the two probes CI runs: the brackets certify each verdict, and
        # the resolutions not run report their brackets with reason verdict
        code = run_cli("probe", "--p", "4", "--R", "32", *argv,
                       "--out-dir", str(tmp_path))
        assert code == 0
        assert "certified = True" in capsys.readouterr().out
        report = json.loads((tmp_path / "probe-report.json").read_text())
        [got] = report["checks"]
        assert (got["name"], got["passed"], got["certified"]) == (check, True, True)
        assert got[key] == value
        rows = report["tables"]["estimates"]
        assert rows[0]["reason"] == rows[1]["reason"] == "verdict"
        assert rows[0]["iterations"] == rows[1]["iterations"] == 0
        assert all(row["measured"] == row["lower"] for row in rows)
        assert not any(row["pass"] for row in rows)


class TestDyadicCommand:
    def test_reconstruction_checks(self, tmp_path):
        code = run_cli("dyadic", "--symbol", "bessel:-1", "--d", "1", "--n",
                       "256", "--R", "16", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "dyadic-report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert names == {"reconstruction", "ring_support"}

    def test_x_dependent_symbol_evaluated_once(self, tmp_path, monkeypatch):
        # the reconstruction check and every piece share one sample at x,
        # which a separable symbol forms from its factors, not its evaluator
        calls = []

        def counted(owner, name):
            plain = getattr(owner, name)

            def wrapped(self, *args):
                calls.append(name)
                return plain(self, *args)

            monkeypatch.setattr(owner, name, wrapped)

        counted(Symbol, "eval")
        counted(DyadicDecomposition, "_separable_values")
        code = run_cli("dyadic", "--symbol", "sep:2,6:-1", "--d", "2",
                       "--levels", "3", "--out-dir", str(tmp_path))
        assert code == 0 and calls == ["_separable_values"]

    def test_overflowing_symbol_exits_two(self, tmp_path, capsys):
        # <xi>^120 overflows on this grid: a typed error, not a NaN report,
        # and no numpy RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli("dyadic", "--symbol", "bessel:120", "--d", "1",
                           "--n", "4096", "--R", "1", "--out-dir", str(tmp_path))
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "dyadic-report.json").exists()


class TestKernelDecayCommand:
    def test_slope_assertion(self, tmp_path):
        code = run_cli("kernel-decay", "--symbol", "bessel:-1", "--d", "2",
                       "--n", "128", "--R", "3", "--levels", "5", "--window",
                       "0.1,0.5", "--L", "0", "--slope-range=-1.3,-0.7",
                       "--out-dir", str(tmp_path))
        assert code == 0
        code = run_cli("kernel-decay", "--symbol", "bessel:-1", "--d", "2",
                       "--n", "128", "--R", "3", "--levels", "5", "--window",
                       "0.1,0.5", "--L", "0", "--slope-range=-0.2,-0.1",
                       "--out-dir", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ("--window", "0.5"), ("--window", "1,2,3"), ("--slope-range", "1"),
        ("--slope-range", "1,2,3"), ("--alpha", "0.7,0"), ("--beta", "0,1.5")])
    def test_malformed_numbers_exit_two(self, tmp_path, capsys, flags):
        # window and slope range take exactly two numbers, multi-indices
        # integers: an error line, not a traceback, a dropped number or a
        # truncated order
        code = run_cli("kernel-decay", "--symbol", "bessel:-1", "--d", "2",
                       "--n", "64", "--R", "8", *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "kernel-decay-report.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--L", "inf"), "L must be finite"),
        (("--shells", "0"), "at least 2"), (("--shells", "1"), "at least 2")])
    def test_degenerate_fit_parameters_exit_two(self, tmp_path, capsys, flags,
                                                message):
        # an infinite extra decay and a fit over fewer than two shells
        # are invalid input, not a failed or a passing check
        code = run_cli(*KERNEL_DECAY, "--d", "2", *flags, "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "kernel-decay-report.json").exists()


class TestLevels:
    @pytest.mark.parametrize("levels", [0, 2.5])
    def test_bad_config_levels_exit_two(self, tmp_path, capsys, levels):
        # only a missing level count takes the default
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"levels": levels}))
        code = run_cli("dyadic", "--symbol", "bessel:-1", "--d", "2", "--n", "64",
                       "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("levels", ["0", "2.5"])
    def test_bad_flag_levels_exit_two(self, tmp_path, levels):
        code = run_cli("dyadic", "--symbol", "bessel:-1", "--d", "2", "--n", "64",
                       "--levels", levels, "--out-dir", str(tmp_path))
        assert code == 2

    def test_integral_config_levels_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"levels": 3.0}))
        code = run_cli("dyadic", "--symbol", "bessel:-1", "--d", "2", "--n", "64",
                       "--config", str(config), "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "dyadic-report.json").read_text())
        assert len(report["tables"]["pieces"]) == 4


def _config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return ("--config", str(path))


KERNEL_DECAY = ("kernel-decay", "--symbol", "bessel:-1", "--n", "64", "--R", "8")
VERIFY = ("verify-symbol", "--symbol", "bessel:-1")
CZ = ("cz-check", "--symbol", "bessel:-1", "--d", "2", "--n", "32")


class TestMalformedParameters:
    # every number is read where it arrives, from a flag or a config file:
    # one error line naming the parameter, exit 2, no traceback, no report
    @pytest.mark.parametrize("argv, config, name", [
        (VERIFY + ("--xi-max", "abc"), None, "xi_max"),
        (VERIFY + ("--num-x", "2.5"), None, "num_x"),
        (VERIFY + ("--cap", "abc"), None, "cap"),
        (VERIFY + ("--cap", "nan"), None, "cap"),
        (("conditions", "--m", "nan"), None, "m"),
        (("budget", "--m", "abc"), None, "m"),
        (("conditions", "--m", "abc"), None, "m"),
        (("probe", "--p", "x"), None, "p"),
        (("probe", "--budget", "x"), None, "budget"),
        (("probe", "--expect", "bogus"), None, "expect"),
        (CZ + ("--Nconst", "q"), None, "Nconst"),
        (CZ + ("--l", "1.5"), None, "l"),
        (KERNEL_DECAY + ("--L", "abc"), None, "L"),
        (KERNEL_DECAY + ("--shells", "2.5"), None, "shells"),
        (("norm-estimate", "--symbol", "bessel:-1", "--n", "32"),
         {"seed": "abc"}, "seed"),
        (KERNEL_DECAY[:3] + ("--R", "8"), {"d": 2.7, "n": 64.9, "shells": 16.5}, "d"),
        (KERNEL_DECAY[:3] + ("--R", "8"), {"n": 64.9}, "n"),
        (KERNEL_DECAY, {"shells": 16.5}, "shells"),
        (VERIFY, {"num_x": 3.9}, "num_x"),
        (("verify-symbol",),
         {"symbol": {"kind": "trig", "smoothness": 2.5, "terms": 6.7}}, "smoothness"),
        (("verify-symbol",),
         {"symbol": {"kind": "trig", "smoothness": 2, "terms": 6.7}}, "terms"),
        (("dyadic", "--symbol", "bessel:-1"), {"n": True}, "n"),
        (("norm-estimate", "--symbol", "bessel:-1", "--n", "32"),
         {"budget": True}, "budget"),
        (KERNEL_DECAY, {"alpha": [True, 0]}, "alpha"),
        (("probe",), {"expect": "bogus"}, "expect"),
        (("conditions", "--m", "inf"), None, "m"),
        (("conditions", "--m=-inf"), None, "m"),
        (("conditions", "--p", "0"), None, "p"),
        (("conditions", "--p", "0.5"), None, "p"),
        (("dyadic", "--symbol", "bessel:-1", "--n", "64.9"), None, "n"),
    ])
    def test_exit_two_naming_the_parameter(self, tmp_path, capsys, argv,
                                           config, name):
        out_dir = tmp_path / "out"
        extra = _config(tmp_path, config) if config is not None else ()
        code = run_cli(*argv, *extra, "--out-dir", str(out_dir))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{name}: expected" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_integral_values_accepted(self, tmp_path):
        # 64.0 is 64 and 1e3 is 1000; the report echoes the raw budget and
        # the common n as the number it reads
        code = run_cli("norm-estimate", "--symbol", "bessel:-1", "--R", "8",
                       "--method", "power_iteration_p2", "--budget", "1e3",
                       *_config(tmp_path, {"n": 64.0}), "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "norm-estimate-report.json").read_text())
        assert report["config"]["n"] == 64 and type(report["config"]["n"]) is int
        assert report["config"]["budget"] == "1e3"
        assert report["tables"]["estimate"][0]["j_or_t"] == 64

    def test_common_flags_echo_as_numbers(self, tmp_path):
        # --n 64.0 is 64 and writes the report of --n 64, as a flag or as a
        # config string; a seed above 2^53 given as digits stays exact
        def report(name, *args):
            out = tmp_path / name
            assert run_cli("dyadic", "--symbol", "bessel:-1", "--d", "1", "--R", "8",
                           *args, "--out-dir", str(out)) == 0
            rep = json.loads((out / "dyadic-report.json").read_text())
            rep.pop("timestamp")
            return json.dumps(rep, sort_keys=True)

        big = str(2**53 + 1)
        exact = report("64", "--n", "64", "--seed", big)
        assert report("64.0", "--n", "64.0", "--seed", big) == exact
        assert report("config", *_config(tmp_path, {"n": "64.0", "seed": "7"})) \
            == report("flags", "--n", "64", "--seed", "7")
        exact = json.loads(exact)
        assert exact["config"]["n"] == 64 and exact["config"]["R"] == 8.0
        assert exact["seed"] == exact["config"]["seed"] == 2**53 + 1

    @pytest.mark.parametrize("kind, config, key", [
        ("dyadic", {"symbol": "bessel:-1", "n": 64, "bogus_key": 3}, "bogus_key"),
        ("probe", {"symbol": "wave:0", "stable_tolerance": 1.0}, "stable_tolerance"),
        ("budget", {"levels": 3}, "levels"),      # another experiment's flag
        ("budget", {"kind": "dyadic"}, "kind"),
    ])
    def test_config_keys_are_the_experiments_flags(self, tmp_path, capsys, kind,
                                                   config, key):
        # a key that names no flag of the experiment is refused, as an
        # unknown flag is, not ignored and echoed
        out_dir = tmp_path / "out"
        code = run_cli(kind, *_config(tmp_path, config), "--out-dir", str(out_dir))
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("error: config ") and f"{key!r} is not a parameter" in err
        assert not out_dir.exists()

    def test_missing_symbol_exits_two(self, tmp_path, capsys):
        assert run_cli("dyadic", "--n", "64", "--out-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == \
            "error: --symbol is required for this experiment\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("cz-check", "--inner-profile", "bump"), ("cz-check", "--outer-profile", "cos"),
        ("cz-check", "--max-median-factor", "10"), ("probe", "--growth-threshold", "0.2"),
        ("probe", "--stable-tolerance", "0.05")])
    def test_removed_flags_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestPaths:
    # an unreadable input or unwritable output path is invalid input;
    # {src} is a PSLB file, {missing} and {unwritable} paths that are not
    @pytest.mark.parametrize("argv, named", [
        (("apply", "--symbol", "bessel:-1", "--input", "{missing}",
          "--output", "{tmp}/g.pslb", "--out-dir", "{tmp}/out"), "{missing}"),
        (("apply", "--symbol", "bessel:-1", "--input", "{src}",
          "--output", "{unwritable}", "--out-dir", "{tmp}/out"), "{unwritable}"),
        (("cz-check", "--symbol", "bessel:-1", "--input", "{missing}",
          "--out-dir", "{tmp}/out"), "{missing}"),
        (KERNEL_DECAY + ("--d", "2", "--decay-csv", "{unwritable}",
                         "--out-dir", "{tmp}/out"), "{unwritable}"),
        (("budget", "--out-dir", "{src}/out"), "{src}/out"),
        (("budget", "--config", "{missing}", "--out-dir", "{tmp}/out"), "{missing}"),
        (("budget", "--config", "{listed}", "--out-dir", "{tmp}/out"),
         "{listed} must hold a JSON object"),
    ])
    def test_exit_two_naming_the_path(self, tmp_path, capsys, argv, named):
        paths = {"tmp": tmp_path, "src": tmp_path / "f.pslb",
                 "missing": tmp_path / "nope.pslb",
                 "unwritable": tmp_path / "no-such-dir" / "g.out",
                 "listed": tmp_path / "list.json"}
        write_pslb(paths["src"], random_band_limited(Grid(1, 64, 8.0),
                                                     np.random.default_rng(0)))
        paths["listed"].write_text("[1, 2]")
        code = run_cli(*(a.format(**paths) for a in argv))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named.format(**paths) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "g.pslb").exists()
