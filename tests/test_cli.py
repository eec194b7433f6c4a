import json

import numpy as np
import pytest

from psidolab import Grid, SampledFunction, random_band_limited
from psidolab.cli import main, parse_symbol_spec
from psidolab.errors import InvalidInputError
from psidolab.fileio import read_pslb, write_pslb


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
                    {"kind": "trig", "coeffs": []}):
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

    def test_missing_paths_exit_two(self, tmp_path):
        assert run_cli("apply", "--symbol", "const:1",
                       "--out-dir", str(tmp_path)) == 2


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

    def test_sweep_passes(self, tmp_path):
        code = run_cli("cz-check", "--symbol", "bessel:-4", "--d", "2",
                       "--n", "64", "--R", "4", "--l", "1", "--x0prime", "0",
                       "--Nconst", "3", "--pbar", "2", "--t", "0.5,1",
                       "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "cz-check-ratios.csv").read_text().splitlines()
        assert rows[0] == "j_or_t,measured,predicted,ratio,pass"
        assert len(rows) == 3


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

    def test_empty_check_report_is_valid(self, tmp_path):
        code = run_cli("conditions", "--d", "1", "--m", "0", "--rho", "1",
                       "--delta", "0", "--p", "2.5", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "conditions-report.json").read_text())
        assert report["checks"] == []
        assert report["schema_version"] == 1


class TestDyadicCommand:
    def test_reconstruction_checks(self, tmp_path):
        code = run_cli("dyadic", "--symbol", "bessel:-1", "--d", "1", "--n",
                       "256", "--R", "16", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "dyadic-report.json").read_text())
        names = {c["name"] for c in report["checks"]}
        assert names == {"reconstruction", "ring_support"}

    def test_overflowing_symbol_exits_two(self, tmp_path, capsys):
        # <xi>^120 overflows on this grid: a typed error, not a NaN report
        with np.errstate(over="ignore"):
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
