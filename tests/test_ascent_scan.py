import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("ascent_scan", TOOLS / "ascent_scan.py")
ascent_scan = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ascent_scan)
BASELINE = json.loads((TOOLS / "ascent_scan_baseline.json").read_text())


def row(seed, estimate, reason="settled", iterations=10):
    return {"symbol": 1, "label": "bessel:-1.0", "d": 1, "n": 512, "R": 8.0,
            "p": [4.0], "seed": seed, "estimate": estimate, "value": estimate,
            "lower": 1.0, "upper": 1.5, "reason": reason, "iterations": iterations}


def test_check_fails_only_below_the_seed_minimum(capsys):
    baseline = [row(1, 1.2), row(2, 1.1, "budget"), row(3, 1.3)]
    # seed 3 falls below its own value but not below the minimum over seeds
    assert ascent_scan.check([row(1, 1.2), row(2, 1.15), row(3, 1.1)], baseline)
    out = capsys.readouterr().out
    assert "3 cases: 1 rise, 1 equal, 1 fall" in out
    assert "budget -> other reason 1" in out and "seed=3: 1.3 -> 1.1" in out
    assert ascent_scan.check([row(1, 1.1 * (1 - 0.5e-10))], baseline)
    assert not ascent_scan.check([row(1, 1.1 * (1 - 2e-10))], baseline)
    assert "BELOW BASELINE MINIMUM" in capsys.readouterr().out
    # a case the baseline does not hold fails too
    assert not ascent_scan.check([row(4, 1.3)], baseline)
    assert "no baseline row" in capsys.readouterr().out


def test_baseline_holds_every_case_of_the_scan():
    cases = {(r["symbol"], r["d"], r["n"], r["R"], tuple(r["p"]), r["seed"])
             for r in BASELINE}
    want = {(k, d, n, R, p, seed) for d, n, R in ascent_scan.GRIDS
            for k in range(5) for p in ascent_scan.exponents(d)
            for seed in ascent_scan.SEEDS}
    assert len(BASELINE) == len(cases) == len(want) == 315
    assert cases == want

