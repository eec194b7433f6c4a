import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_overhead.py"
ENTRY_POINTS = ("fourier_transform forward", "fourier_transform inverse",
                "apply_psido", "discrete_adjoint_apply", "plan apply sep:2,6:-1",
                "plan adjoint wave:0", "SampledFunction",
                "random_band_limited", "duality maps p=4", "ascent per start")
DYADIC_ROWS = {("d=3 n=64", f"{e} R=4 levels=3") for e in ("kernel_sum", "decay_fit")} \
    | {("d=2 n=256", f"{e} R=3 levels=5") for e in ("kernel_sum", "decay_fit")}


def test_prints_every_entry_point_on_every_grid():
    # a subprocess: the tool pins BLAS threads before numpy loads
    out = subprocess.run([sys.executable, str(TOOL), "--repeats", "2"],
                         capture_output=True, text=True, check=True, timeout=120)
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert len(rows) == 3 * len(ENTRY_POINTS) + len(DYADIC_ROWS)
    seen = {(" ".join(r[:2]), " ".join(r[2:-4])) for r in rows}
    assert seen == {(g, e) for g in ("d=1 n=64", "d=1 n=512", "d=2 n=64")
                    for e in ENTRY_POINTS} | DYADIC_ROWS
    for r in rows:
        us, floor_us, ratio = float(r[-4]), float(r[-2]), float(r[-1])
        assert us > 0 and floor_us > 0 and ratio > 0
        if r[2:-4] == ["ascent", "per", "start"]:
            assert r[-3] == "2fftn+2ifftn"
        assert (r[-3] == "2abs") == (r[2:-4] == ["duality", "maps", "p=4"])
        # an even kernel sum ends in the orthant's DCT, its floor
        assert (r[-3] == "rfft-dct") == (r[2] == "kernel_sum")


def test_rejects_zero_repeats():
    out = subprocess.run([sys.executable, str(TOOL), "--repeats", "0"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and "--repeats" in out.stderr
