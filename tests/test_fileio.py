import csv
import math
import struct
import tracemalloc

import numpy as np
import pytest

from psidolab import Grid, InvalidInputError, SampledFunction, random_band_limited
from psidolab.fileio import (read_pslb, write_function_csv, write_pslb,
                             write_radial_decay_csv)


def test_pslb_round_trip(tmp_path):
    g = Grid(2, 16, 3.5)
    rng = np.random.default_rng(2)
    f = random_band_limited(g, rng)
    path = tmp_path / "f.bin"
    write_pslb(path, f)
    back = read_pslb(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_pslb_payload_bytes_without_a_copy(tmp_path):
    # the payload is the (re, im) little-endian f8 pairs, x1 slowest, signed
    # zeros included, for contiguous and strided samples alike; the samples
    # are written as they are, with no payload-sized copy
    g = Grid(2, 64, 3.0)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    vals.real[0, :5] = -0.0
    vals.imag[1, :5] = -0.0
    header = struct.pack("<4sIIId", b"PSLB", 1, 2, 64, 3.0)
    path = tmp_path / "f.bin"
    for arr in (vals, np.asfortranarray(vals), vals[::-1, ::-1]):
        f = SampledFunction(g, arr)
        pairs = np.empty((g.total_points, 2), dtype="<f8")
        pairs[:, 0] = f.values.real.reshape(-1)
        pairs[:, 1] = f.values.imag.reshape(-1)
        write_pslb(path, f)
        assert path.read_bytes() == header + pairs.tobytes()
    tracemalloc.start()
    try:
        write_pslb(path, SampledFunction(g, vals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vals.nbytes / 4


def test_pslb_round_trip_keeps_signed_zeros(tmp_path):
    # the payload is read as complex128 in place: (1, -0) and (-0, 2) come
    # back with their signs, where re + 1j * im made both zeros +0
    g = Grid(1, 8, 1.0)
    vals = np.array([complex(1.0, -0.0), complex(-0.0, 2.0),
                     complex(-0.0, -0.0), complex(3.0, 4.0)] * 2)
    path = tmp_path / "f.bin"
    write_pslb(path, SampledFunction(g, vals))
    back = read_pslb(path)
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values.view(np.uint64), vals.view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pslb_rejects_nonfinite_payload(tmp_path, bad):
    g = Grid(1, 8, 1.0)
    path = tmp_path / "f.bin"
    write_pslb(path, SampledFunction(g, np.ones(8)))
    data = bytearray(path.read_bytes())
    data[-8:] = struct.pack("<d", bad)
    path.write_bytes(bytes(data))
    with pytest.raises(InvalidInputError, match="^values contain NaN or Inf samples$"):
        read_pslb(path)


def test_pslb_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(InvalidInputError, match="magic"):
        read_pslb(path)


def test_pslb_rejects_truncated_payload(tmp_path):
    g = Grid(1, 8, 1.0)
    f = SampledFunction(g, np.ones(8))
    path = tmp_path / "f.bin"
    write_pslb(path, f)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(InvalidInputError, match="payload"):
        read_pslb(path)


def test_csv_exports(tmp_path):
    g = Grid(1, 8, 1.0)
    f = SampledFunction(g, np.arange(8, dtype=float))
    fpath = tmp_path / "f.csv"
    write_function_csv(fpath, f)
    lines = fpath.read_text().strip().splitlines()
    assert lines[0] == "i1,re,im"
    assert len(lines) == 9
    kpath = tmp_path / "k.csv"
    write_radial_decay_csv(kpath, f)
    assert kpath.read_text().splitlines()[0] == "abs_z,abs_k"
    # byte for byte the per-row writer, also where radii tie (every grid
    # here has ties by symmetry, so the stable order matters)
    want = tmp_path / "want.csv"
    reference_radial_csv(want, f)
    assert kpath.read_bytes() == want.read_bytes()
    for g in (Grid(2, 16, 1.0), Grid(3, 8, 3.0)):
        f = random_band_limited(g, np.random.default_rng(g.dim))
        assert len(np.unique(g.radius())) < g.total_points
        write_radial_decay_csv(kpath, f)
        reference_radial_csv(want, f)
        assert kpath.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
def test_radial_csv_on_mirror_symmetric_input(tmp_path, d, n):
    # an even kernel unfolded from the orthant: mirror points repeat both
    # radius and |k|, some |k| repeat across radii, and the radii tie; the
    # rows are still byte for byte the per-row writer's, also where |k|
    # overflows to inf
    g = Grid(d, n, 1.5)
    rng = np.random.default_rng(d)
    orthant = rng.choice([0.0, 0.5, -2.25, 1e-300, 3.0 + 4.0j, 1.7e308 - 1.7e308j],
                         (n // 2 + 1,) * d)
    fold = np.abs(np.arange(n) - n // 2)
    f = SampledFunction(g, orthant[np.ix_(*[fold] * d)])
    mag = np.abs(f.values).reshape(-1)
    pairs = np.unique(np.stack((g.radius().reshape(-1), mag), axis=-1), axis=0)
    assert len(pairs) < len(np.unique(mag)) * len(np.unique(g.radius()))
    assert len(pairs) < g.total_points // 2
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_radial_decay_csv(got, f)
    reference_radial_csv(want, f)
    assert got.read_bytes() == want.read_bytes()


def test_kernel_decay_csv_is_the_per_row_writers(tmp_path):
    # the CLI writes the unfolded orthant kernel of bessel:-1
    from psidolab import cli, dyadic_decompose, kernel_sum
    from psidolab.symbols import bessel_multiplier
    path = tmp_path / "decay.csv"
    assert cli.main(["kernel-decay", "--symbol", "bessel:-1", "--d", "2", "--n", "64",
                     "--R", "3", "--levels", "4", "--decay-csv", str(path),
                     "--out-dir", str(tmp_path)]) == 0
    kernel = kernel_sum(dyadic_decompose(bessel_multiplier(-1.0), Grid(2, 64, 3), 4))
    assert kernel.even
    want = tmp_path / "want.csv"
    reference_radial_csv(want, kernel.sampled())
    assert path.read_bytes() == want.read_bytes()


def reference_radial_csv(path, f):
    """The radial decay CSV written one csv.writer row at a time."""
    r = f.grid.radius().reshape(-1)
    mag = np.abs(f.values).reshape(-1)
    order = np.argsort(r, kind="stable")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["abs_z", "abs_k"])
        for i in order:
            writer.writerow([repr(float(r[i])), repr(float(mag[i]))])
