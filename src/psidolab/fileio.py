"""Binary and CSV serialization of sampled functions and kernels.

Array file layout ("PSLB" format, version 1, all little-endian):

    magic   4 bytes  b"PSLB"
    version u32      1
    d       u32      dimension
    n       u32      points per axis
    R       f64      half extent
    payload n^d * 2 f64 values, (re, im) pairs, row-major (x1 slowest)

A path that cannot be opened, for reading or writing, raises
InvalidInputError naming it.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .errors import InvalidInputError
from .grid import Grid, SampledFunction

MAGIC = b"PSLB"
VERSION = 1
_HEADER = struct.Struct("<4sIIId")


def _open(path, mode: str, **kwargs):
    """open(), with an OSError on the caller's path as InvalidInputError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise InvalidInputError(f"cannot open {path}: {exc.strerror or exc}") from None


def write_pslb(path, f) -> None:
    """Write f: a SampledFunction, or a (grid, values) pair checked finite."""
    g, values = (f.grid, f.values) if isinstance(f, SampledFunction) else f
    # a little-endian complex128 sample is its (re, im) f8 pair: the samples
    # are the payload, written without a copy
    payload = np.ascontiguousarray(values, dtype="<c16")
    with _open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.dim, g.points_per_axis, g.half_extent))
        fh.write(payload)


def read_pslb(path) -> SampledFunction:
    with _open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise InvalidInputError(f"{path}: truncated header")
        magic, version, d, n, R = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InvalidInputError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise InvalidInputError(f"{path}: unsupported version {version}")
        grid = Grid(int(d), int(n), float(R))
        raw = np.fromfile(fh, dtype="<f8")
    if raw.size != 2 * grid.total_points:
        raise InvalidInputError(
            f"{path}: payload has {raw.size} floats, expected {2 * grid.total_points}")
    # the (re, im) pairs are "<c16" samples: no copy, signed zeros kept
    return SampledFunction(grid, raw.view("<c16"))


def write_function_csv(path, f: SampledFunction) -> None:
    """Index columns plus re/im, one row per grid point."""
    g = f.grid
    with _open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{k + 1}" for k in range(g.dim)] + ["re", "im"])
        for idx, v in zip(np.ndindex(g.shape), f.values.reshape(-1)):
            writer.writerow([*idx, repr(float(v.real)), repr(float(v.imag))])


def write_radial_decay_csv(path, f: SampledFunction) -> None:
    """(|z|, |k(z)|) pairs sorted by radius, for decay fitting.

    Written as one string: the rows csv.writer would write for the same
    repr pairs (float reprs need no quoting), with its \r\n endings.  Each
    distinct radius is formatted once and joined to each distinct row's |k|
    (rows repeat at mirror points of an even kernel); neither column holds
    -0.0 or NaN, so equal floats have equal reprs."""
    r = f.grid.radius().reshape(-1)
    order = np.argsort(r, kind="stable")
    # (radius, |k|) as one complex key, built from the parts: 1j * inf is nan
    pairs = np.stack((r[order], np.abs(f.values).reshape(-1)[order]), axis=-1)
    rows, inverse = np.unique(pairs.view(np.complex128)[:, 0], return_inverse=True)
    radii, which = np.unique(rows.real, return_inverse=True)
    # object arrays of str: numpy gathers and concatenates them per element
    heads = np.array([z + "," for z in map(repr, radii.tolist())], dtype=object)
    text = heads[which] + np.array(list(map(repr, rows.imag.tolist())), dtype=object)
    with _open(path, "w", newline="") as fh:
        fh.write("\r\n".join(["abs_z,abs_k", *text[inverse].tolist(), ""]))
