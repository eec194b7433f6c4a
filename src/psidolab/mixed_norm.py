"""Mixed-norm Lebesgue norms on the grid, partial norms, and Hoelder duals.

The iterated norm integrates the x1 axis innermost and the xd axis
outermost, matching the row-major (x1 slowest) sample layout.  Exponents
lie in the open interval (1, inf) (`exponent_tuple`): one per axis in a
MixedExponent, the l leading ones alone in a partial norm.  The endpoint
cases needed internally (the outer L^1 of the cancellation condition)
bypass the rule on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import SampledFunction


def exponent_tuple(values) -> tuple:
    """`values` as floats, each strictly inside (1, inf): a MixedExponent's
    components, or the (at l = 0 no) inner exponents of the cancellation class."""
    p = tuple(float(v) for v in values)
    for v in p:
        if not (math.isfinite(v) and 1.0 < v):
            raise InvalidInputError(
                f"exponents must lie strictly inside (1, inf), got {v}")
    return p


@dataclass(frozen=True)
class MixedExponent:
    """Exponent vector p in (1, inf)^d, one exponent per axis."""

    p: tuple

    def __post_init__(self):
        p = exponent_tuple(self.p)
        if len(p) == 0:
            raise InvalidInputError("exponent vector must be nonempty")
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, value: float, dim: int) -> "MixedExponent":
        return cls((float(value),) * dim)

    @property
    def dim(self) -> int:
        return len(self.p)


def _conjugate(v: float) -> float:
    """v / (v - 1), rounded once, of the fraction a/b with the smallest
    b <= 1000 that rounds to v, else of v itself (int division rounds
    once): so the float nearest 4/3 maps to 4.0, not 4.000000000000001,
    and back."""
    for b in range(1, 1001):
        a = round(v * b)
        if a / b == v:
            return a / (a - b)
    a, b = v.as_integer_ratio()
    return a / (a - b)


def holder_dual(p: MixedExponent) -> MixedExponent:
    """Componentwise conjugate exponents: 1/p_i + 1/p'_i = 1, exact for
    the floats nearest simple fractions (`_conjugate`)."""
    return MixedExponent(tuple(_conjugate(v) for v in p.p))


def _abs_power(a: np.ndarray, e: float) -> np.ndarray:
    """a ** e for a float64 array a >= 0.  At e = 3, 4, 1.5 and -0.5 it
    takes squares, square roots, products and one reciprocal instead of
    libm's pow, several times faster and within 2 ulp of it; every other e
    goes through `a ** e`, which numpy itself computes exactly at 2, 1 and
    0.5."""
    if e in (3.0, 4.0):
        r = np.square(a)
        return np.multiply(r, a if e == 3.0 else r, out=r)
    if e in (1.5, -0.5):
        r = np.sqrt(a)
        return np.multiply(r, a, out=r) if e == 1.5 else np.divide(1.0, r, out=r)
    return a ** e


def pnorm_levels(values: np.ndarray, spacing: float, exponents) -> list:
    """Levels A_0 = |values|, A_1, ..., A_k of the iterated Riemann p-norm
    of a stack of samples, for any exponents >= 1.  Axis 0 indexes the
    samples (one sample is values[None]), each reduced over the axes
    after it, axis 1 first (x1 innermost), with its own bits: A_j is the
    field over the axes after the j-th reduced one.  Each level keeps its
    reduced axes with length 1, so it broadcasts against the samples.  A
    level that reduces the last axis holds one total per sample; numpy's
    float64 power over an array can round the last bit differently from
    its scalar power, so each of those roots is taken as a scalar."""
    a = np.abs(np.asarray(values))
    levels = [a]
    for k, q in enumerate(exponents, start=1):
        total = spacing * np.sum(_abs_power(a, q), axis=k, keepdims=True)
        if k + 1 < a.ndim:
            a = total ** (1.0 / q)
        else:
            a = np.array([t ** (1.0 / q) for t in total.flat]).reshape(total.shape)
        levels.append(a)
    return levels


def leading_pnorms(values: np.ndarray, spacing: float, exponents) -> np.ndarray:
    """The last of pnorm_levels of one sample: the field over the axes
    after the leading len(exponents)."""
    values = np.asarray(values)
    field = pnorm_levels(values[None], spacing, exponents)[-1]
    return field.reshape(values.shape[len(exponents):])


def iterated_pnorm(values: np.ndarray, spacing: float, exponents) -> float:
    """leading_pnorms over every axis: one exponent per axis."""
    return float(leading_pnorms(values, spacing, exponents))


def mixed_norm(f: SampledFunction, p: MixedExponent) -> float:
    """The mixed Lebesgue norm of f with one exponent per axis."""
    if p.dim != f.grid.dim:
        raise InvalidInputError(
            f"exponent has {p.dim} components for a {f.grid.dim}-d grid")
    return iterated_pnorm(f.values, f.grid.spacing, p.p)


def partial_norm(f: SampledFunction, pbar, xprime) -> float:
    """Norm of the inner slice f(., x') over the leading l = len(pbar)
    axes, with the inner exponents pbar = (p_1, ..., p_l).

    With pbar = () (l = 0) this is just |f(x')|; x' must be a grid point of
    the trailing d - l axes.
    """
    pbar = exponent_tuple(pbar)
    l = len(pbar)
    d = f.grid.dim
    if l > d:
        raise InvalidInputError(f"{l} inner exponents for {d} axes")
    xprime = np.atleast_1d(np.asarray(xprime, dtype=float))
    if xprime.shape != (d - l,):
        raise InvalidInputError(
            f"outer point has shape {xprime.shape}, expected ({d - l},)")
    idx = f.grid.index_of(np.r_[np.zeros(l), xprime])[l:]
    inner = f.values[(slice(None),) * l + idx]
    return iterated_pnorm(inner, f.grid.spacing, pbar)
