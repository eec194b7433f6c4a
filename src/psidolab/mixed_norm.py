"""Mixed-norm Lebesgue norms on the grid, partial norms, and Hoelder duals.

The iterated norm integrates the x1 axis innermost and the xd axis
outermost, matching the row-major (x1 slowest) sample layout.  Exponents
are restricted to the open interval (1, inf); the endpoint cases needed
internally (the outer L^1 of the cancellation condition) bypass the
public type on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .grid import SampledFunction


@dataclass(frozen=True)
class MixedExponent:
    """Exponent vector p in (1, inf)^d with an optional split index l
    designating the leading block (p_1, ..., p_l)."""

    p: tuple
    split: Optional[int] = None

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if len(p) == 0:
            raise InvalidInputError("exponent vector must be nonempty")
        for v in p:
            if not (math.isfinite(v) and 1.0 < v):
                raise InvalidInputError(
                    f"exponents must lie strictly inside (1, inf), got {v}")
        if self.split is not None and not 0 <= self.split <= len(p) - 1:
            raise InvalidInputError(
                f"split index {self.split} outside 0..{len(p) - 1}")
        object.__setattr__(self, "p", p)

    @classmethod
    def uniform(cls, value: float, dim: int, split: Optional[int] = None) -> "MixedExponent":
        return cls((float(value),) * dim, split)

    @property
    def dim(self) -> int:
        return len(self.p)

    @property
    def is_uniform(self) -> bool:
        return all(v == self.p[0] for v in self.p)

    def leading(self) -> tuple:
        """The split-off leading exponents (empty tuple when split = 0)."""
        if self.split is None:
            raise InvalidInputError("exponent has no split index")
        return self.p[: self.split]


def holder_dual(p: MixedExponent) -> MixedExponent:
    """Componentwise conjugate exponents: 1/p_i + 1/p'_i = 1."""
    return MixedExponent(tuple(v / (v - 1.0) for v in p.p), p.split)


def leading_pnorms(values: np.ndarray, spacing: float, exponents) -> np.ndarray:
    """Iterated Riemann p-norms over the leading axes, axis 0 first (x1
    innermost), for any exponents >= 1; the field over the remaining axes."""
    a = np.abs(np.asarray(values))
    for q in exponents:
        a = (spacing * np.sum(a**q, axis=0)) ** (1.0 / q)
    return a


def iterated_pnorm(values: np.ndarray, spacing: float, exponents) -> float:
    """leading_pnorms over every axis: one exponent per axis."""
    return float(leading_pnorms(values, spacing, exponents))


def mixed_norm(f: SampledFunction, p: MixedExponent) -> float:
    """The mixed Lebesgue norm of f with one exponent per axis."""
    if p.dim != f.grid.dim:
        raise InvalidInputError(
            f"exponent has {p.dim} components for a {f.grid.dim}-d grid")
    return iterated_pnorm(f.values, f.grid.spacing, p.p)


def partial_norm(f: SampledFunction, pbar: MixedExponent, xprime) -> float:
    """Norm of the inner slice f(., x') over the leading split axes.

    With split l = 0 this is just |f(x')|; x' must be a grid point of the
    trailing axes.
    """
    if pbar.split is None:
        raise InvalidInputError("partial_norm needs an exponent with a split index")
    l = pbar.split
    d = f.grid.dim
    xprime = np.atleast_1d(np.asarray(xprime, dtype=float))
    if xprime.shape != (d - l,):
        raise InvalidInputError(
            f"outer point has shape {xprime.shape}, expected ({d - l},)")
    idx = tuple(
        f.grid.index_of(np.r_[np.zeros(l), xprime])[l:]
    ) if l else f.grid.index_of(xprime)
    if l == 0:
        return float(np.abs(f.values[idx]))
    inner = f.values[(slice(None),) * l + idx]
    return iterated_pnorm(inner, f.grid.spacing, pbar.p[:l])
