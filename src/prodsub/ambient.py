"""The pseudo-Euclidean ambient, the product Q^n_eps x R inside it, and the
product-space curvature tensor.

Points live in E^{n+2} with the flat R factor always in the LAST coordinate;
for eps = -1 coordinate 0 is timelike and the quadric is the upper sheet
(p_0 > 0).  Gallery generators permute into this canonical layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ProductSpace",
    "inner",
    "membership_residual",
    "curvature",
]


@dataclass(frozen=True)
class ProductSpace:
    """Q^n_eps x R realized as a quadric cross a line in E^{n+2}."""

    epsilon: int
    n: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.n < 2:
            raise ValueError("n must be >= 2")

    @property
    def ambient_dim(self) -> int:
        return self.n + 2

    @property
    def t_index(self) -> int:
        return self.n + 1

    @cached_property
    def signature(self) -> np.ndarray:
        s = np.ones(self.ambient_dim)
        if self.epsilon == -1:
            s[0] = -1.0
        s.flags.writeable = False
        return s

    def q_padded(self, p: np.ndarray) -> np.ndarray:
        """Position vector of the quadric factor, zero in the t slot (per
        row for stacked points)."""
        out = np.array(p, dtype=float)
        out[..., self.t_index] = 0.0
        return out

    def t_axis(self) -> np.ndarray:
        v = np.zeros(self.ambient_dim)
        v[self.t_index] = 1.0
        return v


def inner(space: ProductSpace, x: np.ndarray, y: np.ndarray):
    """Signature-aware inner product on E^{n+2}.

    Two vectors give a float; stacked vectors (..., n+2) give the products
    over the last axis, one BLAS dot per row, so a row's value does not
    depend on the other rows."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim > 1 or y.ndim > 1:
        if space.epsilon == -1:
            x = x * space.signature
        return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]
    if space.epsilon == -1:
        return float(-x[0] * y[0] + np.dot(x[1:], y[1:]))
    return float(np.dot(x, y))


def membership_residual(space: ProductSpace, p: np.ndarray):
    """|<p_Q, p_Q> - eps|, +inf when eps = -1 and p is not on the upper sheet.

    One point gives a float; stacked points (..., n+2) give one value each."""
    p = np.asarray(p, dtype=float)
    pq = p[..., : space.n + 1]
    out = np.abs(np.add.reduce(pq * pq * space.signature[: space.n + 1], axis=-1) - space.epsilon)
    if space.epsilon == -1:
        out = np.where(p[..., 0] <= 0.0, math.inf, out)
    return float(out) if p.ndim == 1 else out


def curvature(
    space: ProductSpace, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Curvature tensor of Q^n_eps x R:

        R(X, Y)Z = eps (<Y^, Z^> X^ - <X^, Z^> Y^)

    where the hat drops the t component.  For eps = +1 and orthonormal
    spacelike X, Y this gives <R(X,Y)Y, X> = +1.  Stacked vectors
    (..., n+2) broadcast and give one vector per row.
    """
    xh, yh, zh = (space.q_padded(v) for v in (x, y, z))
    yz, xz = (np.asarray(inner(space, a, zh))[..., None] for a in (yh, xh))
    return space.epsilon * (yz * xh - xz * yh)
