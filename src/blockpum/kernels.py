"""Compactly supported radial kernels and dense kernel-distance matrices.

Both shipped kernels vanish identically for r >= 1/epsilon.

The profiles run the ufuncs of the textbook expressions in the same order,
so their values match those expressions to the last bit, but they write
into the arrays they allocate (t = eps*r, the cutoff and at most one
polynomial buffer) instead of making one temporary per operation. Array
input is never written to. A scalar stays a numpy scalar and goes through
numpy's scalar arithmetic, as it does in the textbook expressions: its
``**`` can round differently from the array ``power`` loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import PointSet


def _cutoff(t):
    """(1 - t)_+ in a fresh array, or a numpy scalar for a scalar ``t``."""
    cut = 1.0 - t
    return np.maximum(cut, 0.0, out=cut if isinstance(cut, np.ndarray) else None)


def phi_wendland_c2(r, epsilon: float):
    """Wendland C2 kernel (1 - eps*r)^4_+ (4 eps*r + 1)."""
    t = epsilon * np.asarray(r, dtype=float)
    cut = _cutoff(t)
    cut **= 4
    t *= 4.0
    t += 1.0
    cut *= t
    return cut


def phi_wu_c4(r, epsilon: float):
    """Wu C4 kernel (1 - eps*r)^6_+ (5t^5 + 30t^4 + 72t^3 + 82t^2 + 36t + 6), t = eps*r."""
    t = epsilon * np.asarray(r, dtype=float)
    cut = _cutoff(t)
    cut **= 6
    poly = 5.0 * t
    for c in (30.0, 72.0, 82.0, 36.0):
        poly += c
        poly *= t
    poly += 6.0
    cut *= poly
    return cut


_REGISTRY = {
    "wendland-c2": phi_wendland_c2,
    "wu-c4": phi_wu_c4,
}


@dataclass(frozen=True)
class Kernel:
    """A compactly supported radial kernel with shape parameter epsilon.

    The support radius is 1/epsilon: phi(r) > 0 iff epsilon*r < 1.
    """

    name: str
    epsilon: float

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise ValueError(f"unknown kernel {self.name!r}; have {sorted(_REGISTRY)}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def support_radius(self) -> float:
        return 1.0 / self.epsilon

    def __call__(self, r):
        return _REGISTRY[self.name](r, self.epsilon)


def make_kernel(name: str, epsilon: float) -> Kernel:
    """Kernel factory; accepts dash or underscore spellings."""
    return Kernel(name.replace("_", "-"), float(epsilon))


def dense_distance_matrix(a: PointSet, b: PointSet, kernel: Kernel) -> np.ndarray:
    """Full |A| x |B| matrix of phi(||a_i - b_j||)."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return kernel(cdist(a.coords, b.coords))
