"""Compactly supported radial kernels and dense kernel-distance matrices.

Both shipped kernels vanish identically for r >= 1/epsilon.

The profiles form the powers of the cutoff (1 - eps*r)_+ by repeated
products and their polynomial by Horner's rule, writing into the arrays
they allocate (t = eps*r, the cutoff and at most one polynomial buffer)
instead of making one temporary per operation. Array input is never
written to. A scalar runs through the same loops as a 0-d array and
comes back as a numpy scalar; every step is one IEEE operation, so
``phi(r)`` and ``phi([r])[0]`` agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import PointSet


def _scaled(r, epsilon: float):
    """t = eps*r and the cutoff (1 - t)_+, each in a fresh array, 0-d for a scalar ``r``."""
    r = np.asarray(r, dtype=float)
    t = np.multiply(epsilon, r, out=np.empty_like(r))
    cut = np.subtract(1.0, t, out=np.empty_like(t))
    return t, np.maximum(cut, 0.0, out=cut)


def phi_wendland_c2(r, epsilon: float):
    """Wendland C2 kernel (1 - eps*r)^4_+ (4 eps*r + 1)."""
    t, cut = _scaled(r, epsilon)
    cut *= cut
    cut *= cut
    t *= 4.0
    t += 1.0
    cut *= t
    return cut[()]  # a 0-d result becomes a numpy scalar


def phi_wu_c4(r, epsilon: float):
    """Wu C4 kernel (1 - eps*r)^6_+ (5t^5 + 30t^4 + 72t^3 + 82t^2 + 36t + 6), t = eps*r."""
    t, cut = _scaled(r, epsilon)
    poly = np.multiply(5.0, t, out=np.empty_like(t))
    for c in (30.0, 72.0, 82.0, 36.0):
        poly += c
        poly *= t
    poly += 6.0
    cut *= cut
    np.multiply(cut, cut, out=t)  # t is free: (1 - t)^4
    cut *= t
    cut *= poly
    return cut[()]  # a 0-d result becomes a numpy scalar


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
