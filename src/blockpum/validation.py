"""Benchmark test functions and accuracy metrics."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRatio, LengthMismatch


def franke_2d(p):
    """Classic 2D Franke test function (four Gaussian-like humps)."""
    x, y = _cols(p, 2)
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2) / 4)
        + 0.75 * np.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10)
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2) / 4)
        - 0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2)
    )


def cosine_ridge_2d(p):
    """Smooth 2D ridge (1.25 + cos(5.4 y)) / (6 + 6 (3x - 1)^2)."""
    x, y = _cols(p, 2)
    return (1.25 + np.cos(5.4 * y)) / (6 + 6 * (3 * x - 1) ** 2)


def franke_3d(p):
    """3D extension of Franke's function."""
    x, y, z = _cols(p, 3)
    return (
        0.75 * np.exp(-((9 * x - 2) ** 2 + (9 * y - 2) ** 2 + (9 * z - 2) ** 2) / 4)
        + 0.75 * np.exp(-((9 * x + 1) ** 2) / 49 - (9 * y + 1) / 10 - (9 * z + 1) / 10)
        + 0.5 * np.exp(-((9 * x - 7) ** 2 + (9 * y - 3) ** 2 + (9 * z - 5) ** 2) / 4)
        - 0.2 * np.exp(-((9 * x - 4) ** 2) - (9 * y - 7) ** 2 - (9 * z - 5) ** 2)
    )


def product_bump_3d(p):
    """Separable cubic bump 4^3 x(1-x) y(1-y) z(1-z), vanishing on the unit-cube faces."""
    x, y, z = _cols(p, 3)
    return 64.0 * x * (1 - x) * y * (1 - y) * z * (1 - z)


TEST_FUNCTIONS = {
    "f1": (2, franke_2d),
    "f2": (2, cosine_ridge_2d),
    "f3": (3, franke_3d),
    "f4": (3, product_bump_3d),
}


def eval_test_function(fid: str, p):
    """Evaluate test function ``fid`` at a point or (n, dim) array."""
    try:
        dim, fn = TEST_FUNCTIONS[fid]
    except KeyError:
        raise ValueError(f"unknown test function {fid!r}; have {sorted(TEST_FUNCTIONS)}") from None
    p = np.asarray(p, dtype=float)
    got = p.shape[-1]
    if got != dim:
        raise ValueError(f"{fid} is {dim}D, got {got}D point")
    return fn(p)


def _cols(p, dim):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != dim:
        raise ValueError(f"expected trailing dimension {dim}, got {p.shape}")
    if p.ndim == 1:
        return tuple(p)
    return tuple(p[..., m] for m in range(dim))


def _errors(truth, approx) -> np.ndarray:
    truth = np.asarray(truth, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if truth.shape != approx.shape:
        raise LengthMismatch(f"lengths differ: {truth.shape} vs {approx.shape}")
    if truth.size == 0:
        raise LengthMismatch("empty error vectors")
    return truth - approx


def mae(truth, approx) -> float:
    """Maximum absolute error."""
    return float(np.abs(_errors(truth, approx)).max())


def rmse(truth, approx) -> float:
    """Root mean square error.

    The errors are scaled by the largest one before squaring: every scaled
    square is at most 1, so in floating point the result never exceeds mae.
    """
    e = np.abs(_errors(truth, approx))
    scale = e.max()
    if scale == 0 or not np.isfinite(scale):
        return float(scale)
    return float(scale * np.sqrt(np.mean((e / scale) ** 2)))


def convergence_rate(rmse_prev: float, rmse_k: float, h_prev: float, h_k: float) -> float:
    """Empirical rate log(rmse_prev/rmse_k) / log(h_prev/h_k)."""
    if min(rmse_prev, rmse_k, h_prev, h_k) <= 0:
        raise DegenerateRatio("all inputs must be positive")
    if h_prev == h_k:
        raise DegenerateRatio("fill distances coincide")
    return float(np.log(rmse_prev / rmse_k) / np.log(h_prev / h_k))
