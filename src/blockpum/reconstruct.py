"""Implicit surface reconstruction from oriented point clouds.

Each surface point contributes a zero interpolation condition; points with
a usable normal additionally spawn one off-surface point a small step
outside (value +1) and one inside (value -1). Interpolating the augmented
set yields a scalar field whose zero level set approximates the surface;
the field is emitted on a regular grid for external contouring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, Rect
from .pum import PumConfig, PumModel, RunReport, evaluate, fit_model, is_count

DEFAULT_STEP_FRACTION = 0.01  # of the bounding-box edge


@dataclass(frozen=True)
class OrientedCloud:
    """3D point cloud with per-point surface normals and off-surface step."""

    points: np.ndarray
    normals: np.ndarray
    step: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        nrm = np.asarray(self.normals, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if nrm.shape != pts.shape:
            raise ValueError("normals must be parallel to points")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def __len__(self):
        return len(self.points)


def default_step(points: np.ndarray) -> float:
    """1% of the bounding-box edge of the cloud."""
    points = np.asarray(points, dtype=float)
    edge = float(points.max() - points.min())
    return DEFAULT_STEP_FRACTION * edge if edge > 0 else DEFAULT_STEP_FRACTION


def augment(cloud: OrientedCloud) -> PointSet:
    """Attach off-surface points along unit normals.

    Every cloud point keeps its on-surface zero condition; points whose
    normal has positive length (zero normals are excluded from stepping)
    add one +1 point outside and one -1 point inside, giving
    n_total = n + 2 * n_nonzero.
    """
    pts = np.asarray(cloud.points, dtype=float)
    nrm = np.asarray(cloud.normals, dtype=float)
    norms = np.linalg.norm(nrm, axis=1)
    usable = norms > 0
    unit = nrm[usable] / norms[usable, None]
    outside = pts[usable] + cloud.step * unit
    inside = pts[usable] - cloud.step * unit
    coords = np.vstack([pts, outside, inside])
    values = np.concatenate([np.zeros(len(pts)), np.ones(len(outside)), -np.ones(len(inside))])
    return PointSet(coords, values)


@dataclass
class ReconstructionResult:
    grid_shape: tuple
    rect: Rect
    values: np.ndarray  # flat, x varying fastest
    report: RunReport
    model: PumModel


def grid_coords(rect: Rect, shape) -> np.ndarray:
    """Regular grid points spanning the rectangle, x varying fastest."""
    nx, ny, nz = shape
    ax = np.linspace(rect.mins[0], rect.maxs[0], nx)
    ay = np.linspace(rect.mins[1], rect.maxs[1], ny)
    az = np.linspace(rect.mins[2], rect.maxs[2], nz)
    zz, yy, xx = np.meshgrid(az, ay, ax, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


def reconstruct(cloud: OrientedCloud, cfg: PumConfig, grid_shape=(50, 50, 50)) -> ReconstructionResult:
    """Interpolate the augmented cloud and sample the field on a grid.

    ``grid_shape`` is three point counts, each an integer >= 1, else
    ValueError is raised before any fitting. Grid points outside every
    subdomain (corners of the bounding rectangle beyond the hull) take the
    nearest subdomain's local fit.
    """
    if len(grid_shape) != 3 or not all(is_count(c) for c in grid_shape):
        raise ValueError(f"grid_shape must be three integers >= 1, got {grid_shape!r}")
    augmented = augment(cloud)
    model = fit_model(augmented, cfg)
    coords = grid_coords(model.domain.rect, grid_shape)
    values, report = evaluate(model, coords, on_uncovered="nearest")
    return ReconstructionResult(
        grid_shape=tuple(grid_shape),
        rect=model.domain.rect,
        values=values,
        report=report,
        model=model,
    )
