"""Text file formats: point files, oriented clouds, value grids, reports.

Point files hold one point per line, whitespace- or comma-separated,
columns x1..xM with an optional trailing value; lines starting with '#'
are comments. Oriented clouds use six columns x y z nx ny nz. Value grids
start with a header line "nx ny nz xmin xmax ymin ymax zmin zmax" followed
by one value per line, x varying fastest.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import PointSet
from .reconstruct import OrientedCloud, ReconstructionResult, default_step

_FLOAT_FMT = "%.17g"


def _load_rows(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            parts = body.replace(",", " ").split()
            try:
                row = [float(tok) for tok in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number in {body!r}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_points(path, dim: int | None = None) -> PointSet:
    """Read a point file; column count determines values presence.

    Three columns are ambiguous (2D with values vs bare 3D) and require an
    explicit ``dim``. Points must be pairwise distinct.
    """
    rows = _load_rows(path)
    ncol = rows.shape[1]
    if dim is None:
        if ncol == 2:
            dim = 2
        elif ncol == 4:
            dim = 3
        elif ncol == 3:
            raise ValueError(f"{path}: 3 columns are ambiguous, pass dim=2 or dim=3")
        else:
            raise ValueError(f"{path}: unsupported column count {ncol}")
    if ncol == dim:
        coords, values = rows, None
    elif ncol == dim + 1:
        coords, values = rows[:, :dim], rows[:, dim]
    else:
        raise ValueError(f"{path}: {ncol} columns do not fit dim={dim}")
    if len(np.unique(coords, axis=0)) != len(coords):
        raise ValueError(f"{path}: points must be pairwise distinct")
    return PointSet(coords, values)


def save_points(path, pts: PointSet, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        data = pts.coords
        if pts.values is not None:
            data = np.column_stack([pts.coords, pts.values])
        # one % per block of rows, as write_value_grid formats its values, is
        # twice as fast as a join per row; blocks keep the text's memory bounded
        row = " ".join([_FLOAT_FMT] * data.shape[1]) + "\n"
        block = 4096
        for lo in range(0, len(data), block):
            part = data[lo : lo + block]
            fh.write((row * len(part)) % tuple(part.ravel().tolist()))


def load_oriented_cloud(path, step: float | None = None) -> OrientedCloud:
    """Read `x y z nx ny nz` rows; step defaults to 1% of the box edge."""
    rows = _load_rows(path)
    if rows.shape[1] != 6:
        raise ValueError(f"{path}: oriented cloud needs 6 columns, got {rows.shape[1]}")
    points, normals = rows[:, :3], rows[:, 3:]
    if step is None:
        step = default_step(points)
    return OrientedCloud(points=points, normals=normals, step=step)


def write_value_grid(path, result: ReconstructionResult) -> None:
    nx, ny, nz = result.grid_shape
    rect = result.rect
    header = [nx, ny, nz]
    for m in range(3):
        header += [rect.mins[m], rect.maxs[m]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(_FLOAT_FMT % v if isinstance(v, float) else str(v) for v in header))
        fh.write("\n")
        values = result.values.tolist()
        fh.write(((_FLOAT_FMT + "\n") * len(values)) % tuple(values))


def _to_builtin(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_report(path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mapping, fh, indent=2, sort_keys=True, default=_to_builtin)
        fh.write("\n")


def parse_grid_spec(spec: str) -> tuple:
    """Parse '40x40' / '20x20x20' into per-axis counts."""
    try:
        counts = tuple(int(tok) for tok in spec.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"bad grid spec {spec!r}") from exc
    if len(counts) not in (2, 3) or any(c < 1 for c in counts):
        raise ValueError(f"bad grid spec {spec!r}")
    return counts
