"""Problem geometry: convex-hull domains, bounding structures, point generators.

The interpolation domain is detected automatically as the convex hull of the
data sites.  Two auxiliary structures are derived from it: the tight per-axis
bounding rectangle (``Rect``) and the global square/cubic bounding box
(``Box``) whose subdivision into blocks drives the neighbor search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DegenerateInput, EmptyReduction

# Relative half-space tolerance: boundary points count as inside.
HULL_TOL_REL = 1e-12

# (point, facet) entries per pass of membership_mask: the pass's temporaries
# stay in cache instead of spanning every point times every facet.
MASK_CHUNK = 2**16

_HALTON_BASES = (2, 3, 5)


class PointSet:
    """An ordered collection of M-dimensional points with optional values.

    Coordinates are stored as a read-only (n, dim) float array; ``values``,
    when present, is a parallel read-only (n,) array.
    """

    def __init__(self, coords, values=None):
        coords = np.ascontiguousarray(coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError("coords must be a (n, dim) array")
        if coords.shape[1] not in (2, 3):
            raise ValueError(f"only 2D/3D supported, got dim={coords.shape[1]}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        coords.setflags(write=False)
        self.coords = coords
        if values is not None:
            values = np.ascontiguousarray(values, dtype=float)
            if values.shape != (len(coords),):
                raise ValueError("values must be parallel to points")
            if not np.all(np.isfinite(values)):
                raise ValueError("values must be finite")
            values.setflags(write=False)
        self.values = values

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def __len__(self) -> int:
        return len(self.coords)

    def with_values(self, values) -> "PointSet":
        return PointSet(self.coords, values)

    def __repr__(self):
        tag = "+values" if self.values is not None else ""
        return f"PointSet(n={len(self)}, dim={self.dim}{tag})"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned bounding rectangle/prism (per-axis min/max)."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.mins)

    @property
    def spans(self) -> np.ndarray:
        return self.maxs - self.mins


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding square/cube: the same [lo, hi] on every axis."""

    lo: float
    hi: float
    dim: int

    @property
    def edge(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class ConvexDomain:
    """Convex hull with facet half-spaces and bounding structures.

    A point is inside iff normals @ p + offsets <= tol for every facet,
    with outward unit normals. ``measure`` is the hull area (2D) or
    volume (3D).
    """

    dim: int
    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    measure: float
    rect: Rect
    box: Box

    @property
    def tol(self) -> float:
        return HULL_TOL_REL * self.box.edge


def convex_hull(pts: PointSet) -> ConvexDomain:
    """Build the convex hull of a point set.

    Raises DegenerateInput when the points are affinely dependent
    (collinear in 2D, coplanar in 3D) or too few.
    """
    coords = pts.coords
    dim = pts.dim
    if len(coords) < dim + 1:
        raise DegenerateInput(f"need at least {dim + 1} points, got {len(coords)}")
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate input: {exc}") from exc
    mins = coords.min(axis=0)
    maxs = coords.max(axis=0)
    box = Box(lo=float(mins.min()), hi=float(maxs.max()), dim=dim)
    return ConvexDomain(
        dim=dim,
        vertices=coords[hull.vertices],
        normals=hull.equations[:, :dim].copy(),
        offsets=hull.equations[:, dim].copy(),
        measure=float(hull.volume),
        rect=Rect(mins=mins, maxs=maxs),
        box=box,
    )


def contains(dom: ConvexDomain, p) -> bool:
    """True iff ``p`` satisfies every facet inequality within tolerance: ``membership_mask`` of one row."""
    return bool(membership_mask(dom, np.asarray(p, dtype=float)[None, :])[0])


def membership_mask(dom: ConvexDomain, coords: np.ndarray) -> np.ndarray:
    """Vectorized in-hull test for a (n, dim) coordinate array, in cache-sized passes over the points.

    BLAS may round a half-space value by the rows of its pass, so a point
    whose value lies within rounding of the tolerance can fall on either
    side, and ``contains`` may answer it otherwise than a larger mask;
    every other point gets the answer of a single pass.
    """
    step = max(1, MASK_CHUNK // len(dom.normals))
    mask = np.empty(len(coords), dtype=bool)
    for lo in range(0, len(coords), step):
        # the largest half-space value decides; a NaN in a row propagates to it and fails the test
        values = coords[lo : lo + step] @ dom.normals.T
        values += dom.offsets
        np.less_equal(values.max(axis=1), dom.tol, out=mask[lo : lo + step])
    return mask


def reduce_to_domain(pts: PointSet, dom: ConvexDomain) -> PointSet:
    """Keep only the points inside the domain, preserving order.

    Raises EmptyReduction when nothing survives.
    """
    if pts.dim != dom.dim:
        raise ValueError("dimension mismatch")
    mask = membership_mask(dom, pts.coords)
    if not mask.any():
        raise EmptyReduction("no point lies inside the domain")
    values = pts.values[mask] if pts.values is not None else None
    return PointSet(pts.coords[mask], values)


# Low digits of a radical inverse read from one table per base of base**g
# entries, g the most digits with base**g <= _TABLE_CAP, so each table stays
# in cache.
_TABLE_CAP = 4096


def _add_digits(out, idx, denom, count, base):
    """Add the ``count`` lowest base-``base`` digits of ``idx`` into ``out``, digit k over ``denom * base**k``."""
    for _ in range(count):
        denom *= base
        idx, digit = np.divmod(idx, base)
        out += digit / denom
    return out


@functools.cache
def _digit_table(base: int) -> np.ndarray:
    """Radical inverses of 0 .. base**g - 1, summed like ``_radical_inverse``; built once per base."""
    digits, size = 0, 1
    while size * base <= _TABLE_CAP:
        digits, size = digits + 1, size * base
    table = _add_digits(np.zeros(size), np.arange(size), 1.0, digits, base)
    table.setflags(write=False)
    return table


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Digit-reversed non-negative ``indices`` in ``base``: sum of digit_k / base**k, lowest digit first.

    The low g digits come from ``_digit_table``, whose entries are the same
    running sums; the higher digits are added in the same order with the same
    exact denominators, and digits past an index's leading one add 0.0, so
    the bits do not depend on the table's size.
    """
    table = _digit_table(base)
    high, low = np.divmod(indices.astype(np.int64), len(table))
    top, count = int(high.max(initial=0)), 0
    while top:
        top, count = top // base, count + 1
    return _add_digits(table[low], high, float(len(table)), count, base)


def _check_count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def halton(n: int, dim: int, skip: int = 0) -> PointSet:
    """Halton points of indices ``skip + 1`` .. ``skip + n``.

    Bases (2, 3) for dim=2 and (2, 3, 5) for dim=3. Indexing starts at 1:
    halton(1, 2) is the point of index 1, coordinates (1/2, 1/3). Each
    coordinate is the radical inverse of the index, summed from its lowest
    digit; the low digits come from a cached table of at most 4096 entries
    per base, and the bits equal those of the plain digit-by-digit sum.

    ``n`` and ``skip`` must be non-negative integers with ``skip + n`` at
    most 2**63 - 1; anything else raises ValueError before any point is made.
    """
    n = _check_count("n", n)
    skip = _check_count("skip", skip)
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if skip + n > np.iinfo(np.int64).max:
        raise ValueError(f"skip + n must be at most 2**63 - 1, got {skip + n}")
    indices = np.arange(skip + 1, skip + n + 1, dtype=np.int64)
    cols = [_radical_inverse(indices, b) for b in _HALTON_BASES[:dim]]
    return PointSet(np.column_stack(cols) if n else np.empty((0, dim)))


def grid_on_rect(rect: Rect, count_total: int) -> PointSet:
    """Uniform tensor grid spanning the rectangle inclusively.

    The same per-axis count round(count_total**(1/M)) is used on every axis,
    so the result has round(count_total**(1/M))**M points. A single-node
    grid sits at the rectangle's midpoint.
    """
    if count_total < 1:
        raise ValueError("count_total must be >= 1")
    dim = rect.dim
    n_side = int(round(count_total ** (1.0 / dim)))
    n_side = max(1, n_side)
    if n_side == 1:
        return PointSet((rect.mins + rect.maxs)[None, :] / 2.0)
    axes = [np.linspace(rect.mins[m], rect.maxs[m], n_side) for m in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return PointSet(np.column_stack([g.ravel() for g in mesh]))


def fill_distance(nodes: PointSet, probes: PointSet) -> float:
    """Largest distance from any probe to its nearest node.

    With probes forming a dense grid in the domain this approximates the
    fill distance of the node set. Nearest nodes come from a k-d tree:
    unlike a fixed-radius block join, it needs no search radius for probes
    far from every node.
    """
    if len(nodes) == 0 or len(probes) == 0:
        raise ValueError("nodes and probes must be nonempty")
    if nodes.dim != probes.dim:
        raise ValueError("dimension mismatch")
    nearest, _ = cKDTree(nodes.coords).query(probes.coords)
    return float(nearest.max())
