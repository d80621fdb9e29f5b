"""Problem geometry: convex-hull domains, bounding structures, point generators.

The interpolation domain is detected automatically as the convex hull of the
data sites.  Two auxiliary structures are derived from it: the tight per-axis
bounding rectangle (``Rect``) and the global square/cubic bounding box
(``Box``) whose subdivision into blocks drives the neighbor search.

Every in-hull test (``membership_mask``, and through it ``contains`` and
``reduce_to_domain``) costs points x facets half-space values. It tabulates
them in passes with the longer of the two axes contiguous: facet by facet
when a pass holds at least as many points as the hull has facets, point by
point otherwise.
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

    Each pass holds MASK_CHUNK // facets points (at least one) and tabulates
    every (point, facet) half-space value; the largest value of a point
    decides. The longer axis of the table is the contiguous one, so the
    largest value is a reduction along long rows: when a pass holds at least
    as many points as the hull has facets (at most 256 facets at the default
    MASK_CHUNK), the table is laid out facet by facet, else point by point.

    BLAS may round a half-space value by the rows of its pass and by the
    layout, so a point whose value lies within rounding of the tolerance
    can fall on either side, and ``contains`` may answer it otherwise than
    a larger mask; every other point gets the answer of a single pass.
    """
    facets = len(dom.normals)
    step = max(1, MASK_CHUNK // facets)
    mask = np.empty(len(coords), dtype=bool)
    for lo in range(0, len(coords), step):
        # the largest half-space value decides; a NaN in a row propagates to it and fails the test
        chunk = coords[lo : lo + step]
        # (facet, point) values either way; only the memory layout differs
        values = dom.normals @ chunk.T if step >= facets else (chunk @ dom.normals.T).T
        values += dom.offsets[:, None]
        np.less_equal(values.max(axis=0), dom.tol, out=mask[lo : lo + step])
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


def first_duplicate(coords: np.ndarray) -> tuple[int, int] | None:
    """The first repeated row of an (n, M) array as (earlier row, repeat), or None.

    The repeat is the lowest-numbered row equal to an earlier one, and the
    earlier row is that row's first occurrence.
    """
    # a duplicate needs a tie in the first coordinate, which one plain sort
    # of that column rules out in almost every set
    first = np.sort(coords[:, 0])
    if not (first[1:] == first[:-1]).any():
        return None
    order = np.lexsort(coords.T[::-1])
    ranked = coords.take(order, axis=0)
    # neighbours in the sort compared a column at a time: a reduction over
    # 2- or 3-wide rows costs more than the comparisons themselves
    same = ranked[1:, 0] == ranked[:-1, 0]
    for k in range(1, coords.shape[1]):
        same &= ranked[1:, k] == ranked[:-1, k]
    same = same.nonzero()[0]
    if not len(same):
        return None
    # the sort is stable, so the later row of each equal pair is order[same + 1]
    k = same[np.argmin(order[same + 1])]
    return int(order[k]), int(order[k + 1])


# Low digits of a radical inverse read from one table per base of base**g
# entries, g the most digits with base**g <= _TABLE_CAP, so each table stays
# in cache.
_TABLE_CAP = 4096


def _digit_terms(idx, denom, base):
    """Yield digit_k / (denom * base**k) of the non-negative integers ``idx``, k = 1, 2, ..., lowest digit first.

    Stops after the highest nonzero digit of any; the denominators are
    powers of ``base`` made by repeated float products, the same for every
    caller.
    """
    while idx.any():
        denom *= base
        idx, digit = np.divmod(idx, base)
        yield digit / denom


@functools.cache
def _digit_table(base: int) -> np.ndarray:
    """Radical inverses of 0 .. base**g - 1, summed like ``_radical_inverse``; built once per base."""
    size = 1
    while size * base <= _TABLE_CAP:
        size *= base
    table = np.zeros(size)
    for term in _digit_terms(np.arange(size), 1.0, base):
        table += term
    table.setflags(write=False)
    return table


def _radical_inverse(start: int, n: int, base: int) -> np.ndarray:
    """Digit-reversed indices ``start`` .. ``start + n - 1`` in ``base``: sum of digit_k / base**k, lowest digit first.

    No index is divided. The range splits into runs that share their high
    part (index // T, T the length of ``_digit_table``): the low g digits
    of a run are a slice of the table, whose entries are the running sums
    of those digits, and the high digits' terms are computed once per run,
    at most n // T + 2 runs, with the same exact denominators. Each run adds
    its terms lowest digit first, and digits past an index's leading one
    add 0.0, so every index gets the additions of a digit-by-digit sum and
    the bits depend neither on the table's size nor on the range. Run
    bounds stay Python integers, so a range may end at 2**63 - 1.
    """
    table = _digit_table(base)
    size = len(table)
    out = np.empty(n)
    if not n:
        return out
    first = start % size
    bounds = [0, *range(size - first, n, size), n]
    high = np.arange(start // size, (start + n - 1) // size + 1, dtype=np.int64)
    # one row of high-digit terms per run, lowest digit first
    terms = np.reshape(list(_digit_terms(high, float(size), base)), (-1, len(high))).T.tolist()
    for lo, hi, run_terms in zip(bounds, bounds[1:], terms):
        run = out[lo:hi]
        run[:] = table[first : first + hi - lo]
        first = 0
        for term in run_terms:
            run += term
    return out


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
    digit, and its bits equal those of the plain digit-by-digit sum. No
    index is divided: over each run of consecutive indices sharing their
    high digits, the low digits are a slice of a cached table of at most
    4096 entries per base, and the high digits' terms are computed once
    for the run (see ``_radical_inverse``). A point costs a table copy and
    one addition per high digit of each coordinate.

    ``n`` and ``skip`` must be non-negative integers with ``skip + n`` at
    most 2**63 - 1; anything else raises ValueError before any point is made.
    """
    n = _check_count("n", n)
    skip = _check_count("skip", skip)
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if skip + n > np.iinfo(np.int64).max:
        raise ValueError(f"skip + n must be at most 2**63 - 1, got {skip + n}")
    cols = np.array([_radical_inverse(skip + 1, n, b) for b in _HALTON_BASES[:dim]])
    return PointSet(cols.T)


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
