"""Block-based space partitioning and its queries.

The bounding box is cut into q^M equal blocks (q per side). Every stored
point lands in exactly one block, so a fixed-radius query with radius at
most one block width only ever has to look at the query's block and its
<= 3^M - 1 existing neighbors. A coordinate x lies in the 0-based strip
floor((x - lo) / width) of its axis, clamped to [0, q-1], and a point's
0-based block code combines its strips k_1..k_M by Horner's rule,
sum_m k_m q^(M-m). ``tests/oracles.py`` holds the paper's per-point
routines for the same numbering (1-based strips and blocks), which serve
as the reference for ``build``, ``_block_codes`` and ``neighbor_runs``.

``join_pairs`` is the one block search: it answers a batch of queries
in one vectorized pass per JOIN_CHUNK queries and returns the hits as
(row, index, distance) triples, grouped by ascending query row and,
within a row, in the order the block runs hold them, not by distance.
``join_chunks`` hands out the same hits chunk by chunk, for callers that
keep only part of each. A block's 3^M neighbours form 3^(M-1) runs of
``sorted_idx``, because the blocks k-1, k, k+1 along the last axis hold
consecutive buckets; a per-block table of these runs, built on the first
search and kept with the structure, costs 2 * 3^(M-1) integers per block
(48 B in 2D, 144 B in 3D) whatever the point count. The join looks up
one block per query, gathers all candidate pairs from its runs at once
and filters them by distance. Distances are those of
``scipy.spatial.distance.cdist``, bit for bit: the squared differences
are added column by column, in order. Each row holds exactly the points
``brute_force_range_search`` finds for that query.

Every search needs radius <= block width unless the grid has a single
block (q = 1), or some points in range would lie outside the 3^M
neighbourhood; a wider radius raises ValueError.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import PointOutsideBox
from .geometry import Box, PointSet

# Relative clamping tolerance for "inside the box" checks.
BOX_TOL_REL = 1e-12

# Relative slack of the radius <= block width check. q = floor(edge/radius)
# rounds, so edge/q can fall a few ulps below the radius it was sized for.
WIDTH_TOL_REL = 1e-12

# Points per pass when build computes block codes: the pass's temporaries
# stay in cache, so build time grows in step with the point count.
BUILD_CHUNK = 16384

# Queries per vectorized pass of join_pairs: only the filtered hits of
# earlier chunks stay in memory, not their candidate pairs.
JOIN_CHUNK = 2048


class RangeResult(NamedTuple):
    """Result of ``brute_force_range_search``: matches sorted by (distance, index)."""

    indices: np.ndarray
    distances: np.ndarray
    candidates: int  # how many stored points were examined


class JoinPairs(NamedTuple):
    """Hits of a batch of fixed-radius searches as (query row, index, distance) triples.

    Grouped by ascending query row; within a row, in block-run order (see
    ``join_pairs``), not by distance.
    """

    rows: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    candidates: int  # stored points examined over all queries


@dataclass(frozen=True)
class BlockStructure:
    """Static bucket grid over the bounding box of an indexed point set."""

    dim: int
    q: int
    box: Box
    width: float
    points: np.ndarray = field(repr=False)
    sorted_idx: np.ndarray = field(repr=False)  # point indices grouped by block
    starts: np.ndarray = field(repr=False)  # bucket k is sorted_idx[starts[k-1]:starts[k]]

    @functools.cached_property
    def neighbor_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(first, size)`` of the ``sorted_idx`` runs around every block.

        Row k-1 of either (q^M, 3^(M-1)) array describes block k: run r
        is ``sorted_idx[first[k-1, r] : first[k-1, r] + size[k-1, r]]``,
        the buckets of the neighbours with offset ``r`` on the first M-1
        axes and -1, 0, +1 (clamped to the grid) on the last. Runs leaving
        the grid have size 0. Built in one vectorized pass on first use.
        """
        q, dim = self.q, self.dim
        strips = np.indices((q,) * dim).reshape(dim, -1).T + 1  # row k-1 holds block k's strips
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim - 1)), dtype=np.int64)
        lead = strips[:, None, :-1] + offsets
        valid = ((lead >= 1) & (lead <= q)).all(axis=2)
        # block k of a line along the last axis is line + k_M
        lead = np.clip(lead, 1, q) - 1
        line = lead[..., 0]
        for m in range(1, dim - 1):
            line = line * q + lead[..., m]
        line = line * q
        last = strips[:, -1:]
        first = self.starts[line + np.maximum(last - 1, 1) - 1]
        size = self.starts[line + np.minimum(last + 1, q)] - first
        return np.where(valid, first, 0), np.where(valid, size, 0)


def _block_codes(coords: np.ndarray, box: Box, width: float, q: int) -> np.ndarray:
    """0-based block codes of the rows of ``coords``.

    The one block-code rule of ``build`` and the join. Each coordinate is
    scaled to strip units, (x - lo) / width, and clipped to [0, q-1]
    before truncating, which gives its strip for any point in the box and
    the nearest strip for one outside it (infinities included); the
    strips k_1..k_M are then combined by Horner's rule into
    sum_m k_m q^(M-m).
    """
    scaled = coords - box.lo
    scaled /= width
    # np.maximum and np.minimum rather than np.clip, whose Python wrapper
    # costs several microseconds a call
    np.maximum(scaled, 0, out=scaled)
    strips = np.minimum(scaled, q - 1, out=scaled).astype(np.int64)
    codes = strips[:, 0]
    for m in range(1, strips.shape[1]):
        codes = codes * q + strips[:, m]
    return codes


def build(pts: PointSet, box: Box, q: int) -> BlockStructure:
    """Assign every point to its block bucket.

    Direct strip-index assignment, in cache-sized passes, plus one sort of
    unique (block, point index) keys; the bucket contents come out sorted
    ascending by point index. Raises PointOutsideBox when a point lies
    outside the box beyond tolerance.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    coords = pts.coords
    tol = BOX_TOL_REL * box.edge
    if coords.size and (coords.min() < box.lo - tol or coords.max() > box.hi + tol):
        bad = coords[((coords < box.lo - tol) | (coords > box.hi + tol)).any(axis=1)][0]
        raise PointOutsideBox(f"point {bad} outside box [{box.lo}, {box.hi}]^{box.dim}")
    width = box.edge / q if box.edge > 0 else 1.0
    n = len(coords)
    keys = np.empty(n, dtype=np.int64)
    for lo in range(0, n, BUILD_CHUNK):
        keys[lo : lo + BUILD_CHUNK] = _block_codes(coords[lo : lo + BUILD_CHUNK], box, width, q)
    counts = np.bincount(keys, minlength=q**pts.dim)
    # (block, point index) keys are unique: one value sort orders the points
    # by block and by index within a block, as a stable argsort would, at a
    # fraction of its cost. Keys stay below q^M * n, far inside int64 for
    # any grid whose bucket counts fit in memory.
    keys *= n
    keys += np.arange(n)
    keys.sort()
    keys %= max(n, 1)
    return BlockStructure(
        dim=pts.dim,
        q=q,
        box=box,
        width=width,
        points=coords,
        sorted_idx=keys,
        starts=np.concatenate(([0], np.cumsum(counts))),
    )


def join_pairs(bs: BlockStructure, queries, radius: float) -> JoinPairs:
    """Every (query row, stored point, distance) with distance <= ``radius``.

    The one block search. Query i's candidates are the buckets of the
    3^M blocks around its block, read as runs from ``bs.neighbor_runs``,
    built on the first call, in passes of JOIN_CHUNK queries. Hits are
    grouped by ascending query row. Within a row they come in block-run
    order: run by run of the block's ``neighbor_runs`` row, and in
    ``sorted_idx`` order within a run. That order depends on the block
    structure alone, not on JOIN_CHUNK or on the other queries of the
    batch. The runs go by ascending block, so where ``sorted_idx`` is the
    identity every row lists its hits in ascending index. Queries outside
    the box are clamped for the block lookup only.
    Raises ValueError for queries of the wrong shape, a NaN coordinate, or
    a radius wider than a block (beyond rounding) on a grid of q > 1
    blocks per side, where hits outside the 3^M neighbourhood would be
    lost.
    """
    chunks = list(join_chunks(bs, queries, radius))
    if len(chunks) == 1:
        return chunks[0]
    rows, indices, distances, candidates = zip(*chunks)
    return JoinPairs(np.concatenate(rows), np.concatenate(indices), np.concatenate(distances), sum(candidates))


def join_chunks(bs: BlockStructure, queries, radius: float):
    """The hits of ``join_pairs``, one ``JoinPairs`` per pass of JOIN_CHUNK queries.

    Rows count from the first query of the batch, and the chunks come in
    row order, so concatenated they are ``join_pairs``' result; an empty
    batch makes one empty chunk. The input is checked on the call, before
    the first chunk is asked for.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != bs.dim:
        raise ValueError(f"queries must be (n, {bs.dim}), got shape {queries.shape}")
    if np.isnan(queries).any():
        raise ValueError("queries must not contain NaN")
    if bs.q > 1 and radius > bs.width * (1.0 + WIDTH_TOL_REL):
        raise ValueError(
            f"radius {radius:g} exceeds the block width {bs.width:g}: "
            "build the structure with q <= blocks_per_side(edge, radius)"
        )
    step = JOIN_CHUNK
    starts = range(0, max(len(queries), 1), step)
    return (_join_chunk(bs, queries[lo : lo + step], radius, lo) for lo in starts)


def _join_chunk(bs: BlockStructure, queries: np.ndarray, radius: float, offset: int) -> JoinPairs:
    """Hits of one chunk of queries, the first of which is row ``offset``.

    Array methods stand in for their ``np.`` wrappers, as in ``pum``'s
    evaluation: each wrapper adds about a microsecond of dispatch.
    """
    firsts, sizes = bs.neighbor_runs
    blocks = _block_codes(queries, bs.box, bs.width, bs.q)
    sizes = sizes.take(blocks, axis=0)
    firsts = firsts.take(blocks, axis=0).ravel()
    runs = sizes.shape[1]
    sizes = sizes.ravel()
    # candidate t of a (query, run) pair sits at sorted_idx[first + t]
    run_ends = sizes.cumsum()
    # a query's candidates end where its last run does
    per_query = run_ends[runs - 1 :: runs].copy()
    per_query[1:] -= run_ends[runs - 1 : -1 : runs]
    pos = (firsts - run_ends + sizes).repeat(sizes)
    pos += np.arange(len(pos))
    cand = bs.sorted_idx.take(pos)
    delta = bs.points.take(cand, axis=0)
    delta -= queries.repeat(per_query, axis=0)
    dist = row_norms(delta)
    rows = np.arange(len(queries)).repeat(per_query)
    keep = (dist <= radius).nonzero()[0]
    rows = rows.take(keep)
    rows += offset
    return JoinPairs(rows, cand.take(keep), dist.take(keep), len(pos))


def row_norms(delta: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, M) array, M >= 2, which is overwritten.

    The squares are formed in place and their columns added in order, as
    ``cdist`` adds them, so the norms are cdist's to the last bit.
    """
    delta *= delta
    sq = delta[:, 0] + delta[:, 1]
    for k in range(2, delta.shape[1]):
        sq += delta[:, k]
    return np.sqrt(sq, out=sq)


def brute_force_range_search(points: np.ndarray, center, radius: float) -> RangeResult:
    """Reference fixed-radius search scanning all points with ``cdist``, sorted by (distance, index)."""
    points = np.asarray(points, dtype=float)
    dist = cdist(np.asarray(center, dtype=float)[None], points)[0]
    idx = np.flatnonzero(dist <= radius)
    dist = dist[idx]
    order = np.lexsort((idx, dist))
    return RangeResult(idx[order], dist[order], len(points))


def blocks_per_side(edge: float, radius: float) -> int:
    """Number of blocks along one box side for a given search radius.

    q = floor(edge/radius), at least 1, so the block width never drops
    below the radius and the 3^M neighborhood covers every query ball.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if edge <= 0:
        return 1
    # a subnormal radius overflows the ratio to inf, which int() rejects
    ratio = min(edge / radius, np.finfo(float).max)
    return max(1, int(np.floor(ratio)))
