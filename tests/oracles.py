"""The paper's per-point block routines, the reference for ``blockpart``.

``strip_index``, ``block_index``, ``containing_query`` and
``neighborhood_of`` compute one point's strips, block and 3^M block
neighbourhood by the paper's formulas, a scalar at a time. The library's
batched routines (``build``, ``_block_codes``, ``neighbor_runs`` and the
join) are checked against them. Block indices are 1-based and follow the
strip numbering k = sum_m (k_m - 1) q^(M-m) + k_M.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from blockpum.blockpart import BOX_TOL_REL, BlockStructure
from blockpum.errors import PointOutsideBox


@dataclass(frozen=True)
class Neighborhood:
    center_block: int
    block_ids: np.ndarray  # center plus existing lattice neighbors, ascending


def n_blocks(bs: BlockStructure) -> int:
    return bs.q**bs.dim


def bucket(bs: BlockStructure, k: int) -> np.ndarray:
    """Point indices stored in block k (ascending)."""
    return bs.sorted_idx[bs.starts[k - 1] : bs.starts[k]]


def bucket_sizes(bs: BlockStructure) -> np.ndarray:
    return np.diff(bs.starts)


def strip_index(coord: float, axis_min: float, width: float, q: int) -> int:
    """1-based strip index of a coordinate; the far boundary clamps to strip q."""
    if width <= 0:
        raise ValueError("width must be positive")
    k = int(np.floor((coord - axis_min) / width)) + 1
    return min(max(k, 1), q)


def block_index(strips, q: int) -> int:
    """Block index from per-axis strip indices: k = sum (k_m-1) q^(M-m) + k_M."""
    strips = tuple(int(s) for s in strips)
    if any(s < 1 or s > q for s in strips):
        raise ValueError(f"strip indices must lie in [1, {q}]")
    k = 0
    for s in strips[:-1]:
        k = (k + (s - 1)) * q
    return k + strips[-1]


def containing_query(bs: BlockStructure, p) -> int:
    """Block index of the block containing ``p``."""
    p = np.asarray(p, dtype=float)
    tol = BOX_TOL_REL * bs.box.edge
    if p.min() < bs.box.lo - tol or p.max() > bs.box.hi + tol:
        raise PointOutsideBox(f"point {p} outside box [{bs.box.lo}, {bs.box.hi}]^{bs.dim}")
    strips = [strip_index(c, bs.box.lo, bs.width, bs.q) for c in p]
    return block_index(strips, bs.q)


def neighborhood_of(bs: BlockStructure, k: int) -> Neighborhood:
    """Block k plus all its existing lattice neighbors (offsets in {-1,0,+1})."""
    if not 1 <= k <= n_blocks(bs):
        raise ValueError(f"block index {k} out of range [1, {n_blocks(bs)}]")
    strips = _decompose(k, bs.q, bs.dim)
    ranges = [range(max(1, s - 1), min(bs.q, s + 1) + 1) for s in strips]
    ids = sorted(block_index(combo, bs.q) for combo in itertools.product(*ranges))
    return Neighborhood(center_block=k, block_ids=np.array(ids, dtype=np.int64))


def _decompose(k: int, q: int, dim: int):
    rem = k - 1
    strips = []
    for m in range(dim - 1, -1, -1):
        strips.append(rem // q**m + 1)
        rem %= q**m
    return strips
