"""Partition-of-unity interpolation over a block-partitioned convex domain.

Subdomain centers are laid out as a grid on the bounding rectangle, reduced
to the hull, and given a common radius tied to the grid resolution.
``subdomain_grid`` is the one place that turns a requested center count
into that grid, for the fit, its coarsening retry and the search
benchmark alike. All point-in-subdomain queries run through the block
structure, each subdomain gets one small dense kernel system, and local
fits are blended with Shepard weights into the global interpolant. Each
lookup is one batched block join, answered from the block structure's
table of neighbour runs: centers against the data-site index at fit,
points against the center index (built once at fit, its run table on the
first evaluation) whenever the interpolant is evaluated.

The local kernel matrices are built in stacks: subdomains are grouped by
member count, in chunks of at most ``BLEND_CHUNK`` matrix entries, and
each matrix of a stack then gets one LAPACK ``posv`` (Cholesky factor
and solve in one call). Each matrix of a stack is computed as it would
be alone, so ``local_solve`` on one subdomain reproduces the fitted
coefficients bit for bit.

A fitted model keeps its local fits in one place, a member table in
compressed sparse rows (member coordinates and coefficients, subdomain
after subdomain), so evaluation never walks the per-subdomain lists. The
condition numbers of the local systems are a diagnostic only: fitting
and predicting never compute them. The table computes them, from
eigenvalues of the same stacks, the first time they are read, and keeps
them.

Memberships come from the block join (``join_chunks``) as compressed
sparse rows, with no sort: each subdomain's members are the hits of its
center in the join's block-run order, which the block structure alone
fixes, and stay so through the fit. Only the member indices and the
per-center counts of each pass are kept, so the join's distances and
candidates never pile up. The nearest-subdomain fallback finds its
centers in a k-d tree over them, built on its first use.

A run report computes its fill distance, like the conditioning, only
when it is first read: evaluation keeps the data sites and the probes,
not the k-d tree query.

The surviving subdomains are numbered once, at fit, in the block order
of the center index (by block, then in grid order), their member lists
moving with them. The join (``join_pairs``) reads a point's candidates
block by block in ascending order, so it hands every point its
subdomains in ascending order, and evaluation sorts nothing for the
blend: both Shepard sums are taken in the join's order, so each point
adds its subdomains in ascending order however the batch is made up.

The Shepard blend and the nearest-subdomain fallback get their local
values from the same routine, which splits the touched subdomains by the
(point, member) entries they hold in that call: subdomains at or below
``BLEND_STEP_ENTRIES`` are evaluated together in vectorized passes over
their entries, larger ones keep one distance/kernel/product step each,
where one kernel matrix beats the per-entry gathers. Both paths add each
(point, subdomain) pair's terms, in member-table order, by one rule:
numpy's ``.sum()`` of that row of terms. So a pair's value depends on
the point and the subdomain alone, not on the path, on its row in a
step or on the rest of the batch, and evaluation sorts nothing but the
step pairs, grouped by subdomain in any order within each.

Rows of (n, M) coordinate arrays are gathered with ``take(..., axis=0)``
on every hot path: it copies the same values as fancy indexing at a
fraction of its cost on such narrow rows. Evaluation calls array methods
(``a.take``, ``a.repeat``) rather than their ``np.`` wrappers, whose
dispatch took ~9 % of a 64-point ``predict`` (2-vCPU x86, numpy 2.4).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve as lin_solve
from scipy.linalg.lapack import dposv as posv
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .blockpart import BlockStructure, blocks_per_side, build, join_chunks, join_pairs, row_norms
from .errors import (
    EmptySubdomainPruned,
    InsufficientCoverage,
    KernelSupportTooSmall,
    NoActiveSubdomain,
    SingularLocalSystem,
    warn_at_caller,
)
from .geometry import (
    Box,
    ConvexDomain,
    PointSet,
    convex_hull,
    fill_distance,
    grid_on_rect,
    membership_mask,
    reduce_to_domain,
)
from .kernels import Kernel, phi_wendland_c2
from .validation import mae, rmse

# Default evaluation grid count on the bounding rectangle (s_r) by dimension:
# 40x40 in 2D, 20x20x20 in 3D.
DEFAULT_EVAL_GRID = {2: 1600, 3: 8000}

# Fill-distance probes are subsampled beyond this count.
FILL_PROBE_CAP = 20000

# A touched subdomain with at most this many (point, member) entries in one
# evaluation joins the vectorized blend; above it, its own kernel-matrix step
# is cheaper. With np.take gathers a step costs ~13-21 us of Python against
# ~15-30 ns more per gathered entry (2-vCPU x86 host, numpy 2.4), which puts
# the break-even at ~700-1100 entries. It sets speed only: both paths give
# the same bits.
BLEND_STEP_ENTRIES = 512

# (point, member) entries per vectorized blend pass, and kernel-matrix
# entries per stack of local systems, bounding the temporaries of either.
BLEND_CHUNK = 2**16

# The nearest-subdomain fallback trusts the k-d tree's nearest center unless
# the second nearest lies within this relative distance of it: the tree and
# cdist round distances differently, by far less than this.
NEAREST_TIE_REL = 1e-12

# A block index over n points gets at most GRID_BLOCKS_PER_POINT * n blocks.
# A tiny radius would otherwise ask for (edge/radius)^M bucket counters;
# fewer, wider blocks keep every search complete.
GRID_BLOCKS_PER_POINT = 8


def is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1: a Python or numpy integer, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 1


@dataclass(frozen=True)
class PumConfig:
    """Tunables of one interpolation run.

    d_r / s_r are the requested subdomain-center and evaluation grid counts
    on the bounding rectangle (defaults: d_r from the node density rule of
    ``suggest_d_r``, s_r from DEFAULT_EVAL_GRID, 40x40 in 2D and 20x20x20
    in 3D). The subdomain radius follows from d_r, see ``subdomain_grid``.
    Only a default d_r is coarsened when the covering fails; an explicit
    one is used as given.

    ``threads`` has no effect: the local systems are solved on the calling
    thread, which beat a thread pool over the same solves. It must still
    be an integer of at least 1 (not a bool), and a value above 1 raises
    a FutureWarning, because the field will be removed.
    """

    kernel: Kernel
    d_r: int | None = None
    s_r: int | None = None
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.kernel, Kernel):
            raise ValueError(f"kernel must be a Kernel, as make_kernel returns, got {self.kernel!r}")
        for name in ("d_r", "s_r"):
            count = getattr(self, name)
            if count is not None and not is_count(count):
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        if not is_count(self.threads):
            raise ValueError(f"threads must be an integer >= 1, got {self.threads!r}")
        if self.threads > 1:
            warn_at_caller(
                "PumConfig.threads has no effect (local systems are solved on the calling thread) and will be removed",
                FutureWarning,
            )


@dataclass
class Covering:
    """Subdomain centers with common radius, member table and center index.

    Only subdomains holding at least one data site survive, numbered in
    the block order of ``center_index``: by block, and within a block in
    the order of the subdomain grid. Subdomain j's data sites are
    ``members[ptr[j]:ptr[j+1]]``, in the block join's order (see
    ``blockpart.join_pairs``), not by distance from its center.
    ``center_index`` is a block structure over the surviving centers whose
    blocks are at least one radius wide, so the 3^M block neighborhood of
    any point holds every subdomain containing it; its ``sorted_idx`` is
    the identity.
    """

    centers: np.ndarray
    radius: float
    ptr: np.ndarray
    members: np.ndarray
    center_index: BlockStructure
    n_pruned: int

    @property
    def d(self) -> int:
        return len(self.centers)

    @functools.cached_property
    def center_tree(self) -> cKDTree:
        """k-d tree over the centers, for the nearest-subdomain fallback; built on first use."""
        return cKDTree(self.centers)

    @functools.cached_property
    def _join_radius(self) -> float:
        return _below(self.radius)

    def active(self, points):
        """(point row, subdomain, distance) for each point strictly inside a subdomain.

        The pairs are grouped by ascending row, and each row lists its
        subdomains in strictly ascending order: the join visits blocks in
        ascending order, and the subdomains are numbered in block order.
        """
        return join_pairs(self.center_index, points, self._join_radius)[:3]


@dataclass
class LocalFit:
    index: int
    coefficients: np.ndarray
    cond: float


@dataclass(frozen=True)
class MemberTable:
    """All local fits in compressed sparse rows.

    Subdomain j's members are rows ``ptr[j]:ptr[j+1]`` of ``coords``, with
    their interpolation ``coefficients`` alongside, in node-list order;
    ``kernel`` is the kernel they were fitted with.
    """

    ptr: np.ndarray
    coords: np.ndarray
    coefficients: np.ndarray
    kernel: Kernel = field(repr=False)

    @functools.cached_property
    def sizes(self) -> np.ndarray:
        """Member count of every subdomain."""
        return np.diff(self.ptr)

    @functools.cached_property
    def cond(self) -> np.ndarray:
        """2-norm condition number of every subdomain's kernel matrix.

        Computed on first read and cached: the kernel matrices are rebuilt
        in the stacks of the fit, so the values are those ``local_solve``
        gives, bit for bit.
        """
        cond = np.empty(len(self.ptr) - 1)
        for subs, rows in _size_stacks(self.ptr):
            cond[subs] = _stack_cond(_kernel_stack(np.take(self.coords, rows, axis=0), self.kernel))
        return cond


@dataclass
class RunReport:
    """Metrics of one evaluation of a fitted model.

    ``timings`` holds the fit's ``t_structure_s``, ``t_search_s`` and
    ``t_solve_s`` as recorded in ``PumModel.build_timings``, plus
    ``t_eval_s``, the seconds spent computing the values at the evaluation
    points, and ``t_total_s``, the fit's ``t_total_s`` plus ``t_eval_s``.
    The error metrics are computed afterwards and are in neither.

    ``max_cond`` and ``av_cond`` read the condition numbers of the model's
    member table, computed on the first read and cached, so a report whose
    conditioning nobody reads costs no eigenvalues. ``fill_dist`` goes the
    same way: the report keeps the model's data sites (``nodes``) and a
    copy of the evaluation points subsampled to at most FILL_PROBE_CAP
    (``probes``), and ``fill_distance`` runs on the first read of
    ``fill_dist`` or ``as_dict()``.
    """

    n: int
    d: int
    s: int
    delta: float
    q: int
    mae: float | None
    rmse: float | None
    members: MemberTable = field(repr=False, compare=False)
    nodes: PointSet = field(repr=False, compare=False)
    probes: np.ndarray = field(repr=False, compare=False)
    timings: dict = field(default_factory=dict)

    _TIMING_KEYS = ("t_structure_s", "t_search_s", "t_solve_s", "t_eval_s", "t_total_s")

    @functools.cached_property
    def fill_dist(self) -> float:
        """Fill distance of the data sites over the probes; computed on first read and cached."""
        return fill_distance(self.nodes, PointSet(self.probes))

    @property
    def max_cond(self) -> float:
        return float(self.members.cond.max())

    @property
    def av_cond(self) -> float:
        return float(self.members.cond.mean())

    def as_dict(self) -> dict:
        out = {
            "N": self.n,
            "d": self.d,
            "s": self.s,
            "delta": self.delta,
            "q": self.q,
            "mae": self.mae,
            "rmse": self.rmse,
            "max_cond": self.max_cond,
            "av_cond": self.av_cond,
            "fill_distance": self.fill_dist,
        }
        for key in self._TIMING_KEYS:
            out[key] = self.timings.get(key, 0.0)
        return out


def suggest_d_r(n: int, measure: float, edge: float, dim: int) -> int:
    """Subdomain-grid count on the rectangle from the node density.

    floor(edge/2 * (n/measure)^(1/M))^M, clamped below by one. This is the
    count requested on the whole bounding rectangle. Fewer subdomains
    survive: the hull keeps only the centers inside it, and empty ones are
    pruned. A Halton pentagon of ~9900 sites keeps 2587 of 3844; a
    2000-point sphere cloud with its off-surface points keeps ~490 of 1331
    in its hull, of which ~310 hold a site.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if measure <= 0:
        raise ValueError("measure must be positive")
    raw = 0.5 * edge * (n / measure) ** (1.0 / dim)
    if abs(raw - round(raw)) < 1e-9 * max(1.0, abs(raw)):
        raw = round(raw)
    return max(1, int(np.floor(raw))) ** dim


class SubdomainGrid(NamedTuple):
    """``side`` centers per axis on the rectangle, the ``centers`` kept in the hull, their ``radius``."""

    side: int
    centers: np.ndarray
    radius: float


def subdomain_grid(dom: ConvexDomain, n: int, d_r: int | None = None) -> SubdomainGrid:
    """The subdomain grid of ``n`` data sites on ``dom`` for a requested count ``d_r``.

    ``d_r`` defaults to ``suggest_d_r``. The grid has side = round(d_r^(1/M))
    centers per axis (at least one), spanning the bounding rectangle
    inclusively; the centers inside the hull are kept, possibly none. All
    subdomains share the radius edge*sqrt(2)/side, with edge that of the
    bounding box, and the radius sets the block width of the fit's indexes.
    """
    dim = dom.dim
    if d_r is None:
        d_r = suggest_d_r(n, dom.measure, dom.box.edge, dim)
    side = max(1, int(round(d_r ** (1.0 / dim))))
    grid = grid_on_rect(dom.rect, side**dim).coords
    return SubdomainGrid(side, grid[membership_mask(dom, grid)], float(dom.box.edge * np.sqrt(2.0) / side))


def shepard_weights(p, covering: Covering, active=None) -> np.ndarray:
    """Normalized compact weights of the subdomains containing ``p``.

    The weight generator is the Wendland C2 profile scaled to vanish at the
    subdomain radius. Raises NoActiveSubdomain when nothing covers ``p``.
    """
    p = np.asarray(p, dtype=float)
    if active is None:
        dist_all = np.linalg.norm(covering.centers - p, axis=1)
        active = np.flatnonzero(dist_all < covering.radius)
    else:
        active = np.asarray(active, dtype=np.int64)
    if len(active) == 0:
        raise NoActiveSubdomain(f"point {p} lies in no subdomain")
    dist = np.linalg.norm(covering.centers[active] - p, axis=1)
    w = phi_wendland_c2(dist, 1.0 / covering.radius)
    total = w.sum()
    if total <= 0:
        raise NoActiveSubdomain(f"point {p} lies in no subdomain")
    return w / total


def _below(radius: float) -> float:
    """The largest float below ``radius``: a join within it finds the points strictly inside."""
    return float(np.nextafter(radius, 0.0))


def _memberships(bs: BlockStructure, centers: np.ndarray, radius: float):
    """Strict-interior members of each ball, found through the block grid.

    Returned as compressed sparse rows ``(ptr, members)``: ball j holds
    ``members[ptr[j]:ptr[j+1]]``, in the join's block-run order. Each
    pass of the join leaves only its indices and its per-center counts.
    """
    counts = np.zeros(len(centers), dtype=np.int64)
    members = []
    for rows, indices, _, _ in join_chunks(bs, centers, _below(radius)):
        # a pass's hits are grouped by ascending row
        if len(rows):
            counts[rows[0] : rows[-1] + 1] = np.bincount(rows - rows[0])
        members.append(indices)
    ptr = np.zeros(len(centers) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, np.concatenate(members)


def _block_index(pts: PointSet, box: Box, radius: float) -> BlockStructure:
    """Block structure over ``pts`` whose 3^M neighborhoods hold every ball of ``radius``.

    q starts at ``blocks_per_side(box.edge, radius)``, so no block is
    narrower than the radius, and is lowered until
    q^M <= GRID_BLOCKS_PER_POINT * max(n, 1).
    """
    dim, limit = pts.dim, GRID_BLOCKS_PER_POINT * max(len(pts), 1)
    q = min(blocks_per_side(box.edge, radius), int(limit ** (1.0 / dim)) + 1)
    while q > 1 and q**dim > limit:
        q -= 1
    return build(pts, box, q)


def _cover(nodes: PointSet, dom: ConvexDomain, grid: SubdomainGrid, eval_coords=None):
    """The covering of ``grid`` over the data sites, and its costs.

    Subdomains holding no data site are pruned with a warning, and the
    survivors are renumbered in the block order of the center index, with
    their member lists. Raises InsufficientCoverage when no subdomain holds
    a site, or when some row of ``eval_coords`` (if given) lies in no
    surviving subdomain.

    Returns ``(covering, q, t_index_s, t_search_s)``: ``q`` is the site
    index's blocks per side, ``t_index_s`` the seconds spent building that
    index, and ``t_search_s`` those of the memberships, the center index
    and the coverage check.
    """
    t0 = time.perf_counter()
    nodes_bs = _block_index(nodes, dom.box, grid.radius)
    t1 = time.perf_counter()

    ptr, members = _memberships(nodes_bs, grid.centers, grid.radius)
    occupied = np.flatnonzero(np.diff(ptr))
    if not len(occupied):
        raise InsufficientCoverage(
            f"none of the {len(grid.centers)} subdomains of radius {grid.radius:g} contains a data site; "
            "request fewer subdomains (d_r) or add data sites"
        )
    n_pruned = len(grid.centers) - len(occupied)
    if n_pruned:
        warn_at_caller(
            f"pruned {n_pruned} of {len(grid.centers)} subdomains containing no data sites", EmptySubdomainPruned
        )
    index = _block_index(PointSet(grid.centers[occupied]), dom.box, grid.radius)
    # subdomain j is grid center keep[j]; its members move with it, in their order
    keep = occupied[index.sorted_idx]
    sizes = ptr[keep + 1] - ptr[keep]
    new_ptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(sizes, out=new_ptr[1:])
    pos = (ptr[keep] - new_ptr[:-1]).repeat(sizes)
    pos += np.arange(len(pos))
    centers = grid.centers[keep]
    covering = Covering(
        centers=centers,
        radius=grid.radius,
        ptr=new_ptr,
        members=members.take(pos),
        center_index=dataclasses.replace(index, points=centers, sorted_idx=np.arange(len(keep))),
        n_pruned=n_pruned,
    )

    if eval_coords is not None:
        covered = np.zeros(len(eval_coords), dtype=bool)
        covered[covering.active(eval_coords)[0]] = True
        if not covered.all():
            missing = np.flatnonzero(~covered)
            raise InsufficientCoverage(
                f"{len(missing)} evaluation points lie in no nonempty subdomain, "
                f"first at {eval_coords[missing[0]]}; request fewer subdomains (d_r) or add data sites"
            )
    return covering, nodes_bs.q, t1 - t0, time.perf_counter() - t1


def local_solve(coords: np.ndarray, values: np.ndarray, kernel: Kernel, index: int = 0) -> LocalFit:
    """Solve the dense local kernel system on one subdomain.

    The fit's solve applied to a stack of one: the same kernel matrix and
    the same one ``posv``, so the same coefficients and condition number,
    bit for bit, as the fit gives this subdomain.
    """
    coords = np.asarray(coords, dtype=float)
    phi = _kernel_stack(coords[None], kernel)
    coef = _solve_stack(phi, np.asarray(values, dtype=float)[None], np.array([index]))
    return LocalFit(index=index, coefficients=coef[0], cond=float(_stack_cond(phi)[0]))


def _kernel_stack(coords, kernel):
    """Kernel matrices of a (b, n, M) stack of member coordinates.

    Squared distances accumulate one dimension at a time in one reused
    difference buffer, so no (b, n, n, M) temporary is made, and the
    distances overwrite them.
    """
    sq = np.zeros(coords.shape[:2] + coords.shape[1:2])
    diff = np.empty_like(sq)
    for k in range(coords.shape[2]):
        np.subtract(coords[:, :, None, k], coords[:, None, :, k], out=diff)
        diff *= diff
        sq += diff
    return kernel(np.sqrt(sq, out=sq))


def _stack_cond(phi):
    """2-norm condition numbers (b,) of a (b, n, n) stack of symmetric matrices.

    cond = max|lambda| / min|lambda| from the eigenvalues, at least 1 and
    inf for a singular matrix.
    """
    lam = np.abs(np.linalg.eigvalsh(phi))
    lo, hi = lam.min(axis=1), lam.max(axis=1)
    return np.maximum(np.divide(hi, lo, out=np.full(len(lo), np.inf), where=lo > 0), 1.0)


def _solve_stack(phi, values, index):
    """Coefficients (b, n) of a (b, n, n) stack; ``index`` names the subdomains in errors."""
    coef = _factor_solve(phi, values, index)
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        raise SingularLocalSystem(f"subdomain {index[bad.argmax()]}: non-finite coefficients")
    return coef


def _factor_solve(phi, values, index):
    """Coefficients of a (b, n, n) stack, one LAPACK ``posv`` per matrix.

    ``posv`` factors a matrix by Cholesky and solves with the factor in one
    call, the ``potrf`` and ``potrs`` behind scipy's ``cho_factor`` and
    ``cho_solve``. Each symmetric matrix goes in as its transpose, an
    F-contiguous view of the same entries, so the wrapper's one copy of it
    is a plain one, and LAPACK reads its lower triangle. ``phi`` itself is
    never overwritten: the fallback reads it. A matrix that is not positive
    definite gets a pivoted symmetric solve, on its own; one that fails
    that too raises SingularLocalSystem with its condition number.
    """
    coef = np.empty(values.shape)
    for i, (a, f) in enumerate(zip(phi, values)):
        _, coef[i], info = posv(a.T, f, lower=False)
        if info:
            try:
                coef[i] = lin_solve(a, f, assume_a="sym", check_finite=False)
            except np.linalg.LinAlgError as exc:
                cond = _stack_cond(a[None])[0]
                raise SingularLocalSystem(f"subdomain {index[i]}: factorization failed (cond~{cond:.3e})") from exc
    return coef


def _size_stacks(ptr):
    """(subdomains, member rows) of each stack of equal-size subdomains.

    Subdomains go by member count, in stacks of at most BLEND_CHUNK
    kernel-matrix entries (one matrix at least); row i of the (b, n)
    ``rows`` holds the member-table rows of subdomain ``subdomains[i]``.
    """
    sizes = np.diff(ptr)
    for n in np.unique(sizes):
        group = np.flatnonzero(sizes == n)
        step = max(1, BLEND_CHUNK // (n * n))
        for lo in range(0, len(group), step):
            subs = group[lo : lo + step]
            yield subs, ptr[subs, None] + np.arange(n)


def _fit_subdomains(nodes, ptr, members, kernel) -> MemberTable:
    """Solve every subdomain's local system; the fits come back as one member table.

    Subdomain j's data sites are ``members[ptr[j]:ptr[j+1]]``. The systems
    are solved in the stacks of ``_size_stacks``. Warns
    KernelSupportTooSmall when some subdomain has two members but no kernel
    matrix couples any.
    """
    sizes = np.diff(ptr)
    coefficients = np.empty(len(members))
    coupled = False
    for subs, rows in _size_stacks(ptr):
        phi = _kernel_stack(np.take(nodes.coords, members[rows], axis=0), kernel)
        coupled = coupled or np.count_nonzero(phi) > phi.size // rows.shape[1]
        coefficients[rows] = _solve_stack(phi, nodes.values[members[rows]], subs)
    if not coupled and sizes.max() > 1:
        warn_at_caller(
            f"kernel support {kernel.support_radius:g} is at or below every distance between two members "
            "of a subdomain: every local system is diagonal and the interpolant vanishes away from the data sites",
            KernelSupportTooSmall,
        )
    return MemberTable(
        ptr=ptr, coords=np.take(nodes.coords, members, axis=0), coefficients=coefficients, kernel=kernel
    )


@dataclass
class PumModel:
    """A fitted partition-of-unity interpolant.

    ``build_timings`` holds the fit's ``t_structure_s``, ``t_search_s``,
    ``t_solve_s`` and ``t_total_s``.
    """

    domain: ConvexDomain
    kernel: Kernel
    config: PumConfig
    covering: Covering
    members: MemberTable = field(repr=False)
    nodes: PointSet
    q: int
    build_timings: dict

    @property
    def delta(self) -> float:
        return self.covering.radius

    def predict(self, points, on_uncovered: str = "raise") -> np.ndarray:
        """Evaluate the interpolant at arbitrary points.

        Costs time in proportion to the batch: each point looks up its
        subdomains in the center index built at fit. Points inside no
        subdomain either raise NoActiveSubdomain (on_uncovered="raise") or
        take the nearest surviving subdomain's local fit with weight one
        (on_uncovered="nearest"). Points of the wrong dimension or with
        non-finite coordinates raise ValueError.
        """
        if on_uncovered not in ("raise", "nearest"):
            raise ValueError("on_uncovered must be 'raise' or 'nearest'")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] != self.domain.dim:
            raise ValueError(f"points must be (n, {self.domain.dim}), got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        num, den = self._blend(points)
        # an empty join leaves np.bincount's int64 zeros; both divisions give float64
        if den.all():
            return num / den
        out = np.divide(num, den, out=np.zeros(len(points)), where=den > 0)
        uncovered = np.flatnonzero(den == 0)
        if on_uncovered == "raise":
            raise NoActiveSubdomain(f"{len(uncovered)} points lie in no subdomain, first at {points[uncovered[0]]}")
        out[uncovered] = self._predict_nearest(points[uncovered])
        return out

    def _blend(self, points):
        """Shepard numerator and denominator at ``points``.

        ``Covering.active`` lists each point's subdomains in ascending
        order, and both sums are taken in that order by ``np.bincount``,
        with no sort: every point adds its subdomains in ascending order,
        however the batch is made up.
        """
        rows, subs, dists = self.covering.active(points)
        w = phi_wendland_c2(dists, 1.0 / self.delta)
        local = self._local_values(points, rows, subs)
        local *= w
        return np.bincount(rows, local, len(points)), np.bincount(rows, w, len(points))

    def _local_values(self, points, rows, subs):
        """Local fit of subdomain ``subs[i]`` at ``points[rows[i]]``, for pairs in any order.

        Each pair's terms, phi(|p - x_k|) c_k in member-table order, are
        added as numpy's ``.sum()`` adds that row, so every value depends
        on its point and subdomain alone. Subdomains with at most
        BLEND_STEP_ENTRIES (point, member) entries in this call go through
        the vectorized pass. Larger ones get one kernel matrix each, whose
        rows are summed with ``.sum(axis=1)``; their pairs are grouped by
        subdomain with one argsort, in any order within a subdomain. The
        row sums write consecutive slices of one buffer, which is scattered
        back once.
        """
        table = self.members
        counts = np.bincount(subs, minlength=len(table.sizes))
        heavy = counts * table.sizes > BLEND_STEP_ENTRIES
        if not heavy.any():
            return self._vectorized_values(points, rows, subs)
        step = heavy.take(subs)
        local = np.empty(len(rows))
        small = ~step
        if small.any():
            local[small] = self._vectorized_values(points, rows[small], subs[small])
        at = step.nonzero()[0]
        at = at.take(np.argsort(subs.take(at)))
        at_rows = rows.take(at)
        present = heavy.nonzero()[0]
        buf = np.empty(len(at))
        lo = 0
        for j, hi in zip(present, counts[present].cumsum()):
            a, b = table.ptr[j], table.ptr[j + 1]
            terms = self.kernel(cdist(points.take(at_rows[lo:hi], axis=0), table.coords[a:b]))
            terms *= table.coefficients[a:b]
            buf[lo:hi] = terms.sum(axis=1)
            lo = hi
        local[at] = buf
        return local

    def _vectorized_values(self, points, rows, subs):
        """``_local_values`` for small subdomains, in passes of BLEND_CHUNK entries.

        Distances come from ``row_norms``: the bits of the large-subdomain
        step's ``cdist``. Each pair gets one leading slot, set to 0.0 after
        the products: ``np.add.reduceat`` adds a segment as its first term
        plus the pairwise sum of the rest, so with that 0.0 first it adds
        the pair's terms as ``.sum()`` does.
        """
        table = self.members
        # entries per pair: a leading slot, then one per member
        sizes = table.sizes.take(subs) + 1
        cuts = [0, len(rows)]
        total = sizes.sum()
        if total > BLEND_CHUNK:
            # no pair holds more than BLEND_STEP_ENTRIES + 1 < BLEND_CHUNK entries, so no pass is empty
            ends = sizes.cumsum()
            cuts[1:1] = np.searchsorted(ends, np.arange(BLEND_CHUNK, total, BLEND_CHUNK), side="right")
        out = np.empty(len(rows))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            n = sizes[lo:hi]
            starts = n.cumsum()
            starts -= n
            # entry t of pair i is member row ptr[subs[i]] + (t - starts[i]) - 1; the leading
            # slot gathers a row it then discards (the last one, for subdomain 0)
            pos = (table.ptr.take(subs[lo:hi]) - starts - 1).repeat(n)
            pos += np.arange(len(pos))
            delta = table.coords.take(pos, axis=0)
            delta -= points.take(rows[lo:hi], axis=0).repeat(n, axis=0)
            terms = self.kernel(row_norms(delta))
            terms *= table.coefficients.take(pos)
            terms[starts] = 0.0
            out[lo:hi] = np.add.reduceat(terms, starts)
        return out

    def _predict_nearest(self, pts):
        """Local fit of the subdomain with the nearest center, taken with weight one.

        The two nearest centers come from the covering's k-d tree. Where
        their distances agree to NEAREST_TIE_REL, the row takes the first
        center of least ``cdist`` distance, so near-ties go as they would in
        an argmin over all centers.
        """
        dist, nearest = self.covering.center_tree.query(pts, k=2)
        # a lone center leaves the second distance inf: never a tie
        ties = np.flatnonzero(dist[:, 1] - dist[:, 0] <= NEAREST_TIE_REL * dist[:, 0])
        nearest = nearest[:, 0]
        if len(ties):
            nearest[ties] = cdist(pts[ties], self.covering.centers).argmin(axis=1)
        return self._local_values(pts, np.arange(len(pts)), nearest)


@dataclass
class PumResult:
    values: np.ndarray
    report: RunReport
    model: PumModel
    eval_points: np.ndarray = None


def _check_nodes(nodes: PointSet) -> None:
    """Reject sites without values or sharing a position; either would make a local system singular."""
    if nodes.values is None:
        raise ValueError("nodes must carry values")
    coords = nodes.coords
    # a duplicate needs a tie in the first coordinate, which one plain sort
    # of that column rules out in almost every set
    first = np.sort(coords[:, 0])
    if not (first[1:] == first[:-1]).any():
        return
    order = np.lexsort(coords.T[::-1])
    ranked = coords.take(order, axis=0)
    # neighbours in the sort compared a column at a time: a reduction over
    # 2- or 3-wide rows costs more than the comparisons themselves
    same = ranked[1:, 0] == ranked[:-1, 0]
    for k in range(1, coords.shape[1]):
        same &= ranked[1:, k] == ranked[:-1, k]
    same = same.nonzero()[0]
    if len(same):
        # the sort is stable, so the later site of each equal pair is order[same + 1]
        k = same[np.argmin(order[same + 1])]
        raise ValueError(
            f"data site {order[k + 1]} duplicates data site {order[k]} at {coords[order[k]]}"
        )


def _fit(nodes: PointSet, cfg: PumConfig, eval_points=None, with_eval: bool = False):
    """The fit pipeline: node checks, hull, covering, local solves, model.

    With ``with_eval``, the evaluation points (``eval_points``, or the
    config's grid on the rectangle reduced to the hull) must all lie in the
    covering; they are returned with the model, else None is. A covering
    that fails with a default ``d_r`` is retried with half the grid side,
    down to a single center; an explicit ``d_r`` is used as given.
    """
    t_begin = time.perf_counter()
    _check_nodes(nodes)
    t0 = time.perf_counter()
    dom = convex_hull(nodes)
    t_hull = time.perf_counter() - t0
    eval_coords = None
    if with_eval and eval_points is not None:
        eval_coords = np.atleast_2d(np.ascontiguousarray(eval_points, dtype=float))
    elif with_eval:
        s_r = cfg.s_r if cfg.s_r is not None else DEFAULT_EVAL_GRID[dom.dim]
        eval_coords = reduce_to_domain(grid_on_rect(dom.rect, s_r), dom).coords
    d_r = cfg.d_r
    while True:
        t0 = time.perf_counter()
        grid = subdomain_grid(dom, len(nodes), d_r)
        t_grid = time.perf_counter() - t0
        try:
            covering, q, t_index, t_search = _cover(nodes, dom, grid, eval_coords)
            break
        except InsufficientCoverage:
            if cfg.d_r is not None or grid.side == 1:
                raise
            d_r = (grid.side // 2) ** dom.dim
            warn_at_caller(f"covering too fine for the data, retrying with d_r={d_r}", EmptySubdomainPruned)
    t0 = time.perf_counter()
    members = _fit_subdomains(nodes, covering.ptr, covering.members, cfg.kernel)
    t_solve = time.perf_counter() - t0
    model = PumModel(
        domain=dom,
        kernel=cfg.kernel,
        config=cfg,
        covering=covering,
        members=members,
        nodes=nodes,
        q=q,
        build_timings={
            "t_structure_s": t_hull + t_grid + t_index,
            "t_search_s": t_search,
            "t_solve_s": t_solve,
            "t_total_s": time.perf_counter() - t_begin,
        },
    )
    return model, eval_coords


def fit_model(nodes: PointSet, cfg: PumConfig) -> PumModel:
    """Fit the interpolant without attaching an evaluation set."""
    return _fit(nodes, cfg)[0]


def pum_interpolate(nodes: PointSet, cfg: PumConfig, eval_points=None, truth=None) -> PumResult:
    """Full pipeline: domain detection, covering, local solves, blending.

    ``nodes`` must carry values. ``eval_points`` defaults to the reduced
    evaluation grid on the bounding rectangle; ``truth`` (callable or
    array) enables the error metrics in the report.
    """
    model, eval_coords = _fit(nodes, cfg, eval_points, with_eval=True)
    values, report = evaluate(model, eval_coords, truth)
    return PumResult(values=values, report=report, model=model, eval_points=eval_coords)


def evaluate(model: PumModel, eval_points, truth=None, on_uncovered: str = "raise"):
    """Values of ``model.predict`` at the points, and their report.

    ``truth`` (callable or array) enables the error metrics, and
    ``on_uncovered`` is passed to ``predict``. The timings follow the rule
    in the RunReport docstring.
    """
    eval_coords = np.atleast_2d(np.asarray(eval_points, dtype=float))
    t0 = time.perf_counter()
    values = model.predict(eval_coords, on_uncovered=on_uncovered)
    t_eval = time.perf_counter() - t0

    mae_val = rmse_val = None
    if truth is not None:
        truth_vals = truth(eval_coords) if callable(truth) else np.asarray(truth, dtype=float)
        mae_val = mae(truth_vals, values)
        rmse_val = rmse(truth_vals, values)
    stride = max(1, int(np.ceil(len(eval_coords) / FILL_PROBE_CAP)))
    report = RunReport(
        n=len(model.nodes),
        d=model.covering.d,
        s=len(eval_coords),
        delta=model.delta,
        q=model.q,
        mae=mae_val,
        rmse=rmse_val,
        members=model.members,
        nodes=model.nodes,
        probes=eval_coords[::stride].copy(),
        timings=dict(
            model.build_timings,
            t_eval_s=t_eval,
            t_total_s=model.build_timings["t_total_s"] + t_eval,
        ),
    )
    return values, report


def audit_partition_of_unity(model: PumModel, points) -> float:
    """Worst |sum of active weights - 1| over the given covered points."""
    worst = 0.0
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        try:
            w = shepard_weights(p, model.covering)
        except NoActiveSubdomain:
            continue
        worst = max(worst, abs(float(w.sum()) - 1.0))
    return worst
