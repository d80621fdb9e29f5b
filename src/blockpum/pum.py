"""Partition-of-unity interpolation over a block-partitioned convex domain.

Subdomain centers are laid out as a grid on the bounding rectangle, reduced
to the hull, and given a common radius tied to the grid resolution. All
point-in-subdomain queries run through the block structure, each
subdomain gets one small dense kernel system, and local fits are blended
with Shepard weights into the global interpolant. Each lookup is one
batched block join: centers against the data-site index at fit, points
against the center index (built once at fit) whenever the interpolant is
evaluated.

The local systems are solved in stacks: subdomains are grouped by member
count, and each group goes through batched LAPACK calls (eigenvalues for
the condition number, one Cholesky factorization reused for the solve)
in chunks of at most ``BLEND_CHUNK`` matrix entries. Each matrix of a
stack is computed as it would be alone, so ``local_solve`` on one
subdomain reproduces the fitted coefficients bit for bit.

A fitted model keeps its local fits in one place, a member table in
compressed sparse rows (member coordinates and coefficients, subdomain
after subdomain, plus one condition number per subdomain), so evaluation
never walks the per-subdomain lists. The Shepard blend and the
nearest-subdomain fallback get their local values from the same routine,
which splits the touched subdomains by the (point, member) entries they
hold in that call: subdomains at or below ``BLEND_STEP_ENTRIES`` are
evaluated together in vectorized passes over their entries, larger ones
keep one distance/kernel/matrix-vector step each, where BLAS beats the
per-entry gathers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve as lin_solve
from scipy.linalg.lapack import dpotrs as potrs
from scipy.spatial.distance import cdist

from .blockpart import BlockStructure, blocks_per_side, build, range_join
from .errors import (
    EmptyReduction,
    EmptySubdomainPruned,
    InsufficientCoverage,
    KernelSupportTooSmall,
    NoActiveSubdomain,
    SingularLocalSystem,
    warn_at_caller,
)
from .geometry import (
    ConvexDomain,
    PointSet,
    convex_hull,
    fill_distance,
    grid_on_rect,
    reduce_to_domain,
)
from .kernels import Kernel, phi_wendland_c2
from .validation import mae, rmse

# Fill-distance probes are subsampled beyond this count.
FILL_PROBE_CAP = 20000

# A touched subdomain with at most this many (point, member) entries in one
# evaluation joins the vectorized blend; above it, its own BLAS step is
# cheaper (~30 us of Python per step against ~55 ns more per gathered entry).
BLEND_STEP_ENTRIES = 512

# (point, member) entries per vectorized blend pass, and kernel-matrix
# entries per batched local solve, bounding the temporaries of either.
BLEND_CHUNK = 2**16


@dataclass(frozen=True)
class PumConfig:
    """Tunables of one interpolation run.

    d_r / s_r are the requested subdomain-center and evaluation grid counts
    on the bounding rectangle (defaults: d_r from the node density rule,
    s_r 40x40 in 2D and 20x20x20 in 3D). block_mode selects how the number
    of blocks per side follows from the subdomain radius.

    ``threads`` has no effect: the local systems are solved in batches on
    the calling thread, which beat a thread pool over the same solves.
    It must still be at least 1, and a value above 1 raises a
    FutureWarning, because the field will be removed.
    """

    kernel: Kernel
    d_r: int | None = None
    s_r: int | None = None
    block_mode: str = "cover"
    delta_override: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.block_mode not in ("cover", "paper"):
            raise ValueError("block_mode must be 'cover' or 'paper'")
        if self.d_r is not None and self.d_r < 1:
            raise ValueError("d_r must be >= 1")
        if self.s_r is not None and self.s_r < 1:
            raise ValueError("s_r must be >= 1")
        if self.delta_override is not None and self.delta_override <= 0:
            raise ValueError("delta_override must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.threads > 1:
            warn_at_caller(
                "PumConfig.threads has no effect (local systems are solved in batches) and will be removed",
                FutureWarning,
            )


@dataclass
class Covering:
    """Subdomain centers with common radius, member lists and center index.

    Only subdomains holding at least one data site survive.
    ``center_index`` is a cover-mode block structure over the surviving
    centers, so the 3^M block neighborhood of any point holds every
    subdomain containing it.
    """

    centers: np.ndarray
    radius: float
    node_lists: list
    center_index: BlockStructure
    d_requested: int
    n_pruned: int

    @property
    def d(self) -> int:
        return len(self.centers)

    def active(self, points):
        """(point row, subdomain, distance) for each point strictly inside a subdomain.

        Sorted by point row, then distance, then subdomain.
        """
        found = range_join(self.center_index, points, self.radius)
        inside = found.distances < self.radius
        return found.rows()[inside], found.indices[inside], found.distances[inside]


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
    ``cond[j]`` is the 2-norm condition number of its kernel matrix.
    """

    ptr: np.ndarray
    coords: np.ndarray
    coefficients: np.ndarray
    cond: np.ndarray


@dataclass
class RunReport:
    """Metrics of one evaluation of a fitted model.

    ``timings`` holds the fit's ``t_structure_s``, ``t_search_s`` and
    ``t_solve_s`` as recorded in ``PumModel.build_timings``, plus
    ``t_eval_s``, the seconds spent computing the values at the evaluation
    points, and ``t_total_s``, the fit's ``t_total_s`` plus ``t_eval_s``.
    The error metrics and the fill distance are computed afterwards and
    are in neither.
    """

    n: int
    d: int
    s: int
    delta: float
    q: int
    mae: float | None
    rmse: float | None
    max_cond: float
    av_cond: float
    fill_dist: float
    rate: float | None = None
    timings: dict = field(default_factory=dict)

    _TIMING_KEYS = ("t_structure_s", "t_search_s", "t_solve_s", "t_eval_s", "t_total_s")

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
            "rate": self.rate,
        }
        for key in self._TIMING_KEYS:
            out[key] = self.timings.get(key, 0.0)
        return out


def suggest_d_r(n: int, measure: float, edge: float, dim: int) -> int:
    """Subdomain-grid count on the rectangle from the node density.

    floor(edge/2 * (n/measure)^(1/M))^M, clamped below by one: with this
    choice the surviving center count is roughly n / 2^M.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if measure <= 0:
        raise ValueError("measure must be positive")
    raw = 0.5 * edge * (n / measure) ** (1.0 / dim)
    if abs(raw - round(raw)) < 1e-9 * max(1.0, abs(raw)):
        raw = round(raw)
    return max(1, int(np.floor(raw))) ** dim


def subdomain_radius(edge: float, d_r: int, dim: int) -> float:
    """Common subdomain radius edge*sqrt(2)/d_r^(1/M)."""
    if d_r < 1:
        raise ValueError("d_r must be >= 1")
    root = d_r ** (1.0 / dim)
    if abs(root - round(root)) < 1e-9 * max(1.0, root):
        root = round(root)
    return float(edge * np.sqrt(2.0) / root)


def _side_count(count: int, dim: int) -> int:
    return max(1, int(round(count ** (1.0 / dim))))


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


def _memberships(bs: BlockStructure, centers: np.ndarray, radius: float):
    """Strict-interior members of each ball, found through the block grid."""
    found = range_join(bs, centers, radius)
    inside = found.distances < radius
    cuts = np.cumsum(np.bincount(found.rows()[inside], minlength=len(centers)))[:-1]
    return np.split(found.indices[inside], cuts)


def build_covering(nodes: PointSet, dom: ConvexDomain, cfg: PumConfig, eval_points=None) -> Covering:
    """Construct the subdomain covering and membership lists.

    ``eval_points`` defaults to the reduced evaluation grid from the
    config. Empty subdomains are pruned with a warning; if afterwards some
    evaluation point is inside no surviving subdomain, the covering is not
    regular and InsufficientCoverage is raised. When both d_r and the
    radius were defaulted, the center grid is coarsened (larger radius)
    and retried before giving up; sparse inputs need that, explicit
    settings are respected as given.
    """
    eval_coords = _resolve_eval(dom, cfg, eval_points)
    covering, _ = _build_covering(nodes, dom, cfg, eval_coords)
    return covering


def _resolve_eval(dom, cfg, eval_points):
    if eval_points is not None:
        return np.atleast_2d(np.ascontiguousarray(eval_points, dtype=float))
    s_r = cfg.s_r if cfg.s_r is not None else (1600 if dom.dim == 2 else 8000)
    return reduce_to_domain(grid_on_rect(dom.rect, s_r), dom).coords


def _build_covering(nodes, dom, cfg, eval_coords):
    """One covering attempt per d_r candidate, coarsening only defaults."""
    auto = cfg.d_r is None and cfg.delta_override is None
    d_r = cfg.d_r if cfg.d_r is not None else suggest_d_r(len(nodes), dom.measure, dom.box.edge, nodes.dim)
    while True:
        try:
            return _build_covering_once(nodes, dom, cfg, eval_coords, d_r)
        except (InsufficientCoverage, EmptyReduction):
            n_side = _side_count(d_r, nodes.dim)
            if not auto or n_side <= 1:
                raise
            d_r = max(1, n_side // 2) ** nodes.dim
            warn_at_caller(f"covering too fine for the data, retrying with d_r={d_r}", EmptySubdomainPruned)


def _build_covering_once(nodes, dom, cfg, eval_coords, d_r):
    dim = nodes.dim
    n_side = _side_count(d_r, dim)
    d_r_actual = n_side**dim
    delta = cfg.delta_override
    if delta is None:
        delta = subdomain_radius(dom.box.edge, d_r_actual, dim)

    t0 = time.perf_counter()
    centers = reduce_to_domain(grid_on_rect(dom.rect, d_r_actual), dom).coords
    q = blocks_per_side(dom.box.edge, delta, cfg.block_mode)
    nodes_bs = build(nodes, dom.box, q)
    t1 = time.perf_counter()

    node_lists = _memberships(nodes_bs, centers, delta)
    occupied = [j for j, members in enumerate(node_lists) if len(members)]
    n_pruned = len(centers) - len(occupied)
    if n_pruned:
        warn_at_caller(
            f"pruned {n_pruned} of {len(centers)} subdomains containing no data sites", EmptySubdomainPruned
        )
    centers = centers[occupied]
    covering = Covering(
        centers=centers,
        radius=delta,
        node_lists=[node_lists[j] for j in occupied],
        center_index=build(PointSet(centers), dom.box, blocks_per_side(dom.box.edge, delta, "cover")),
        d_requested=d_r_actual,
        n_pruned=n_pruned,
    )

    if eval_coords is not None:
        covered = np.zeros(len(eval_coords), dtype=bool)
        covered[covering.active(eval_coords)[0]] = True
        if not covered.all():
            missing = np.flatnonzero(~covered)
            raise InsufficientCoverage(
                f"{len(missing)} evaluation points lie in no nonempty subdomain, "
                f"first at {eval_coords[missing[0]]}; increase overlap or node density"
            )
    t2 = time.perf_counter()

    extras = {
        "q": q,
        "t_structure_s": t1 - t0,
        "t_search_s": t2 - t1,
    }
    return covering, extras


def local_solve(coords: np.ndarray, values: np.ndarray, kernel: Kernel, index: int = 0) -> LocalFit:
    """Solve the dense local kernel system on one subdomain.

    The batched solve of a fit applied to a stack of one: the same
    coefficients and condition number, bit for bit, as the fit gives
    this subdomain.
    """
    coords = np.asarray(coords, dtype=float)
    phi = _kernel_stack(coords[None], kernel)
    coef, cond = _solve_stack(phi, np.asarray(values, dtype=float)[None], np.array([index]))
    return LocalFit(index=index, coefficients=coef[0], cond=float(cond[0]))


def _kernel_stack(coords, kernel):
    """Kernel matrices of a (b, n, M) stack of member coordinates.

    Squared distances accumulate one dimension at a time, so no
    (b, n, n, M) temporary is made.
    """
    sq = np.zeros(coords.shape[:2] + coords.shape[1:2])
    for k in range(coords.shape[2]):
        diff = coords[:, :, None, k] - coords[:, None, :, k]
        sq += diff * diff
    return kernel(np.sqrt(sq))


def _solve_stack(phi, values, index):
    """Coefficients (b, n) and 2-norm condition numbers (b,) of a (b, n, n) stack.

    cond = max|lambda| / min|lambda| from the eigenvalues, at least 1 and
    inf for a singular matrix. ``index`` names the subdomains in errors.
    """
    lam = np.abs(np.linalg.eigvalsh(phi))
    lo, hi = lam.min(axis=1), lam.max(axis=1)
    cond = np.maximum(np.divide(hi, lo, out=np.full(len(lo), np.inf), where=lo > 0), 1.0)
    coef = _factor_solve(phi, values, cond, index)
    bad = ~np.isfinite(coef).all(axis=1)
    if bad.any():
        raise SingularLocalSystem(f"subdomain {index[bad.argmax()]}: non-finite coefficients")
    return coef, cond


def _factor_solve(phi, values, cond, index):
    """Coefficients of a (b, n, n) stack from one batched Cholesky factorization.

    The factors are upper ones and each matrix gets one LAPACK ``potrs``,
    the calls behind scipy's ``cho_factor``/``cho_solve``; the triangular
    solves cost O(n^2) each, less than the 2n Python steps of a
    substitution vectorized over the stack. Where the factorization fails
    anywhere in the stack, each matrix is solved alone, and one that is
    not positive definite gets a pivoted symmetric solve.
    """
    try:
        upper = np.linalg.cholesky(phi, upper=True)
    except np.linalg.LinAlgError:
        if len(phi) > 1:
            one = [slice(i, i + 1) for i in range(len(phi))]
            return np.concatenate([_factor_solve(phi[i], values[i], cond[i], index[i]) for i in one])
        try:
            return lin_solve(phi[0], values[0], assume_a="sym", check_finite=False)[None]
        except np.linalg.LinAlgError as exc:
            raise SingularLocalSystem(f"subdomain {index[0]}: factorization failed (cond~{cond[0]:.3e})") from exc
    return np.stack([potrs(u, f, lower=False)[0] for u, f in zip(upper, values)])


def _fit_subdomains(nodes, node_lists, kernel) -> MemberTable:
    """Solve every subdomain's local system; the fits come back as one member table.

    Subdomains go by member count, in stacks of at most BLEND_CHUNK
    kernel-matrix entries (one matrix at least). Warns KernelSupportTooSmall
    when some subdomain has two members but no kernel matrix couples any.
    """
    sizes = np.array([len(members) for members in node_lists], dtype=np.int64)
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    members = np.concatenate(node_lists)
    coefficients = np.empty(len(members))
    cond = np.empty(len(sizes))
    coupled = False
    for n in np.unique(sizes):
        group = np.flatnonzero(sizes == n)
        step = max(1, BLEND_CHUNK // (n * n))
        for lo in range(0, len(group), step):
            subs = group[lo : lo + step]
            rows = ptr[subs, None] + np.arange(n)
            phi = _kernel_stack(nodes.coords[members[rows]], kernel)
            coupled = coupled or np.count_nonzero(phi) > phi.size // n
            coefficients[rows], cond[subs] = _solve_stack(phi, nodes.values[members[rows]], subs)
    if not coupled and sizes.max() > 1:
        warn_at_caller(
            f"kernel support {kernel.support_radius:g} is at or below every distance between two members "
            "of a subdomain: every local system is diagonal and the interpolant vanishes away from the data sites",
            KernelSupportTooSmall,
        )
    return MemberTable(ptr=ptr, coords=nodes.coords[members], coefficients=coefficients, cond=cond)


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
        out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        uncovered = np.flatnonzero(den == 0)
        if len(uncovered):
            if on_uncovered == "raise":
                raise NoActiveSubdomain(
                    f"{len(uncovered)} points lie in no subdomain, first at {points[uncovered[0]]}"
                )
            out[uncovered] = self._predict_nearest(points[uncovered])
        return out

    def _blend(self, points):
        """Shepard numerator and denominator at ``points``.

        The active (point, subdomain) pairs go by subdomain, then distance,
        then row, and both sums accumulate pair by pair in that order, so
        every point adds its subdomains in ascending order. Subdomains
        taking one matrix-vector product in ``_local_values`` round by row
        position, so this fixed order keeps their values reproducible to
        the last bit.
        """
        rows, subs, dists = self.covering.active(points)
        order = np.lexsort((rows, dists, subs))
        rows, subs, dists = rows[order], subs[order], dists[order]
        local = self._local_values(points, rows, subs)
        w = phi_wendland_c2(dists, 1.0 / self.delta)
        num = np.zeros(len(points))
        den = np.zeros(len(points))
        np.add.at(num, rows, w * local)
        np.add.at(den, rows, w)
        return num, den

    def _local_values(self, points, rows, subs):
        """Local fit of subdomain ``subs[i]`` at ``points[rows[i]]``; ``subs`` must be ascending.

        Subdomains with at most BLEND_STEP_ENTRIES (point, member) entries
        in this call go through the vectorized pass; larger ones get one
        matrix-vector product each, over their rows in the given order.
        """
        table = self.members
        present, firsts, counts = np.unique(subs, return_index=True, return_counts=True)
        step = counts * np.diff(table.ptr)[present] > BLEND_STEP_ENTRIES
        local = np.empty(len(rows))
        small = ~np.repeat(step, counts)
        if small.any():
            local[small] = self._vectorized_values(points, rows[small], subs[small])
        for j, lo, n in zip(present[step], firsts[step], counts[step]):
            a, b = table.ptr[j], table.ptr[j + 1]
            at = points[rows[lo : lo + n]]
            local[lo : lo + n] = self.kernel(cdist(at, table.coords[a:b])) @ table.coefficients[a:b]
        return local

    def _vectorized_values(self, points, rows, subs):
        """``_local_values`` for small subdomains, in passes of BLEND_CHUNK entries."""
        table = self.members
        sizes = table.ptr[subs + 1] - table.ptr[subs]
        ends = np.cumsum(sizes)
        # no pair holds more than BLEND_STEP_ENTRIES < BLEND_CHUNK entries, so no pass is empty
        cuts = np.searchsorted(ends, np.arange(BLEND_CHUNK, ends[-1], BLEND_CHUNK), side="right")
        out = np.empty(len(rows))
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(rows)]):
            n = sizes[lo:hi]
            starts = np.cumsum(n) - n
            # entry t of pair i is member row ptr[subs[i]] + (t - starts[i])
            pos = np.arange(starts[-1] + n[-1]) + np.repeat(table.ptr[subs[lo:hi]] - starts, n)
            delta = table.coords[pos] - points[np.repeat(rows[lo:hi], n)]
            terms = self.kernel(np.sqrt(np.einsum("ij,ij->i", delta, delta))) * table.coefficients[pos]
            out[lo:hi] = np.add.reduceat(terms, starts)
        return out

    def _predict_nearest(self, pts):
        """Local fit of the subdomain with the nearest center, taken with weight one."""
        nearest = cdist(pts, self.covering.centers).argmin(axis=1)
        order = np.argsort(nearest, kind="stable")
        vals = np.empty(len(pts))
        vals[order] = self._local_values(pts, order, nearest[order])
        return vals

    def conditioning(self):
        return float(self.members.cond.max()), float(self.members.cond.mean())


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
    order = np.lexsort(coords.T[::-1])
    same = np.flatnonzero((coords[order[1:]] == coords[order[:-1]]).all(axis=1))
    if len(same):
        # the sort is stable, so the later site of each equal pair is order[same + 1]
        k = same[np.argmin(order[same + 1])]
        raise ValueError(
            f"data site {order[k + 1]} duplicates data site {order[k]} at {coords[order[k]]}"
        )


def _fit(nodes: PointSet, cfg: PumConfig, eval_points=None, with_eval: bool = False):
    """The fit pipeline: node checks, hull, covering, local solves, model.

    With ``with_eval``, the evaluation points (``eval_points``, or the
    config's reduced grid on the hull) must all lie in the covering; they
    are returned with the model, else None is.
    """
    t_begin = time.perf_counter()
    _check_nodes(nodes)
    t0 = time.perf_counter()
    dom = convex_hull(nodes)
    t_hull = time.perf_counter() - t0
    eval_coords = _resolve_eval(dom, cfg, eval_points) if with_eval else None
    covering, extras = _build_covering(nodes, dom, cfg, eval_coords)
    t0 = time.perf_counter()
    members = _fit_subdomains(nodes, covering.node_lists, cfg.kernel)
    t_solve = time.perf_counter() - t0
    model = PumModel(
        domain=dom,
        kernel=cfg.kernel,
        config=cfg,
        covering=covering,
        members=members,
        nodes=nodes,
        q=extras["q"],
        build_timings={
            "t_structure_s": t_hull + extras["t_structure_s"],
            "t_search_s": extras["t_search_s"],
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
    values, report = _evaluate(model, eval_coords, truth, "raise")
    return PumResult(values=values, report=report, model=model, eval_points=eval_coords)


def evaluate(model: PumModel, eval_points, truth=None):
    """Evaluate a fitted model at given points and report metrics."""
    return _evaluate(model, eval_points, truth, "raise")


def _evaluate(model: PumModel, eval_points, truth, on_uncovered: str):
    """Values of ``model.predict`` at the points, and their report.

    The timings follow the rule in the RunReport docstring.
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
    max_cond, av_cond = model.conditioning()
    stride = max(1, int(np.ceil(len(eval_coords) / FILL_PROBE_CAP)))
    fd = fill_distance(model.nodes, PointSet(eval_coords[::stride]))
    report = RunReport(
        n=len(model.nodes),
        d=model.covering.d,
        s=len(eval_coords),
        delta=model.delta,
        q=model.q,
        mae=mae_val,
        rmse=rmse_val,
        max_cond=max_cond,
        av_cond=av_cond,
        fill_dist=fd,
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
