import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import solve as lin_solve
from scipy.linalg.lapack import dpotrs
from scipy.spatial.distance import cdist

import blockpum as bp
from blockpum import blockpart
from blockpum import pum as pum_module
from blockpum.errors import (
    EmptySubdomainPruned,
    InsufficientCoverage,
    KernelSupportTooSmall,
    NoActiveSubdomain,
    SingularLocalSystem,
)
from blockpum.geometry import membership_mask
from blockpum.kernels import phi_wendland_c2
from blockpum.pum import (
    BLEND_CHUNK,
    BLEND_STEP_ENTRIES,
    GRID_BLOCKS_PER_POINT,
    _block_index,
    _cover,
    _fit_subdomains,
    _kernel_stack,
    _memberships,
    _size_stacks,
)
from blockpum.reconstruct import OrientedCloud, default_step, grid_coords, reconstruct
from blockpum.validation import eval_test_function

from conftest import fibonacci_sphere, pentagon_vertices


def pentagon_nodes(raw_n, func="f1"):
    pts = bp.halton(raw_n, 2)
    dom = bp.convex_hull(bp.PointSet(pentagon_vertices(0.5, (0.5, 0.5))))
    pts = bp.reduce_to_domain(pts, dom)
    return pts.with_values(eval_test_function(func, pts.coords))


def wendland_cfg(**kw):
    kw.setdefault("kernel", bp.make_kernel("wendland-c2", 0.5))
    return bp.PumConfig(**kw)


def members_of(cov, j):
    """Data sites of subdomain j, read from the covering's member table."""
    return cov.members[cov.ptr[j] : cov.ptr[j + 1]]


def member_lists(cov):
    """Data sites of every subdomain, as views of the member table."""
    return np.split(cov.members, cov.ptr[1:-1])


@pytest.fixture(scope="module")
def pentagon_run():
    nodes = pentagon_nodes(2499)
    cfg = wendland_cfg(s_r=1600)
    return nodes, bp.pum_interpolate(nodes, cfg, truth=lambda p: eval_test_function("f1", p))


class TestSuggestDr:
    def test_square_1024(self):
        # floor(0.5 * 1 * 32)^2, and 1024/256 = 4 nodes per subdomain
        assert bp.suggest_d_r(1024, 1.0, 1.0, 2) == 256

    def test_degenerate_clamps_to_one(self):
        assert bp.suggest_d_r(1, 1.0, 1.0, 2) == 1

    def test_cube_4096(self):
        assert bp.suggest_d_r(4096, 1.0, 1.0, 3) == 512


def unit_cube_domain(edge=1.0):
    corners = np.array(np.meshgrid(*[[0.0, edge]] * 3, indexing="ij")).reshape(3, -1).T
    return bp.convex_hull(bp.PointSet(corners))


class TestSubdomainRadius:
    """The radius of ``subdomain_grid``: edge * sqrt(2) / side."""

    def test_2d(self, unit_square_domain):
        radius = bp.subdomain_grid(unit_square_domain, 1, 256).radius
        assert radius == pytest.approx(np.sqrt(2) / 16, rel=1e-15)

    def test_single_subdomain(self, unit_square_domain):
        grid = bp.subdomain_grid(unit_square_domain, 1, 1)
        assert grid.radius == pytest.approx(np.sqrt(2), rel=1e-15)
        assert np.array_equal(grid.centers, [[0.5, 0.5]])

    def test_3d(self):
        assert bp.subdomain_grid(unit_cube_domain(2.0), 1, 512).radius == pytest.approx(2 * np.sqrt(2) / 8, rel=1e-15)


class TestShepardWeights:
    def _covering(self, centers, radius):
        centers = np.asarray(centers, float)
        d = len(centers)
        box = bp.Box(float(centers.min()), float(centers.max()), centers.shape[1])
        return bp.Covering(
            centers=centers,
            radius=radius,
            ptr=np.arange(d + 1),
            members=np.zeros(d, dtype=np.int64),
            center_index=bp.build(bp.PointSet(centers), box, q=1),
            n_pruned=0,
        )

    def test_single_active(self):
        cov = self._covering([[0.0, 0.0]], 1.0)
        assert np.array_equal(bp.shepard_weights((0.3, 0.0), cov), [1.0])

    def test_symmetric_pair(self):
        cov = self._covering([[-0.5, 0.0], [0.5, 0.0]], 2.0)
        w = bp.shepard_weights((0.0, 0.0), cov)
        assert np.allclose(w, [0.5, 0.5], atol=1e-16)

    def test_three_overlapping_sum_to_one(self, rng):
        cov = self._covering(rng.random((3, 2)) * 0.2, 1.0)
        p = rng.random(2) * 0.2
        w = bp.shepard_weights(p, cov)
        assert len(w) == 3 and abs(w.sum() - 1.0) <= 1e-15
        assert np.all(w >= 0)

    def test_no_active_raises(self):
        cov = self._covering([[0.0, 0.0]], 0.1)
        with pytest.raises(NoActiveSubdomain):
            bp.shepard_weights((5.0, 5.0), cov)

    def test_explicit_active_list(self):
        cov = self._covering([[0.0, 0.0], [0.2, 0.0]], 1.0)
        w = bp.shepard_weights((0.1, 0.0), cov, active=[0])
        assert np.array_equal(w, [1.0])


class TestBuildCovering:
    def test_single_node_single_subdomain(self, unit_square_domain):
        # the covering routine alone: a fit needs a hull, so three sites at least
        nodes = bp.PointSet([[0.3, 0.4]], [1.0])
        cov = _cover(nodes, unit_square_domain, bp.subdomain_grid(unit_square_domain, 1, 1))[0]
        assert cov.d == 1
        assert list(members_of(cov, 0)) == [0]

    def test_one_requested_subdomain_holds_every_site(self):
        nodes = bp.PointSet([[0.1, 0.1], [0.9, 0.3], [0.4, 0.9]], [1.0, 2.0, 3.0])
        cov = bp.fit_model(nodes, wendland_cfg(d_r=1)).covering
        assert cov.d == 1 and np.array_equal(cov.centers, [[0.5, 0.5]])
        assert sorted(members_of(cov, 0)) == [0, 1, 2]

    def test_dense_pentagon_covering_is_regular(self, pentagon_run):
        nodes, result = pentagon_run
        cov = result.model.covering
        grid = bp.subdomain_grid(result.model.domain, len(nodes))
        assert cov.d + cov.n_pruned == len(grid.centers) and cov.radius == grid.radius
        covered = np.zeros(result.report.s, bool)
        found = bp.join_pairs(cov.center_index, result.eval_points, cov.radius)
        covered[found.rows[found.distances < cov.radius]] = True
        assert covered.all()

    @staticmethod
    def holed_nodes():
        """Uniform sites with a hole: the subdomains inside it hold no site."""
        pts = np.random.default_rng(5).random((3000, 2))
        pts = pts[np.linalg.norm(pts - 0.5, axis=1) > 0.25]
        return bp.PointSet(pts, np.sin(3 * pts[:, 0]))

    def test_empty_subdomains_warned_and_pruned(self):
        nodes = self.holed_nodes()
        with pytest.warns(EmptySubdomainPruned) as record:
            res = bp.pum_interpolate(nodes, wendland_cfg(d_r=400), eval_points=nodes.coords[:5])
        assert all(w.filename == __file__ for w in record)
        cov = res.model.covering
        assert cov.n_pruned > 0
        assert all(len(m) for m in member_lists(cov))

    @staticmethod
    def check_members(nodes, model):
        """Every surviving subdomain holds exactly its cdist ball, and the member
        table is the same however the join cuts the centers into passes."""
        cov = model.covering
        assert cov.ptr[0] == 0 and cov.ptr[-1] == len(cov.members) and len(cov.ptr) == cov.d + 1
        assert (np.diff(cov.ptr) > 0).all()
        for lo in range(0, cov.d, 256):
            dist = cdist(cov.centers[lo : lo + 256], nodes.coords)
            for j, row in enumerate(dist, start=lo):
                assert np.array_equal(np.sort(members_of(cov, j)), np.flatnonzero(row < cov.radius)), j
        bs = _block_index(nodes, model.domain.box, cov.radius)
        for chunk in (1, 3, 2048):
            with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
                ptr, members = _memberships(bs, cov.centers, cov.radius)
            assert np.array_equal(ptr, cov.ptr) and np.array_equal(members, cov.members), chunk

    def test_member_table_matches_brute_force(self):
        nodes = self.holed_nodes()
        with pytest.warns(EmptySubdomainPruned):
            model = bp.fit_model(nodes, wendland_cfg(d_r=400))
        assert model.covering.n_pruned > 0
        self.check_members(nodes, model)

        rng = np.random.default_rng(6)
        clusters = 0.2 + 0.6 * rng.random((5, 2))
        others = [
            bp.halton(9000, 2, skip=3).coords,  # the default config once dropped members here
            rng.random((4000, 3)),
            clusters[rng.integers(5, size=3000)] + 0.03 * rng.standard_normal((3000, 2)),
        ]
        for pts in others:
            nodes = bp.PointSet(pts, np.sin(3 * pts[:, 0]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptySubdomainPruned)
                self.check_members(nodes, bp.fit_model(nodes, wendland_cfg()))

    def test_fit_sorts_only_to_find_duplicate_sites(self, pentagon_run):
        # the members keep the join's order, so a fit's one sort is the
        # duplicate-site check's sort of the first coordinate; with no tie
        # there, it needs no lexsort
        nodes, _ = pentagon_run
        with (
            mock.patch.object(pum_module.np, "sort", wraps=np.sort) as sort,
            mock.patch.object(pum_module.np, "lexsort", wraps=np.lexsort) as lexsort,
            mock.patch.object(pum_module.np, "argsort", wraps=np.argsort) as argsort,
        ):
            bp.fit_model(nodes, wendland_cfg())
        assert sort.call_count == 1
        assert sort.call_args.args[0].shape == (len(nodes),)
        assert not lexsort.called and not argsort.called

    def test_membership_peak_is_a_few_integers_per_hit(self):
        # each pass of the join leaves only its indices and counts, so the
        # join's rows, distances and candidates never pile up
        pts = bp.halton(100_000, 2, skip=7)
        dom = bp.convex_hull(pts)
        grid = bp.subdomain_grid(dom, len(pts))
        bs = _block_index(pts, dom.box, grid.radius)
        bs.neighbor_runs  # the run table is built outside the traced call
        tracemalloc.start()
        try:
            members = _memberships(bs, grid.centers, grid.radius)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * members.nbytes, peak / members.nbytes

    def test_insufficient_coverage_raises(self):
        # evaluation points in the hole, explicit covering: no retry
        nodes = self.holed_nodes()
        probes = 0.5 + 0.01 * np.random.default_rng(4).random((5, 2))
        with pytest.warns(EmptySubdomainPruned):
            with pytest.raises(InsufficientCoverage, match="5 evaluation points lie in no nonempty subdomain"):
                bp.pum_interpolate(nodes, wendland_cfg(d_r=400), eval_points=probes)

    def test_grid_with_no_center_in_the_hull_raises(self):
        # a 2x2 grid sits on the rectangle's corners, all outside the pentagon
        nodes = pentagon_nodes(600)
        assert len(bp.subdomain_grid(bp.convex_hull(nodes), len(nodes), 4).centers) == 0
        with pytest.raises(InsufficientCoverage, match="none of the 0 subdomains"):
            bp.fit_model(nodes, wendland_cfg(d_r=4))


class TestTinyRadius:
    """A radius far below the site spacing: the block grids stay bounded, and a
    covering whose subdomains hold no data site raises InsufficientCoverage."""

    @staticmethod
    def fit(delta, nodes=None):
        """The d_r=16 fit, with the covering built for radius ``delta`` instead of
        the grid's: no grid side gives a radius this far below its spacing."""
        if nodes is None:
            pts = bp.halton(300, 2)
            nodes = pts.with_values(np.sin(3 * pts.coords[:, 0]))
        dom, cfg = bp.convex_hull(nodes), wendland_cfg(d_r=16)
        grid = bp.subdomain_grid(dom, len(nodes), cfg.d_r)._replace(radius=delta)
        cov, q, _, _ = _cover(nodes, dom, grid)
        members = _fit_subdomains(nodes, cov.ptr, cov.members, cfg.kernel)
        return bp.PumModel(dom, cfg.kernel, cfg, cov, members, nodes, q, build_timings={})

    @pytest.fixture
    def grids(self, monkeypatch):
        """(points, q) of every block index the fit builds."""
        grids = []
        build = pum_module.build
        monkeypatch.setattr(pum_module, "build", lambda pts, box, q: grids.append((len(pts), q)) or build(pts, box, q))
        return grids

    def test_block_grids_stay_bounded(self, grids):
        # unbounded, this radius asks for ~1e18 node-index blocks
        with pytest.raises(InsufficientCoverage, match="none of the 4 subdomains"):
            self.fit(1e-9)
        assert grids == [(300, 48)]

    def test_sites_on_the_centers_fit_with_bounded_grids(self, grids):
        # every site sits on a subdomain center, so all 16 subdomains keep one
        # member and the center index is built too
        nodes = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 16).with_values(np.arange(16.0))
        model = self.fit(1e-9, nodes)
        assert grids == [(16, 11), (16, 11)]
        assert np.array_equal(model.predict(nodes.coords), nodes.values)

    def test_large_explicit_d_r_keeps_grids_bounded(self, grids):
        # 300^2 centers give radius ~0.0047, unbounded 212 blocks per side in
        # both indexes; ~1800 centers keep one site each
        pts = bp.halton(300, 2)
        nodes = pts.with_values(np.sin(3 * pts.coords[:, 0]))
        with pytest.warns(EmptySubdomainPruned):
            model = bp.fit_model(nodes, wendland_cfg(d_r=300**2))
        assert grids == [(300, 48), (model.covering.d, 120)]
        assert 120**2 <= GRID_BLOCKS_PER_POINT * model.covering.d < 121**2
        assert (np.diff(model.covering.ptr) == 1).all()
        assert_within_rounding(model.predict(nodes.coords), model, nodes.coords)

    def test_subnormal_radius_raises_insufficient_coverage(self, grids):
        # edge / 1e-320 overflows to inf; the grids are capped as for 1e-9
        with pytest.raises(InsufficientCoverage, match="none of the 4 subdomains"):
            self.fit(1e-320)
        assert grids == [(300, 48)]

    @pytest.mark.parametrize("delta", [1e-3, 1e-2])
    def test_every_subdomain_empty_raises(self, delta):
        with pytest.raises(InsufficientCoverage):
            self.fit(delta)

    def test_capped_blocks(self):
        def q(n, dim, radius):
            pts = bp.PointSet(np.random.default_rng(n).random((n, dim)))
            return _block_index(pts, bp.Box(0.0, 1.0, dim), radius).q

        assert q(300, 2, 1e-9) == 48  # 48^2 <= 8 * 300 < 49^2
        assert q(9898, 2, 1 / 43.5) == 43
        assert q(306, 3, 1 / 7.5) == 7
        assert q(0, 3, 1e-6) == 2
        for n, dim in [(1, 2), (5, 3), (1000, 2), (777, 3)]:
            got = q(n, dim, 1e-9)
            assert got**dim <= GRID_BLOCKS_PER_POINT * n < (got + 1) ** dim


class TestLocalSolve:
    def test_single_point_wendland(self):
        fit = bp.local_solve(np.array([[0.2, 0.3]]), np.array([4.2]), bp.make_kernel("wendland-c2", 0.5))
        assert fit.coefficients[0] == pytest.approx(4.2)  # phi(0) = 1
        assert fit.cond == 1.0

    def test_single_point_wu(self):
        fit = bp.local_solve(np.array([[0.2, 0.3, 0.1]]), np.array([4.2]), bp.make_kernel("wu-c4", 0.5))
        assert fit.coefficients[0] == pytest.approx(4.2 / 6.0)  # phi(0) = 6
        assert fit.cond == 1.0

    def test_constant_data_residual(self, rng):
        coords = rng.random((40, 2)) * 0.2
        values = np.ones(40)
        k = bp.make_kernel("wendland-c2", 0.5)
        fit = bp.local_solve(coords, values, k)
        phi = k(np.linalg.norm(coords[:, None] - coords[None, :], axis=2))
        assert np.abs(phi @ fit.coefficients - values).max() <= 1e-10

    def test_duplicate_points_raise(self):
        coords = np.array([[0.1, 0.1], [0.1, 0.1], [0.5, 0.5]])
        with pytest.raises(SingularLocalSystem):
            bp.local_solve(coords, np.ones(3), bp.make_kernel("wendland-c2", 0.5))

    def test_cond_at_least_one(self, rng):
        fit = bp.local_solve(rng.random((10, 2)), rng.random(10), bp.make_kernel("wendland-c2", 2.0))
        assert fit.cond >= 1.0


def reference_local_solve(coords, values, kernel, index=0):
    """The per-subdomain solve that the batched fit replaced: cdist distances,
    SVD condition number, scipy Cholesky with a pivoted symmetric fallback.

    Returns the coefficients, the condition number and the kernel matrix.
    """
    phi = kernel(cdist(coords, coords))
    sv = np.linalg.svd(phi, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    try:
        coef = cho_solve(cho_factor(phi, check_finite=False), values, check_finite=False)
    except np.linalg.LinAlgError:
        try:
            coef = lin_solve(phi, values, assume_a="sym", check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularLocalSystem(f"subdomain {index}: factorization failed (cond~{cond:.3e})") from exc
    if not np.all(np.isfinite(coef)):
        raise SingularLocalSystem(f"subdomain {index}: non-finite coefficients")
    return coef, max(cond, 1.0), phi


def cholesky_potrs_solve(phi, values):
    """Oracle: the stack solve before one posv per matrix, a batched numpy
    Cholesky and one LAPACK potrs per matrix; where the stack's Cholesky
    fails, each matrix is solved alone, with the pivoted symmetric solve
    for one that is not positive definite."""
    try:
        upper = np.linalg.cholesky(phi, upper=True)
    except np.linalg.LinAlgError:
        if len(phi) > 1:
            return np.concatenate([cholesky_potrs_solve(phi[i : i + 1], values[i : i + 1]) for i in range(len(phi))])
        return lin_solve(phi[0], values[0], assume_a="sym", check_finite=False)[None]
    return np.stack([dpotrs(u, f, lower=False)[0] for u, f in zip(upper, values)])


def csr(node_lists):
    """(ptr, members) of a list of member arrays, as _fit_subdomains takes them."""
    ptr = np.concatenate(([0], np.cumsum([len(members) for members in node_lists])))
    return ptr, np.concatenate(node_lists)


def eager_cond(nodes, node_lists, kernel):
    """Condition numbers as every fit computed them before they were deferred:
    eigenvalues of each stack's kernel matrices, built from the data sites."""
    sizes = np.array([len(members) for members in node_lists])
    cond = np.empty(len(sizes))
    for n in np.unique(sizes):
        group = np.flatnonzero(sizes == n)
        step = max(1, BLEND_CHUNK // (n * n))
        for lo in range(0, len(group), step):
            subs = group[lo : lo + step]
            phi = _kernel_stack(nodes.coords[np.stack([node_lists[j] for j in subs])], kernel)
            lam = np.abs(np.linalg.eigvalsh(phi))
            low, high = lam.min(axis=1), lam.max(axis=1)
            cond[subs] = np.maximum(np.divide(high, low, out=np.full(len(low), np.inf), where=low > 0), 1.0)
    return cond


def assert_matches_reference(nodes, node_lists, table, kernel):
    """Each fitted subdomain against reference_local_solve, within the bounds of a
    backward-stable solve: relative residual 4 n eps |Phi| |c|, and, where cond <
    1e12, coefficients within 4 n eps cond (relative) and cond within
    max(1e-6, 4 n eps cond) (relative), since an eigenvalue solver and an SVD
    both move min|lambda| by about eps |Phi|."""
    eps = np.finfo(float).eps
    for j, members in enumerate(node_lists):
        n = len(members)
        coef = table.coefficients[table.ptr[j] : table.ptr[j + 1]]
        want, cond, phi = reference_local_solve(nodes.coords[members], nodes.values[members], kernel, j)
        residual = np.linalg.norm(phi @ coef - nodes.values[members])
        assert residual <= 4 * n * eps * np.linalg.norm(phi, 2) * np.linalg.norm(coef), j
        if cond < 1e12:
            assert np.linalg.norm(coef - want) <= 4 * n * eps * cond * np.linalg.norm(want), j
            assert abs(table.cond[j] - cond) <= max(1e-6, 4 * n * eps * cond) * cond, j


class TestBatchedSolve:
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 3]),
        st.sampled_from(["wendland-c2", "wu-c4"]),
        st.lists(st.integers(1, 120), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_solve(self, seed, dim, kernel_name, sizes, ill):
        # ill-conditioned: a support of ten times the site spread makes every
        # kernel matrix nearly flat (cond up to ~1e15); well-conditioned: a
        # support of a third of it leaves the matrices near-diagonal
        rng = np.random.default_rng(seed)
        spread = 0.5 if ill else 1.0
        sites = rng.random((240, dim)) * spread
        nodes = bp.PointSet(sites, np.sin(3 * sites[:, 0]) + sites[:, 1] ** 2)
        kernel = bp.make_kernel(kernel_name, 0.2 if ill else 3.0)
        # each size taken one to three times, so stacks hold several matrices
        node_lists = [rng.choice(len(sites), n, replace=False) for n in sizes for _ in range(rng.integers(1, 4))]
        ptr, members = csr(node_lists)
        table = _fit_subdomains(nodes, ptr, members, kernel)
        assert_matches_reference(nodes, node_lists, table, kernel)
        # bit for bit the route that one posv per matrix replaced
        for subs, rows in _size_stacks(ptr):
            want = cholesky_potrs_solve(_kernel_stack(nodes.coords[members[rows]], kernel), nodes.values[members[rows]])
            assert np.array_equal(table.coefficients[rows], want), subs

    def test_cholesky_failure_falls_back_per_matrix(self):
        # phi(r) = 1 - r^2 gives a positive-definite matrix for two sites
        # closer than sqrt(2) and an indefinite, nonsingular one for two sites
        # farther apart, so the stack's Cholesky fails yet every system solves
        profile = lambda r: 1.0 - np.asarray(r) ** 2
        sites = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0], [0.3, 1.0], [2.0, 0.0]])
        nodes = bp.PointSet(sites, np.array([1.0, -2.0, 0.5, 3.0, 0.25]))
        node_lists = [np.array(m) for m in ([0, 1], [0, 4], [2, 3])]
        table = _fit_subdomains(nodes, *csr(node_lists), profile)
        assert_matches_reference(nodes, node_lists, table, profile)
        rows = np.array(node_lists)
        want = cholesky_potrs_solve(_kernel_stack(sites[rows], profile), nodes.values[rows])
        assert np.array_equal(table.coefficients, want.ravel())
        for j, members in enumerate(node_lists):
            fit = bp.local_solve(sites[members], nodes.values[members], profile, j)
            assert np.array_equal(fit.coefficients, table.coefficients[2 * j : 2 * j + 2])
            assert fit.cond == table.cond[j]

    def test_singular_member_of_a_stack_raises_with_its_index(self):
        sites = np.array([[0.1, 0.1], [0.5, 0.5], [0.2, 0.6], [0.7, 0.1]])
        nodes = bp.PointSet(sites, np.ones(4))
        # subdomain 1 holds site 2 twice
        node_lists = [np.array(m) for m in ([0, 1, 3], [2, 2, 1], [3, 0, 2])]
        with pytest.raises(SingularLocalSystem, match=r"subdomain 1: factorization failed \(cond~"):
            _fit_subdomains(nodes, *csr(node_lists), bp.make_kernel("wendland-c2", 0.5))

    def test_fit_bitwise_equal_to_local_solve(self):
        nodes = clustered_nodes()
        pts = nodes.coords
        model = bp.fit_model(nodes, wendland_cfg())
        lists = member_lists(model.covering)
        sizes, counts = np.unique([len(m) for m in lists], return_counts=True)
        assert len(sizes) >= 20
        assert (counts * sizes**2 > BLEND_CHUNK).any()
        table = model.members
        for j, members in enumerate(lists):
            fit = bp.local_solve(pts[members], nodes.values[members], model.kernel, j)
            assert np.array_equal(fit.coefficients, table.coefficients[table.ptr[j] : table.ptr[j + 1]])
            assert fit.cond == table.cond[j]

    def test_tiny_kernel_support_warns(self):
        nodes = pentagon_nodes(600)
        with pytest.warns(KernelSupportTooSmall) as record:
            bp.fit_model(nodes, wendland_cfg(kernel=bp.make_kernel("wendland-c2", 1e6)))
        assert all(w.filename == __file__ for w in record)

    def test_workload_kernel_support_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", KernelSupportTooSmall)
            bp.fit_model(pentagon_nodes(600), wendland_cfg(s_r=1600))


def clustered_nodes():
    """A uniform set with a tight cluster: many member counts, and groups large
    enough to be split across stacks."""
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.random((8000, 2)), 0.5 + 0.03 * rng.standard_normal((1000, 2))])
    return bp.PointSet(pts, np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2)


class TestDeferredConditioning:
    """Fits and evaluations never compute condition numbers; the first read does, once."""

    @pytest.fixture
    def eig_calls(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    def test_fit_and_evaluation_compute_none(self, eig_calls):
        nodes = pentagon_nodes(600)
        model = bp.fit_model(nodes, wendland_cfg())
        model.predict(nodes.coords[:50])
        model.predict([[0.0, 0.0]], on_uncovered="nearest")
        bp.pum_interpolate(nodes, wendland_cfg(s_r=400), truth=lambda p: eval_test_function("f1", p))
        dirs = fibonacci_sphere(300)
        cloud = OrientedCloud(points=0.5 + 0.4 * dirs, normals=dirs, step=default_step(0.5 + 0.4 * dirs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySubdomainPruned)
            reconstruct(cloud, bp.PumConfig(kernel=bp.make_kernel("wu-c4", 0.1)), grid_shape=(8, 8, 8))
        assert eig_calls == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda res: res.model.members.cond,
            lambda res: res.report.max_cond,
            lambda res: res.report.av_cond,
            lambda res: res.report.as_dict(),
        ],
        ids=["members.cond", "max_cond", "av_cond", "as_dict"],
    )
    def test_first_read_computes_once_per_stack(self, eig_calls, read):
        result = bp.pum_interpolate(pentagon_nodes(600), wendland_cfg(s_r=400))
        stacks = [rows.shape for _, rows in _size_stacks(result.model.members.ptr)]
        assert eig_calls == []
        read(result)
        assert [shape[:2] for shape in eig_calls] == stacks
        cond = result.model.members.cond
        assert result.report.max_cond == float(cond.max())
        assert result.report.av_cond == float(cond.mean())
        d = result.report.as_dict()
        assert (d["max_cond"], d["av_cond"]) == (result.report.max_cond, result.report.av_cond)
        assert len(eig_calls) == len(stacks)

    def test_values_equal_the_eager_computation(self):
        nodes = clustered_nodes()
        model = bp.fit_model(nodes, wendland_cfg())
        ptr = model.members.ptr
        assert len(list(_size_stacks(ptr))) > len(np.unique(np.diff(ptr)))  # some size group is split
        assert np.array_equal(model.members.cond, eager_cond(nodes, member_lists(model.covering), model.kernel))


class TestDeferredFillDistance:
    """Fits and evaluations never compute the fill distance; the first read of a report does, once."""

    @pytest.fixture
    def fill_calls(self, monkeypatch):
        calls = []
        fill_distance = pum_module.fill_distance

        def spy(nodes, probes):
            calls.append((nodes, probes))
            return fill_distance(nodes, probes)

        monkeypatch.setattr(pum_module, "fill_distance", spy)
        return calls

    @staticmethod
    def eager(model, eval_points):
        stride = max(1, int(np.ceil(len(eval_points) / pum_module.FILL_PROBE_CAP)))
        return bp.fill_distance(model.nodes, bp.PointSet(eval_points[::stride]))

    @staticmethod
    def runs():
        """(report, model, evaluation points) of pum_interpolate, evaluate and reconstruct."""
        nodes = pentagon_nodes(600)
        result = bp.pum_interpolate(nodes, wendland_cfg(s_r=400), truth=lambda p: eval_test_function("f1", p))
        probes = nodes.coords[::3]
        _, evaluated = bp.evaluate(result.model, probes)
        dirs = fibonacci_sphere(300)
        cloud = OrientedCloud(points=0.5 + 0.4 * dirs, normals=dirs, step=default_step(0.5 + 0.4 * dirs))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySubdomainPruned)
            # 28^3 grid points exceed FILL_PROBE_CAP, so the probes are subsampled
            rec = reconstruct(cloud, bp.PumConfig(kernel=bp.make_kernel("wu-c4", 0.1)), grid_shape=(28, 28, 28))
        grid = grid_coords(rec.rect, rec.grid_shape)
        assert len(grid) > pum_module.FILL_PROBE_CAP
        return [
            (result.report, result.model, result.eval_points),
            (evaluated, result.model, probes),
            (rec.report, rec.model, grid),
        ]

    def test_fit_and_evaluation_compute_none(self, fill_calls):
        nodes = pentagon_nodes(600)
        model = bp.fit_model(nodes, wendland_cfg())
        model.predict(nodes.coords[:50])
        model.predict([[0.0, 0.0]], on_uncovered="nearest")
        self.runs()
        assert fill_calls == []

    @pytest.mark.parametrize(
        "read", [lambda rep: rep.fill_dist, lambda rep: rep.as_dict()["fill_distance"]], ids=["fill_dist", "as_dict"]
    )
    def test_first_read_computes_once(self, fill_calls, read):
        for report, model, eval_points in self.runs():
            assert fill_calls == []
            value = read(report)
            assert len(fill_calls) == 1
            assert fill_calls[0][0] is model.nodes
            assert value == self.eager(model, eval_points)
            assert report.fill_dist == value
            assert report.as_dict()["fill_distance"] == value
            assert len(fill_calls) == 1
            fill_calls.clear()

    def test_probes_are_a_snapshot(self, pentagon_run):
        nodes, result = pentagon_run
        probes = nodes.coords[::3].copy()
        _, report = bp.evaluate(result.model, probes)
        want = self.eager(result.model, probes)
        probes[:] = 10.0
        assert report.fill_dist == want


class TestWarningLocation:
    """Warnings from deep inside the package name the caller's line (pum_interpolate:
    TestBuildCovering, TestAutoCoarsening)."""

    def test_fit_model(self):
        with pytest.warns(EmptySubdomainPruned) as record:
            bp.fit_model(bp.PointSet(bp.halton(4, 2).coords, np.ones(4)), wendland_cfg(d_r=64))
        assert all(w.filename == __file__ for w in record)

    def test_reconstruct(self):
        dirs = fibonacci_sphere(300)
        points = 0.5 + 0.4 * dirs
        cloud = OrientedCloud(points=points, normals=dirs, step=default_step(points))
        with pytest.warns(EmptySubdomainPruned) as record:
            reconstruct(cloud, bp.PumConfig(kernel=bp.make_kernel("wu-c4", 0.1), d_r=512), grid_shape=(8, 8, 8))
        assert all(w.filename == __file__ for w in record)


class TestPipeline:
    def test_interpolation_property_at_nodes(self, pentagon_run):
        nodes, result = pentagon_run
        vals = result.model.predict(nodes.coords)
        assert np.abs(vals - nodes.values).max() <= 1e-6

    def test_constant_reproduction(self):
        # kernel interpolants carry no polynomial part, so constants are
        # exact at the nodes and only approximate between them
        pts = pentagon_nodes(600)
        nodes = bp.PointSet(pts.coords, np.full(len(pts), 3.5))
        res = bp.pum_interpolate(nodes, wendland_cfg(s_r=400))
        at_nodes = res.model.predict(nodes.coords)
        assert np.abs(at_nodes - 3.5).max() <= 1e-8
        assert np.abs(res.values - 3.5).max() <= 0.02

    def test_partition_of_unity(self, pentagon_run, rng):
        _, result = pentagon_run
        probes = rng.random((300, 2)) * 0.4 + 0.3
        assert bp.audit_partition_of_unity(result.model, probes) <= 1e-12

    def test_report_fields_finite(self, pentagon_run):
        _, result = pentagon_run
        d = result.report.as_dict()
        for key in ("delta", "mae", "rmse", "max_cond", "av_cond", "fill_distance"):
            assert np.isfinite(d[key])
        assert d["av_cond"] <= d["max_cond"]
        assert d["N"] > 0 and d["d"] > 0 and d["s"] > 0 and d["q"] > 0

    def test_determinism_bitwise(self):
        nodes = pentagon_nodes(600)
        cfg = wendland_cfg(s_r=400)
        truth = lambda p: eval_test_function("f1", p)
        r1 = bp.pum_interpolate(nodes, cfg, truth=truth)
        r2 = bp.pum_interpolate(nodes, cfg, truth=truth)
        assert np.array_equal(r1.values, r2.values)
        d1, d2 = r1.report.as_dict(), r2.report.as_dict()
        for key in d1:
            if not key.startswith("t_"):
                assert d1[key] == d2[key], key

    def test_threads_match_serial(self):
        # the field is inert and slated for removal, so setting it warns
        nodes = pentagon_nodes(600)
        truth = lambda p: eval_test_function("f1", p)
        r1 = bp.pum_interpolate(nodes, wendland_cfg(s_r=400, threads=1), truth=truth)
        with pytest.warns(FutureWarning, match="threads"):
            cfg = wendland_cfg(s_r=400, threads=4)
        r2 = bp.pum_interpolate(nodes, cfg, truth=truth)
        assert np.array_equal(r1.values, r2.values)

    def test_locality_of_evaluation(self, pentagon_run):
        _, result = pentagon_run
        model = result.model
        p = np.array([0.5, 0.55])
        before = model.predict([p])[0]
        dist = np.linalg.norm(model.covering.centers - p, axis=1)
        far = np.flatnonzero(dist > model.delta)
        table = model.members
        far_rows = np.concatenate([np.arange(table.ptr[j], table.ptr[j + 1]) for j in far])
        saved = table.coefficients[far_rows]
        try:
            table.coefficients[far_rows] = saved * 1e6
            after = model.predict([p])[0]
        finally:
            table.coefficients[far_rows] = saved
        assert after == before

    def test_evaluate_outside_raises(self, pentagon_run):
        _, result = pentagon_run
        with pytest.raises(NoActiveSubdomain):
            bp.evaluate(result.model, [[5.0, 5.0]])

    def test_evaluate_returns_report(self, pentagon_run):
        nodes, result = pentagon_run
        vals, report = bp.evaluate(result.model, nodes.coords[:50], truth=nodes.values[:50])
        assert report.s == 50
        assert report.mae <= 1e-6

    def test_report_timings_follow_one_rule(self, pentagon_run):
        nodes, result = pentagon_run
        _, evaluated = bp.evaluate(result.model, nodes.coords[:50])
        dirs = fibonacci_sphere(300)
        cloud = OrientedCloud(points=0.5 + 0.4 * dirs, normals=dirs, step=0.05)
        cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=216)
        rec = reconstruct(cloud, cfg, grid_shape=(8, 8, 8))
        for report, model in ((result.report, result.model), (evaluated, result.model), (rec.report, rec.model)):
            fit = model.build_timings
            assert set(fit) == {"t_structure_s", "t_search_s", "t_solve_s", "t_total_s"}
            assert set(report.timings) == set(fit) | {"t_eval_s"}
            for key in ("t_structure_s", "t_search_s", "t_solve_s"):
                assert report.timings[key] == fit[key]
            assert report.timings["t_eval_s"] > 0
            assert report.timings["t_total_s"] == fit["t_total_s"] + report.timings["t_eval_s"]

    @pytest.mark.parametrize("fit", [bp.fit_model, bp.pum_interpolate])
    def test_duplicate_sites_raise(self, fit):
        pts = pentagon_nodes(600)
        coords = np.vstack([pts.coords, pts.coords[[41, 7, 41]]])
        nodes = bp.PointSet(coords, np.r_[pts.values, pts.values[[41, 7, 41]]])
        n = len(pts)
        with pytest.raises(ValueError, match=f"data site {n} duplicates data site 41"):
            fit(nodes, wendland_cfg(s_r=400))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_check_matches_row_comparison(self, seed, dim):
        # sites on a coarse lattice share single coordinates often and whole
        # positions sometimes; the oracle compares whole rows of the sort
        rng = np.random.default_rng(seed)
        coords = rng.integers(0, 4, (int(rng.integers(2, 60)), dim)).astype(float)
        nodes = bp.PointSet(coords, np.zeros(len(coords)))
        order = np.lexsort(coords.T[::-1])
        same = np.flatnonzero((coords[order[1:]] == coords[order[:-1]]).all(axis=1))
        if not len(same):
            pum_module._check_nodes(nodes)
            return
        k = same[np.argmin(order[same + 1])]
        want = f"data site {order[k + 1]} duplicates data site {order[k]} at {coords[order[k]]}"
        with pytest.raises(ValueError) as err:
            pum_module._check_nodes(nodes)
        assert str(err.value) == want

    def test_values_required(self):
        pts = bp.PointSet([[0.1, 0.2], [0.3, 0.4], [0.5, 0.1]])
        with pytest.raises(ValueError):
            bp.pum_interpolate(pts, wendland_cfg())

    def test_rmse_decreases_with_density(self):
        truth = lambda p: eval_test_function("f1", p)
        rmses = []
        for raw in (622, 2499):
            res = bp.pum_interpolate(pentagon_nodes(raw), wendland_cfg(s_r=1600), truth=truth)
            rmses.append(res.report.rmse)
        assert rmses[1] < rmses[0]

    def test_conditioning_scale_smallest_rung(self):
        # soft anchor: the coarsest pentagon run conditions around 1e7
        res = bp.pum_interpolate(pentagon_nodes(622), wendland_cfg(s_r=1600))
        assert 1.3e6 <= res.report.max_cond <= 1.3e8

    @pytest.mark.slow
    def test_large_run_error_scale(self):
        # soft anchor: the densest pentagon configuration lands near 3e-7 RMSE
        truth = lambda p: eval_test_function("f1", p)
        res = bp.pum_interpolate(pentagon_nodes(159994), wendland_cfg(s_r=1600), truth=truth)
        assert 3.05e-8 <= res.report.rmse <= 3.05e-6


def oracle_solve(model, j):
    """Subdomain j's coefficients, solved afresh from its node list (not read from the model)."""
    members = members_of(model.covering, j)
    return bp.local_solve(model.nodes.coords[members], model.nodes.values[members], model.kernel, j).coefficients


def _per_subdomain(model, pts):
    """Per-subdomain evaluation: index the points, one range_search per center,
    one local solve per touched subdomain, blend subdomains in ascending order,
    each local value the ``.sum()`` of its row of terms.

    Returns the Shepard numerator and denominator, and the weighted sum of
    |phi(|p - x_jk|) c_jk| over every local term.
    """
    box = model.domain.box
    qbs = bp.build(bp.PointSet(pts), box, bp.blocks_per_side(box.edge, model.delta))
    num = np.zeros(len(pts))
    den = np.zeros(len(pts))
    mag = np.zeros(len(pts))
    for j, center in enumerate(model.covering.centers):
        found = bp.range_search(qbs, center, model.delta)
        inside = found.distances < model.delta
        members = found.indices[inside]
        if len(members) == 0:
            continue
        w = phi_wendland_c2(found.distances[inside], 1.0 / model.delta)
        coef = oracle_solve(model, j)
        local = model.kernel(cdist(pts[members], model.nodes.coords[members_of(model.covering, j)]))
        num[members] += w * (local * coef).sum(axis=1)
        den[members] += w
        mag[members] += w * np.abs(local * coef).sum(axis=1)
    assert den.min() > 0
    return num, den, mag


def reference_predict(model, pts):
    num, den, _ = _per_subdomain(model, pts)
    return num / den


def rounding_bound(model, pts):
    """2 n_max eps m(p), with m(p) = sum_j w_j(p) sum_k |phi(|p - x_jk|) c_jk| and
    normalized weights w_j: the standard bound for these sums added in another
    order. The local coefficients cancel heavily (m reaches ~1e3 on the 2D
    pentagon and ~5e9 on a 3D sphere reconstruction), so no flat tolerance fits."""
    _, den, mag = _per_subdomain(model, pts)
    n_max = np.diff(model.covering.ptr).max()
    return 2 * n_max * np.finfo(float).eps * mag / den


def assert_within_rounding(got, model, pts):
    want = reference_predict(model, pts)
    assert np.all(np.abs(got - want) <= rounding_bound(model, pts))


def shepard_value(model, p):
    """Brute-force blend at one point through shepard_weights."""
    dist = np.linalg.norm(model.covering.centers - p, axis=1)
    active = np.flatnonzero(dist < model.delta)
    w = bp.shepard_weights(p, model.covering, active=active)
    local = [
        model.kernel(np.linalg.norm(model.nodes.coords[members_of(model.covering, j)] - p, axis=1))
        @ oracle_solve(model, j)
        for j in active
    ]
    return float(np.dot(w, local))


def reference_nearest(model, pts):
    """Nearest-subdomain fallback, per subdomain: argmin over all center distances,
    then one local solve per chosen subdomain, each value the ``.sum()`` of its row of terms.

    Returns the chosen subdomains, the values and the sums of |phi(|p - x_k|) c_k|.
    """
    nearest = cdist(pts, model.covering.centers).argmin(axis=1)
    vals = np.empty(len(pts))
    mag = np.empty(len(pts))
    for j in np.unique(nearest):
        rows = np.flatnonzero(nearest == j)
        coef = oracle_solve(model, j)
        local = model.kernel(cdist(pts[rows], model.nodes.coords[members_of(model.covering, j)]))
        vals[rows] = (local * coef).sum(axis=1)
        mag[rows] = np.abs(local * coef).sum(axis=1)
    return nearest, vals, mag


def tie_probes(model):
    """Uncovered probes at exactly the same cdist distance from their two nearest
    centers.

    For each outermost layer of the center lattice along each axis k and each
    other axis j, a probe sits 1.5 radii outside the layer, between two
    neighbours of the layer along j, at the midpoint of their coordinates j or
    one step from it. It is kept where cdist gives the two nearest centers the
    same distance: where both differences along j round to the same
    magnitude, or where the sum of squares or its root rounds them together.
    """
    centers = model.covering.centers
    dim = centers.shape[1]
    probes = []
    for k in range(dim):
        for side, edge in ((-1.0, centers[:, k].min()), (1.0, centers[:, k].max())):
            layer = centers[centers[:, k] == edge]
            for j in np.delete(np.arange(dim), k):
                rest = np.delete(np.arange(dim), j)
                for a in layer:
                    right = layer[(layer[:, rest] == a[rest]).all(axis=1) & (layer[:, j] > a[j])]
                    if not len(right):
                        continue
                    mid = 0.5 * (a[j] + right[:, j].min())
                    cand = np.repeat(a[None, :], 3, axis=0)
                    cand[:, j] = [mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)]
                    cand[:, k] += side * 1.5 * model.delta
                    two = np.sort(cdist(cand, centers), axis=1)[:, :2]
                    tied = np.flatnonzero(two[:, 0] == two[:, 1])
                    if len(tied):
                        probes.append(cand[tied[0]])
    return np.array(probes).reshape(-1, dim)


def step_split(model, pts):
    """Per touched subdomain: does it hold more than BLEND_STEP_ENTRIES entries for this batch?"""
    _, subs, _ = model.covering.active(pts)
    present, counts = np.unique(subs, return_counts=True)
    return counts * np.diff(model.members.ptr)[present] > BLEND_STEP_ENTRIES


def blend_model(seed, dim, clustered):
    """Fit on random sites; clustered sets put a quarter of them in one tight blob,
    so local sizes run from ~10 to ~180 and a batch holds subdomains on both
    sides of BLEND_STEP_ENTRIES."""
    rng = np.random.default_rng(seed)
    n = 300 if dim == 2 else 600
    pts = rng.random((n, dim))
    if clustered:
        pts[: n // 4] = rng.random(dim) * 0.6 + 0.2 + 0.04 * rng.standard_normal((n // 4, dim))
    nodes = bp.PointSet(pts, np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2)
    cfg = wendland_cfg(d_r=None if dim == 2 else 216)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySubdomainPruned)
        model = bp.fit_model(nodes, cfg)
    # data sites (cluster sites first), then uniform points, kept where inside the hull and covered
    batch = np.vstack([pts[:8], pts[rng.choice(n, 12)], rng.random((60, dim))])
    batch = batch[membership_mask(model.domain, batch)]
    rows, _, _ = model.covering.active(batch)
    return model, batch[np.unique(rows)]


class TestPredictOracles:
    def test_inbox_within_rounding_of_per_subdomain_path(self, pentagon_run, rng):
        nodes, result = pentagon_run
        pts = np.vstack([nodes.coords[::7], rng.random((400, 2)) * 0.4 + 0.3])
        assert_within_rounding(result.model.predict(pts), result.model, pts)

    def test_pum_interpolate_within_rounding_of_per_subdomain_path(self, pentagon_run):
        _, result = pentagon_run
        assert_within_rounding(result.values, result.model, result.eval_points)

    def test_large_subdomains_bitwise_equal_to_per_subdomain_path(self):
        # a sphere reconstruction on its grid: every touched subdomain holds
        # thousands of entries, so all take the matrix-vector step
        dirs = fibonacci_sphere(1000)
        points = 0.5 + 0.4 * dirs
        cloud = OrientedCloud(points=points, normals=dirs, step=default_step(points))
        result = reconstruct(cloud, bp.PumConfig(kernel=bp.make_kernel("wu-c4", 0.1)), grid_shape=(32, 32, 32))
        model = result.model
        grid = grid_coords(result.rect, result.grid_shape)
        grid = grid[np.unique(model.covering.active(grid)[0])]
        assert step_split(model, grid).all()
        assert np.array_equal(model.predict(grid), reference_predict(model, grid))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_blend_property(self, seed, dim, clustered):
        model, batch = blend_model(seed, dim, clustered)
        if clustered:
            split = step_split(model, batch)
            assert split.any() and not split.all()
        got = model.predict(batch)
        assert_within_rounding(got, model, batch)
        # alone, a point may take the other path, which adds its terms the same way
        alone = np.array([model.predict(p[None, :])[0] for p in batch])
        assert np.array_equal(alone, got)
        assert model.predict(np.empty((0, dim))).shape == (0,)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans())
    @example(4397583, 3, False)  # the helper's old lone transverse axis found no tie here
    @settings(max_examples=12, deadline=None)
    def test_nearest_fallback_property(self, seed, dim, clustered):
        model, _ = blend_model(seed, dim, clustered)
        rng = np.random.default_rng([seed, 1])
        box = model.domain.box
        probes = rng.uniform(box.lo - 0.3, box.hi + 0.3, size=(400, dim))
        probes = np.delete(probes, model.covering.active(probes)[0], axis=0)[:40]
        ties = tie_probes(model)
        assert len(ties) and len(model.covering.active(ties)[0]) == 0
        two = np.sort(cdist(ties, model.covering.centers), axis=1)[:, :2]
        assert np.array_equal(two[:, 0], two[:, 1])
        # many copies of one probe give its subdomain more than BLEND_STEP_ENTRIES entries
        pts = np.vstack([probes, ties, np.repeat(probes[:1], BLEND_STEP_ENTRIES + 1, axis=0)])
        want_sub, want, mag = reference_nearest(model, pts)
        present, counts = np.unique(want_sub, return_counts=True)
        split = counts * np.diff(model.members.ptr)[present] > BLEND_STEP_ENTRIES
        assert split.any() and not split.all()

        # record which subdomain the fallback evaluates at each point
        seen = []
        local_values = model._local_values

        def spy(points, rows, subs):
            seen.append((rows, subs))
            return local_values(points, rows, subs)

        model._local_values = spy
        try:
            got = model._predict_nearest(pts)
        finally:
            del model._local_values
        (rows, subs), = seen
        chosen = np.empty(len(pts), dtype=subs.dtype)
        chosen[rows] = subs
        assert np.array_equal(chosen, want_sub)
        n_max = np.diff(model.covering.ptr).max()
        assert np.all(np.abs(got - want) <= 2 * n_max * np.finfo(float).eps * mag)
        assert np.array_equal(model.predict(pts, on_uncovered="nearest"), got)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans(), st.sampled_from([3, 2048]))
    @settings(max_examples=12, deadline=None)
    def test_permuted_batch_gives_permuted_values(self, seed, dim, clustered, chunk):
        # Each point adds its subdomains in ascending order, and each local
        # value its terms by one rule, whatever the batch. The second batch
        # adds uncovered probes, with enough exact copies of one to send its
        # nearest subdomain through a step.
        model, batch = blend_model(seed, dim, clustered)
        rng = np.random.default_rng([seed, 2])
        box = model.domain.box
        probes = rng.uniform(box.lo - 0.3, box.hi + 0.3, size=(400, dim))
        probes = np.delete(probes, model.covering.active(probes)[0], axis=0)[:40]
        copies = np.repeat(probes[:1], BLEND_STEP_ENTRIES + 1, axis=0)
        for pts in (batch, np.vstack([batch, probes, copies])):
            perm = rng.permutation(len(pts))
            with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
                want = model.predict(pts, on_uncovered="nearest")
                got = model.predict(pts[perm], on_uncovered="nearest")
            assert np.array_equal(got, want[perm])

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans(), st.sampled_from([3, 2048]))
    @settings(max_examples=12, deadline=None)
    def test_each_value_is_its_point_predicted_alone(self, seed, dim, clustered, chunk):
        # covered points, uncovered ones and exact copies of one covered
        # point, enough to send its subdomains through steps; forcing every
        # subdomain through a step, or none, changes no bit either
        model, batch = blend_model(seed, dim, clustered)
        rng = np.random.default_rng([seed, 4])
        box = model.domain.box
        probes = rng.uniform(box.lo - 0.3, box.hi + 0.3, size=(400, dim))
        probes = np.delete(probes, model.covering.active(probes)[0], axis=0)[:40]
        pts = np.vstack([batch, probes, np.repeat(batch[:1], BLEND_STEP_ENTRIES + 1, axis=0)])
        pts = pts[rng.permutation(len(pts))]
        assert step_split(model, pts).any()
        unique, inverse = np.unique(pts, axis=0, return_inverse=True)
        perm = rng.permutation(len(pts))
        with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
            got = model.predict(pts, on_uncovered="nearest")
            alone = np.array([model.predict(p[None, :], on_uncovered="nearest")[0] for p in unique])
            assert np.array_equal(got, alone[inverse])
            assert np.array_equal(model.predict(pts[perm], on_uncovered="nearest"), got[perm])
            for entries in (0, 2**62):
                with mock.patch.object(pum_module, "BLEND_STEP_ENTRIES", entries):
                    assert np.array_equal(model.predict(pts, on_uncovered="nearest"), got)

    def test_predict_sorts_only_step_pairs(self, pentagon_run):
        # the structure of the evaluation: the join hands each point its
        # subdomains ascending, the sums take them in that order, only the
        # pairs of step subdomains are grouped by subdomain, with one
        # argsort, and no row norm goes through einsum
        _, result = pentagon_run
        model = result.model
        small, large = result.eval_points[:8], result.eval_points[:64]
        assert not step_split(model, small).any() and step_split(model, large).any()
        for pts in (small, large):
            split = step_split(model, pts)
            _, subs, _ = model.covering.active(pts)
            step_pairs = np.isin(subs, np.unique(subs)[split]).sum()
            with (
                mock.patch.object(pum_module.np, "lexsort", wraps=np.lexsort) as lexsort,
                mock.patch.object(pum_module.np, "argsort", wraps=np.argsort) as argsort,
                mock.patch.object(pum_module.np, "einsum", wraps=np.einsum) as einsum,
                mock.patch.object(pum_module.np, "add", mock.Mock(wraps=np.add)) as add,
            ):
                model.predict(pts)
            assert not lexsort.called and not einsum.called and not add.at.called
            if split.any():
                (keys,), _ = argsort.call_args
                assert argsort.call_count == 1 and len(keys) == step_pairs
            else:
                assert not argsort.called

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans(), st.sampled_from([1, 3, 2048]))
    @settings(max_examples=12, deadline=None)
    def test_subdomains_numbered_in_block_order(self, seed, dim, clustered, chunk):
        # every point's subdomains come ascending from the join, and the
        # covering is the grid-ordered one up to renumbering: each center
        # keeps its member list, in its order
        with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
            model, batch = blend_model(seed, dim, clustered)
            box = model.domain.box
            around = np.random.default_rng([seed, 3]).uniform(box.lo - 0.2, box.hi + 0.2, (200, dim))
            probes = np.vstack([batch, around])
            rows, subs, _ = model.covering.active(probes)
            cov = model.covering
            grid = bp.subdomain_grid(model.domain, len(model.nodes), model.config.d_r)
            bs = _block_index(model.nodes, box, grid.radius)
            ptr, members = _memberships(bs, grid.centers, grid.radius)
        assert (np.diff(rows) >= 0).all()
        assert (np.diff(subs)[rows[1:] == rows[:-1]] > 0).all()

        index = cov.center_index
        assert np.array_equal(index.sorted_idx, np.arange(cov.d)) and index.points is cov.centers
        codes = blockpart._block_codes(cov.centers, index.box, index.width, index.q)
        assert np.array_equal(np.repeat(np.arange(index.n_blocks), index.bucket_sizes()), codes)

        where = {tuple(c): i for i, c in enumerate(grid.centers)}
        keep = np.array([where[tuple(c)] for c in cov.centers])
        assert cov.radius == grid.radius
        assert np.array_equal(np.sort(keep), np.flatnonzero(np.diff(ptr)))
        # within a block, the grid order
        assert (np.diff(keep)[np.diff(codes) == 0] > 0).all()
        for j, i in enumerate(keep):
            assert np.array_equal(members_of(cov, j), members[ptr[i] : ptr[i + 1]])

    def test_out_of_box_matches_shepard_oracle(self):
        pts = bp.halton(900, 2)
        nodes = pts.with_values(eval_test_function("f1", pts.coords))
        model = bp.fit_model(nodes, wendland_cfg())
        box = model.domain.box
        along = np.linspace(box.lo, box.hi, 40)
        gap = 0.1 * model.delta  # centers sit about 0.77 delta inside the box
        probes = np.vstack(
            [
                np.column_stack([np.full(40, box.lo - gap), along]),
                np.column_stack([along, np.full(40, box.hi + gap)]),
                [[box.hi + 0.5 * gap, box.lo - 0.5 * gap]],
            ]
        )
        probes = probes[cdist(probes, model.covering.centers).min(axis=1) < model.delta]
        assert len(probes) >= 40
        got = model.predict(probes)
        want = [shepard_value(model, p) for p in probes]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_numpy_adds_a_row_by_one_rule():
    # Both local-value paths rely on this: np.add.reduceat adds a segment
    # that leads with a 0.0 slot as .sum() adds the segment's terms, and
    # .sum(axis=1) adds a row the same way whatever the number of rows.
    # 20 000 rows, past the 64 tried at every length, take the lengths
    # around the pairwise sum's unrolled blocks (8) and its recursion (128).
    rng = np.random.default_rng(23)
    lengths = np.arange(1, 301)
    terms = [rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n) for n in lengths]
    want = np.array([t.sum() for t in terms])
    slots = np.concatenate([np.concatenate([[0.0], t]) for t in terms])
    assert np.array_equal(np.add.reduceat(slots, np.cumsum(lengths + 1) - lengths - 1), want)
    for n, t, w in zip(lengths, terms, want):
        for rows in (1, 2, 64, 20000) if n in (1, 2, 7, 8, 9, 127, 128, 129, 256, 257, 300) else (1, 2, 64):
            assert np.array_equal(np.tile(t, (rows, 1)).sum(axis=1), np.full(rows, w))


class TestPredictInput:
    def test_wrong_dimension_raises(self, pentagon_run):
        _, result = pentagon_run
        with pytest.raises(ValueError):
            result.model.predict([[0.5, 0.5, 0.5]])

    @pytest.mark.parametrize("on_uncovered", ["raise", "nearest"])
    def test_nonfinite_raises(self, pentagon_run, on_uncovered):
        _, result = pentagon_run
        with pytest.raises(ValueError):
            result.model.predict([[0.5, np.nan]], on_uncovered=on_uncovered)
        with pytest.raises(ValueError):
            result.model.predict([[np.inf, 0.5]], on_uncovered=on_uncovered)

    def test_empty_batch(self, pentagon_run):
        _, result = pentagon_run
        got = result.model.predict(np.empty((0, 2)))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_batch_with_no_covered_point(self, pentagon_run):
        # the sums of an empty join are np.bincount's int64 zeros; the
        # fallback values must not be cast to them
        _, result = pentagon_run
        model = result.model
        pts = np.array([[5.0, 5.0], [-3.0, 0.5], [0.5, 40.0]])
        assert len(model.covering.active(pts)[0]) == 0
        got = model.predict(pts, on_uncovered="nearest")
        assert got.dtype == np.float64
        assert np.array_equal(got, model._predict_nearest(pts))
        with pytest.raises(NoActiveSubdomain, match="3 points lie in no subdomain"):
            model.predict(pts)


@pytest.mark.parametrize("threads", [0, -2])
def test_config_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError):
        wendland_cfg(threads=threads)


@pytest.mark.parametrize("threads", [True, 1.5, 2.0, "2", None], ids=["True", "1.5", "2.0", "str", "None"])
def test_config_rejects_threads_that_are_not_counts(threads):
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        wendland_cfg(threads=threads)


@pytest.mark.parametrize("field", ["d_r", "s_r"])
@pytest.mark.parametrize("count", [np.nan, np.inf, 2.5, 0, True], ids=["nan", "inf", "2.5", "0", "True"])
def test_config_rejects_bad_grid_counts(field, count):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        wendland_cfg(**{field: count})


@pytest.mark.parametrize("kernel", [None, "wendland-c2", phi_wendland_c2])
def test_config_rejects_a_kernel_not_made_by_make_kernel(kernel):
    with pytest.raises(ValueError, match="make_kernel"):
        bp.PumConfig(kernel=kernel)


def test_config_accepts_numpy_integer_counts():
    cfg = wendland_cfg(d_r=np.int64(16), s_r=np.int32(400))
    assert (cfg.d_r, cfg.s_r) == (16, 400)


class TestAutoCoarsening:
    def test_sparse_nodes_retry_until_covered(self):
        nodes = bp.PointSet(bp.halton(4, 2).coords, np.ones(4))
        with pytest.warns(EmptySubdomainPruned) as record:
            res = bp.pum_interpolate(nodes, wendland_cfg())
        assert any("retrying" in str(w.message) for w in record)
        assert all(w.filename == __file__ for w in record)
        assert np.isfinite(res.values).all()

    def test_explicit_d_r_still_raises(self):
        nodes = bp.PointSet(bp.halton(4, 2).coords, np.ones(4))
        with pytest.raises((InsufficientCoverage,)):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                bp.pum_interpolate(nodes, wendland_cfg(d_r=4))


def test_side_count_snaps_roots(unit_square_domain):
    assert bp.subdomain_grid(unit_cube_domain(), 1, 512).side == 8
    assert bp.subdomain_grid(unit_square_domain, 1, 1600).side == 40
    assert bp.subdomain_grid(unit_cube_domain(), 1, 8000).side == 20
