import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg import solve as lin_solve
from scipy.spatial.distance import cdist

import blockpum as bp
from blockpum.errors import (
    EmptySubdomainPruned,
    InsufficientCoverage,
    KernelSupportTooSmall,
    NoActiveSubdomain,
    SingularLocalSystem,
)
from blockpum.geometry import membership_mask
from blockpum.kernels import phi_wendland_c2
from blockpum.pum import BLEND_CHUNK, BLEND_STEP_ENTRIES, _fit_subdomains, _side_count
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


class TestSubdomainRadius:
    def test_2d(self):
        assert bp.subdomain_radius(1.0, 256, 2) == pytest.approx(np.sqrt(2) / 16, rel=1e-15)

    def test_single_subdomain(self):
        assert bp.subdomain_radius(1.0, 1, 2) == pytest.approx(np.sqrt(2), rel=1e-15)

    def test_3d(self):
        assert bp.subdomain_radius(2.0, 512, 3) == pytest.approx(2 * np.sqrt(2) / 8, rel=1e-15)


class TestShepardWeights:
    def _covering(self, centers, radius):
        centers = np.asarray(centers, float)
        d = len(centers)
        box = bp.Box(float(centers.min()), float(centers.max()), centers.shape[1])
        return bp.Covering(
            centers=centers,
            radius=radius,
            node_lists=[np.array([0])] * d,
            center_index=bp.build(bp.PointSet(centers), box, q=1),
            d_requested=d,
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
        nodes = bp.PointSet([[0.3, 0.4]], [1.0])
        cov = bp.build_covering(nodes, unit_square_domain, wendland_cfg(d_r=1, s_r=4))
        assert cov.d == 1
        assert list(cov.node_lists[0]) == [0]

    def test_dense_pentagon_covering_is_regular(self, pentagon_run):
        nodes, result = pentagon_run
        cov = result.model.covering
        assert cov.d <= cov.d_requested
        covered = np.zeros(result.report.s, bool)
        found = bp.range_join(cov.center_index, result.eval_points, cov.radius)
        covered[found.rows()[found.distances < cov.radius]] = True
        assert covered.all()

    def test_empty_subdomains_warned_and_pruned(self, unit_square_domain):
        # nodes only in one corner, centers spread over the square
        nodes = bp.PointSet(np.random.default_rng(3).random((30, 2)) * 0.05, np.ones(30))
        eval_pts = nodes.coords[:5]
        with pytest.warns(EmptySubdomainPruned) as record:
            cov = bp.build_covering(
                nodes, unit_square_domain, wendland_cfg(d_r=25), eval_points=eval_pts
            )
        assert all(w.filename == __file__ for w in record)
        assert cov.n_pruned > 0
        assert all(len(m) for m in cov.node_lists)

    def test_insufficient_coverage_raises(self, unit_square_domain):
        # clustered nodes, spanning evaluation grid, explicit fine covering
        nodes = bp.PointSet(np.random.default_rng(4).random((40, 2)) * 0.05, np.ones(40))
        grid = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 100)
        with pytest.warns(EmptySubdomainPruned):
            with pytest.raises(InsufficientCoverage):
                bp.build_covering(
                    nodes, unit_square_domain, wendland_cfg(d_r=64), eval_points=grid.coords
                )


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
        table = _fit_subdomains(nodes, node_lists, kernel)
        assert_matches_reference(nodes, node_lists, table, kernel)

    def test_cholesky_failure_falls_back_per_matrix(self):
        # phi(r) = 1 - r^2 gives a positive-definite matrix for two sites
        # closer than sqrt(2) and an indefinite, nonsingular one for two sites
        # farther apart, so the stack's Cholesky fails yet every system solves
        profile = lambda r: 1.0 - np.asarray(r) ** 2
        sites = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 1.0], [0.3, 1.0], [2.0, 0.0]])
        nodes = bp.PointSet(sites, np.array([1.0, -2.0, 0.5, 3.0, 0.25]))
        node_lists = [np.array(m) for m in ([0, 1], [0, 4], [2, 3])]
        table = _fit_subdomains(nodes, node_lists, profile)
        assert_matches_reference(nodes, node_lists, table, profile)
        for j, members in enumerate(node_lists):
            fit = bp.local_solve(sites[members], nodes.values[members], profile, j)
            assert np.array_equal(fit.coefficients, table.coefficients[2 * j : 2 * j + 2])
            assert fit.cond == table.cond[j]

    def test_singular_member_of_a_stack_raises_with_its_index(self):
        sites = np.array([[0.1, 0.1], [0.5, 0.5], [0.2, 0.6], [0.7, 0.1]])
        nodes = bp.PointSet(sites, np.ones(4))
        # subdomain 1 holds site 2 twice
        node_lists = [np.array(m) for m in ([0, 1, 3], [2, 2, 1], [3, 0, 2])]
        with pytest.raises(SingularLocalSystem, match="subdomain 1: factorization failed"):
            _fit_subdomains(nodes, node_lists, bp.make_kernel("wendland-c2", 0.5))

    def test_fit_bitwise_equal_to_local_solve(self):
        # a uniform set with a tight cluster: many member counts, and groups
        # large enough to be split across chunks
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.random((8000, 2)), 0.5 + 0.03 * rng.standard_normal((1000, 2))])
        nodes = bp.PointSet(pts, np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2)
        model = bp.fit_model(nodes, wendland_cfg())
        lists = model.covering.node_lists
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


class TestWarningLocation:
    """Warnings from deep inside the package name the caller's line (build_covering
    and pum_interpolate: TestBuildCovering, TestAutoCoarsening)."""

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

    def test_paper_mode_runs_close_to_cover_mode(self):
        nodes = pentagon_nodes(2499)
        truth = lambda p: eval_test_function("f1", p)
        r_cover = bp.pum_interpolate(nodes, wendland_cfg(s_r=1600), truth=truth)
        r_paper = bp.pum_interpolate(nodes, wendland_cfg(s_r=1600, block_mode="paper"), truth=truth)
        assert r_cover.report.rmse < 1e-3
        assert r_paper.report.rmse < 1e-3

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
        res = bp.pum_interpolate(pentagon_nodes(622), wendland_cfg(s_r=1600, block_mode="paper"))
        assert 1.3e6 <= res.report.max_cond <= 1.3e8

    @pytest.mark.slow
    def test_large_run_error_scale(self):
        # soft anchor: the densest pentagon configuration lands near 3e-7 RMSE
        truth = lambda p: eval_test_function("f1", p)
        res = bp.pum_interpolate(pentagon_nodes(159994), wendland_cfg(s_r=1600, block_mode="paper"), truth=truth)
        assert 3.05e-8 <= res.report.rmse <= 3.05e-6


def oracle_solve(model, j):
    """Subdomain j's coefficients, solved afresh from its node list (not read from the model)."""
    members = model.covering.node_lists[j]
    return bp.local_solve(model.nodes.coords[members], model.nodes.values[members], model.kernel, j).coefficients


def _per_subdomain(model, pts):
    """Per-subdomain evaluation: index the points, one range_search per center,
    one local solve per touched subdomain, blend subdomains in ascending order,
    each with its rows by (distance, row).

    Returns the Shepard numerator and denominator, and the weighted sum of
    |phi(|p - x_jk|) c_jk| over every local term.
    """
    box = model.domain.box
    qbs = bp.build(bp.PointSet(pts), box, bp.blocks_per_side(box.edge, model.delta, "cover"))
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
        local = model.kernel(cdist(pts[members], model.nodes.coords[model.covering.node_lists[j]]))
        num[members] += w * (local @ coef)
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
    n_max = max(len(members) for members in model.covering.node_lists)
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
        model.kernel(np.linalg.norm(model.nodes.coords[model.covering.node_lists[j]] - p, axis=1))
        @ oracle_solve(model, j)
        for j in active
    ]
    return float(np.dot(w, local))


def reference_nearest(model, pts):
    """Nearest-subdomain fallback, per subdomain: argmin over all center distances,
    then one local solve and one matrix-vector product per chosen subdomain.

    Returns the chosen subdomains, the values and the sums of |phi(|p - x_k|) c_k|.
    """
    nearest = cdist(pts, model.covering.centers).argmin(axis=1)
    vals = np.empty(len(pts))
    mag = np.empty(len(pts))
    for j in np.unique(nearest):
        rows = np.flatnonzero(nearest == j)
        coef = oracle_solve(model, j)
        local = model.kernel(cdist(pts[rows], model.nodes.coords[model.covering.node_lists[j]]))
        vals[rows] = local @ coef
        mag[rows] = np.abs(local * coef).sum(axis=1)
    return nearest, vals, mag


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
        # one-point batches: the split depends on the batch, so alone a point may take the other path
        bound = rounding_bound(model, batch)
        alone = np.array([model.predict(p[None, :])[0] for p in batch])
        assert np.all(np.abs(alone - got) <= bound)
        assert model.predict(np.empty((0, dim))).shape == (0,)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_nearest_fallback_property(self, seed, dim, clustered):
        model, _ = blend_model(seed, dim, clustered)
        rng = np.random.default_rng([seed, 1])
        box = model.domain.box
        probes = rng.uniform(box.lo - 0.3, box.hi + 0.3, size=(400, dim))
        probes = np.delete(probes, model.covering.active(probes)[0], axis=0)[:40]
        # many copies of one probe give its subdomain more than BLEND_STEP_ENTRIES entries
        pts = np.vstack([probes, np.repeat(probes[:1], BLEND_STEP_ENTRIES + 1, axis=0)])
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
        n_max = max(len(members) for members in model.covering.node_lists)
        assert np.all(np.abs(got - want) <= 2 * n_max * np.finfo(float).eps * mag)
        assert np.array_equal(model.predict(pts, on_uncovered="nearest"), got)

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
        assert result.model.predict(np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("threads", [0, -2])
def test_config_rejects_nonpositive_threads(threads):
    with pytest.raises(ValueError):
        wendland_cfg(threads=threads)


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


def test_side_count_snaps_roots():
    assert _side_count(512, 3) == 8
    assert _side_count(1600, 2) == 40
    assert _side_count(8000, 3) == 20
