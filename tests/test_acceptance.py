"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a PASS line with the
measured figures (run with -s to see them live). Soft accuracy targets
use the factor-10 anchor bands noted inline; hard checks use exact
tolerances. Every test also enforces its wall-clock budget.
"""

import time
import warnings

import numpy as np
import pytest

import blockpum as bp
from blockpum.benchmark import run_search_benchmark
from blockpum.kernels import phi_wendland_c2
from blockpum.reconstruct import OrientedCloud, augment
from blockpum.separatrix import (
    UNRESOLVED,
    Y_ONLY,
    Z_ONLY,
    CompetitionParams,
    bisect_separatrix,
    classify,
    sample_separatrix,
)
from blockpum.validation import convergence_rate, eval_test_function

from test_reconstruct import fibonacci_sphere

# error-scale anchors per ladder rung; runs must land within a factor of 10
PENTAGON_RMSE_ANCHORS = [1.40e-4, 3.30e-5, 6.33e-6, 1.25e-6]
TRIANGLE_RMSE_ANCHORS = [2.60e-5, 5.41e-6, 1.56e-6, 4.59e-7]
CYLINDER_RMSE_ANCHORS = [2.71e-4, 6.00e-5, 2.27e-5]

LADDER_RAW_2D = [622, 2499, 9999, 39991]
LADDER_RAW_3D = [3134, 12551, 50184]


def _announce(num, detail):
    print(f"[acceptance] criterion {num:02d} PASS: {detail}")


def _generate(shape, raw_n, func):
    from blockpum.cli import generate_nodes

    return generate_nodes(shape, raw_n, 0, func)


def _run_ladder(shape, func, raws, s_r):
    rows = []
    t0 = time.perf_counter()
    for raw in raws:
        nodes = _generate(shape, raw, func)
        cfg = bp.PumConfig(kernel=bp.make_kernel("wendland-c2", 0.5), s_r=s_r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = bp.pum_interpolate(nodes, cfg, truth=lambda p: eval_test_function(func, p))
        rows.append(
            {"raw": raw, "report": result.report, "model": result.model, "eval_points": result.eval_points}
        )
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def pentagon_ladder():
    return _run_ladder("pentagon", "f1", LADDER_RAW_2D, 1600)


@pytest.fixture(scope="module")
def triangle_ladder():
    return _run_ladder("triangle", "f2", LADDER_RAW_2D, 1600)


@pytest.fixture(scope="module")
def cylinder_ladder():
    return _run_ladder("cylinder", "f3", LADDER_RAW_3D, 8000)


@pytest.fixture(scope="module")
def pentagon_2499_model():
    nodes = _generate("pentagon", 2499, "f1")
    cfg = bp.PumConfig(kernel=bp.make_kernel("wendland-c2", 0.5), s_r=1600)
    t0 = time.perf_counter()
    result = bp.pum_interpolate(nodes, cfg, truth=lambda p: eval_test_function("f1", p))
    return {"nodes": nodes, "result": result, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def search_benchmark():
    t0 = time.perf_counter()
    # a few-ms build: the minimum over more repeats keeps host noise out of the ratio
    out = run_search_benchmark([10_000, 40_000, 160_000, 640_000], dim=2, build_repeats=9)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def sphere_reconstruction():
    dirs = fibonacci_sphere(2000)
    cloud = OrientedCloud(points=dirs, normals=dirs, step=0.05)
    # support 1/eps = 1 spans the off-surface gap and reaches the probes;
    # d_r = 343 keeps the subdomains wide enough to cover them
    cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=343)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = bp.fit_model(augment(cloud), cfg)
    return {"cloud": cloud, "model": model, "elapsed": time.perf_counter() - t0}


def test_criterion_01_block_search_matches_brute_force():
    rng = np.random.default_rng(20160505)
    t0 = time.perf_counter()
    trials = 200
    checked = 0
    for trial in range(trials):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(100, 20_001))
        if trial % 2 == 0:
            pts = bp.halton(n, dim, skip=int(rng.integers(0, 4096)))
        else:
            pts = bp.PointSet(rng.random((n, dim)))
        dom = bp.convex_hull(pts)
        delta = bp.subdomain_grid(dom, n).radius
        q = bp.blocks_per_side(dom.box.edge, delta)
        bs = bp.build(pts, dom.box, q)
        assert delta <= bs.width or q == 1
        centers = dom.box.lo + rng.random((3, dim)) * dom.box.edge
        found = bp.join_pairs(bs, centers, delta)
        for i, center in enumerate(centers):
            # each row in brute force's (distance, index) order
            hits = found.rows == i
            order = np.lexsort((found.indices[hits], found.distances[hits]))
            want = bp.brute_force_range_search(pts.coords, center, delta)
            assert np.array_equal(found.indices[hits][order], want.indices)
            assert np.array_equal(found.distances[hits][order], want.distances)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(1, f"{trials} randomized structures, {checked} queries identical to brute force "
                 f"in {elapsed:.1f}s")


def _pu_audit(model, rng, eval_points=None, n_probes=1200):
    """den > 0 at every evaluation point of the run; Shepard sums == 1."""
    cov = model.covering
    if eval_points is not None:
        found = bp.join_pairs(cov.center_index, eval_points, cov.radius)
        inside = found.distances < cov.radius
        weights = phi_wendland_c2(found.distances[inside], 1.0 / cov.radius)
        den = np.bincount(found.rows[inside], weights=weights, minlength=len(eval_points))
        assert den.min() > 0
    lo, hi = model.domain.rect.mins, model.domain.rect.maxs
    probes = lo + rng.random((n_probes, model.domain.dim)) * (hi - lo)
    return bp.audit_partition_of_unity(model, probes)


def test_criterion_02_partition_of_unity(
    pentagon_ladder, triangle_ladder, cylinder_ladder, pentagon_2499_model, sphere_reconstruction
):
    rng = np.random.default_rng(7)
    runs = [
        (row["model"], row["eval_points"])
        for lad in (pentagon_ladder, triangle_ladder, cylinder_ladder)
        for row in lad["rows"]
    ]
    result = pentagon_2499_model["result"]
    runs.append((result.model, result.eval_points))
    runs.append((sphere_reconstruction["model"], None))
    worst = 0.0
    for model, eval_points in runs:
        worst = max(worst, _pu_audit(model, rng, eval_points))
    assert worst <= 1e-12
    _announce(2, f"{len(runs)} pipeline runs, worst |sum W - 1| = {worst:.2e} <= 1e-12")


def test_criterion_03_interpolation_property(pentagon_2499_model):
    nodes = pentagon_2499_model["nodes"]
    model = pentagon_2499_model["result"].model
    t0 = time.perf_counter()
    at_nodes = model.predict(nodes.coords)
    residual = np.abs(at_nodes - nodes.values).max()
    elapsed = pentagon_2499_model["elapsed"] + time.perf_counter() - t0
    assert residual <= 1e-6
    assert elapsed < 30.0
    _announce(3, f"max node residual {residual:.2e} <= 1e-6 on N={len(nodes)} in {elapsed:.1f}s")


@pytest.mark.parametrize("ladder_name,anchors", [
    ("pentagon_ladder", PENTAGON_RMSE_ANCHORS),
    ("triangle_ladder", TRIANGLE_RMSE_ANCHORS),
])
def test_criterion_04_convergence_ladders(ladder_name, anchors, request):
    ladder = request.getfixturevalue(ladder_name)
    reports = [row["report"] for row in ladder["rows"]]
    rmses = [r.rmse for r in reports]
    fills = [r.fill_dist for r in reports]
    assert all(b < a for a, b in zip(rmses, rmses[1:])), "RMSE must strictly decrease"
    rates = [
        convergence_rate(rmses[k - 1], rmses[k], fills[k - 1], fills[k])
        for k in range(1, len(rmses))
    ]
    assert all(1.3 <= rate <= 3.2 for rate in rates), rates
    ratios = [ours / ref for ours, ref in zip(rmses, anchors)]
    assert all(0.1 <= ratio <= 10.0 for ratio in ratios), ratios
    assert ladder["elapsed"] < 180.0
    _announce(4, f"{ladder_name}: rmse={['%.2e' % v for v in rmses]} "
                 f"rates={['%.2f' % v for v in rates]} anchor ratios={['%.2f' % v for v in ratios]}")


def test_criterion_05_3d_ladder(cylinder_ladder):
    reports = [row["report"] for row in cylinder_ladder["rows"]]
    rmses = [r.rmse for r in reports]
    av_conds = [r.av_cond for r in reports]
    assert all(b < a for a, b in zip(rmses, rmses[1:]))
    ratios = [ours / ref for ours, ref in zip(rmses, CYLINDER_RMSE_ANCHORS)]
    assert all(0.1 <= ratio <= 10.0 for ratio in ratios), ratios
    assert all(b > a for a, b in zip(av_conds, av_conds[1:])), "AvCond must grow"
    assert cylinder_ladder["elapsed"] < 300.0
    _announce(5, f"cylinder: rmse={['%.2e' % v for v in rmses]} "
                 f"anchor ratios={['%.2f' % v for v in ratios]} avcond grows")


def test_criterion_06_conditioning_trend(pentagon_ladder, triangle_ladder, cylinder_ladder):
    for ladder in (pentagon_ladder, triangle_ladder, cylinder_ladder):
        reports = [row["report"] for row in ladder["rows"]]
        max_conds = [r.max_cond for r in reports]
        av_conds = [r.av_cond for r in reports]
        assert all(b >= a for a, b in zip(max_conds, max_conds[1:]))
        assert all(b >= a for a, b in zip(av_conds, av_conds[1:]))
        assert all(av <= mx for av, mx in zip(av_conds, max_conds))
    _announce(6, "MaxCond/AvCond non-decreasing along all ladders, AvCond <= MaxCond")


def test_criterion_07_constant_time_search(search_benchmark):
    rows = search_benchmark["rows"]
    assert all(row["brute_mismatches"] == 0 for row in rows)
    cand_means = [row["cand_mean"] for row in rows]
    spread = cand_means[-1] / cand_means[0]
    assert 0.5 < spread < 2.0, cand_means
    per_query = [row["t_search_per_query_s"] for row in rows]
    growth = per_query[-1] / per_query[0]
    assert growth <= 3.0, per_query
    assert search_benchmark["elapsed"] < 240.0
    _announce(7, f"candidates/query {['%.1f' % c for c in cand_means]} (spread {spread:.2f}x), "
                 f"per-query time growth {growth:.2f}x over 64x N")


def test_criterion_08_build_scaling(search_benchmark):
    ratios = search_benchmark["build_time_ratios"]
    assert all(r <= 5.5 for r in ratios), ratios
    _announce(8, f"structure build-time ratios per 4x N: {['%.2f' % r for r in ratios]} <= 5.5")


def test_criterion_09_sphere_reconstruction(sphere_reconstruction):
    cloud = sphere_reconstruction["cloud"]
    model = sphere_reconstruction["model"]
    t0 = time.perf_counter()
    at_cloud = model.predict(cloud.points, on_uncovered="nearest")
    dirs = fibonacci_sphere(50)
    inner = model.predict(0.5 * dirs, on_uncovered="nearest")
    outer = model.predict(1.5 * dirs, on_uncovered="nearest")
    elapsed = sphere_reconstruction["elapsed"] + time.perf_counter() - t0
    cloud_res = np.abs(at_cloud).max()
    assert cloud_res <= 1e-4
    assert np.all(inner < -0.2)
    assert np.all(outer > 0.2)
    assert elapsed < 60.0
    _announce(9, f"|field| at cloud {cloud_res:.2e} <= 1e-4, interior max {inner.max():.2f} < -0.2, "
                 f"exterior min {outer.min():.2f} > 0.2 in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_10_separatrix_demo():
    t0 = time.perf_counter()
    params = CompetitionParams()
    assert classify((0.0, 0.1, 0.0), params) == Y_ONLY
    assert classify((0.0, 0.0, 0.1), params) == Z_ONLY

    a, b = np.array([0.0, 0.1, 0.0]), np.array([0.0, 0.0, 0.1])
    pt = bisect_separatrix(a, b, params, tol=1e-3)
    u = (b - a) / np.linalg.norm(b - a)
    near = {classify(pt - 1e-3 * u, params), classify(pt + 1e-3 * u, params)}
    assert near == {Y_ONLY, Z_ONLY} or UNRESOLVED in near

    samples = sample_separatrix(params, n_pairs=600, tol=1e-3, lattice_side=8)
    assert len(samples) >= 10
    from blockpum.cli import _dedupe_projection

    projected, z_vals = _dedupe_projection(samples.coords)
    nodes = bp.PointSet(projected, z_vals)
    cfg = bp.PumConfig(kernel=bp.make_kernel("wendland-c2", 0.1), s_r=1600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bp.pum_interpolate(nodes, cfg)
    lo, hi = samples.coords[:, 2].min(), samples.coords[:, 2].max()
    assert np.all(result.values >= lo) and np.all(result.values <= hi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _announce(10, f"axis basins correct, flip bracketed within 1e-3, surface from "
                  f"{len(samples)} points stays in [{lo:.3f}, {hi:.3f}] in {elapsed:.1f}s")
