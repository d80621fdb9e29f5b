from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

import blockpum as bp
from blockpum import geometry
from blockpum.errors import DegenerateInput, EmptyReduction

from conftest import pentagon_vertices


def shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class TestConvexHull:
    def test_unit_square(self):
        dom = bp.convex_hull(bp.PointSet([[0, 0], [1, 0], [1, 1], [0, 1]]))
        assert dom.measure == pytest.approx(1.0)
        assert np.allclose(dom.rect.mins, [0, 0]) and np.allclose(dom.rect.maxs, [1, 1])
        assert dom.box.lo == 0.0 and dom.box.hi == 1.0

    def test_unit_cube(self):
        corners = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], float)
        dom = bp.convex_hull(bp.PointSet(corners))
        assert dom.measure == pytest.approx(1.0)
        assert dom.box.edge == pytest.approx(1.0)

    def test_pentagon_measure_matches_shoelace(self):
        verts = pentagon_vertices()
        dom = bp.convex_hull(bp.PointSet(verts))
        assert dom.measure == pytest.approx(shoelace(verts), rel=1e-12)
        # shoelace on the exact vertices gives 2.5*sin(72 deg)
        assert dom.measure == pytest.approx(2.377641290737884, rel=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            bp.convex_hull(bp.PointSet([[0, 0], [1, 1], [2, 2], [3, 3]]))

    def test_coplanar_raises(self):
        pts = np.column_stack([np.random.default_rng(0).random((6, 2)), np.zeros(6)])
        with pytest.raises(DegenerateInput):
            bp.convex_hull(bp.PointSet(pts))

    def test_too_few_points_raises(self):
        with pytest.raises(DegenerateInput):
            bp.convex_hull(bp.PointSet([[0, 0], [1, 0]]))

    @given(st.integers(0, 2**31 - 1), st.integers(10, 60))
    @settings(max_examples=25, deadline=None)
    def test_hull_contains_all_inputs(self, seed, n):
        pts = np.random.default_rng(seed).random((n, 2))
        dom = bp.convex_hull(bp.PointSet(pts))
        assert all(bp.contains(dom, p) for p in pts)

    def test_measure_permutation_invariant(self, rng):
        pts = rng.random((40, 2))
        dom1 = bp.convex_hull(bp.PointSet(pts))
        dom2 = bp.convex_hull(bp.PointSet(pts[rng.permutation(40)]))
        assert dom1.measure == pytest.approx(dom2.measure, rel=1e-13)


class TestContains:
    def test_interior(self, unit_square_domain):
        assert bp.contains(unit_square_domain, (0.5, 0.5))

    def test_boundary_inclusive(self, unit_square_domain):
        assert bp.contains(unit_square_domain, (1.0, 0.5))

    def test_pentagon_corner_outside(self, pentagon_domain):
        # (0.99, 0.99) violates the upper-right edge half-space
        assert not bp.contains(pentagon_domain, (0.99, 0.99))


class TestReduce:
    def test_identity_when_inside(self, unit_square_domain):
        pts = bp.PointSet([[0.2, 0.2], [0.8, 0.3]], [1.0, 2.0])
        red = bp.reduce_to_domain(pts, unit_square_domain)
        assert np.array_equal(red.coords, pts.coords)
        assert np.array_equal(red.values, pts.values)

    def test_triangle_half_matches_bruteforce(self):
        tri = bp.convex_hull(bp.PointSet([[0, 0], [1, 0], [1, 1]]))  # x2 <= x1
        grid = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 100)
        red = bp.reduce_to_domain(grid, tri)
        keep = [i for i, p in enumerate(grid.coords) if bp.contains(tri, p)]
        assert np.array_equal(red.coords, grid.coords[keep])

    def test_empty_raises(self, unit_square_domain):
        with pytest.raises(EmptyReduction):
            bp.reduce_to_domain(bp.PointSet([[5.0, 5.0]]), unit_square_domain)

    def test_idempotent(self, pentagon_domain, rng):
        pts = bp.PointSet(rng.uniform(-1, 1, (200, 2)))
        once = bp.reduce_to_domain(pts, pentagon_domain)
        twice = bp.reduce_to_domain(once, pentagon_domain)
        assert np.array_equal(once.coords, twice.coords)


def facet_probes(rng, dim):
    """A random hull and probes around its facets: uniform points, the hull
    vertices, points projected onto random facet planes, and those moved
    along the normal by 0, +-tol/2, +-tol and +-2 tol.

    Returns the domain, the probes and the normal shifts of the moved ones.
    """
    dom = bp.convex_hull(bp.PointSet(rng.random((rng.integers(dim + 3, 60), dim))))
    facets = rng.integers(0, len(dom.normals), 40)
    normals = dom.normals[facets]
    raw = rng.uniform(-0.2, 1.2, (40, dim))
    on_facet = raw - (np.einsum("ij,ij->i", normals, raw) + dom.offsets[facets])[:, None] * normals
    shifts = rng.choice([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0], 40) * dom.tol
    moved = on_facet + shifts[:, None] * normals
    return dom, np.vstack([rng.uniform(-0.2, 1.2, (40, dim)), dom.vertices, on_facet, moved]), shifts


class TestMembershipMask:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.sampled_from([1, 5, 64, 2**16]))
    @settings(max_examples=40, deadline=None)
    def test_passes_match_one_shot(self, seed, dim, chunk):
        rng = np.random.default_rng(seed)
        dom, coords, shifts = facet_probes(rng, dim)
        values = coords @ dom.normals.T + dom.offsets
        want = np.all(values <= dom.tol, axis=1)
        # BLAS blocks the product by the rows of each pass, so a half-space
        # value may round differently in its last bits; only points with a
        # value within that rounding of the tolerance may change sides
        rounding = 8 * np.finfo(float).eps * (np.abs(coords) @ np.abs(dom.normals.T) + np.abs(dom.offsets) + dom.tol)
        undecided = (np.abs(values - dom.tol) <= rounding).any(axis=1)
        with mock.patch.object(geometry, "MASK_CHUNK", chunk):
            got = geometry.membership_mask(dom, coords)
        assert got.dtype == bool
        assert np.array_equal(got[~undecided], want[~undecided])
        # only the probes moved out by exactly tol sit on the tolerance
        assert undecided.sum() <= np.count_nonzero(shifts == dom.tol)
        # hull vertices lie on facets, and the boundary counts as inside
        assert got[40 : 40 + len(dom.vertices)].all()

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.sampled_from([1, 5, 64, 2**16]))
    @settings(max_examples=40, deadline=None)
    def test_decisions_equal_every_facet_test_of_each_pass(self, seed, dim, chunk):
        # the largest half-space value decides as the all() over every
        # facet did, on the same products, NaN and infinite rows included
        rng = np.random.default_rng(seed)
        dom, coords, _ = facet_probes(rng, dim)
        bad = rng.choice([np.nan, np.inf, -np.inf], (6, dim))
        bad[::2, 1:] = rng.random((3, dim - 1))
        coords = rng.permutation(np.vstack([coords, bad]))
        step = max(1, chunk // len(dom.normals))
        # an infinite coordinate times a zero normal component is NaN
        with np.errstate(invalid="ignore"), mock.patch.object(geometry, "MASK_CHUNK", chunk):
            want = np.concatenate(
                [
                    np.all(coords[lo : lo + step] @ dom.normals.T + dom.offsets <= dom.tol, axis=1)
                    for lo in range(0, len(coords), step)
                ]
            )
            got = geometry.membership_mask(dom, coords)
        assert np.array_equal(got, want)
        assert not got[np.isnan(coords).any(axis=1)].any()

    def test_empty_batch(self, pentagon_domain):
        assert geometry.membership_mask(pentagon_domain, np.empty((0, 2))).shape == (0,)


def digit_loop_radical_inverse(indices, base):
    """Oracle: the radical inverse summed digit by digit, lowest digit first."""
    idx = indices.astype(np.int64)
    out = np.zeros(len(idx))
    denom = 1.0
    while idx.any():
        denom *= base
        out += (idx % base) / denom
        idx //= base
    return out


def power_boundaries(base):
    """Indices one below, at and one above every power of ``base`` up to 2**62.

    These cross every digit count and so every multiple of a table size.
    """
    powers = [base**k for k in range(1, 63) if base**k <= 2**62]
    return np.array([p + d for p in powers for d in (-1, 0, 1)], dtype=np.int64)


class TestRadicalInverse:
    @given(
        st.sampled_from(geometry._HALTON_BASES),
        hnp.arrays(np.int64, st.integers(0, 300), elements=st.integers(0, 2**62)),
    )
    @example(2, power_boundaries(2))
    @example(3, power_boundaries(3))
    @example(5, power_boundaries(5))
    @example(3, np.arange(1_000_001, 1_005_001))
    @example(7, power_boundaries(7))  # any base works, not only the Halton ones
    @example(4099, power_boundaries(4099))  # a base past the table cap: no table digits
    @settings(max_examples=200, deadline=None)
    def test_matches_digit_loop(self, base, indices):
        got = geometry._radical_inverse(indices, base)
        assert np.array_equal(got, digit_loop_radical_inverse(indices, base))

    @pytest.mark.parametrize("base", geometry._HALTON_BASES)
    def test_int64_extremes(self, base):
        indices = np.array([0, 1, 2**62, 2**63 - 1, 0, 2**63 - 1], dtype=np.int64)
        got = geometry._radical_inverse(indices, base)
        assert np.array_equal(got, digit_loop_radical_inverse(indices, base))

    @pytest.mark.parametrize("base, size", [(2, 4096), (3, 2187), (5, 3125), (4099, 1)])
    def test_table_capped_and_read_only(self, base, size):
        table = geometry._digit_table(base)
        assert len(table) == size <= geometry._TABLE_CAP
        assert not table.flags.writeable
        assert np.array_equal(table, digit_loop_radical_inverse(np.arange(len(table)), base))


class TestHalton:
    def test_first_point(self):
        pts = bp.halton(1, 2)
        assert np.allclose(pts.coords[0], [0.5, 1 / 3])

    def test_empty(self):
        assert len(bp.halton(0, 2)) == 0

    def test_index_three_base_two(self):
        # van der Corput: 3 = 11 in base 2 -> 0.11 in base 2 = 3/4
        assert bp.halton(3, 2).coords[2, 0] == pytest.approx(0.75)

    def test_3d_bases(self):
        pts = bp.halton(2, 3)
        assert np.allclose(pts.coords[0], [0.5, 1 / 3, 0.2])

    @given(st.integers(1, 200), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_prefix_consistency(self, n, extra):
        a = bp.halton(n, 2)
        b = bp.halton(n + extra, 2)
        assert np.array_equal(a.coords, b.coords[:n])

    def test_skip_shifts_indices(self):
        assert np.array_equal(bp.halton(5, 2, skip=2).coords, bp.halton(7, 2).coords[2:])

    def test_points_distinct(self):
        pts = bp.halton(2000, 3)
        assert len(np.unique(pts.coords, axis=0)) == len(pts)

    def test_last_int64_index(self):
        pts = bp.halton(1, 2, skip=2**63 - 2)
        want = [digit_loop_radical_inverse(np.array([2**63 - 1]), b)[0] for b in (2, 3)]
        assert np.array_equal(pts.coords[0], want)

    @pytest.mark.parametrize(
        "n, skip, match",
        [
            (3, -3, "skip must be >= 0"),
            (-1, 0, "n must be >= 0"),
            (2, 2**63 - 2, "at most 2\\*\\*63 - 1"),
            (2**63, 0, "at most 2\\*\\*63 - 1"),
            (2.5, 0, "n must be an integer"),
            (3, 1.5, "skip must be an integer"),
            (True, 0, "n must be an integer"),
            (3, False, "skip must be an integer"),
            (np.float64(3), 0, "n must be an integer"),
        ],
    )
    def test_bad_counts_rejected_before_work(self, n, skip, match):
        with mock.patch.object(geometry, "_radical_inverse", side_effect=AssertionError("computed")):
            with pytest.raises(ValueError, match=match):
                bp.halton(n, 2, skip=skip)

    def test_numpy_integers_accepted(self):
        assert np.array_equal(bp.halton(np.int64(5), 2, skip=np.int32(2)).coords, bp.halton(5, 2, skip=2).coords)


class TestGridOnRect:
    def test_2x2_corners(self):
        grid = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 4)
        want = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        assert {tuple(p) for p in grid.coords} == want

    def test_40x40(self):
        grid = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 1600)
        assert len(grid) == 1600
        assert len(np.unique(grid.coords[:, 0])) == 40

    def test_20_cubed(self):
        grid = bp.grid_on_rect(bp.Rect(np.zeros(3), np.ones(3)), 8000)
        assert len(grid) == 8000
        assert len(np.unique(grid.coords[:, 2])) == 20

    def test_single_point_is_midpoint(self):
        grid = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 1)
        assert np.allclose(grid.coords, [[0.5, 0.5]])


def brute_fill_distance(nodes, probes):
    """Oracle: every probe against every node."""
    return float(cdist(probes.coords, nodes.coords).min(axis=1).max())


class TestFillDistance:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.integers(1, 300), st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_force(self, seed, dim, n_nodes, n_probes):
        rng = np.random.default_rng(seed)
        # clustered nodes, probes reaching well outside them
        nodes = bp.PointSet(rng.random((n_nodes, dim)) ** 3)
        probes = bp.PointSet(rng.random((n_probes, dim)) * 3.0 - 1.0)
        assert bp.fill_distance(nodes, probes) == brute_fill_distance(nodes, probes)
        assert bp.fill_distance(nodes, nodes) == 0.0

    def test_square_corners(self):
        corners = bp.PointSet([[0, 0], [1, 0], [0, 1], [1, 1]])
        probes = bp.grid_on_rect(bp.Rect(np.zeros(2), np.ones(2)), 101**2)
        # farthest point from the corners is the center
        assert bp.fill_distance(corners, probes) == pytest.approx(np.sqrt(2) / 2, abs=1e-2)

    def test_zero_when_probes_are_nodes(self, rng):
        pts = bp.PointSet(rng.random((50, 2)))
        assert bp.fill_distance(pts, pts) == 0.0

    def test_subset_monotonicity(self, rng):
        nodes = bp.PointSet(rng.random((100, 2)))
        subset = bp.PointSet(nodes.coords[:30])
        probes = bp.PointSet(rng.random((200, 2)))
        assert bp.fill_distance(nodes, probes) <= bp.fill_distance(subset, probes)

    def test_pentagon_622_scale(self):
        # ~622 quasi-random nodes in the half-radius pentagon have a fill
        # distance around 3.3e-2 (soft anchor, geometry-dependent)
        dom = bp.convex_hull(bp.PointSet(pentagon_vertices(0.5, (0.5, 0.5))))
        nodes = bp.reduce_to_domain(bp.halton(1046, 2), dom)
        assert 600 <= len(nodes) <= 650
        probes = bp.reduce_to_domain(bp.grid_on_rect(dom.rect, 1600), dom)
        h = bp.fill_distance(nodes, probes)
        assert 3.3e-2 / 2 <= h <= 3.3e-2 * 2


class TestPointSet:
    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            bp.PointSet([[0, 0], [1, 1]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bp.PointSet([[0.0, np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            bp.PointSet([[0.0, 0.0], [1.0, 1.0]], [1.0, bad])

    def test_coords_read_only(self):
        pts = bp.PointSet([[0.0, 0.0]])
        with pytest.raises(ValueError):
            pts.coords[0, 0] = 1.0
