from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import blockpum as bp
from blockpum import blockpart
from blockpum.blockpart import _block_codes
from blockpum.errors import PointOutsideBox


def reference_build_buckets(coords, box, q):
    """Sort-based reference: order points lexicographically by the strip
    indices of the paper's per-point routines, then segment runs; mirrors a
    recursive per-coordinate sort."""
    width = box.edge / q
    strips = np.array([[bp.strip_index(c, box.lo, width, q) for c in p] for p in coords], dtype=np.int64)
    order = np.lexsort(tuple(strips[:, m] for m in range(strips.shape[1] - 1, -1, -1)))
    codes = [bp.block_index(s, q) for s in strips]
    buckets = {}
    for i in order:
        buckets.setdefault(int(codes[i]), []).append(int(i))
    return {k: sorted(v) for k, v in buckets.items()}


def row_bounds(rows, n_queries):
    """Where each query's hits start in a join, checking they are grouped by ascending row."""
    assert (np.diff(rows) >= 0).all()
    return np.searchsorted(rows, np.arange(n_queries + 1))


def assert_rows_match_brute_force(bs, pts, queries, radius, found):
    """Every join row, put in (distance, index) order, equals brute force
    bitwise, and the join examined, per query, the buckets of the paper
    routines' 3^M block neighbourhood."""
    assert len(found.rows) == len(found.indices) == len(found.distances)
    bounds = row_bounds(found.rows, len(queries))
    candidates = 0
    for i, center in enumerate(queries):
        want = bp.brute_force_range_search(pts, center, radius)
        indices = found.indices[bounds[i] : bounds[i + 1]]
        distances = found.distances[bounds[i] : bounds[i + 1]]
        order = np.lexsort((indices, distances))
        assert np.array_equal(indices[order], want.indices)
        assert np.array_equal(distances[order], want.distances)
        block = bp.containing_query(bs, np.clip(center, bs.box.lo, bs.box.hi))
        candidates += sum(len(bs.bucket(j)) for j in bp.neighborhood_of(bs, block).block_ids)
    assert found.candidates == candidates


class TestStripIndex:
    def test_first_strip(self):
        assert bp.strip_index(0.0, 0.0, 0.2, 5) == 1

    def test_far_boundary_clamps(self):
        assert bp.strip_index(1.0, 0.0, 0.2, 5) == 5

    def test_interior(self):
        # floor(0.41/0.2) + 1 = floor(2.05) + 1 = 3
        assert bp.strip_index(0.41, 0.0, 0.2, 5) == 3


class TestBlockIndex:
    @pytest.mark.parametrize("q", [5, 7, 12])
    def test_2d_formula(self, q):
        assert bp.block_index((5, 3), q) == 4 * q + 3

    def test_all_ones(self):
        assert bp.block_index((1, 1, 1), 9) == 1

    def test_3d(self):
        # (2-1)*16 + (1-1)*4 + 1
        assert bp.block_index((2, 1, 1), 4) == 17

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bp.block_index((0, 1), 4)


class TestBuild:
    def test_single_point_single_block(self):
        pts = bp.PointSet([[0.3, 0.7]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=1)
        assert list(bs.bucket(1)) == [0]

    def test_four_corners_q2(self):
        pts = bp.PointSet([[0, 0], [0, 1], [1, 0], [1, 1]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=2)
        # corners clamp to strips (1,1),(1,2),(2,1),(2,2) -> blocks 1..4
        for k, i in [(1, 0), (2, 1), (3, 2), (4, 3)]:
            assert list(bs.bucket(k)) == [i]

    def test_partition_of_10k_halton(self):
        pts = bp.halton(10000, 2)
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=12)
        assert bs.bucket_sizes().sum() == 10000

    def test_outside_box_raises(self):
        with pytest.raises(PointOutsideBox):
            bp.build(bp.PointSet([[1.5, 0.5]]), bp.Box(0.0, 1.0, 2), q=4)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 11), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_partition_disjoint_and_reindexable(self, seed, q, dim):
        rng = np.random.default_rng(seed)
        pts = bp.PointSet(rng.random((rng.integers(1, 150), dim)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, dim), q=q)
        seen = np.concatenate([bs.bucket(k) for k in range(1, q**dim + 1)])
        assert sorted(seen) == list(range(len(pts)))
        for k in range(1, q**dim + 1):
            members = bs.bucket(k)
            assert list(members) == sorted(members)
            for i in members:
                assert bp.containing_query(bs, pts.coords[i]) == k

    @given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_matches_sortbased_reference(self, seed, q, dim):
        rng = np.random.default_rng(seed)
        pts = bp.PointSet(rng.random((rng.integers(1, 200), dim)))
        box = bp.Box(0.0, 1.0, dim)
        bs = bp.build(pts, box, q=q)
        ref = reference_build_buckets(pts.coords, box, q)
        for k in range(1, q**dim + 1):
            assert list(bs.bucket(k)) == ref.get(k, [])

    def test_codes_computed_in_several_passes(self, rng, monkeypatch):
        monkeypatch.setattr(blockpart, "BUILD_CHUNK", 7)
        pts = bp.PointSet(rng.random((100, 3)))
        box = bp.Box(0.0, 1.0, 3)
        bs = bp.build(pts, box, q=4)
        ref = reference_build_buckets(pts.coords, box, 4)
        for k in range(1, 4**3 + 1):
            assert list(bs.bucket(k)) == ref.get(k, [])


class TestBlockCodes:
    """The block-code rule of ``build`` and the join against the paper's ``containing_query``."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_matches_containing_query(self, seed, q, dim):
        rng = np.random.default_rng(seed)
        box = bp.Box(rng.uniform(-2.0, 2.0), rng.uniform(2.5, 4.0), dim)
        width = box.edge / q
        bs = bp.build(bp.PointSet(rng.uniform(box.lo, box.hi, (5, dim))), box, q)
        on_lines = box.lo + width * rng.integers(0, q + 1, (40, dim))
        on_lines[:5] = box.hi
        inside = np.vstack([rng.uniform(box.lo, box.hi, (40, dim)), on_lines])
        outside = rng.uniform(box.lo - 3.0, box.hi + 3.0, (60, dim))
        codes = _block_codes(np.vstack([inside, outside]), box, width, q)
        want = [bp.containing_query(bs, p) - 1 for p in inside]
        # outside the box, the code is that of the nearest point of the box
        want += [bp.containing_query(bs, np.clip(p, box.lo, box.hi)) - 1 for p in outside]
        assert np.array_equal(codes, want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_infinite_queries_join_the_nearest_blocks(self, dim):
        rng = np.random.default_rng(dim)
        pts = rng.random((200, dim))
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, dim), q=5)
        queries = np.where(rng.random((12, dim)) < 0.5, -np.inf, np.inf)
        queries[:4, 1:] = rng.random((4, dim - 1))
        codes = _block_codes(queries, bs.box, bs.width, bs.q)
        want = [bp.containing_query(bs, np.clip(p, 0.0, 1.0)) - 1 for p in queries]
        assert np.array_equal(codes, want)
        found = bp.join_pairs(bs, queries, bs.width)
        assert len(found.rows) == 0
        assert found.candidates == sum(
            len(bs.bucket(j)) for k in codes for j in bp.neighborhood_of(bs, k + 1).block_ids
        )


class TestContainingQuery:
    def test_examples(self):
        pts = bp.PointSet(np.random.default_rng(1).random((20, 2)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=5)
        assert bp.containing_query(bs, (0.0, 0.41)) == bp.block_index((1, 3), 5)
        assert bp.containing_query(bs, (1.0, 1.0)) == bp.block_index((5, 5), 5)

    def test_outside_raises(self):
        pts = bp.PointSet([[0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=2)
        with pytest.raises(PointOutsideBox):
            bp.containing_query(bs, (2.0, 0.5))


class TestNeighborhood:
    def test_single_block(self):
        pts = bp.PointSet([[0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=1)
        assert list(bp.neighborhood_of(bs, 1).block_ids) == [1]

    def test_corner_q5(self):
        pts = bp.PointSet([[0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=5)
        assert list(bp.neighborhood_of(bs, 1).block_ids) == [1, 2, 6, 7]

    def test_interior_q5(self):
        pts = bp.PointSet([[0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=5)
        ids = bp.neighborhood_of(bs, 13).block_ids
        assert len(ids) == 9
        assert set(ids) == {7, 8, 9, 12, 13, 14, 17, 18, 19}

    @given(st.integers(1, 6), st.sampled_from([2, 3]), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_size_bounds_and_distinct(self, q, dim, pick):
        pts = bp.PointSet(np.full((1, dim), 0.5))
        bs = bp.build(pts, bp.Box(0.0, 1.0, dim), q=q)
        k = pick % q**dim + 1
        ids = bp.neighborhood_of(bs, k).block_ids
        assert len(ids) == len(set(ids.tolist()))
        assert 1 <= len(ids) <= 3**dim
        assert all(1 <= b <= q**dim for b in ids)


class TestRangeSearch:
    def test_empty_result(self):
        pts = bp.PointSet([[0.1, 0.1]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=2)
        found = bp.range_search(bs, (0.9, 0.9), 0.05)
        assert len(found.indices) == 0

    def test_zero_radius_hits_stored_point(self):
        pts = bp.PointSet([[0.25, 0.75], [0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=3)
        found = bp.range_search(bs, (0.25, 0.75), 0.0)
        assert list(found.indices) == [0]
        assert found.distances[0] == 0.0

    def test_halton_200_matches_bruteforce(self):
        pts = bp.halton(200, 2)
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=6)
        got = bp.range_search(bs, (0.5, 0.5), 0.15)
        want = bp.brute_force_range_search(pts.coords, (0.5, 0.5), 0.15)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)

    def test_order_distance_then_index(self):
        # two points at the same distance from the center: index breaks the tie
        pts = bp.PointSet([[0.6, 0.5], [0.4, 0.5], [0.5, 0.5]])
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=1)
        found = bp.range_search(bs, (0.5, 0.5), 0.5)
        assert list(found.indices) == [2, 0, 1]
        assert np.all(np.diff(found.distances) >= 0)

    def test_center_outside_box_is_clamped_not_wrong(self, rng):
        pts = bp.PointSet(rng.random((500, 2)))
        dom = bp.convex_hull(pts)
        bs = bp.build(pts, dom.box, q=4)
        center = np.array([1.3, 0.4])
        got = bp.range_search(bs, center, bs.width)
        want = bp.brute_force_range_search(pts.coords, center, bs.width)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_cover_mode(self, seed, dim):
        rng = np.random.default_rng(seed)
        pts = bp.PointSet(rng.random((rng.integers(30, 400), dim)))
        radius = rng.uniform(0.02, 0.3)
        q = bp.blocks_per_side(1.0, radius)
        bs = bp.build(pts, bp.Box(0.0, 1.0, dim), q=q)
        assert radius <= bs.width
        center = rng.random(dim)
        got = bp.range_search(bs, center, radius)
        want = bp.brute_force_range_search(pts.coords, center, radius)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)
        assert got.candidates <= len(pts)


class TestRangeJoin:
    """The batch range join, ``join_pairs``: its rows against brute force, its run table."""

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_brute_force(self, seed, dim, q):
        rng = np.random.default_rng(seed)
        # a clustered set leaves most blocks empty
        spread = rng.choice([1.0, 0.3])
        pts = rng.random((rng.integers(1, 150), dim)) * spread
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, dim), q=q)
        radius = rng.uniform(0.0, bs.width)
        queries = np.vstack(
            [
                rng.random((15, dim)),
                rng.integers(0, q + 1, (15, dim)) / q,  # block and box boundaries
                rng.uniform(-0.5, 1.5, (15, dim)),  # mostly outside the box
                pts[:5],
            ]
        )
        found = bp.join_pairs(bs, queries, radius)
        assert_rows_match_brute_force(bs, pts, queries, radius, found)

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 5),
        st.lists(st.tuples(st.integers(0, 40), st.floats(0.0, 1.0)), min_size=2, max_size=4),
        st.sampled_from([1, 3, 16, 2048]),
    )
    @settings(max_examples=50, deadline=None)
    def test_repeated_joins_reuse_the_table(self, seed, dim, q, batches, chunk):
        rng = np.random.default_rng(seed)
        pts = rng.random((rng.integers(1, 120), dim)) * rng.choice([1.0, 0.3])
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, dim), q=q)
        tables = []
        with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
            for size, fraction in batches:
                radius = fraction * bs.width
                queries = np.vstack([rng.uniform(-0.5, 1.5, (size, dim)), pts[: size // 4]])
                found = bp.join_pairs(bs, queries, radius)
                assert_rows_match_brute_force(bs, pts, queries, radius, found)
                tables.append(bs.neighbor_runs)
        assert all(t is tables[0] for t in tables)

    def test_build_leaves_the_table_unbuilt(self, rng):
        pts = bp.PointSet(rng.random((200, 3)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, 3), q=4)
        assert "neighbor_runs" not in vars(bs)
        bp.join_pairs(bs, rng.random((5, 3)), 0.2)
        assert "neighbor_runs" in vars(bs)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_table_shape_and_runs(self, seed, dim, q):
        rng = np.random.default_rng(seed)
        bs = bp.build(bp.PointSet(rng.random((rng.integers(0, 200), dim))), bp.Box(0.0, 1.0, dim), q=q)
        first, size = bs.neighbor_runs
        # one row per block, one run per offset on the first M-1 axes, whatever the points
        assert first.shape == size.shape == (q**dim, 3 ** (dim - 1))
        for k in range(1, q**dim + 1):
            runs = [bs.sorted_idx[f : f + n] for f, n in zip(first[k - 1], size[k - 1])]
            want = [bs.bucket(j) for j in bp.neighborhood_of(bs, k).block_ids]
            assert sorted(np.concatenate(runs).tolist()) == sorted(np.concatenate(want).tolist())

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.integers(1, 4), st.sampled_from([4, 8]))
    @settings(max_examples=30, deadline=None)
    def test_lattice_ties_keep_index_order(self, seed, dim, q, per_side):
        # points and queries on a lattice of spacing 1/per_side, a power of
        # two, so differences and distances are exact and equal distances
        # from one query are exactly equal: range_search must order them by index
        rng = np.random.default_rng(seed)
        lattice = np.indices((per_side + 1,) * dim).reshape(dim, -1).T / per_side
        pts = rng.permutation(lattice)
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, dim), q=q)
        radius = min(bs.width, rng.integers(1, 3) / per_side)
        for center in rng.integers(-1, per_side + 2, (40, dim)) / per_side:
            got = bp.range_search(bs, center, radius)
            want = bp.brute_force_range_search(pts, center, radius)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.distances, want.distances)

    def test_spans_several_chunks(self, rng, monkeypatch):
        monkeypatch.setattr(blockpart, "JOIN_CHUNK", 7)
        pts = bp.PointSet(rng.random((300, 2)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=5)
        queries = rng.random((30, 2))
        found = bp.join_pairs(bs, queries, 0.15)
        assert_rows_match_brute_force(bs, pts.coords, queries, 0.15, found)

    def test_empty_batch(self):
        bs = bp.build(bp.PointSet([[0.5, 0.5]]), bp.Box(0.0, 1.0, 2), q=2)
        pairs = bp.join_pairs(bs, np.empty((0, 2)), 0.3)
        assert len(pairs.rows) == len(pairs.indices) == len(pairs.distances) == 0
        assert pairs.candidates == 0

    @pytest.mark.parametrize(
        "search,query",
        [
            (bp.range_search, [0.5, 0.5, 0.5]),
            (bp.join_pairs, [[0.5, 0.5, 0.5]]),
            (bp.join_pairs, [0.5, 0.5]),
        ],
        ids=["range_search", "join_pairs", "join_pairs-1d"],
    )
    def test_wrong_dimension_raises(self, search, query):
        bs = bp.build(bp.PointSet([[0.5, 0.5]]), bp.Box(0.0, 1.0, 2), q=2)
        with pytest.raises(ValueError):
            search(bs, query, 0.3)

    @pytest.mark.parametrize(
        "search,query",
        [(bp.range_search, [np.nan, 0.5]), (bp.join_pairs, [[0.5, np.nan]])],
        ids=["range_search", "join_pairs"],
    )
    def test_nan_query_raises(self, search, query):
        bs = bp.build(bp.PointSet([[0.5, 0.5]]), bp.Box(0.0, 1.0, 2), q=2)
        with pytest.raises(ValueError, match="NaN"):
            search(bs, query, 0.3)


class TestRadiusCheck:
    """A radius wider than a block would lose the hits outside the 3^M
    neighbourhood, so every search refuses it unless the grid has one block."""

    @pytest.mark.parametrize("search", [bp.join_pairs], ids=["join_pairs"])
    def test_join_refuses_radius_wider_than_block(self, search):
        # 2000 uniform points, q = 8: radius 0.4 reaches three blocks out
        pts = bp.PointSet(np.random.default_rng(8).random((2000, 2)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=8)
        with pytest.raises(ValueError, match="block width"):
            search(bs, [[0.5, 0.5]], 0.4)

    def test_search_refuses_radius_wider_than_block(self):
        pts = bp.PointSet(np.random.default_rng(8).random((2000, 2)))
        bs = bp.build(pts, bp.Box(0.0, 1.0, 2), q=8)
        with pytest.raises(ValueError, match="block width"):
            bp.range_search(bs, (0.5, 0.5), 0.4)

    @pytest.mark.parametrize("radius", [0.4, 1.5, 10.0])
    def test_single_block_takes_any_radius(self, radius):
        pts = np.random.default_rng(8).random((2000, 2))
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, 2), q=1)
        got = bp.range_search(bs, (0.5, 0.5), radius)
        want = bp.brute_force_range_search(pts, (0.5, 0.5), radius)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)

    @given(st.floats(0.01, 100.0), st.integers(1, 12), st.integers(-2, 2), st.sampled_from([2, 3]))
    @example(1.0, 9, 1, 2)  # floor(1/0.11111111111111112) = 9, and 1/9 is one ulp narrower
    @settings(max_examples=80, deadline=None)
    def test_floor_sized_grid_never_refuses(self, edge, k, ulps, dim):
        # a radius within a few ulps of edge/k, where q = floor(edge/radius) rounds
        radius = edge / k
        for _ in range(abs(ulps)):
            radius = np.nextafter(radius, np.inf if ulps > 0 else 0.0)
        q = bp.blocks_per_side(edge, radius)
        pts = np.random.default_rng(k).random((50, dim)) * edge
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, edge, dim), q=q)
        found = bp.join_pairs(bs, pts[:5], radius)
        assert_rows_match_brute_force(bs, pts, pts[:5], radius, found)


class TestJoinPairs:
    """``join_pairs`` finds brute force's hits, in an order that the block
    structure alone fixes, with ``cdist``'s distances bit for bit."""

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 3]),
        st.integers(1, 6),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_hits_under_every_chunk(self, seed, dim, q, size):
        # uniform or clustered sites; the hits of every row, in their order,
        # are the same however the batch is cut into passes
        rng = np.random.default_rng(seed)
        pts = rng.random((rng.integers(1, 150), dim)) * rng.choice([1.0, 0.3])
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, 1.0, dim), q=q)
        radius = rng.uniform(0.0, bs.width)
        queries = np.vstack([rng.uniform(-0.5, 1.5, (size, dim)), pts[: size // 4]])
        joins = []
        for chunk in (1, 3, 2048):
            with mock.patch.object(blockpart, "JOIN_CHUNK", chunk):
                joins.append(bp.join_pairs(bs, queries, radius))
        assert_rows_match_brute_force(bs, pts, queries, radius, joins[0])
        for other in joins[1:]:
            for a, b in zip(joins[0], other):
                assert np.array_equal(a, b)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([2, 3]), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_distances_equal_cdist(self, seed, dim, q):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 1e3])
        pts = rng.random((rng.integers(1, 200), dim)) * scale
        bs = bp.build(bp.PointSet(pts), bp.Box(0.0, scale, dim), q=q)
        queries = rng.uniform(-0.2, 1.2, (30, dim)) * scale
        full = cdist(queries, pts)
        pairs = bp.join_pairs(bs, queries, bs.width)
        assert len(pairs.rows) == np.count_nonzero(full <= bs.width)
        assert np.array_equal(pairs.distances, full[pairs.rows, pairs.indices])



class TestBlocksPerSide:
    def test_cover_mode_floors(self):
        assert bp.blocks_per_side(1.0, 0.3) == 3

    def test_huge_radius(self):
        assert bp.blocks_per_side(1.0, 5.0) == 1

    def test_subnormal_radius_gives_finite_count(self):
        # 1 / 1e-320 overflows to inf; the count is clamped to the largest float
        q = bp.blocks_per_side(1.0, 1e-320)
        assert q == int(np.finfo(float).max)

    def test_cover_width_never_below_radius(self):
        for radius in (0.011, 0.1, 0.249, 0.5, 0.9):
            q = bp.blocks_per_side(1.0, radius)
            assert 1.0 / q >= radius or q == 1
