from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpum import separatrix
from blockpum.errors import SameBasin
from blockpum.separatrix import (
    DEFAULT_STEP,
    UNRESOLVED,
    Y_ONLY,
    Z_ONLY,
    CompetitionParams,
    _classify_batch,
    _rhs_batch,
    _straddling_pairs,
    bisect_separatrix,
    classify,
    rhs,
    sample_separatrix,
)

PARAMS = CompetitionParams()
# long enough to resolve most of the cube, short enough for the scalar oracles
SHORT_T_MAX = 30.0
BAD_POSITIVE = [0.0, -1.0, np.nan, np.inf]


def oracle_classify_batch(states, params, tol, t_max):
    """The integrator as first written: every row stays in one array, and a
    mask picks the rows still integrated at each step."""
    step = DEFAULT_STEP
    y = np.atleast_2d(np.asarray(states, dtype=float)).copy()
    labels = np.array([UNRESOLVED] * len(y), dtype=object)
    active = np.ones(len(y), dtype=bool)
    targets = (params.y_equilibrium, params.z_equilibrium)
    names = (Y_ONLY, Z_ONLY)
    n_steps = int(round(t_max / step))
    for i in range(n_steps):
        if not active.any():
            break
        ya = y[active]
        k1 = _rhs_batch(ya, params)
        k2 = _rhs_batch(ya + 0.5 * step * k1, params)
        k3 = _rhs_batch(ya + 0.5 * step * k2, params)
        k4 = _rhs_batch(ya + step * k3, params)
        y[active] = ya + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i % separatrix._CHECK_EVERY == 0 or i == n_steps - 1:
            rows = np.flatnonzero(active)
            cur = y[rows]
            for target, name in zip(targets, names):
                hit = np.linalg.norm(cur - target, axis=1) <= tol
                labels[rows[hit]] = name
                active[rows[hit]] = False
                rows = rows[~hit]
                cur = cur[~hit]
    return labels


def oracle_bisect(p_a, p_b, params, tol, t_max):
    """One segment, one midpoint classified at a time."""
    a = np.asarray(p_a, dtype=float).copy()
    b = np.asarray(p_b, dtype=float).copy()
    label_a, label_b = oracle_classify_batch([a, b], params, tol, t_max)
    assert UNRESOLVED not in (label_a, label_b) and label_a != label_b
    while np.linalg.norm(b - a) > tol:
        mid = 0.5 * (a + b)
        label_mid = str(oracle_classify_batch([mid], params, tol, t_max)[0])
        if label_mid == UNRESOLVED:
            return mid
        if label_mid == label_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def oracle_pairs(labels, side):
    """Straddling lattice pairs, cell by cell, then axis by axis."""

    def flat(i, j, k):
        return (i * side + j) * side + k

    pairs = []
    for i in range(side):
        for j in range(side):
            for k in range(side):
                here = flat(i, j, k)
                for ii, jj, kk in ((i + 1, j, k), (i, j + 1, k), (i, j, k + 1)):
                    if max(ii, jj, kk) >= side:
                        continue
                    there = flat(ii, jj, kk)
                    la, lb = labels[here], labels[there]
                    if UNRESOLVED in (la, lb) or la == lb:
                        continue
                    pairs.append((here, there))
    return pairs


def lattice(side):
    axis = np.linspace(0.0, PARAMS.cube_edge, side)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def no_integration():
    return mock.patch.object(separatrix, "_rhs_batch", side_effect=AssertionError("integrated"))


class TestRhs:
    def test_equilibria_are_fixed_points(self):
        assert np.abs(rhs(PARAMS.y_equilibrium, PARAMS)).max() <= 1e-14
        assert np.abs(rhs(PARAMS.z_equilibrium, PARAMS)).max() <= 1e-14

    def test_all_ones(self):
        # exact arithmetic: dx = 1*0*1 - 1 - 2, dy = 0.5*0.5*1 - 0.3 - 1,
        # dz = 2*0*1 - 3 - 2
        assert np.allclose(rhs((1.0, 1.0, 1.0), PARAMS), [-3.0, -1.05, -5.0], atol=1e-15)

    def test_origin_is_fixed(self):
        assert np.array_equal(rhs((0.0, 0.0, 0.0), PARAMS), [0.0, 0.0, 0.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CompetitionParams(growth=(-1.0, 0.5, 2.0))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("capacity", (1.0, 0.0, 1.0), "positive"),
            ("capacity", (0.0, 2.0, 1.0), "positive"),
            ("growth", (np.nan, 0.5, 2.0), "finite"),
            ("capacity", (1.0, np.inf, 1.0), "finite"),
            ("competition", (1.0, 2.0, 0.3, np.nan, 3.0, 2.0), "finite"),
            ("competition", (1.0, 2.0, 0.3, 1.0, -np.inf, 2.0), "finite"),
            ("cube_edge", np.nan, "finite"),
            ("cube_edge", np.inf, "finite"),
            ("cube_edge", 0.0, "positive"),
            ("growth", (1.0, 0.5), "3 rates"),
            ("competition", (1.0, 2.0, 0.3, 1.0, 3.0), "competition 6"),
        ],
    )
    def test_bad_params_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            CompetitionParams(**{field: value})


class TestClassify:
    def test_y_axis_flows_to_y_equilibrium(self):
        assert classify((0.0, 0.1, 0.0), PARAMS) == Y_ONLY

    def test_z_axis_flows_to_z_equilibrium(self):
        assert classify((0.0, 0.0, 0.1), PARAMS) == Z_ONLY

    def test_perturbed_equilibria_return_home(self):
        for delta in (-0.1, 0.1):
            assert classify((0.0, PARAMS.capacity[1] + delta, 0.0), PARAMS) == Y_ONLY
            assert classify((0.0, 0.0, PARAMS.capacity[2] + delta), PARAMS) == Z_ONLY

    def test_origin_unresolved(self):
        assert classify((0.0, 0.0, 0.0), PARAMS, t_max=5.0) == UNRESOLVED

    def test_deterministic(self):
        a = classify((0.5, 0.5, 0.5), PARAMS)
        b = classify((0.5, 0.5, 0.5), PARAMS)
        assert a == b and a in (Y_ONLY, Z_ONLY)

    @pytest.mark.parametrize(
        "initial, match",
        [
            ((0.1, 0.2), "shape"),
            ((0.1, 0.2, 0.3, 0.4), "shape"),
            ((np.nan, 0.1, 0.1), "finite"),
            ((0.1, np.inf, 0.1), "finite"),
        ],
    )
    def test_bad_initial_rejected(self, initial, match):
        with no_integration(), pytest.raises(ValueError, match=match):
            classify(initial, PARAMS)

    @pytest.mark.parametrize("name", ["tol", "t_max"])
    @pytest.mark.parametrize("value", BAD_POSITIVE)
    def test_bad_tol_or_t_max_rejected(self, name, value):
        with no_integration(), pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            classify((0.5, 0.5, 0.5), PARAMS, **{name: value})

    def test_lattice_matches_mask_integrator(self):
        # rows leave the batch as they resolve; the labels stay those of the
        # integrator that keeps every row and masks the resolved ones
        states = lattice(5)
        got = _classify_batch(states, PARAMS, 2e-3, SHORT_T_MAX)
        want = oracle_classify_batch(states, PARAMS, 2e-3, SHORT_T_MAX)
        assert np.array_equal(got, want)
        assert {Y_ONLY, Z_ONLY, UNRESOLVED} <= set(got)


class TestBisect:
    def test_axis_pair_converges(self):
        pt = bisect_separatrix((0, 0.1, 0), (0, 0, 0.1), PARAMS, tol=1e-3)
        seg = np.array([0, -0.1, 0.1])
        u = seg / np.linalg.norm(seg)
        labels = {classify(pt - 1e-3 * u, PARAMS), classify(pt + 1e-3 * u, PARAMS)}
        # a basin flip happens within tol of the returned point
        assert labels == {Y_ONLY, Z_ONLY} or UNRESOLVED in labels

    def test_immediate_tol_returns_midpoint(self):
        a, b = np.array([0, 0.1, 0.0]), np.array([0, 0, 0.1])
        pt = bisect_separatrix(a, b, PARAMS, tol=float(np.linalg.norm(b - a)))
        assert np.allclose(pt, 0.5 * (a + b))

    def test_same_basin_rejected(self):
        with pytest.raises(SameBasin):
            bisect_separatrix((0, 0.1, 0), (0, 0.2, 0), PARAMS)

    def test_unresolved_endpoint_rejected(self):
        with pytest.raises(SameBasin):
            bisect_separatrix((0.0, 0.0, 0.0), (0, 0.1, 0), PARAMS, t_max=5.0)

    @pytest.mark.parametrize(
        "p_a, p_b, kwargs",
        [
            ((0, 0.1), (0, 0, 0.1), {}),
            ((0, 0.1, 0), (0, 0, 0.1, 0), {}),
            ((0, np.nan, 0), (0, 0, 0.1), {}),
            ((0, 0.1, 0), (0, 0, 0.1), {"tol": 0.0}),
            ((0, 0.1, 0), (0, 0, 0.1), {"t_max": np.nan}),
        ],
    )
    def test_bad_input_rejected(self, p_a, p_b, kwargs):
        with no_integration(), pytest.raises(ValueError):
            bisect_separatrix(p_a, p_b, PARAMS, **kwargs)

    @pytest.mark.parametrize(
        "p_a, p_b, tol",
        [
            ((0, 0.1, 0), (0, 0, 0.1), 1e-2),  # five rounds
            ((0, 0.1, 0), (0, 0, 0.1), None),  # none: tol is the segment's length
            ((2 / 3, 0, 2 / 3), (2 / 3, 2 / 3, 2 / 3), 5e-3),  # the first midpoint is unresolved
        ],
    )
    def test_matches_scalar_bisection(self, p_a, p_b, tol):
        if tol is None:
            tol = float(np.linalg.norm(np.subtract(p_b, p_a, dtype=float)))
        got = bisect_separatrix(p_a, p_b, PARAMS, tol=tol, t_max=SHORT_T_MAX)
        assert np.array_equal(got, oracle_bisect(p_a, p_b, PARAMS, tol, SHORT_T_MAX))


class TestSampleSeparatrix:
    @pytest.mark.slow
    def test_small_lattice(self):
        pts = sample_separatrix(PARAMS, n_pairs=25, tol=2e-3, lattice_side=5)
        assert 1 <= len(pts) <= 25
        assert np.all(pts.coords >= 0) and np.all(pts.coords <= PARAMS.cube_edge)

    @pytest.mark.slow
    def test_points_near_boundary(self):
        pts = sample_separatrix(PARAMS, n_pairs=6, tol=2e-3, lattice_side=4)
        rng = np.random.default_rng(7)
        for p in pts.coords[:3]:
            shifts = rng.normal(0, 5e-3, (6, 3))
            labels = {classify(np.clip(p + s, 0, None), PARAMS) for s in shifts}
            # within a few tolerances of the surface both basins are reachable
            assert len(labels - {UNRESOLVED}) >= 1

    def test_n_pairs_validated(self):
        with pytest.raises(ValueError):
            sample_separatrix(PARAMS, n_pairs=0)

    @pytest.mark.parametrize("name", ["tol", "t_max"])
    @pytest.mark.parametrize("value", BAD_POSITIVE)
    def test_bad_tol_or_t_max_rejected(self, name, value):
        with no_integration(), pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            sample_separatrix(PARAMS, lattice_side=3, **{name: value})

    @pytest.mark.slow
    def test_matches_scalar_oracles(self):
        # lattice labels, pair order and each pair's bisection, all as first written
        side, n_pairs, tol = 4, 3, 5e-3
        pts = sample_separatrix(PARAMS, n_pairs=n_pairs, tol=tol, lattice_side=side, t_max=SHORT_T_MAX)
        states = lattice(side)
        pairs = oracle_pairs(oracle_classify_batch(states, PARAMS, tol, SHORT_T_MAX), side)[:n_pairs]
        want = [oracle_bisect(states[i], states[j], PARAMS, tol, SHORT_T_MAX) for i, j in pairs]
        assert len(pairs) == n_pairs and np.array_equal(pts.coords, want)

    @given(
        st.integers(1, 6).flatmap(
            lambda side: st.tuples(
                st.just(side),
                st.lists(st.sampled_from([Y_ONLY, Z_ONLY, UNRESOLVED]), min_size=side**3, max_size=side**3),
            )
        ),
        st.integers(1, 700),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_scan_matches_cell_loop(self, grid, n_pairs):
        side, labels = grid
        labels = np.array(labels, dtype=object)
        lower, upper = _straddling_pairs(labels, side)
        want = oracle_pairs(labels, side)[:n_pairs]
        assert list(zip(lower[:n_pairs].tolist(), upper[:n_pairs].tolist())) == want
