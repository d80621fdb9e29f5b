import sys
from unittest import mock

import numpy as np
import pytest

import blockpum as bp
from blockpum.io import write_value_grid
from blockpum.reconstruct import (
    OrientedCloud,
    ReconstructionResult,
    augment,
    default_step,
    grid_coords,
    reconstruct,
)

from conftest import fibonacci_sphere


@pytest.fixture(scope="module")
def sphere_model():
    dirs = fibonacci_sphere(400)
    cloud = OrientedCloud(points=dirs, normals=dirs, step=0.05)
    cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=343)
    return cloud, bp.fit_model(augment(cloud), cfg)


class TestAugment:
    def test_single_point_offsets(self):
        cloud = OrientedCloud(points=[[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 1.0]], step=0.01)
        out = augment(cloud)
        assert len(out) == 3
        assert np.allclose(out.coords, [[0, 0, 0], [0, 0, 0.01], [0, 0, -0.01]])
        assert np.array_equal(out.values, [0.0, 1.0, -1.0])

    def test_normals_normalized_before_stepping(self):
        cloud = OrientedCloud(points=[[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 10.0]], step=0.01)
        out = augment(cloud)
        assert np.allclose(out.coords[1], [0, 0, 0.01])

    def test_all_zero_normals(self):
        pts = np.random.default_rng(0).random((5, 3))
        cloud = OrientedCloud(points=pts, normals=np.zeros((5, 3)), step=0.01)
        out = augment(cloud)
        assert len(out) == 5
        assert np.array_equal(out.coords, pts)
        assert np.all(out.values == 0.0)

    def test_size_excludes_zero_normals(self):
        pts = np.random.default_rng(1).random((6, 3))
        normals = pts.copy()
        normals[2] = 0.0
        normals[5] = 0.0
        out = augment(OrientedCloud(points=pts, normals=normals, step=0.02))
        assert len(out) == 6 + 2 * 4

    def test_values_exactly_pm_one(self, sphere_model):
        cloud, _ = sphere_model
        out = augment(cloud)
        assert set(np.unique(out.values)) == {-1.0, 0.0, 1.0}
        # nearly three times the original size when all normals are usable
        assert len(out) == 3 * len(cloud)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            OrientedCloud(points=[[0, 0, 0]], normals=[[0, 0]], step=0.1)
        with pytest.raises(ValueError):
            OrientedCloud(points=[[0, 0, 0]], normals=[[0, 0, 1]], step=0.0)


class TestDefaultStep:
    def test_one_percent_of_box_edge(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5]])
        assert default_step(pts) == pytest.approx(0.02)


class TestSphereField:
    def test_zero_level_at_cloud(self, sphere_model):
        cloud, model = sphere_model
        vals = model.predict(cloud.points, on_uncovered="nearest")
        assert np.abs(vals).max() <= 1e-4

    def test_sign_inside_and_outside(self, sphere_model):
        cloud, model = sphere_model
        dirs = fibonacci_sphere(40)
        inner = model.predict(0.5 * dirs, on_uncovered="nearest")
        outer = model.predict(1.5 * dirs, on_uncovered="nearest")
        assert np.all(inner < -0.2)
        assert np.all(outer > 0.2)

    def test_off_surface_interpolation_property(self, sphere_model):
        cloud, model = sphere_model
        aug = augment(cloud)
        idx = [0, len(cloud), 2 * len(cloud)]  # one on-surface, one +1, one -1 point
        vals = model.predict(aug.coords[idx], on_uncovered="nearest")
        assert np.abs(vals - aug.values[idx]).max() <= 1e-6

    def test_embedded_axis_probe(self):
        # a data point at the origin with vertical normal, surrounded by a
        # sphere so the hull is solid: the +1 off-surface condition at
        # (0, 0, 0.01) is reproduced by the interpolant
        dirs = fibonacci_sphere(200)
        pts = np.vstack([dirs, [[0.0, 0.0, 0.0]]])
        normals = np.vstack([dirs, [[0.0, 0.0, 1.0]]])
        cloud = OrientedCloud(points=pts, normals=normals, step=0.01)
        cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=125)
        model = bp.fit_model(augment(cloud), cfg)
        val = model.predict([[0.0, 0.0, 0.01]], on_uncovered="nearest")[0]
        assert val == pytest.approx(1.0, abs=1e-6)


class TestReconstructGrid:
    def test_grid_order_x_fastest(self):
        rect = bp.Rect(np.zeros(3), np.ones(3))
        coords = grid_coords(rect, (3, 2, 2))
        assert np.allclose(coords[0], [0, 0, 0])
        assert np.allclose(coords[1], [0.5, 0, 0])  # x moves first
        assert np.allclose(coords[3], [0, 1, 0])  # then y
        assert np.allclose(coords[6], [0, 0, 1])  # then z

    def test_full_reconstruction_emits_grid(self, sphere_model):
        cloud, _ = sphere_model
        cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=343)
        result = reconstruct(cloud, cfg, grid_shape=(12, 12, 12))
        assert result.values.shape == (12**3,)
        assert np.all(np.isfinite(result.values))
        assert result.report.s == 12**3
        # center of the grid is deep inside the sphere: negative field
        mid = (12**3 - 1) // 2
        center_val = result.values[mid]
        assert np.isfinite(center_val)

    @pytest.mark.parametrize(
        "shape",
        [(0, 4, 4), (-2, 4, 4), (4, 4), (4, 4, 4, 4), (4.0, 4, 4), (4, True, 4), (4, 4, np.float64(4))],
        ids=["zero", "negative", "2d", "4d", "float", "bool", "numpy-float"],
    )
    def test_bad_grid_shape_raises_before_fitting(self, sphere_model, monkeypatch, shape):
        cloud, _ = sphere_model
        reconstruct_module = sys.modules["blockpum.reconstruct"]
        monkeypatch.setattr(reconstruct_module, "augment", mock.Mock(side_effect=AssertionError("augmented")))
        cfg = bp.PumConfig(kernel=bp.make_kernel("wu-c4", 1.0), d_r=343)
        with pytest.raises(ValueError, match="grid_shape must be three integers >= 1"):
            reconstruct(cloud, cfg, grid_shape=shape)


def write_value_grid_per_value(path, result):
    """The grid writer with one write per value, the oracle of the one-write writer."""
    nx, ny, nz = result.grid_shape
    header = [nx, ny, nz]
    for m in range(3):
        header += [result.rect.mins[m], result.rect.maxs[m]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join("%.17g" % v if isinstance(v, float) else str(v) for v in header))
        fh.write("\n")
        for v in result.values:
            fh.write("%.17g" % v + "\n")


class TestValueGridFile:
    @pytest.mark.parametrize("shape", [(3, 2, 2), (1, 1, 1), (20, 20, 20)])
    def test_bytes_equal_per_value_writer(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, 1 / 3, np.pi * 1e-12]
        values = rng.standard_normal(int(np.prod(shape))) * 10.0 ** rng.integers(-20, 20, int(np.prod(shape)))
        values[: len(special)] = special[: len(values)]
        rect = bp.Rect(np.array([-0.1, 0.0, 1 / 3]), np.array([1.0, 2.5e-7, 1e300]))
        result = ReconstructionResult(grid_shape=shape, rect=rect, values=values, report=None, model=None)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_value_grid(got, result)
        write_value_grid_per_value(want, result)
        assert got.read_bytes() == want.read_bytes()
        assert np.array_equal(np.loadtxt(got, skiprows=1, ndmin=1), values)
