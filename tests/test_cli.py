import hashlib
import json
from unittest import mock

import numpy as np
import pytest

import blockpum as bp
from blockpum import io, separatrix
from blockpum.cli import generate_nodes, main, shape_vertices

from test_reconstruct import fibonacci_sphere


def run_cli(*argv):
    return main(list(argv))


def row_loop_points_file(pts, comment=None):
    """Oracle: a point file written one row at a time, each value formatted on its own."""
    text = f"# {comment}\n" if comment else ""
    data = pts.coords if pts.values is None else np.column_stack([pts.coords, pts.values])
    for row in data:
        text += " ".join("%.17g" % v for v in row) + "\n"
    return text


class TestShapes:
    def test_pentagon_matches_spec_layout(self):
        verts = shape_vertices("pentagon")
        assert np.allclose(verts[0], [0.5, 1.0])  # first vertex at the top
        assert np.allclose(np.linalg.norm(verts - [0.5, 0.5], axis=1), 0.5)

    def test_triangle(self):
        assert np.array_equal(shape_vertices("triangle"), [[0, 0], [1, 0], [0.5, 1]])

    def test_cylinder_extents(self):
        verts = shape_vertices("cylinder")
        dom = bp.convex_hull(bp.PointSet(verts))
        assert dom.rect.mins[2] == pytest.approx(0.05)
        assert dom.rect.maxs[2] == pytest.approx(0.95)
        # sampled lateral hull keeps nearly the full disc area times height
        assert dom.measure == pytest.approx(np.pi * 0.16 * 0.9, rel=0.02)

    def test_generate_reduces_counts(self):
        nodes = generate_nodes("pentagon", 1000, func="f1")
        assert 500 < len(nodes) < 700  # pentagon area ~0.594 of the unit square
        assert nodes.values is not None

    @pytest.mark.parametrize(
        "skip, n, coords_sha, values_sha",
        [
            (0, 9900, "102204b4494ff9d164c53436e4e7fa7f886392e60cc5b2935e6e6042138fce1d",
             "d5d67475ab8d4b193af6e98d61a4a5fde880c2705168fedc1bea5d3048e12db1"),
            (1, 9900, "d6cc4c15d215177433611e0d83d074c43b88201a8eceb4094d1b26e705c523c1",
             "2d8e87aab8924c54b948293ddfab2b4e7141edcbf6f54525df5a11105b66e3bd"),
            (511, 9901, "20890178807437e78c01ee8cf47e14a2c007406db4bcac0b731a77c0424af241",
             "4315b2c75b1913da2c43b69f3708634fc0e3d3ec1151784dbb5490894935c0da"),
            (1023, 9899, "ac106adaf1330c2473853ad8288e063ca41529e5b24211100fd42ee821bb379f",
             "6625dece648a5861d1290b92c37e13bc677e69a386a72467138e5df9a0534fa7"),
        ],
    )
    def test_benchmark_node_sets_pinned(self, skip, n, coords_sha, values_sha):
        # the interp2d workload's node sets, bit for bit (little-endian float64 bytes)
        nodes = generate_nodes("pentagon", 16641, skip, "f1")
        assert len(nodes) == n
        assert hashlib.sha256(nodes.coords.astype("<f8").tobytes()).hexdigest() == coords_sha
        assert hashlib.sha256(nodes.values.astype("<f8").tobytes()).hexdigest() == values_sha

    @pytest.mark.slow
    def test_every_benchmark_node_set_pinned(self):
        # all 1024 skips the interp2d workload draws from: coordinates then
        # values of each set, in skip order, as little-endian float64 bytes
        digest = hashlib.sha256()
        for skip in range(1024):
            nodes = generate_nodes("pentagon", 16641, skip, "f1")
            digest.update(nodes.coords.astype("<f8").tobytes())
            digest.update(nodes.values.astype("<f8").tobytes())
        assert digest.hexdigest() == "675d01ba6af75b0507b6f2f88a3917592c492e2dc50e16ce26e2c0b5a5c640a6"


class TestPointFiles(object):
    def test_roundtrip_with_values(self, tmp_path, rng):
        pts = bp.PointSet(rng.random((20, 2)), rng.random(20))
        path = tmp_path / "pts.txt"
        io.save_points(path, pts)
        back = io.load_points(path, dim=2)
        assert np.array_equal(back.coords, pts.coords)
        assert np.array_equal(back.values, pts.values)

    def test_comma_and_comment_lines(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# a comment\n0.1, 0.2\n0.3 0.4\n")
        pts = io.load_points(path)
        assert np.allclose(pts.coords, [[0.1, 0.2], [0.3, 0.4]])

    def test_three_columns_need_dim(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0.1 0.2 0.3\n0.4 0.5 0.6\n")
        with pytest.raises(ValueError):
            io.load_points(path)
        assert io.load_points(path, dim=3).values is None
        assert io.load_points(path, dim=2).values is not None

    def test_duplicate_points_rejected(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0.1 0.2\n0.1 0.2\n")
        with pytest.raises(ValueError, match=r"pts.txt: point row 1 duplicates row 0 at \[0.1 0.2\]"):
            io.load_points(path)

    def test_bad_number_reported_with_line(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("0.1 oops\n")
        with pytest.raises(ValueError, match="pts.txt:1"):
            io.load_points(path)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("with_values", [False, True])
    @pytest.mark.parametrize("comment", [None, "x1..xM value"])
    @pytest.mark.parametrize("n", [0, 1, 57, 2 * 4096 + 1])
    def test_saved_bytes_equal_row_loop(self, tmp_path, rng, dim, with_values, comment, n):
        # mixed magnitudes, signs, integers and a negative zero; the last
        # count spans several of save_points' blocks of rows
        data = rng.standard_normal((n, dim + 1)) * 10.0 ** rng.integers(-300, 300, (n, dim + 1))
        data[::3, -1] = np.round(data[::3, -1])
        data.flat[: min(n, 1)] = -0.0
        pts = bp.PointSet(data[:, :dim], data[:, dim] if with_values else None)
        path = tmp_path / "pts.txt"
        io.save_points(path, pts, comment=comment)
        assert path.read_bytes() == row_loop_points_file(pts, comment).encode("utf-8")


class TestGridSpec:
    def test_parse(self):
        assert io.parse_grid_spec("40x40") == (40, 40)
        assert io.parse_grid_spec("20x20x20") == (20, 20, 20)

    def test_bad_specs(self):
        for spec in ("40", "0x40", "axb", "40x40x40x40"):
            with pytest.raises(ValueError):
                io.parse_grid_spec(spec)


class TestInterpolateCommand:
    def test_generated_run_writes_outputs(self, tmp_path):
        out = tmp_path / "vals.txt"
        rep = tmp_path / "report.json"
        code = run_cli(
            "interpolate", "--gen", "halton", "--n", "622", "--shape", "pentagon",
            "--func", "f1", "--eval-grid", "40x40",
            "--out", str(out), "--report", str(rep),
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["raw_n"] == 622
        assert 0 < report["N"] < 622
        # soft anchor band for this rung
        assert 1.40e-5 <= report["rmse"] <= 1.40e-3
        rows = io._load_rows(out)
        assert rows.shape == (report["s"], 3)

    def test_point_file_input(self, tmp_path):
        pts = generate_nodes("triangle", 300, func="f2")
        src = tmp_path / "in.txt"
        io.save_points(src, pts)
        rep = tmp_path / "report.json"
        code = run_cli("interpolate", "--points", str(src), "--dim", "2",
                       "--func", "f2", "--report", str(rep))
        assert code == 0
        assert json.loads(rep.read_text())["N"] == len(pts)

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run_cli("interpolate", "--points", str(tmp_path / "nope.txt"), "--dim", "2")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_tiny_smoke(self, tmp_path):
        rep = tmp_path / "r.json"
        with pytest.warns(Warning):
            code = run_cli("interpolate", "--gen", "halton", "--n", "4", "--shape", "square",
                           "--func", "f1", "--report", str(rep))
        assert code == 0
        assert np.isfinite(json.loads(rep.read_text())["mae"])

    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"vals_{tag}.txt"
            code = run_cli("interpolate", "--gen", "halton", "--n", "300", "--shape",
                           "triangle", "--func", "f2", "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_reports_identical_except_timings(self, tmp_path):
        reps = []
        for tag in ("a", "b"):
            rep = tmp_path / f"rep_{tag}.json"
            run_cli("interpolate", "--gen", "halton", "--n", "300", "--shape", "triangle",
                    "--func", "f2", "--report", str(rep))
            reps.append(json.loads(rep.read_text()))
        for key in reps[0]:
            if not key.startswith("t_"):
                assert reps[0][key] == reps[1][key], key

    def test_nonfinite_epsilon_exit_1(self, capsys):
        code = run_cli("interpolate", "--gen", "halton", "--n", "300", "--shape", "triangle",
                       "--func", "f2", "--epsilon", "nan")
        assert code == 1
        assert "epsilon must be positive and finite, got nan" in capsys.readouterr().err


class TestGenPointsCommand:
    def test_writes_file(self, tmp_path):
        out = tmp_path / "pts.txt"
        code = run_cli("gen-points", "--n", "500", "--shape", "pentagon", "--func", "f1",
                       "--out", str(out))
        assert code == 0
        pts = io.load_points(out, dim=2)
        assert pts.values is not None
        assert len(pts) < 500

    @pytest.mark.parametrize("command", ["gen-points", "interpolate"])
    def test_negative_skip_exit_1(self, tmp_path, command, capsys):
        code = run_cli(command, "--n", "500", "--shape", "pentagon", "--func", "f1",
                       "--skip", "-3", "--out", str(tmp_path / "pts.txt"))
        assert code == 1
        assert "error: skip must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "pts.txt").exists()


class TestBenchmarkCommand:
    def test_single_size(self, tmp_path):
        rep = tmp_path / "bench.json"
        code = run_cli("benchmark", "--sizes", "4000", "--report", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        assert len(report["rows"]) == 1
        assert report["rows"][0]["brute_mismatches"] == 0


class TestReconstructCommand:
    def test_sphere_grid(self, tmp_path):
        dirs = fibonacci_sphere(300)
        cloud_path = tmp_path / "cloud.txt"
        rows = np.hstack([dirs, dirs])
        with open(cloud_path, "w") as fh:
            for row in rows:
                fh.write(" ".join("%.17g" % v for v in row) + "\n")
        out = tmp_path / "grid.txt"
        rep = tmp_path / "rep.json"
        code = run_cli("reconstruct", "--points", str(cloud_path), "--step-size", "0.05",
                       "--epsilon", "1.0", "--d-r", "216", "--grid", "10x10x10",
                       "--out", str(out), "--report", str(rep))
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split()
        assert [int(v) for v in header[:3]] == [10, 10, 10]
        assert len(lines) == 1 + 1000
        report = json.loads(rep.read_text())
        assert report["cloud_n"] == 300
        assert report["N"] == 900


class TestSeparatrixDemoCommand:
    @pytest.mark.slow
    def test_demo_outputs(self, tmp_path):
        pts_out = tmp_path / "sep.txt"
        surf_out = tmp_path / "surf.txt"
        rep = tmp_path / "rep.json"
        code = run_cli("separatrix-demo", "--lattice", "5", "--n-pairs", "40",
                       "--tol", "2e-3", "--eval-grid", "20x20",
                       "--points-out", str(pts_out), "--out", str(surf_out),
                       "--report", str(rep))
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["n_separatrix_points"] >= 4
        sep = io.load_points(pts_out, dim=3)
        assert np.all(sep.coords >= 0)
        surf = io._load_rows(surf_out)
        assert surf.shape[1] == 3

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_bad_tol_exit_1(self, tol, capsys):
        # refused before the lattice is integrated
        with mock.patch.object(separatrix, "_rhs_batch", side_effect=AssertionError("integrated")):
            assert run_cli("separatrix-demo", "--lattice", "3", "--tol", tol) == 1
        assert f"error: tol must be positive and finite, got {float(tol)}" in capsys.readouterr().err
