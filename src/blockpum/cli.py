"""Command-line front end.

Commands: interpolate, reconstruct, benchmark, separatrix-demo, gen-points.
Identical invocations write byte-identical point/value/grid files; report
files additionally carry wall-clock timings.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .benchmark import run_search_benchmark
from .errors import BlockPumError
from .geometry import PointSet, convex_hull, halton, reduce_to_domain
from .kernels import make_kernel
from .pum import PumConfig, pum_interpolate
from .reconstruct import reconstruct
from .separatrix import CompetitionParams, sample_separatrix
from .validation import TEST_FUNCTIONS, eval_test_function

SHAPES = {
    "pentagon": 2,
    "triangle": 2,
    "square": 2,
    "cylinder": 3,
    "pyramid": 3,
    "cube": 3,
}


def shape_vertices(name: str) -> np.ndarray | None:
    """Canonical sample-domain vertices; None means the full unit square/cube."""
    if name == "pentagon":
        angles = np.deg2rad(90 + 72 * np.arange(5))
        return 0.5 + 0.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    if name == "triangle":
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    if name == "cylinder":
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ring = np.column_stack([0.5 + 0.4 * np.cos(theta), 0.5 + 0.4 * np.sin(theta)])
        levels = np.linspace(0.05, 0.95, 16)
        return np.vstack([np.column_stack([ring, np.full(len(ring), z)]) for z in levels])
    if name == "pyramid":
        base = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.9, 0.9]])
        verts = np.column_stack([base, np.full(4, 0.1)])
        return np.vstack([verts, [[0.5, 0.5, 0.9]]])
    if name in ("square", "cube"):
        return None
    raise ValueError(f"unknown shape {name!r}; have {sorted(SHAPES)}")


def generate_nodes(shape: str, n_raw: int, skip: int = 0, func: str | None = None) -> PointSet:
    """Halton points on the unit square/cube reduced to the shape's hull."""
    dim = SHAPES[shape]
    pts = halton(n_raw, dim, skip)
    verts = shape_vertices(shape)
    if verts is not None:
        pts = reduce_to_domain(pts, convex_hull(PointSet(verts)))
    if func is not None:
        pts = pts.with_values(eval_test_function(func, pts.coords))
    return pts


def _eval_grid_count(args, dim: int) -> int | None:
    """s_r from --eval-grid; None leaves the config's default, ``pum.DEFAULT_EVAL_GRID``."""
    if args.eval_grid is None:
        return None
    counts = io.parse_grid_spec(args.eval_grid)
    if len(counts) != dim:
        raise ValueError(f"--eval-grid {args.eval_grid!r} does not match dimension {dim}")
    if len(set(counts)) != 1:
        raise ValueError("--eval-grid must use the same count on every axis")
    return int(np.prod(counts))


def _load_or_generate(args) -> tuple:
    """Resolve the node set for interpolate; returns (nodes, raw_n, truth)."""
    truth = (lambda p: eval_test_function(args.func, p)) if args.func else None
    if args.points is not None:
        pts = io.load_points(args.points, dim=args.dim)
        if pts.values is None:
            if args.func is None:
                raise ValueError("point file has no values; pass --func to synthesize them")
            pts = pts.with_values(eval_test_function(args.func, pts.coords))
        return pts, len(pts), truth
    if args.gen != "halton":
        raise ValueError(f"unknown generator {args.gen!r}")
    if args.func is None:
        raise ValueError("--gen needs --func to produce data values")
    nodes = generate_nodes(args.shape, args.n, args.skip, args.func)
    return nodes, args.n, truth


def cmd_interpolate(args) -> int:
    nodes, raw_n, truth = _load_or_generate(args)
    cfg = PumConfig(
        kernel=make_kernel(args.kernel, args.epsilon),
        d_r=args.d_r,
        s_r=_eval_grid_count(args, nodes.dim),
    )
    result = pum_interpolate(nodes, cfg, truth=truth)
    report = result.report.as_dict()
    report["raw_n"] = raw_n
    if args.out:
        io.save_points(args.out, PointSet(result.eval_points, result.values), comment="x1..xM value")
    if args.report:
        io.write_report(args.report, report)
    rmse = report["rmse"]
    print(
        f"interpolate: N={report['N']} d={report['d']} s={report['s']} "
        f"q={report['q']} delta={report['delta']:.4g} "
        + (f"mae={report['mae']:.3e} rmse={rmse:.3e}" if rmse is not None else "no truth")
    )
    return 0


def cmd_gen_points(args) -> int:
    pts = generate_nodes(args.shape, args.n, args.skip, args.func)
    io.save_points(
        args.out,
        pts,
        comment=f"halton raw_n={args.n} shape={args.shape} reduced_n={len(pts)}"
        + (f" func={args.func}" if args.func else ""),
    )
    print(f"gen-points: wrote {len(pts)} points to {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    if not sizes:
        raise ValueError("--sizes must list at least one N")
    result = run_search_benchmark(sizes, dim=args.dim)
    if args.report:
        io.write_report(args.report, result)
    print(f"{'N':>9} {'q':>5} {'build_s':>9} {'per_query_us':>13} {'cand_mean':>10} {'brute_us':>9}")
    for row in result["rows"]:
        print(
            f"{row['n']:>9} {row['q']:>5} {row['t_build_s']:>9.4f} "
            f"{1e6 * row['t_search_per_query_s']:>13.1f} {row['cand_mean']:>10.1f} "
            f"{1e6 * row['t_brute_per_query_s']:>9.1f}"
        )
        if row["brute_mismatches"]:
            print(f"  WARNING: {row['brute_mismatches']} brute-force mismatches", file=sys.stderr)
            return 1
    return 0


def cmd_reconstruct(args) -> int:
    cloud = io.load_oriented_cloud(args.points, step=args.step_size)
    cfg = PumConfig(kernel=make_kernel(args.kernel, args.epsilon), d_r=args.d_r)
    shape = io.parse_grid_spec(args.grid)
    if len(shape) != 3:
        raise ValueError("--grid must be 3D, e.g. 50x50x50")
    result = reconstruct(cloud, cfg, grid_shape=shape)
    if args.out:
        io.write_value_grid(args.out, result)
    if args.report:
        report = result.report.as_dict()
        report["cloud_n"] = len(cloud)
        report["step"] = cloud.step
        io.write_report(args.report, report)
    print(
        f"reconstruct: cloud={len(cloud)} augmented={result.report.n} "
        f"grid={'x'.join(map(str, result.grid_shape))} d={result.report.d}"
    )
    return 0


def cmd_separatrix_demo(args) -> int:
    params = CompetitionParams()
    pts = sample_separatrix(
        params,
        n_pairs=args.n_pairs,
        tol=args.tol,
        lattice_side=args.lattice,
    )
    if len(pts) < 4:
        raise ValueError(f"only {len(pts)} separatrix points found; refine the lattice")
    if args.points_out:
        io.save_points(args.points_out, pts, comment="separatrix points x y z")
    # interpolate the surface height z over the (x, y) projection
    projected, z_vals = _dedupe_projection(pts.coords)
    nodes = PointSet(projected, z_vals)
    cfg = PumConfig(kernel=make_kernel("wendland-c2", args.epsilon), s_r=_eval_grid_count(args, 2))
    result = pum_interpolate(nodes, cfg)
    report = result.report.as_dict()
    report["n_separatrix_points"] = len(pts)
    report["surface_min"] = float(result.values.min())
    report["surface_max"] = float(result.values.max())
    if args.report:
        io.write_report(args.report, report)
    if args.out:
        io.save_points(args.out, PointSet(result.eval_points, result.values), comment="x y z_interp")
    print(
        f"separatrix-demo: {len(pts)} surface points, interpolated on {report['s']} "
        f"eval points, z range [{report['surface_min']:.4f}, {report['surface_max']:.4f}]"
    )
    return 0


def _dedupe_projection(coords: np.ndarray):
    """Drop later rows whose (x, y) projection repeats, keeping input order."""
    projected = coords[:, :2]
    _, first = np.unique(projected, axis=0, return_index=True)
    keep = np.sort(first)
    return projected[keep], coords[keep, 2]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockpum",
        description="Partition-of-unity RBF interpolation with block-based neighbor search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--report", default=None, help="write a JSON report here")

    p = sub.add_parser("interpolate", help="scattered-data interpolation run")
    p.add_argument("--points", default=None, help="input point file (x1..xM [f])")
    p.add_argument("--dim", type=int, choices=(2, 3), default=None, help="disambiguate 3-column files")
    p.add_argument("--gen", default="halton", help="generator used when --points is absent")
    p.add_argument("--n", type=int, default=2499, help="raw generated count before shape reduction")
    p.add_argument("--shape", choices=sorted(SHAPES), default="pentagon")
    p.add_argument("--skip", type=int, default=0, help="generator skip offset")
    p.add_argument("--func", choices=sorted(TEST_FUNCTIONS), default=None)
    p.add_argument("--kernel", choices=("wendland-c2", "wu-c4"), default="wendland-c2")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--eval-grid", default=None, help="e.g. 40x40 or 20x20x20")
    p.add_argument("--d-r", type=int, default=None, help="override the subdomain grid count")
    p.add_argument("--out", default=None, help="write eval points + predictions here")
    add_common(p)
    p.set_defaults(func_cmd=cmd_interpolate)

    p = sub.add_parser("gen-points", help="write generated points to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shape", choices=sorted(SHAPES), default="pentagon")
    p.add_argument("--skip", type=int, default=0)
    p.add_argument("--func", choices=sorted(TEST_FUNCTIONS), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func_cmd=cmd_gen_points)

    p = sub.add_parser("benchmark", help="structure-build and range-search scaling")
    p.add_argument("--sizes", required=True, help="comma-separated N ladder")
    p.add_argument("--dim", type=int, choices=(2, 3), default=2)
    add_common(p)
    p.set_defaults(func_cmd=cmd_benchmark)

    p = sub.add_parser("reconstruct", help="implicit surface from an oriented cloud")
    p.add_argument("--points", required=True, help="x y z nx ny nz rows")
    p.add_argument("--step-size", type=float, default=None, help="off-surface step (default 1%% box edge)")
    p.add_argument("--kernel", choices=("wendland-c2", "wu-c4"), default="wu-c4")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--grid", default="50x50x50")
    p.add_argument("--d-r", type=int, default=None)
    p.add_argument("--out", default=None, help="write the value grid here")
    add_common(p)
    p.set_defaults(func_cmd=cmd_reconstruct)

    p = sub.add_parser("separatrix-demo", help="sample a basin boundary and interpolate it")
    p.add_argument("--lattice", type=int, default=10, help="initial-condition lattice per side")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--n-pairs", type=int, default=600)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--eval-grid", default="40x40")
    p.add_argument("--points-out", default=None, help="write sampled separatrix points here")
    p.add_argument("--out", default=None, help="write interpolated surface values here")
    add_common(p)
    p.set_defaults(func_cmd=cmd_separatrix_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func_cmd(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlockPumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
