"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one and its check have finished. ``operate(state, k)``
and ``check(state, k, outcome)`` get the operation's index ``k``, which
picks the batch, cloud or node sample it uses; ``check`` returns the
problems it found and the operation's rmse. Library functions are called
through their module attributes (``pum.pum_interpolate``, not a name
imported from it) so the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from blockpum import cli, pum
from blockpum import io as bp_io
from blockpum.geometry import PointSet, membership_mask
from blockpum.kernels import make_kernel
from blockpum.validation import eval_test_function

# the package re-exports the function reconstruct() under the submodule's name
reconstruct = importlib.import_module("blockpum.reconstruct")

# Interpolation property: |predict - value| at data sites.
NODE_TOL = 1e-6


@dataclass
class Outcome:
    """What one operation produced, for its check and the traced metrics."""

    points: int  # points the operation evaluated
    model: object  # the PumModel the operation fitted or queried
    fitted: bool  # whether the operation fitted that model itself
    values: np.ndarray
    report: object = None  # RunReport, when the operation makes one
    extra: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _f1(p):
    return eval_test_function("f1", p)


def rmse(errors) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def _band_problems(what, value, band) -> list:
    lo, hi = band
    return [] if lo <= value <= hi else [f"{what} {value:.3e} outside [{lo:g}, {hi:g}]"]


def _node_problems(model, nodes, seed, k, size) -> list:
    """Interpolation-property check at ``size`` data sites drawn for operation ``k``."""
    sample = np.random.default_rng([seed, 1, k]).choice(len(nodes), size, replace=False)
    got = model.predict(nodes.coords[sample])
    worst = float(np.abs(got - nodes.values[sample]).max())
    return [] if worst <= NODE_TOL else [f"interpolation property violated: {worst:.3e} > {NODE_TOL}"]


def _pentagon_nodes(rng) -> PointSet:
    """Pentagon Halton set, raw n = 16641, with f1 values, at a Halton skip drawn below 1024.

    Nearby skips give sets that share most points. rmse on a fixed grid
    is set by its worst point, so it still steps by up to 25% between
    skips; skips spread over 10^6 move it by 15% on average.
    """
    return cli.generate_nodes("pentagon", 16641, int(rng.integers(0, 1024)), "f1")


def _pentagon_config() -> pum.PumConfig:
    return pum.PumConfig(kernel=make_kernel("wendland-c2", 0.5), s_r=1600, threads=1)


class Workload:
    """Defaults for workloads without per-op layer counts or files to remove."""

    # untimed operations before the timed ones: the first call pays for
    # BLAS thread start-up and lazy imports, which a serving process pays once
    WARMUP = 1

    def layer_counts(self, state, out: Outcome) -> dict:
        return {}

    def close(self) -> None:
        pass


class Interp2d(Workload):
    """One single-threaded pum_interpolate run on about 9900 pentagon nodes."""

    NODE_SETS = 8  # skips cycled over the operations of a run, so no single skip sets rmse
    # rmse on the 40x40 eval grid: 1.13e-5 at skip 0, 0.97e-5 .. 1.26e-5 over skips below 1024
    RMSE_BAND = (5e-6, 2.5e-5)
    NODE_SAMPLE = 16

    def setup(self, seed: int) -> dict:
        rng = _rng(seed, 0)
        return {"sets": [_pentagon_nodes(rng) for _ in range(self.NODE_SETS)], "cfg": _pentagon_config(), "seed": seed}

    def operate(self, state, k) -> Outcome:
        nodes = state["sets"][k % self.NODE_SETS]
        result = pum.pum_interpolate(nodes, state["cfg"], truth=_f1)
        return Outcome(
            points=len(result.eval_points),
            model=result.model,
            fitted=True,
            values=result.values,
            report=result.report,
            extra={"eval_points": result.eval_points},
        )

    def check(self, state, k, out: Outcome):
        errors = out.values - _f1(out.extra["eval_points"])
        op_rmse = rmse(errors)
        problems = _band_problems("rmse", op_rmse, self.RMSE_BAND)
        problems += _node_problems(out.model, out.model.nodes, state["seed"], k, self.NODE_SAMPLE)
        return problems, op_rmse


class Query(Workload):
    """Batches of 64 uniform points in the hull against a model fitted in set-up."""

    BATCH = 64
    BATCHES = 256
    NODE_SAMPLE = 8
    # the node check costs a whole predict call; on every operation it
    # would leave operations only half of the run to sample
    NODE_CHECK_EVERY = 8
    # per-batch rmse against f1 spans 3e-6 .. 3.2e-5 over 750 batches and five seeds
    RMSE_BAND = (1e-6, 1e-4)
    # largest |predict - f1| is 2.3e-4 over 42000 points in the hull
    MAX_ERROR = 1e-3

    def setup(self, seed: int) -> dict:
        model = pum.fit_model(_pentagon_nodes(_rng(seed, 0)), _pentagon_config())
        rng = _rng(seed, 2)
        dom = model.domain
        need = self.BATCH * self.BATCHES
        pool = np.empty((0, 2))
        while len(pool) < need:
            cand = rng.uniform(dom.rect.mins, dom.rect.maxs, size=(need, 2))
            pool = np.vstack([pool, cand[membership_mask(dom, cand)]])
        return {"model": model, "batches": pool[:need].reshape(self.BATCHES, self.BATCH, 2), "seed": seed}

    def operate(self, state, k) -> Outcome:
        batch = state["batches"][k % self.BATCHES]
        values = state["model"].predict(batch)
        return Outcome(points=len(batch), model=state["model"], fitted=False, values=values, extra={"batch": batch})

    def check(self, state, k, out: Outcome):
        errors = out.values - _f1(out.extra["batch"])
        op_rmse = rmse(errors)
        problems = _band_problems("batch rmse", op_rmse, self.RMSE_BAND)
        worst = float(np.abs(errors).max())
        if worst > self.MAX_ERROR:
            problems.append(f"batch error {worst:.3e} > {self.MAX_ERROR}")
        if k % self.NODE_CHECK_EVERY == 0:
            problems += _node_problems(out.model, out.model.nodes, state["seed"], k, self.NODE_SAMPLE)
        return problems, op_rmse


class Reconstruct(Workload):
    """Implicit surface of a seeded 2000-point sphere cloud, grid written to a file."""

    CLOUD = 2000
    CLOUDS = 16  # orientations cycled over the operations of a run
    HELD_OUT = 500
    CENTER = np.array([0.5, 0.5, 0.5])
    RADIUS = 0.4
    GRID = (32, 32, 32)
    # held-out rmse on the true sphere: 2.7e-5 .. 3.3e-5 over sixteen orientations
    RMSE_BAND = (1e-5, 1e-4)

    def __init__(self, out_dir):
        self.path = os.path.join(out_dir, f"grid-{os.getpid()}.txt")

    @staticmethod
    def _fibonacci(n, rng):
        """Unit directions of an n-point Fibonacci lattice in a seeded orientation.

        iid points leave gaps whose size, and so the held-out rmse, varies
        by 3x between seeds; the lattice covers the sphere evenly. The
        orientation still moves rmse by about 10%, hence several per run.
        """
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        theta = np.pi * (3.0 - np.sqrt(5.0)) * i
        r = np.sqrt(1.0 - z * z)
        dirs = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        return Rotation.random(random_state=rng).apply(dirs)

    def setup(self, seed: int) -> dict:
        rng = _rng(seed, 3)
        clouds = []
        for _ in range(self.CLOUDS):
            dirs = self._fibonacci(self.CLOUD, rng)
            points = self.CENTER + self.RADIUS * dirs
            clouds.append(
                reconstruct.OrientedCloud(points=points, normals=dirs, step=reconstruct.default_step(points))
            )
        held_out = self.CENTER + self.RADIUS * self._fibonacci(self.HELD_OUT, _rng(seed, 4))
        cfg = pum.PumConfig(kernel=make_kernel("wu-c4", 0.1), threads=2)
        return {"clouds": clouds, "cfg": cfg, "held_out": held_out}

    def operate(self, state, k) -> Outcome:
        cloud = state["clouds"][k % self.CLOUDS]
        result = reconstruct.reconstruct(cloud, state["cfg"], grid_shape=self.GRID)
        bp_io.write_value_grid(self.path, result)
        return Outcome(
            points=len(result.values),
            model=result.model,
            fitted=True,
            values=result.values,
            report=result.report,
            extra={"result": result},
        )

    def check(self, state, k, out: Outcome):
        result = out.extra["result"]
        problems = []
        coords = reconstruct.grid_coords(result.rect, result.grid_shape)
        inner = out.values[np.argmin(np.linalg.norm(coords - self.CENTER, axis=1))]
        if not inner < 0:
            problems.append(f"field {inner:.3g} at the sphere centre is not negative")
        if not out.values[0] > 0:
            problems.append(f"field {out.values[0]:.3g} at the box corner is not positive")
        with open(self.path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != 1 + len(out.values):
            problems.append(f"grid file has {lines} lines, expected {1 + len(out.values)}")
        errors = out.model.predict(state["held_out"], on_uncovered="nearest")
        op_rmse = rmse(errors)
        problems += _band_problems("held-out rmse", op_rmse, self.RMSE_BAND)
        return problems, op_rmse

    def layer_counts(self, state, out: Outcome) -> dict:
        result = out.extra["result"]
        coords = reconstruct.grid_coords(result.rect, result.grid_shape)
        nearest, _ = cKDTree(out.model.covering.centers).query(coords)
        return {
            "reconstruct.grid_points": len(coords),
            # points in no subdomain take the nearest-subdomain fallback of predict
            "reconstruct.nearest_share": float(np.mean(nearest >= out.model.delta)),
        }

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)


def make(name: str, out_dir: str) -> Workload:
    if name == "reconstruct":
        return Reconstruct(out_dir)
    return {"interp2d": Interp2d, "query": Query}[name]()
