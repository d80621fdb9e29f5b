"""Three-species competition model and separatrix-surface sampling.

Two of the single-survivor equilibria of the model are simultaneously
stable for the default parameters, so the cube of initial conditions
splits into two basins of attraction. Points on the dividing surface are
located by classifying trajectories of neighboring initial conditions and
bisecting every segment whose endpoints reach different equilibria.

Every search goes through one lockstep loop: ``_bisect`` halves all its
segments at once, classifying their midpoints in one batch, and
``bisect_separatrix`` is its one-segment case. ``sample_separatrix``
feeds it the axis-adjacent lattice pairs with different resolved labels,
ordered by the flat index of the lower cell, then by axis (x, y, z), and
keeps the first ``n_pairs`` of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SameBasin
from .geometry import PointSet

Y_ONLY = "y-only"
Z_ONLY = "z-only"
UNRESOLVED = "unresolved"

DEFAULT_STEP = 1e-2  # fixed RK4 step of every integration
DEFAULT_T_MAX = 500.0
DEFAULT_TOL = 1e-3

_CHECK_EVERY = 10  # integration steps between equilibrium checks


@dataclass(frozen=True)
class CompetitionParams:
    """Growth/capacity/competition rates of the three-species model.

    ``competition`` holds the interaction coefficients in the order
    (xy, xz, yx, yz, zx, zy): the first pair damps species x by y and z,
    and so on. Defaults give two stable single-survivor equilibria.
    """

    growth: tuple = (1.0, 0.5, 2.0)
    capacity: tuple = (1.0, 2.0, 1.0)
    competition: tuple = (1.0, 2.0, 0.3, 1.0, 3.0, 2.0)
    cube_edge: float = 2.0

    def __post_init__(self):
        if (len(self.growth), len(self.capacity), len(self.competition)) != (3, 3, 6):
            raise ValueError("growth and capacity take 3 rates, competition 6")
        allv = np.array((*self.growth, *self.capacity, *self.competition, self.cube_edge), dtype=float)
        if not np.isfinite(allv).all():
            raise ValueError("rates and cube_edge must be finite")
        if (allv < 0).any():
            raise ValueError("all rates must be nonnegative")
        if min(self.capacity) <= 0 or self.cube_edge <= 0:
            raise ValueError("capacities and cube_edge must be positive")

    @property
    def y_equilibrium(self) -> np.ndarray:
        return np.array([0.0, self.capacity[1], 0.0])

    @property
    def z_equilibrium(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.capacity[2]])


def rhs(state, params: CompetitionParams = CompetitionParams()):
    """Time derivative of (x, y, z) under the competition dynamics."""
    return _rhs_batch(np.asarray(state, dtype=float)[None, :], params)[0]


def _rhs_batch(states: np.ndarray, params: CompetitionParams) -> np.ndarray:
    x, y, z = states[:, 0], states[:, 1], states[:, 2]
    gx, gy, gz = params.growth
    ux, uy, uz = params.capacity
    cxy, cxz, cyx, cyz, czx, czy = params.competition
    out = np.empty_like(states)
    out[:, 0] = gx * (1.0 - x / ux) * x - cxy * x * y - cxz * x * z
    out[:, 1] = gy * (1.0 - y / uy) * y - cyx * x * y - cyz * y * z
    out[:, 2] = gz * (1.0 - z / uz) * z - czx * x * z - czy * y * z
    return out


def _classify_batch(states, params, tol, t_max):
    """Integrate many initial conditions at once (fixed-step RK4).

    Returns one label per row; a trajectory is labeled, and leaves the
    batch, at the first check that finds it within ``tol`` of either stable
    equilibrium. Every public entry point starts here, so bad input is
    rejected before any integration.
    """
    for name, v in (("tol", tol), ("t_max", t_max)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    y = np.array(states, dtype=float, ndmin=2)
    if y.ndim != 2 or y.shape[1] != 3:
        raise ValueError(f"initial conditions must be (x, y, z) rows, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("initial conditions must be finite")
    labels = np.full(len(y), UNRESOLVED, dtype=object)
    rows = np.arange(len(y))
    targets = ((params.y_equilibrium, Y_ONLY), (params.z_equilibrium, Z_ONLY))
    h = DEFAULT_STEP
    n_steps = int(round(t_max / h))
    for i in range(n_steps):
        if not len(rows):
            break
        k1 = _rhs_batch(y, params)
        k2 = _rhs_batch(y + 0.5 * h * k1, params)
        k3 = _rhs_batch(y + 0.5 * h * k2, params)
        k4 = _rhs_batch(y + h * k3, params)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if i % _CHECK_EVERY == 0 or i == n_steps - 1:
            for target, name in targets:
                hit = np.linalg.norm(y - target, axis=1) <= tol
                labels[rows[hit]] = name
                rows, y = rows[~hit], y[~hit]
    return labels


def _bisect(a, b, label_a, params, tol, t_max):
    """Midpoints of the segments [a[i], b[i]], bisected in lockstep to length ``tol``.

    ``a[i]`` has the resolved label ``label_a[i]``, and ``b[i]`` the other
    one; both arrays are overwritten. An unresolved midpoint already sits on
    the boundary within integration accuracy, so its segment collapses onto
    it and it is returned as is.
    """
    todo = np.arange(len(a))
    while True:
        todo = todo[np.linalg.norm(b[todo] - a[todo], axis=1) > tol]
        if not len(todo):
            return 0.5 * (a + b)
        mid = 0.5 * (a[todo] + b[todo])
        label = _classify_batch(mid, params, tol, t_max)
        side_a = label == label_a[todo]
        to_a = side_a | (label == UNRESOLVED)
        a[todo[to_a]] = mid[to_a]
        b[todo[~side_a]] = mid[~side_a]


def _straddling_pairs(labels, side):
    """Axis-adjacent lattice cells with different resolved labels.

    ``labels`` holds the (side, side, side) lattice in C order. Returns the
    flat indices of the lower and upper cell of each pair, ordered by the
    lower cell's index, then by axis (x, y, z).
    """
    grid = labels.reshape(side, side, side)
    resolved = grid != UNRESOLVED
    straddle = np.zeros((side, side, side, 3), dtype=bool)
    for axis in range(3):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        straddle[(*lower, ..., axis)] = resolved[lower] & resolved[upper] & (grid[lower] != grid[upper])
    here, axis = np.nonzero(straddle.reshape(-1, 3))
    return here, here + np.array([side * side, side, 1]).take(axis)


def classify(
    initial,
    params: CompetitionParams = CompetitionParams(),
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
) -> str:
    """Equilibrium reached from one initial condition (or "unresolved")."""
    return str(_classify_batch([initial], params, tol, t_max)[0])


def bisect_separatrix(
    p_a,
    p_b,
    params: CompetitionParams = CompetitionParams(),
    tol: float = DEFAULT_TOL,
    t_max: float = DEFAULT_T_MAX,
) -> np.ndarray:
    """Point on segment [p_a, p_b] within ``tol`` of the basin boundary.

    Raises SameBasin unless the endpoints resolve to different equilibria.
    An unresolved midpoint already sits on the boundary within integration
    accuracy and is returned directly.
    """
    ends = np.array([p_a, p_b], dtype=float)
    labels = _classify_batch(ends, params, tol, t_max)
    if UNRESOLVED in labels or labels[0] == labels[1]:
        raise SameBasin(f"endpoints classify as {labels[0]!r} / {labels[1]!r}")
    return _bisect(ends[:1], ends[1:], labels[:1], params, tol, t_max)[0]


def sample_separatrix(
    params: CompetitionParams = CompetitionParams(),
    n_pairs: int = 600,
    tol: float = DEFAULT_TOL,
    lattice_side: int = 10,
    t_max: float = DEFAULT_T_MAX,
) -> PointSet:
    """Separatrix points from axis-adjacent lattice pairs in the cube.

    A lattice of lattice_side^3 initial conditions in [0, cube_edge]^3 is
    classified; the first ``n_pairs`` adjacent pairs with different
    resolved labels (by lower cell, then axis) are refined in lockstep
    bisection. May return fewer points than pairs when few pairs straddle
    the boundary.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    axis = np.linspace(0.0, params.cube_edge, lattice_side)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    lattice = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    labels = _classify_batch(lattice, params, tol, t_max)
    lower, upper = (p[:n_pairs] for p in _straddling_pairs(labels, lattice_side))
    return PointSet(_bisect(lattice[lower], lattice[upper], labels[lower], params, tol, t_max))
