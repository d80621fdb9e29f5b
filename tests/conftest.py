import numpy as np
import pytest

import blockpum as bp


def pentagon_vertices(radius=1.0, center=(0.0, 0.0)):
    angles = np.deg2rad(90 + 72 * np.arange(5))
    return np.asarray(center) + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def fibonacci_sphere(n):
    i = np.arange(n)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    theta = golden * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


@pytest.fixture
def pentagon_domain():
    """Regular pentagon inscribed in the unit circle."""
    return bp.convex_hull(bp.PointSet(pentagon_vertices()))


@pytest.fixture
def unit_square_domain():
    return bp.convex_hull(bp.PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


@pytest.fixture
def rng():
    return np.random.default_rng(20160505)
