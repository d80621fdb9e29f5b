from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

import blockpum as bp
from blockpum.kernels import phi_wendland_c2, phi_wu_c4


def wu_c4_exact(r, eps):
    """Exact rational evaluation, the oracle for spot values."""
    t = Fraction(eps) * Fraction(r)
    if t >= 1:
        return Fraction(0)
    poly = 5 * t**5 + 30 * t**4 + 72 * t**3 + 82 * t**2 + 36 * t + 6
    return (1 - t) ** 6 * poly


class TestWendlandC2:
    def test_at_zero(self):
        assert phi_wendland_c2(0.0, 0.7) == 1.0

    def test_support_boundary(self):
        assert phi_wendland_c2(2.0, 0.5) == 0.0

    def test_interior_value(self):
        # (1 - 0.5)^4 * (4*0.5 + 1) = 0.0625 * 3
        assert phi_wendland_c2(1.0, 0.5) == pytest.approx(0.1875, rel=1e-15)

    def test_zero_beyond_support(self):
        r = np.linspace(2.0, 10.0, 50)
        assert np.all(phi_wendland_c2(r, 0.5) == 0.0)

    def test_contact_at_support(self):
        # quartic contact: phi(1/eps - h) ~ 5 (eps h)^4
        assert phi_wendland_c2(1.0 - 1e-8, 1.0) <= 1e-28


class TestWuC4:
    def test_at_zero(self):
        assert phi_wu_c4(0.0, 0.3) == 6.0

    def test_beyond_support(self):
        assert phi_wu_c4(10.0, 0.1) == 0.0
        assert phi_wu_c4(1.0, 1.0) == 0.0

    def test_interior_value_exact(self):
        want = wu_c4_exact(5, Fraction(1, 10))
        assert want == Fraction(1777, 2048)
        assert phi_wu_c4(5.0, 0.1) == pytest.approx(float(want), rel=1e-14)

    @pytest.mark.parametrize("eps", [0.2, 0.5, 1.0])
    def test_matches_exact_on_grid(self, eps):
        for r in np.linspace(0, 1.2 / eps, 23):
            want = float(wu_c4_exact(Fraction(r).limit_denominator(10**12), Fraction(eps).limit_denominator(10**12)))
            assert phi_wu_c4(r, eps) == pytest.approx(want, abs=1e-12)


def wendland_c2_allocating(r, eps):
    """The Wendland C2 profile with one temporary per operation, the oracle of the in-place one."""
    t = eps * np.asarray(r, dtype=float)
    cut = np.maximum(1.0 - t, 0.0)
    cut2 = cut * cut
    return (cut2 * cut2) * (4.0 * t + 1.0)


def wu_c4_allocating(r, eps):
    """The Wu C4 profile with one temporary per operation, the oracle of the in-place one."""
    t = eps * np.asarray(r, dtype=float)
    cut = np.maximum(1.0 - t, 0.0)
    cut2 = cut * cut
    poly = ((((5.0 * t + 30.0) * t + 72.0) * t + 82.0) * t + 36.0) * t + 6.0
    return (cut2 * (cut2 * cut2)) * poly


def wendland_c2_exact(t):
    t = Fraction(t)
    return (1 - t) ** 4 * (4 * t + 1) if t < 1 else Fraction(0)


PROFILES = {"wendland-c2": (phi_wendland_c2, wendland_c2_allocating), "wu-c4": (phi_wu_c4, wu_c4_allocating)}

# eps * r: zero, on the support, inside it and beyond it
SCALED_R = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1.0, 4.0))


class TestInPlaceProfiles:
    """The in-place profiles equal the allocating product expressions bit for
    bit, keep their return types and never write to their input."""

    @staticmethod
    def check(phi, ref, r, eps):
        before = np.array(r, copy=True)
        got, want = phi(r, eps), ref(r, eps)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(np.asarray(r), before)

    @given(
        st.sampled_from(sorted(PROFILES)),
        st.floats(0.05, 20.0),
        hnp.arrays(float, hnp.array_shapes(min_dims=3, max_dims=3, max_side=7), elements=SCALED_R),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacks_and_views(self, name, eps, scaled):
        phi, ref = PROFILES[name]
        stack = scaled / eps
        stack.flat[0] = 1.0 / eps
        for r in (stack, stack[:, ::2], stack.transpose(0, 2, 1), stack[..., 0], stack.ravel()[::3]):
            self.check(phi, ref, r, eps)
        self.check(phi, ref, stack.tolist(), eps)

    @given(st.sampled_from(sorted(PROFILES)), st.floats(0.05, 20.0), SCALED_R, st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_scalars_lists_and_ints(self, name, eps, scaled, n):
        phi, ref = PROFILES[name]
        r = scaled / eps
        for arg in (r, np.float64(r), np.array(r), [r, 1.0 / eps, 0.0], n, [n, 0, 2 * n], np.arange(n)):
            self.check(phi, ref, arg, eps)


class TestProfileRounding:
    # Largest error against the exact value of the profile at the float
    # t = eps*r, in ulps of that value, measured over 108 000 draws (eps 0.1,
    # 0.5, 1, 3.7; t uniform on [0, 1), near 1 and near 0): 5.49 for
    # Wendland C2, 9.59 for Wu C4. First-order error analysis bounds them by
    # 9 and 22: each power of the cutoff by repeated products adds one
    # rounding per factor and per product, Horner's rule with positive
    # coefficients two per step. The bounds below are the measured ones.
    ULP_BOUND = {"wendland-c2": 6.0, "wu-c4": 10.0}
    EXACT = {"wendland-c2": wendland_c2_exact, "wu-c4": lambda t: wu_c4_exact(t, 1)}

    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("eps", [0.1, 0.5, 3.7])
    def test_within_measured_ulps_of_exact(self, name, eps):
        phi, _ = PROFILES[name]
        rng = np.random.default_rng([20161, int(eps * 10)])
        t = np.concatenate([rng.uniform(0.0, 1.0, 1500), rng.uniform(0.999, 1.0, 300), rng.uniform(0.0, 1e-3, 200)])
        r = t / eps
        got = phi(r, eps)
        worst = 0.0
        for value, scaled in zip(got, eps * r):
            exact = self.EXACT[name](float(scaled))
            assert exact > 0
            worst = max(worst, float(abs(Fraction(float(value)) - exact) / Fraction(np.spacing(float(exact)))))
        assert worst <= self.ULP_BOUND[name]

    @given(st.sampled_from(sorted(PROFILES)), st.floats(0.05, 20.0), SCALED_R, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_scalar_equals_one_element_array(self, name, eps, scaled, at):
        phi, _ = PROFILES[name]
        r = scaled / eps
        one = phi(np.array([r]), eps)
        assert isinstance(phi(r, eps), np.float64)
        for arg in (r, np.float64(r), np.array(r)):
            assert np.array_equal(phi(arg, eps), one[0])
        # the same value anywhere in a longer array
        longer = np.random.default_rng(at).uniform(0.0, 1.2 / eps, 7)
        longer[at] = r
        assert np.array_equal(phi(longer, eps)[at], one[0])


@pytest.mark.parametrize("phi,eps", [(phi_wendland_c2, 0.5), (phi_wendland_c2, 2.0), (phi_wu_c4, 0.5), (phi_wu_c4, 2.0)])
class TestKernelShape:
    def test_nonnegative_and_compact(self, phi, eps):
        r = np.linspace(0, 3 / eps, 400)
        vals = phi(r, eps)
        assert np.all(vals >= 0)
        assert np.all(vals[r >= 1 / eps] == 0.0)
        assert np.all(vals[r < 1 / eps] > 0.0)

    def test_monotone_nonincreasing(self, phi, eps):
        r = np.linspace(0, 1 / eps, 500)
        vals = phi(r, eps)
        assert np.all(np.diff(vals) <= 1e-15)


class TestKernelObject:
    def test_support_radius(self):
        k = bp.make_kernel("wendland-c2", 0.5)
        assert k.support_radius == 2.0

    def test_underscore_alias(self):
        assert bp.make_kernel("wu_c4", 1.0).name == "wu-c4"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bp.make_kernel("gaussian", 1.0)

    def test_bad_epsilon(self):
        for eps in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                bp.make_kernel("wu-c4", eps)


class TestDenseMatrix:
    """Dense kernel matrices, ``kernel(cdist(a, b))``."""

    def test_single_point(self):
        a = bp.PointSet([[0.0, 0.0]])
        k = bp.make_kernel("wendland-c2", 0.5)
        assert np.array_equal(k(cdist(a.coords, a.coords)), [[1.0]])

    def test_symmetry(self, rng):
        a = bp.PointSet(rng.random((30, 2)))
        k = bp.make_kernel("wendland-c2", 1.5)
        m = k(cdist(a.coords, a.coords))
        assert np.allclose(m, m.T, atol=0)

    def test_collinear_spacing_one(self):
        a = bp.PointSet([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        k = bp.make_kernel("wendland-c2", 0.5)
        m = k(cdist(a.coords, a.coords))
        assert m[0, 1] == pytest.approx(0.1875, rel=1e-15)
        assert m[0, 2] == 0.0
        assert np.allclose(np.diag(m), 1.0)


@pytest.mark.parametrize("name,dim", [("wendland-c2", 2), ("wendland-c2", 3), ("wu-c4", 3)])
def test_interpolation_matrix_positive_definite(name, dim, rng):
    for n in (5, 20, 50):
        pts = bp.PointSet(rng.random((n, dim)))
        k = bp.make_kernel(name, 1.0)
        m = k(cdist(pts.coords, pts.coords))
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > 0
