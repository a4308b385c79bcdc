"""Tests for the Legendre function catalog and Bregman calculus."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spence as scipy_spence

from bpalm import legendre as lg
from bpalm.exceptions import DimensionError, DomainError

RNG = np.random.default_rng(42)


def catalog(dim=3):
    return [
        lg.energy(dim),
        lg.von_neumann(dim),
        lg.burg(dim),
        lg.spence(dim),
        lg.box_barrier(-np.ones(dim), 2.0 * np.ones(dim)),
    ]


def sample_interior(fn, rng, spread=2.0):
    if fn.kind == "energy":
        return rng.normal(size=fn.dim) * spread
    if fn.kind == "box_barrier":
        return fn.lower + (fn.upper - fn.lower) * rng.uniform(0.02, 0.98, fn.dim)
    return np.exp(rng.uniform(-spread, spread, fn.dim))


def dilog_recursion(x: float) -> float:
    """Scalar Li2 by direct series on [-1/2, 1/2] and the reflection, Landen
    and inversion identities; kept as an independent reference."""
    if x == 1.0:
        return math.pi**2 / 6.0
    if x == 0.0:
        return 0.0
    if x > 0.5:
        return math.pi**2 / 6.0 - math.log(x) * math.log1p(-x) - dilog_recursion(1.0 - x)
    if x < -1.0:
        return -math.pi**2 / 6.0 - 0.5 * math.log(-x) ** 2 - dilog_recursion(1.0 / x)
    if x < -0.5:
        return -dilog_recursion(x / (x - 1.0)) - 0.5 * math.log1p(-x) ** 2
    total = term = x
    k = 1
    while True:
        k += 1
        term *= x
        inc = term / (k * k)
        total += inc
        if abs(inc) < 1e-18 * max(1.0, abs(total)) or k > 200:
            return total


DILOG_GRID = np.concatenate(
    [
        RNG.uniform(-80.0, 1.0, 300),
        [-1.0, 1.0, 0.5, -0.5, 0.0, 0.999999],
        -np.logspace(-300, 4, 60),
        np.logspace(-300, -1e-3, 60),
        1.0 - np.logspace(-16, -0.5, 30),
    ]
)


class TestDilog:
    def test_against_scipy(self):
        expected = scipy_spence(1.0 - DILOG_GRID)
        np.testing.assert_allclose(lg.dilog(DILOG_GRID), expected, rtol=0, atol=1e-13)

    def test_matches_scalar_recursion(self):
        # Li2 vanishes only at 0, where both sides are exact, so the
        # comparison is relative everywhere
        expected = np.array([dilog_recursion(float(x)) for x in DILOG_GRID])
        np.testing.assert_allclose(lg.dilog(DILOG_GRID), expected, rtol=1e-14, atol=0)

    def test_known_values(self):
        np.testing.assert_allclose(
            lg.dilog(np.array([1.0, -1.0, 0.0])), [math.pi**2 / 6, -math.pi**2 / 12, 0.0]
        )
        assert lg.dilog(0.0) == 0.0

    def test_scalar_in_float_out(self):
        assert isinstance(lg.dilog(0.3), float)
        assert lg.dilog(0.3) == lg.dilog(np.array([0.3]))[0]
        assert lg.dilog(np.zeros((2, 3))).shape == (2, 3)

    def test_rejects_above_one(self):
        with pytest.raises(DomainError):
            lg.dilog(1.5)
        with pytest.raises(DomainError):
            lg.dilog(np.array([0.0, 1.5]))

    def test_softplus_antiderivative(self):
        # t = 0 is on the grid, so both sides of the inversion identity run;
        # beyond |t| = 5 scipy's rounding of 1 + exp(t) dominates the error
        t = np.linspace(-5.0, 5.0, 201)
        expected = -scipy_spence(1.0 + np.exp(t))
        np.testing.assert_allclose(lg.softplus_antiderivative(t), expected, rtol=1e-13)


def spence_distance_reference(a: float, b: float) -> mpmath.mpf:
    """80-digit D(a, b) = phi(a) - phi(b) - phi'(b)(a - b) for the Spence
    function.  phi uses the reflected form t^2/2 + t ln q - Li2(q) with
    q = -expm1(-t): near the boundary exp(-t) rounds to 1 even at 80 digits."""

    def phi(t):
        if t == 0:
            return mpmath.mpf(0)
        q = -mpmath.expm1(-t)
        return t * t / 2 + t * mpmath.log(q) - mpmath.polylog(2, q)

    with mpmath.workdps(80):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return phi(a) - phi(b) - mpmath.log(mpmath.expm1(b)) * (a - b)


class TestSpenceAccuracy:
    @pytest.mark.parametrize("b", [1e-148, 1e-8, 1e-3, 0.1, 1.0, 5.0, 30.0, 100.0])
    def test_distance_against_80_digits(self, b):
        fn = lg.spence(1)
        points = [0.0] + [b * (1.0 + r) for r in (1e-7, -1e-7, 1e-3, -1e-3, 0.3, -0.3, 2.0, 10.0)]
        for a in points:
            expected = spence_distance_reference(a, b)
            got = lg.bregman_distance(fn, [a], [b])
            assert abs(got - expected) <= 1e-12 * expected, (a, b, got, float(expected))

    def test_vector_distance_sums_coordinates(self):
        # near and far coordinates in one call
        fn = lg.spence(3)
        a, b = np.array([1.0 + 1e-6, 0.0, 40.0]), np.array([1.0, 2.0, 3.0])
        expected = sum(spence_distance_reference(x, y) for x, y in zip(a, b))
        assert lg.bregman_distance(fn, a, b) == pytest.approx(float(expected), rel=1e-14)

    def test_value_and_conjugate_value(self):
        fn = lg.spence(4)
        z = np.array([1e-140, 1e-3, 1.0, 50.0])
        with mpmath.workdps(40):
            expected = sum(mpmath.quad(lambda s: mpmath.log(mpmath.expm1(s)), [0, t]) for t in z)
        assert fn.value(z) == pytest.approx(float(expected), rel=1e-14)
        t = np.array([-40.0, -1.0, 0.0, 3.0])
        expected = -sum(mpmath.polylog(2, -mpmath.exp(x)) for x in t)
        assert fn.conj_value(t) == pytest.approx(float(expected), rel=1e-14)


class TestValues:
    def test_energy(self):
        assert lg.energy(1).value([3.0]) == 4.5

    def test_von_neumann(self):
        assert lg.von_neumann(1).value([1.0]) == pytest.approx(-1.0)
        assert lg.von_neumann(1).value([0.0]) == 0.0  # 0 ln 0 = 0
        assert lg.von_neumann(1).value([-0.1]) == math.inf

    def test_spence_zero(self):
        assert lg.spence(1).value([0.0]) == 0.0

    def test_spence_vs_quadrature(self):
        fn = lg.spence(1)
        for t in (0.3, 1.0, 2.5):
            ref, _ = quad(lambda tau: math.log(math.expm1(tau)), 0.0, t)
            assert fn.value([t]) == pytest.approx(ref, abs=1e-9)

    def test_burg_outside_domain(self):
        assert lg.burg(1).value([0.0]) == math.inf

    def test_box_outside(self):
        fn = lg.box_barrier([0.0], [1.0])
        assert fn.value([1.0]) == math.inf
        assert fn.value([0.5]) == pytest.approx(0.125 - 2 * math.log(0.5))


class TestGradients:
    def test_examples(self):
        assert lg.von_neumann(1).grad([math.e]) == pytest.approx([1.0])
        assert lg.spence(1).grad([math.log(2)]) == pytest.approx([0.0], abs=1e-15)
        assert lg.burg(1).grad([2.0]) == pytest.approx([-0.5])
        fn = lg.box_barrier([0.0], [1.0])
        assert fn.grad([0.5]) == pytest.approx([0.5])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lg.von_neumann(1).grad([0.0])
        with pytest.raises(DomainError):
            lg.spence(1).grad([-1.0])
        with pytest.raises(DomainError):
            lg.box_barrier([0.0], [1.0]).grad([1.0])

    def test_essential_smoothness(self):
        # gradient norm grows without bound approaching the boundary
        for fn in (lg.von_neumann(1), lg.burg(1), lg.spence(1)):
            norms = [np.linalg.norm(fn.grad([10.0**-k])) for k in (2, 6, 10, 100)]
            assert all(a < b for a, b in zip(norms, norms[1:]))
            assert norms[-1] > 100.0

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_finite_differences(self, fn):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            z = sample_interior(fn, rng, spread=1.0)
            g = fn.grad(z)
            for i in range(fn.dim):
                e = np.zeros(fn.dim)
                e[i] = h
                fd = (fn.value(z + e) - fn.value(z - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_hessian_matches_grad_differences(self, fn):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(10):
            z = sample_interior(fn, rng, spread=1.0)
            H = fn.hess_diag(z)
            for i in range(fn.dim):
                e = np.zeros(fn.dim)
                e[i] = h
                fd = (fn.grad(z + e)[i] - fn.grad(z - e)[i]) / (2 * h)
                assert H[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestConjugates:
    def test_examples(self):
        assert lg.spence(1).conj_grad([0.0]) == pytest.approx([math.log(2)])
        assert lg.von_neumann(1).conj_grad([0.0]) == pytest.approx([1.0])
        assert lg.burg(1).conj_grad([-0.5]) == pytest.approx([2.0])

    def test_burg_conj_domain(self):
        with pytest.raises(DomainError):
            lg.burg(1).conj_grad([0.5])

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_round_trip(self, fn):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z = sample_interior(fn, rng)
            back = fn.conj_grad(fn.grad(z))
            assert np.linalg.norm(back - z) <= 1e-10 * (1 + np.linalg.norm(z))

    def test_spence_conjugate_identity_via_quadrature(self):
        # phi(t) + phi*(phi'(t)) = t phi'(t), with phi* computed independently
        # by quadrature of the softplus plus the pi^2/12 constant
        fn = lg.spence(1)
        for t in (0.2, 0.7, 1.9, 4.0):
            tstar = fn.grad([t])[0]
            conj, _ = quad(lambda tau: math.log1p(math.exp(tau)), 0.0, tstar)
            conj += math.pi**2 / 12.0
            gap = fn.value([t]) + conj - t * tstar
            assert abs(gap) <= 1e-8

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_inverse_hessian_identity(self, fn):
        rng = np.random.default_rng(10)
        h = 1e-6
        for _ in range(20):
            z = sample_interior(fn, rng)
            t = fn.grad(z)
            hz = fn.hess_diag(z)
            # conjugate Hessian by central differences of the conjugate gradient
            for i in range(fn.dim):
                e = np.zeros(fn.dim)
                e[i] = h * max(1.0, abs(t[i]))
                hc = (fn.conj_grad(t + e)[i] - fn.conj_grad(t - e)[i]) / (2 * e[i])
                assert hc * hz[i] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_dual_distance_flip(self, fn):
        # D_{phi*}(a, b) = D_phi(conj_grad(b), conj_grad(a))
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = fn.grad(sample_interior(fn, rng))
            b = fn.grad(sample_interior(fn, rng))
            lhs = lg.dual_bregman_distance(fn, a, b)
            rhs = lg.bregman_distance(fn, fn.conj_grad(b), fn.conj_grad(a))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestBregmanDistance:
    def test_examples(self):
        assert lg.bregman_distance(lg.von_neumann(1), [1.0], [math.e]) == pytest.approx(
            math.e - 2.0
        )
        assert lg.bregman_distance(lg.burg(1), [1.0], [2.0]) == pytest.approx(
            math.log(2) - 0.5
        )

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_nonnegative_zero_iff_equal(self, fn):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z1 = sample_interior(fn, rng)
            z2 = sample_interior(fn, rng)
            assert lg.bregman_distance(fn, z1, z1) == 0.0
            if not np.allclose(z1, z2):
                assert lg.bregman_distance(fn, z1, z2) > 0.0

    def test_extended_real_outside(self):
        assert lg.bregman_distance(lg.burg(1), [-1.0], [1.0]) == math.inf
        assert lg.bregman_distance(lg.von_neumann(1), [1.0], [0.0]) == math.inf

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_stable_form_matches_definition(self, fn):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z1 = sample_interior(fn, rng)
            z2 = sample_interior(fn, rng)
            raw = fn.value(z1) - fn.value(z2) - float(fn.grad(z2) @ (z1 - z2))
            assert lg.bregman_distance(fn, z1, z2) == pytest.approx(
                raw, rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_close_points_match_local_quadratic(self, fn):
        rng = np.random.default_rng(14)
        for _ in range(10):
            z2 = sample_interior(fn, rng, spread=1.0)
            d = rng.normal(size=fn.dim) * 1e-9
            expected = 0.5 * float(d @ (fn.hess_diag(z2) * d))
            got = lg.bregman_distance(fn, z2 + d, z2)
            assert got == pytest.approx(expected, rel=1e-5)


class TestProductAndGeometry:
    def test_product_decomposes(self):
        blocks = [lg.energy(2), lg.von_neumann(1), lg.box_barrier([0.0], [1.0])]
        fn = lg.product(blocks)
        assert fn.dim == 4
        z = np.array([0.3, -0.2, 1.7, 0.4])
        parts = [z[:2], z[2:3], z[3:]]
        assert fn.value(z) == pytest.approx(
            sum(b.value(p) for b, p in zip(blocks, parts))
        )
        np.testing.assert_allclose(
            fn.grad(z), np.concatenate([b.grad(p) for b, p in zip(blocks, parts)])
        )
        back = fn.conj_grad(fn.grad(z))
        np.testing.assert_allclose(back, z, atol=1e-10)

    def test_product_membership(self):
        fn = lg.product([lg.energy(1), lg.burg(1)])
        assert fn.in_interior([0.0, 1.0])
        assert not fn.in_interior([0.0, -1.0])

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            lg.energy(2).value([1.0])
        with pytest.raises(DimensionError):
            lg.energy(0)


@pytest.mark.parametrize("factory", [lg.energy, lg.von_neumann, lg.burg, lg.spence])
def test_nonnegative_means_negative_points_lie_outside(factory):
    fn = factory(2)
    assert fn.nonnegative == (not fn.in_domain(-np.ones(2)))


def test_spence_hessian_value():
    assert lg.spence(1).hess_diag([math.log(2)]) == pytest.approx([2.0])


def test_box_conj_grad_extreme_targets():
    # near the bounds the representable resolution of u - x limits the
    # achievable gradient residual to ~eps * t^2
    fn = lg.box_barrier([0.0], [1.0])
    for t in (-1e8, -1e3, 0.0, 1e3, 1e8):
        x = fn.conj_grad([t])[0]
        assert 0.0 < x < 1.0
        assert fn.grad([x])[0] == pytest.approx(t, rel=5e-8, abs=1e-9)
