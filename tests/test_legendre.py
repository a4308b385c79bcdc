"""Tests for the Legendre function catalog and Bregman calculus."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spence as scipy_spence

from bpalm import legendre as lg
from bpalm.exceptions import DimensionError, DomainError
from test_penalty import conj_value, phi_value

RNG = np.random.default_rng(42)


def catalog(dim=3):
    return [
        lg.energy(dim),
        lg.von_neumann(dim),
        lg.spence(dim),
        lg.box_barrier(-np.ones(dim), 2.0 * np.ones(dim)),
    ]


def sample_interior(fn, rng, spread=2.0):
    if fn.kind == "energy":
        return rng.normal(size=fn.dim) * spread
    if fn.kind == "box_barrier":
        return fn.lower + (fn.upper - fn.lower) * rng.uniform(0.02, 0.98, fn.dim)
    return np.exp(rng.uniform(-spread, spread, fn.dim))


class TestDilog:
    def test_softplus_antiderivative(self):
        # t = 0 is on the grid, so both sides of the inversion identity run;
        # beyond |t| = 5 scipy's rounding of 1 + exp(t) dominates the error
        t = np.linspace(-5.0, 5.0, 201)
        expected = -scipy_spence(1.0 + np.exp(t))
        np.testing.assert_allclose(lg.softplus_antiderivative(t), expected, rtol=1e-13)

    def test_softplus_antiderivative_against_50_digits(self):
        # the Li2 series runs on x = -exp(-|t|) in [-1, 0) only; the worst
        # relative error over this grid is about 3e-16
        half = np.logspace(-8.0, math.log10(700.0), 100)
        t = np.concatenate([-half[::-1], [0.0], half])
        with mpmath.workdps(50):
            expected = [float(-mpmath.polylog(2, -mpmath.exp(mpmath.mpf(v)))) for v in t]
        np.testing.assert_allclose(lg.softplus_antiderivative(t), expected, rtol=1e-15, atol=0)


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

    def test_li2_in_series_variable_against_50_digits(self):
        # Li2(1 - exp(-t)) with t as its own series variable up to ln 2 and
        # the reflected form above; ln 2's neighbours take either side
        ln2 = math.log(2.0)
        t = np.array([1e-300, 1e-148, 1e-30, 1e-8, 1e-3, 0.5, np.nextafter(ln2, 0.0), ln2,
                      np.nextafter(ln2, 1.0), 1.0, 5.0, 30.0, 100.0, 700.0])
        q, li = lg._spence_q(t)
        np.testing.assert_array_equal(q, -np.expm1(-t))
        with mpmath.workdps(50):
            for ti, got in zip(t, li):
                expected = mpmath.polylog(2, -mpmath.expm1(-mpmath.mpf(ti)))
                assert abs(got - expected) <= 1e-15 * expected, (ti, got, float(expected))

    def test_vector_distance_sums_coordinates(self):
        # near and far coordinates in one call
        fn = lg.spence(3)
        a, b = np.array([1.0 + 1e-6, 0.0, 40.0]), np.array([1.0, 2.0, 3.0])
        expected = sum(spence_distance_reference(x, y) for x, y in zip(a, b))
        assert lg.bregman_distance(fn, a, b) == pytest.approx(float(expected), rel=1e-14)


class TestGradients:
    def test_examples(self):
        assert lg.von_neumann(1).grad([math.e]) == pytest.approx([1.0])
        assert lg.spence(1).grad([math.log(2)]) == pytest.approx([0.0], abs=1e-15)
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
        for fn in (lg.von_neumann(1), lg.spence(1)):
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
                fd = (phi_value(fn, z + e) - phi_value(fn, z - e)) / (2 * h)
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
            gap = phi_value(fn, [t]) + conj - t * tstar
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
            # the distance generated by phi*, from its value and gradient
            lhs = conj_value(fn, a) - conj_value(fn, b) - float(fn.conj_grad(b) @ (a - b))
            rhs = lg.bregman_distance(fn, fn.conj_grad(b), fn.conj_grad(a))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestBregmanDistance:
    def test_examples(self):
        assert lg.bregman_distance(lg.von_neumann(1), [1.0], [math.e]) == pytest.approx(
            math.e - 2.0
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
        assert lg.bregman_distance(lg.von_neumann(1), [-1.0], [1.0]) == math.inf
        assert lg.bregman_distance(lg.von_neumann(1), [1.0], [0.0]) == math.inf

    @pytest.mark.parametrize("fn", catalog(), ids=lambda f: f.kind)
    def test_stable_form_matches_definition(self, fn):
        rng = np.random.default_rng(13)
        for _ in range(20):
            z1 = sample_interior(fn, rng)
            z2 = sample_interior(fn, rng)
            raw = phi_value(fn, z1) - phi_value(fn, z2) - float(fn.grad(z2) @ (z1 - z2))
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


def masked_kl_terms(a, b):
    """The KL terms computed on boolean gathers and scatters, the reference
    for `legendre._kl_terms`."""
    out = np.empty_like(b)
    zero = a <= 0.0
    out[zero] = b[zero]
    az, bz = a[~zero], b[~zero]
    r = (az - bz) / bz
    small = np.abs(r) < 1e-4
    rs = r[small]
    h = np.empty_like(r)
    h[small] = rs * rs * (0.5 + rs * (-1.0 / 6.0 + rs / 12.0))
    ab, bb = az[~small], bz[~small]
    h[~small] = (ab * (np.log(ab) - np.log(bb)) - ab + bb) / bb
    out[~zero] = bz * h
    return out


class TestKLTerms:
    def test_bit_identical_to_masked_form(self):
        edge = 1e-4 * np.array([1 - 1e-12, 1 + 1e-12])
        tiny = 5e-324
        pairs = [
            (0.0, 1.0), (0.0, 1e-149), (0.0, tiny),  # a = 0
            (1.0, 1.0), (2.5, 2.5), (1e-149, 1e-149), (tiny, tiny),  # a = b
            *[(1.0 + s * e, 1.0) for s in (1.0, -1.0) for e in edge],  # |r| about 1e-4
            *[(3.0, 3.0 / (1.0 + s * e)) for s in (1.0, -1.0) for e in edge],
            (3 * tiny, tiny), (1e-310, tiny), (1e-10, 1e-310),  # denormal b
            (1e150, 1e-150), (1.0, 1e-300), (1e-300, 1.0),  # a/b near 1e300 and 1e-300
        ]
        rng = np.random.default_rng(40)
        b = rng.uniform(0.1, 10.0, 399)
        a = b * (1.0 + rng.choice([0.0, 1e-8, 1e-5, -1e-5, 1e-3, 0.5, -1.0], 399))
        a = np.concatenate([a, [p[0] for p in pairs]])
        b = np.concatenate([b, [p[1] for p in pairs]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning, and no errstate needed
            for x, y in ((a, b), (a.reshape(2, -1), b.reshape(2, -1))):
                assert lg._kl_terms(x, y).tobytes() == masked_kl_terms(x, y).tobytes()


def sample_points(fn, rng, k, spread=2.0):
    """k interior points of fn as the rows of a (k, dim) array."""
    return np.array([sample_interior(fn, rng, spread) for _ in range(k)])


def outside_point(fn):
    """A point outside the domain (so also off its interior); the energy has none."""
    return fn.upper + 1.0 if fn.kind == "box_barrier" else -np.ones(fn.dim)


STACK_CATALOG = catalog(4)


def one_point_calls(fn, z1, z2):
    z1, z2 = np.broadcast_arrays(z1, z2)
    return np.array([lg.bregman_distance(fn, a, b) for a, b in zip(z1, z2)])


class TestStackedDistances:
    """A (K, dim) stack gives the K one-point distances, bit for bit."""

    @pytest.mark.parametrize("fn", STACK_CATALOG, ids=lambda f: f.kind)
    def test_stack_equals_one_point_calls(self, fn):
        rng = np.random.default_rng(21)
        z1, z2 = sample_points(fn, rng, 40), sample_points(fn, rng, 40)
        z1[5] = z2[5]
        z1[6] = z2[6] * (1.0 + 1e-9)
        if fn.kind != "energy":
            z1[7] = outside_point(fn)
            z2[8] = outside_point(fn)
        got = lg.bregman_distance(fn, z1, z2)
        assert got.shape == (40,)
        np.testing.assert_array_equal(got, one_point_calls(fn, z1, z2))
        assert got[5] == 0.0
        assert 0.0 < got[6] < 1e-12
        if fn.kind != "energy":
            assert got[7] == got[8] == math.inf
        assert isinstance(lg.bregman_distance(fn, z1[0], z2[0]), float)

    @pytest.mark.parametrize("fn", STACK_CATALOG, ids=lambda f: f.kind)
    def test_both_broadcast_directions(self, fn):
        rng = np.random.default_rng(22)
        one, many = sample_points(fn, rng, 1)[0], sample_points(fn, rng, 30)
        many[3] = one
        # one solution z* against many iterates z_k
        to_many = lg.bregman_distance(fn, one, many)
        np.testing.assert_array_equal(to_many, one_point_calls(fn, one, many))
        # many candidates against one anchor y0
        from_many = lg.bregman_distance(fn, many, one)
        np.testing.assert_array_equal(from_many, one_point_calls(fn, many, one))
        assert to_many[3] == from_many[3] == 0.0
        grid = lg.bregman_distance(fn, many.reshape(5, 6, fn.dim), one)
        np.testing.assert_array_equal(grid, from_many.reshape(5, 6))

    @pytest.mark.parametrize("fn", STACK_CATALOG, ids=lambda f: f.kind)
    def test_wrong_last_axis_length(self, fn):
        z = sample_points(fn, np.random.default_rng(24), 3)
        with pytest.raises(DimensionError):
            lg.bregman_distance(fn, z[:, :-1], z[0, :-1])
        with pytest.raises(DimensionError):
            lg.bregman_distance(fn, z, np.ones(fn.dim + 1))

    def test_spence_rows_mixing_near_and_far_coordinates(self):
        # row i sends i mod 101 coordinates beyond |a - b| <= b/2, so the stack
        # holds every near count from 0 to 100 and spans several row blocks
        fn = lg.spence(100)
        rng = np.random.default_rng(23)
        b = np.exp(rng.uniform(-5.0, 3.0, 100))
        z = b * (1.0 + 0.4 * rng.uniform(-1.0, 1.0, (400, 100)))
        for i, row in enumerate(z):
            far = rng.permutation(100)[: i % 101]
            row[far] = b[far] * rng.choice([0.0, 0.3, 3.0, 40.0], far.size)
        near_counts = np.count_nonzero(np.abs(z - b) <= 0.5 * b, axis=1)
        assert set(near_counts) == set(range(101))
        assert z.size > 2 * lg.BLOCK_COORDS
        got = lg.bregman_distance(fn, z, b)
        np.testing.assert_array_equal(got, one_point_calls(fn, z, b))
        np.testing.assert_array_equal(lg.bregman_distance(fn, b, z), one_point_calls(fn, b, z))


def test_dimension_errors():
    with pytest.raises(DimensionError):
        lg.energy(2).grad([1.0])
    with pytest.raises(DimensionError):
        lg.energy(0)


@pytest.mark.parametrize(
    "factory", [lg.energy, lg.von_neumann, lg.spence], ids=lambda cls: cls.kind
)
def test_nonnegative_means_negative_points_lie_outside(factory):
    fn = factory(2)
    assert fn.nonnegative == (not fn.in_domain(-np.ones(2)))


@pytest.mark.parametrize("fn", catalog(), ids=lambda fn: fn.kind)
def test_start_is_interior(fn):
    z0 = fn.start()
    assert z0.shape == (fn.dim,)
    assert fn.in_interior(z0)


def test_interior_floor_is_interior():
    assert lg.INTERIOR_FLOOR > lg.BOUNDARY_MARGIN
    for fn in (lg.von_neumann(1), lg.spence(1)):
        assert fn.in_interior([lg.INTERIOR_FLOOR])


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


def box_conj_grad_reference(t: float, lo: float, hi: float) -> mpmath.mpf:
    """The root of x + 1/(hi - x) - 1/(x - lo) = t by bisection at 80 digits,
    in the distance d to the nearer bound: geometric while the bracket spans
    more than a factor 2, then halving to a relative width of 2^-80."""
    with mpmath.workdps(80):
        t, lo, hi = mpmath.mpf(t), mpmath.mpf(lo), mpmath.mpf(hi)
        half = (hi - lo) / 2
        upper = t >= (lo + hi) / 2

        def excess(d):  # phi'(x) - t signed to fall as d grows
            if upper:
                return hi - d + 1 / d - 1 / (2 * half - d) - t
            return 1 / d - 1 / (2 * half - d) - lo - d + t

        a, b = half * mpmath.mpf(10) ** -40, half
        assert excess(a) > 0 >= excess(b)
        while b - a > a * mpmath.mpf(2) ** -80:
            mid = mpmath.sqrt(a * b) if b > 2 * a else (a + b) / 2
            if excess(mid) > 0:
                a = mid
            else:
                b = mid
        d = (a + b) / 2
        return hi - d if upper else lo + d


def test_box_conj_grad_accuracy():
    # |x - x*| in units of eps * max(|x*|, distance of x* to its nearer
    # bound): the rounding of x itself, or of the gap to the bound near one
    rng = np.random.default_rng(20)
    n = 640
    width = 10.0 ** rng.uniform(-4.0, 4.0, n)
    centre = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2.0, 4.0, n)
    tau = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 12.0, n)
    lo, hi = centre - width / 2, centre + width / 2
    t = centre + tau
    x = lg.box_barrier(lo, hi).conj_grad(t)
    eps = np.finfo(float).eps
    worst = 0.0
    for i in range(n):
        ref = box_conj_grad_reference(t[i], lo[i], hi[i])
        scale = max(abs(ref), min(ref - lo[i], hi[i] - ref))
        worst = max(worst, float(abs(x[i] - ref) / scale) / eps)
    assert worst <= 8.0, f"conj_grad off by {worst:.1f} eps"


def test_box_conj_grad_beyond_the_box_scale():
    # far targets round to the bound itself, with no division by zero,
    # overflow or NaN on the way
    fn = lg.box_barrier([-1.0, -1.0, 1.0, 1.0], [2.0, 2.0, 3.0, 3.0])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for big in (1e200, 1e300):
            x = fn.conj_grad([big, -big, big, -big])
            assert x.tolist() == [2.0, -1.0, 3.0, 1.0]


@pytest.mark.parametrize(
    "lo, hi", [(-5e199, 5e199), (1e199, 1.1e200), (0.0, 1e-140), (-1e-140, 0.0), (1e-130, 1.01e-130)]
)
def test_box_conj_grad_extreme_widths(lo, hi):
    fn = lg.box_barrier([lo], [hi])
    targets = (-1e300, -1e150, -1.0, 0.0, 0.5 * (lo + hi), 1.0, 1e150, 1e300)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for t in targets:
            x = fn.conj_grad([t])[0]
            assert np.isfinite(x) and lo <= x <= hi, (t, x)


def test_box_barrier_copies_its_bounds():
    lo, hi = np.zeros(3), np.ones(3)
    fn = lg.box_barrier(lo, hi)
    lo[0], hi[0] = -1.0, 2.0
    assert lo.flags.writeable and hi.flags.writeable
    assert fn.lower.tolist() == [0.0, 0.0, 0.0] and fn.upper.tolist() == [1.0, 1.0, 1.0]
    assert not fn.lower.flags.writeable and not fn.upper.flags.writeable
