"""Tests for the subproblem objective, derivatives, and relative stopping rule."""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from bpalm import auglag
from bpalm.auglag import PointEvaluation, evaluate_anchor, make_context
from bpalm.exceptions import DomainError
from bpalm.legendre import (
    BOUNDARY_MARGIN,
    BregmanGeometry,
    box_barrier,
    bregman_distance,
    energy,
    spence,
    von_neumann,
)
from bpalm.penalty import penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective
from test_penalty import _phi_value_rows, conj_value, phi_value


def eq_qp_context(sigma=1.0, rho=0.0, x=(0.0,), y=(0.0,)):
    """min x^2/2 s.t. x = 1 with Euclidean geometry on both sides."""
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    geo = BregmanGeometry(energy(1), energy(1))
    pen = penalty_for(ps.g, geo.dual)
    return make_context(ps, pen, geo, evaluate_anchor(ps, geo, list(x), list(y)), sigma, rho)


def ineq_context(dual_kind="von_neumann", sigma=1.0, rho=0.5, x=(0.0,), y=(1.0,)):
    """min (x-2)^2/2 s.t. x <= 1."""
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [-2.0]),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    dual = {"von_neumann": von_neumann, "spence": spence, "energy": energy}[dual_kind](1)
    geo = BregmanGeometry(energy(1), dual)
    pen = penalty_for(ps.g, geo.dual)
    return make_context(ps, pen, geo, evaluate_anchor(ps, geo, list(x), list(y)), sigma, rho)


def marginal_value(ctx, s):
    """The subproblem objective f(s) + (P(u) + D_psi(s, x)) / sigma, u the dual
    argument at s; +inf off the primal domain."""
    s = np.asarray(s, dtype=float)
    psi = ctx.geometry.primal
    if not psi.in_domain(s):
        return math.inf
    u, _ = ctx.anchor.dual_update(ctx.penalty, ctx.sigma, ctx.problem.map.residual(s))
    prox = bregman_distance(psi, s, ctx.x_anchor)
    return ctx.problem.f.value(s) + (ctx.penalty.value(u) + prox) / ctx.sigma


def grad_at(ctx, s):
    return ctx.grad(ctx.evaluate(s))


def hess_at(ctx, s):
    return ctx.hess(ctx.evaluate(s))


def check_at(ctx, s):
    point = ctx.evaluate(s)
    return ctx.acceptance_check(point, ctx.grad(point))


class TestWorkedEqualityQP:
    def test_value_at_zero(self):
        ctx = eq_qp_context()
        assert marginal_value(ctx, [0.0]) == pytest.approx(0.5)

    def test_minimizer_is_one_third(self):
        ctx = eq_qp_context()
        s = np.linspace(-1, 1, 2001)
        vals = [marginal_value(ctx, [v]) for v in s]
        assert s[int(np.argmin(vals))] == pytest.approx(1 / 3, abs=1e-3)
        assert grad_at(ctx, [1 / 3]) == pytest.approx([0.0], abs=1e-12)

    def test_grad_at_anchor(self):
        ctx = eq_qp_context()
        assert grad_at(ctx, [0.0]) == pytest.approx([-1.0])

    def test_constant_hessian(self):
        ctx = eq_qp_context()
        np.testing.assert_allclose(hess_at(ctx, [0.2]), [[3.0]])
        np.testing.assert_allclose(hess_at(ctx, [-0.7]), [[3.0]])

    def test_anchor_gap(self):
        ctx = eq_qp_context()
        assert check_at(ctx, [1 / 3]).b_value == pytest.approx(5 / 18)
        assert ctx.evaluate([1 / 3]).y_plus == pytest.approx([-2 / 3])

    def test_value_at_anchor_without_prox(self):
        ctx = eq_qp_context()
        expected = ctx.problem.f.value(np.zeros(1)) + ctx.penalty.value(
            ctx.evaluate(np.zeros(1)).u
        )
        assert marginal_value(ctx, [0.0]) == pytest.approx(expected)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("dual_kind", ["von_neumann", "spence", "energy"])
    def test_ineq_finite_differences(self, dual_kind):
        ctx = ineq_context(dual_kind, sigma=0.7, rho=0.3, x=(0.4,), y=(0.8,))
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            s = rng.normal(size=1)
            g = grad_at(ctx, s)
            fd = (marginal_value(ctx, s + h) - marginal_value(ctx, s - h)) / (2 * h)
            assert g[0] == pytest.approx(fd, rel=1e-5, abs=1e-6)
            Hfd = (grad_at(ctx, s + h)[0] - grad_at(ctx, s - h)[0]) / (2 * h)
            assert hess_at(ctx, s)[0, 0] == pytest.approx(Hfd, rel=1e-4, abs=1e-5)

    @pytest.mark.parametrize(
        "variant, dual_kind",
        [
            ("orthant", "von_neumann"),  # sumexp
            ("vecmax", "von_neumann"),  # logsumexp_plus_one
            ("orthant", "spence"),  # softplus_integral
            ("zero", "energy"),  # half_square
            ("orthant", "energy"),  # max_half_square
            ("one_norm", "energy"),  # huber
        ],
    )
    @pytest.mark.parametrize("barrier", [False, True])
    def test_hessian_matches_dense_reference(self, variant, dual_kind, barrier):
        n, m = 5, 4
        rng = np.random.default_rng(11)
        root = rng.normal(size=(n, n))
        lo, hi = -np.ones(n), np.ones(n)
        box = (lo, hi) if barrier else None
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(root @ root.T + np.eye(n), rng.normal(size=n), box=box),
            g=NonsmoothTerm(variant),
            map=AffineMap.from_dense(2.0 * rng.normal(size=(m, n)), rng.normal(size=m)),
        )
        primal = box_barrier(lo, hi) if barrier else energy(n)
        dual = {"von_neumann": von_neumann, "spence": spence, "energy": energy}[dual_kind](m)
        geo = BregmanGeometry(primal, dual)
        pen = penalty_for(ps.g, geo.dual)
        y = rng.uniform(0.2, 0.9, m)
        A = ps.map.A
        for sigma in (0.5, 0.3, 4.0):
            anchor = evaluate_anchor(ps, geo, rng.uniform(-0.5, 0.5, n), y)
            ctx = make_context(ps, pen, geo, anchor, sigma, 0.5)
            for _ in range(3):
                s = rng.uniform(-0.9, 0.9, n)
                u = ctx.evaluate(s).u
                expected = (
                    ps.f.hess(s)
                    + sigma * (A.T @ pen.hess(u) @ A)
                    + np.diag(primal.hess_diag(s) / sigma)
                )
                if math.log2(sigma).is_integer():
                    np.testing.assert_array_equal(hess_at(ctx, s), expected)
                else:
                    np.testing.assert_allclose(hess_at(ctx, s), expected, rtol=1e-13, atol=1e-12)

    def test_barrier_primal_derivatives(self):
        lo, hi = np.zeros(2), np.ones(2)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(2), [-0.8, -0.2], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0, 1.0]], [0.7]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        pen = penalty_for(ps.g, geo.dual)
        ctx = make_context(ps, pen, geo, evaluate_anchor(ps, geo, [0.4, 0.5], [0.1]), 2.0, 0.2)
        rng = np.random.default_rng(4)
        h = 1e-7
        for _ in range(10):
            s = rng.uniform(0.1, 0.9, 2)
            g = grad_at(ctx, s)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (marginal_value(ctx, s + e) - marginal_value(ctx, s - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_value_infinite_outside_box(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.5]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        anchor = evaluate_anchor(ps, geo, [0.5], [0.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 1.0, 0.0)
        assert marginal_value(ctx, [1.5]) == math.inf
        assert marginal_value(ctx, [1.0]) == math.inf  # barrier domain is the open box

    def test_softplus_penalty_hessian_contribution(self):
        # y = ln 2 zeroes the dual gradient and s = 1 zeroes the residual, so
        # the dual argument is exactly 0 and the penalty block contributes
        # sigma * sigmoid(0) * A'A = sigma/2 * A'A
        ctx = ineq_context("spence", sigma=2.0, x=(0.3,), y=(math.log(2.0),))
        s = np.array([1.0])
        np.testing.assert_allclose(ctx.evaluate(s).u, [0.0], atol=1e-15)
        expected = 1.0 + ctx.sigma * 0.5 * 1.0 + 1.0 / ctx.sigma
        np.testing.assert_allclose(hess_at(ctx, s), [[expected]])


class TestStoppingRule:
    def test_exact_minimizer_accepted_any_rho(self):
        # anchors at the saddle point make s = x an exact stationary point,
        # so lhs = 0 and the test passes even with rho = 0
        ctx = eq_qp_context(rho=0.0, x=(1.0,), y=(-1.0,))
        check = check_at(ctx, [1.0])
        assert check.lhs == 0.0
        assert check.accepted
        # the float minimizer of the shifted subproblem is accepted once rho > 0
        ctx2 = eq_qp_context(rho=0.5)
        check2 = check_at(ctx2, [1 / 3])
        assert check2.lhs <= 1e-24
        assert check2.accepted

    def test_energy_reduction_identity(self):
        ctx = ineq_context("von_neumann", sigma=1.3, rho=0.4, x=(0.2,), y=(0.7,))
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = rng.normal(size=1)
            point = ctx.evaluate(s)
            g = ctx.grad(point)
            check = ctx.acceptance_check(point, g)
            assert check.lhs == pytest.approx(
                0.5 * ctx.sigma**2 * float(g @ g), abs=1e-12
            )

    def test_simplified_form_example(self):
        # energy primal, ||grad|| = 0.1, sigma = 1, rho = 0.5, B = 0.2:
        # lhs = 0.005 <= 0.1 = rho B
        lhs = 0.5 * 1.0**2 * 0.1**2
        assert lhs == pytest.approx(0.005)
        assert lhs <= 0.5 * 0.2

    def test_rho_zero_rejects_nonstationary(self):
        ctx = eq_qp_context(rho=0.0)
        check = check_at(ctx, [0.5])
        assert not check.accepted
        assert check.lhs > 0.0

    def test_x_plus_matches_extragradient(self):
        ctx = eq_qp_context(rho=0.5)
        point = ctx.evaluate(np.array([0.4]))
        g = ctx.grad(point)
        check = ctx.acceptance_check(point, g)
        np.testing.assert_allclose(check.x_plus, ctx.extragradient(point, g), atol=1e-14)

    def test_barrier_x_plus_stays_interior(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [-2.0], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.8]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        anchor = evaluate_anchor(ps, geo, [0.5], [0.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 5.0, 0.5)
        check = check_at(ctx, np.array([0.9]))
        assert 0.0 < check.x_plus[0] < 1.0


class TestMarginalization:
    @pytest.mark.parametrize("dual_kind", ["von_neumann", "spence", "energy"])
    def test_value_matches_dual_supremum(self, dual_kind):
        # J(s) minus its proximal term equals sup_eta L(s, eta) - D(eta, y)/sigma
        # plus the dropped constant phi*(grad phi(y))/sigma
        ctx = ineq_context(dual_kind, sigma=1.7, rho=0.3, x=(0.3,), y=(0.9,))
        phi = ctx.geometry.dual
        etas = np.linspace(1e-9, 30.0, 300001) if dual_kind != "energy" else np.linspace(0.0, 30.0, 300001)
        for s_val in (-0.5, 0.2, 1.4):
            s = np.array([s_val])
            r = float(ctx.problem.map.residual(s)[0])
            # L(s, eta) - D_phi(eta, y)/sigma over the conjugate domain eta >= 0
            phi_y = float(phi.grad(ctx.y_anchor)[0])
            phi_anchor = phi_value(phi, ctx.y_anchor)
            etas_c = etas[::1000]
            phi_vals = _phi_value_rows(dual_kind, etas_c[:, None])
            dvals = phi_vals - phi_anchor - phi_y * (etas_c - ctx.y_anchor[0])
            obj = ctx.problem.f.value(s) + r * etas_c - dvals / ctx.sigma
            coarse_best = etas_c[int(np.argmax(obj))]
            fine = np.linspace(max(coarse_best - 0.2, 1e-12), coarse_best + 0.2, 20001)
            phi_vals = _phi_value_rows(dual_kind, fine[:, None])
            dvals = phi_vals - phi_anchor - phi_y * (fine - ctx.y_anchor[0])
            obj = ctx.problem.f.value(s) + r * fine - dvals / ctx.sigma
            sup = float(np.max(obj))
            offset = conj_value(phi, phi.grad(ctx.y_anchor)) / ctx.sigma
            j_no_prox = marginal_value(ctx, s) - 0.5 * (s_val - ctx.x_anchor[0]) ** 2 / ctx.sigma
            assert j_no_prox == pytest.approx(sup + offset, abs=1e-4)

    @pytest.mark.parametrize("dual_kind", ["von_neumann", "spence"])
    def test_multiplier_candidate_optimality(self, dual_kind):
        # grad phi(y+) matches the dual argument for smooth conjugate pairs
        ctx = ineq_context(dual_kind, sigma=2.2, x=(0.1,), y=(1.3,))
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = rng.normal(size=1)
            point = ctx.evaluate(s)
            resid = ctx.geometry.dual.grad(point.y_plus) - point.u
            assert np.linalg.norm(resid) <= 1e-10

    def test_strong_convexity_floor(self):
        ctx = ineq_context("von_neumann", sigma=3.0, x=(0.5,), y=(1.0,))
        rng = np.random.default_rng(9)
        for _ in range(10):
            s = rng.normal(size=1)
            H = hess_at(ctx, s)
            psi_floor = np.min(ctx.geometry.primal.hess_diag(s)) / ctx.sigma
            assert np.min(np.linalg.eigvalsh(H)) >= psi_floor - 1e-10


class TestPointEvaluation:
    """Evaluation is pure: a point's `PointEvaluation` serves every method
    that takes the point, and the warm start is evaluated from the anchor's
    own values."""

    @staticmethod
    def context():
        return ineq_context("spence", sigma=0.5)

    @staticmethod
    def results(ctx, point):
        g = ctx.grad(point)
        check = ctx.acceptance_check(point, g)
        return g, check.lhs, check.rhs, check.x_plus, ctx.hess(point)

    def assert_fresh(self, ctx, point, array):
        fresh = self.context()
        for got, want in zip(self.results(ctx, point), self.results(fresh, fresh.evaluate(array))):
            np.testing.assert_array_equal(got, want)

    def test_writable_point_mutated_in_place(self):
        ctx = self.context()
        s = np.array([0.3])
        before = self.results(ctx, ctx.evaluate(s))
        s[0] = -0.2
        self.assert_fresh(ctx, ctx.evaluate(s), s.copy())
        assert grad_at(ctx, s)[0] != before[0][0]

    def test_read_only_view_of_a_writable_array(self):
        ctx = self.context()
        base = np.array([0.3])
        s = base[:]
        s.flags.writeable = False
        before = self.results(ctx, ctx.evaluate(s))
        base[0] = -0.2
        self.assert_fresh(ctx, ctx.evaluate(s), s.copy())
        assert grad_at(ctx, s)[0] != before[0][0]

    def test_evaluation_serves_every_method(self):
        ctx = self.context()
        s = np.array([0.3])
        point = ctx.evaluate(s)
        assert point.s is s
        self.assert_fresh(ctx, point, s.copy())

    def test_anchor_point_reads_the_anchor(self):
        ctx = self.context()
        point = ctx.start
        assert point.s is ctx.x_anchor
        assert point.residual is ctx.anchor.residual
        assert point.grad_f is ctx.anchor.grad_f
        self.assert_fresh(ctx, point, ctx.x_anchor.copy())


class TestContextValidation:
    def test_rejects_bad_sigma_rho(self):
        with pytest.raises(DomainError):
            eq_qp_context(sigma=0.0)
        with pytest.raises(DomainError):
            eq_qp_context(rho=1.0)

    def test_rejects_boundary_anchors(self):
        with pytest.raises(DomainError):
            ineq_context("von_neumann", y=(0.0,))

    def test_anchors_frozen(self):
        ctx = eq_qp_context()
        with pytest.raises(ValueError):
            ctx.x_anchor[0] = 5.0

    def test_only_writable_anchors_copied(self):
        ctx = eq_qp_context()
        frozen = np.array([0.25])
        frozen.flags.writeable = False
        writable = np.array([0.5])
        view = writable[:]
        view.flags.writeable = False  # read-only, but its owner is not
        shared = evaluate_anchor(ctx.problem, ctx.geometry, frozen, view)
        assert shared.x is frozen
        assert shared.y is not view and not shared.y.flags.writeable
        assert evaluate_anchor(ctx.problem, ctx.geometry, writable, frozen).x is not writable


DUALS = {"von_neumann": von_neumann, "spence": spence, "energy": energy}


def orthant_context(dual_kind, y, rho, n=2):
    """Energy primal anchored at 0 and an m-dimensional dual geometry anchored
    at y, over m orthant constraints."""
    m = len(y)
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(np.eye(n), np.zeros(n)),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense(np.ones((m, n)), np.zeros(m)),
    )
    geo = BregmanGeometry(energy(n), DUALS[dual_kind](m))
    anchor = evaluate_anchor(ps, geo, np.zeros(n), y)
    return make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 1.0, rho)


def taylor_threshold(ctx, primal, y_plus):
    """rho (D_psi + U)(1 + delta) as `acceptance_check` states it, from scratch."""
    phi, y = ctx.geometry.dual, ctx.y_anchor
    d = y_plus - y
    curvature = np.maximum(phi.hess_diag(y_plus), phi.hess_diag(y))
    delta = 2.0**-31 + (2 * d.size + 16) * 2.0**-53
    return ctx.rho * (primal + 0.5 * float(np.sum(d * d * curvature))) * (1.0 + delta)


def same_check(a, b):
    return (a.accepted, a.lhs, a.rhs, a.b_value) == (b.accepted, b.lhs, b.rhs, b.b_value) and (
        np.array_equal(a.x_plus, b.x_plus)
    )


# interior anchor coordinates from 1e-100 up; offsets y_plus / y - 1 near 0
# (down to 1e-12), or far, down to y_plus = 0
_COORDINATE = st.floats(-100.0, 3.0).map(lambda e: 10.0**e)
_OFFSET = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -3.0)).map(
        lambda p: p[0] * 10.0 ** p[1]
    ),
    st.floats(-1.0, 1e3),
)


class TestEarlyRejection:
    """Where the caller keeps no B, a Taylor bound on D_phi may reject the
    test without the exact distance, and only where the exact test rejects."""

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from(sorted(DUALS)),
        coords=st.lists(st.tuples(_COORDINATE, _OFFSET), min_size=1, max_size=6),
        rho=st.floats(0.01, 0.99),
        primal=st.sampled_from([0.0, 1e-30, 1e-8, 1.0]),
        target=st.sampled_from(["exact", "bound"]),
        lean=st.integers(-64, 64),
    )
    def test_bound_rejects_only_where_the_exact_test_rejects(
        self, kind, coords, rho, primal, target, lean
    ):
        y = np.array([c for c, _ in coords])
        y_plus = y * (1.0 + np.array([o for _, o in coords]))
        ctx = orthant_context(kind, y, rho)
        s = np.array([math.sqrt(2.0 * primal), 0.0])
        zeros = np.zeros(len(y))
        point = PointEvaluation(s, zeros, s, s, zeros, y_plus)  # the test reads s and y_plus
        # lhs = |g|^2 / 2 at sigma = 1, placed a few ulps from either threshold
        if target == "bound" and np.all(y_plus > BOUNDARY_MARGIN):
            base = taylor_threshold(ctx, bregman_distance(energy(2), s, np.zeros(2)), y_plus)
        else:
            base = ctx.acceptance_check(point, np.zeros(2)).rhs
        assume(math.isfinite(base))
        g = np.array([math.sqrt(2.0 * base * (1.0 + lean * 2.0**-52)), 0.0])
        exact = ctx.acceptance_check(point, g)
        lean_check = ctx.acceptance_check(point, g, exact=False)
        if math.isnan(lean_check.b_value):
            event("rejected on the bound")
            assert not exact.accepted
            assert lean_check.lhs == exact.lhs and math.isnan(lean_check.rhs)
            assert np.array_equal(lean_check.x_plus, exact.x_plus)
        else:
            assert same_check(lean_check, exact)

    def test_bound_decides_clear_rejections(self):
        ctx = orthant_context("spence", np.array([0.5, 2.0]), 0.5)
        point = ctx.evaluate(np.array([0.3, -0.1]))
        g = ctx.grad(point)
        exact = ctx.acceptance_check(point, g)
        assert not exact.accepted and exact.lhs > 10.0 * exact.rhs
        lean_check = ctx.acceptance_check(point, g, exact=False)
        assert not lean_check.accepted and math.isnan(lean_check.b_value)

    @pytest.mark.parametrize("kind", ["von_neumann", "spence"])
    def test_boundary_multiplier_takes_the_exact_path(self, kind):
        # y_plus = 0 in a coordinate: phi'' is unbounded there
        ctx = orthant_context(kind, np.array([0.5, 2.0]), 0.5)
        zeros = np.zeros(2)
        point = PointEvaluation(zeros, zeros, zeros, zeros, zeros, np.array([0.0, 2.0]))
        g = np.array([100.0, 0.0])
        assert same_check(ctx.acceptance_check(point, g, exact=False), ctx.acceptance_check(point, g))


class TestTrustedDistance:
    """The acceptance test's one-point distances skip the domain checks that
    the anchor and the iterates have already passed, with the same bits."""

    @pytest.mark.parametrize(
        "fn",
        [energy(5), von_neumann(5), spence(5), box_barrier(-np.ones(5), 2.0 * np.ones(5))],
        ids=lambda f: f.kind,
    )
    def test_equals_bregman_distance_bit_for_bit(self, fn):
        rng = np.random.default_rng(31)
        for _ in range(50):
            if fn.kind == "box_barrier":
                z1, z2 = rng.uniform(-0.9, 1.9, (2, 5))
            else:
                z1, z2 = np.exp(rng.uniform(-8.0, 4.0, (2, 5)))
            cases = [(z1, z2), (z2, z2), (z2 * (1.0 + 1e-12), z2)]
            if fn.kind in ("von_neumann", "spence"):
                cases.append((np.where(rng.uniform(size=5) < 0.5, 0.0, z1), z2))
            for a, b in cases:
                got, want = auglag._distance(fn, a, b), bregman_distance(fn, a, b)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("kind", ["von_neumann", "spence", "energy"])
    def test_non_finite_point_keeps_the_validated_result(self, kind):
        fn = DUALS[kind](3)
        z2 = np.array([0.5, 1.0, 2.0])
        for bad in (math.nan, math.inf):
            z1 = np.array([0.5, bad, 2.0])
            with np.errstate(all="ignore"):
                got, want = auglag._distance(fn, z1, z2), bregman_distance(fn, z1, z2)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        if kind != "energy":  # off the domain
            assert auglag._distance(fn, np.array([0.5, math.nan, 2.0]), z2) == math.inf

    def test_one_row_spence_equals_the_row_in_a_stack(self):
        rng = np.random.default_rng(32)
        fn = spence(40)
        b = np.exp(rng.uniform(-5.0, 3.0, 40))
        z = b * (1.0 + 0.4 * rng.uniform(-1.0, 1.0, (30, 40)))
        z[::3, ::4] = 0.0  # far coordinates in every third row
        stacked = fn.distance(z, np.broadcast_to(b, z.shape))
        for i, row in enumerate(z):
            assert fn.distance(row, b).tobytes() == stacked[i].tobytes()
