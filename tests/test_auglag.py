"""Tests for the subproblem objective, derivatives, and relative stopping rule."""

import math

import numpy as np
import pytest

from bpalm.auglag import evaluate_anchor, make_context
from bpalm.exceptions import DomainError
from bpalm.legendre import BregmanGeometry, box_barrier, energy, spence, von_neumann
from bpalm.penalty import penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective


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


class TestWorkedEqualityQP:
    def test_value_at_zero(self):
        ctx = eq_qp_context()
        assert ctx.value([0.0]) == pytest.approx(0.5)

    def test_minimizer_is_one_third(self):
        ctx = eq_qp_context()
        s = np.linspace(-1, 1, 2001)
        vals = [ctx.value([v]) for v in s]
        assert s[int(np.argmin(vals))] == pytest.approx(1 / 3, abs=1e-3)
        assert ctx.grad([1 / 3]) == pytest.approx([0.0], abs=1e-12)

    def test_grad_at_anchor(self):
        ctx = eq_qp_context()
        assert ctx.grad([0.0]) == pytest.approx([-1.0])

    def test_constant_hessian(self):
        ctx = eq_qp_context()
        np.testing.assert_allclose(ctx.hess([0.2]), [[3.0]])
        np.testing.assert_allclose(ctx.hess([-0.7]), [[3.0]])

    def test_anchor_gap(self):
        ctx = eq_qp_context()
        assert ctx.anchor_gap([1 / 3]) == pytest.approx(5 / 18)
        assert ctx.evaluate([1 / 3]).y_plus == pytest.approx([-2 / 3])

    def test_value_at_anchor_without_prox(self):
        ctx = eq_qp_context()
        expected = ctx.problem.f.value(np.zeros(1)) + ctx.penalty.value(
            ctx.evaluate(np.zeros(1)).u
        )
        assert ctx.value([0.0]) == pytest.approx(expected)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("dual_kind", ["von_neumann", "spence", "energy"])
    def test_ineq_finite_differences(self, dual_kind):
        ctx = ineq_context(dual_kind, sigma=0.7, rho=0.3, x=(0.4,), y=(0.8,))
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            s = rng.normal(size=1)
            g = ctx.grad(s)
            fd = (ctx.value(s + h) - ctx.value(s - h)) / (2 * h)
            assert g[0] == pytest.approx(fd, rel=1e-5, abs=1e-6)
            Hfd = (ctx.grad(s + h)[0] - ctx.grad(s - h)[0]) / (2 * h)
            assert ctx.hess(s)[0, 0] == pytest.approx(Hfd, rel=1e-4, abs=1e-5)

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
                    np.testing.assert_array_equal(ctx.hess(s), expected)
                else:
                    np.testing.assert_allclose(ctx.hess(s), expected, rtol=1e-13, atol=1e-12)

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
            g = ctx.grad(s)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (ctx.value(s + e) - ctx.value(s - e)) / (2 * h)
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
        assert ctx.value([1.5]) == math.inf
        assert ctx.value([1.0]) == math.inf  # barrier domain is the open box

    def test_softplus_penalty_hessian_contribution(self):
        # y = ln 2 zeroes the dual gradient and s = 1 zeroes the residual, so
        # the dual argument is exactly 0 and the penalty block contributes
        # sigma * sigmoid(0) * A'A = sigma/2 * A'A
        ctx = ineq_context("spence", sigma=2.0, x=(0.3,), y=(math.log(2.0),))
        s = np.array([1.0])
        np.testing.assert_allclose(ctx.evaluate(s).u, [0.0], atol=1e-15)
        expected = 1.0 + ctx.sigma * 0.5 * 1.0 + 1.0 / ctx.sigma
        np.testing.assert_allclose(ctx.hess(s), [[expected]])


class TestStoppingRule:
    def test_exact_minimizer_accepted_any_rho(self):
        # anchors at the saddle point make s = x an exact stationary point,
        # so lhs = 0 and the test passes even with rho = 0
        ctx = eq_qp_context(rho=0.0, x=(1.0,), y=(-1.0,))
        check = ctx.acceptance_check([1.0])
        assert check.lhs == 0.0
        assert check.accepted
        # the float minimizer of the shifted subproblem is accepted once rho > 0
        ctx2 = eq_qp_context(rho=0.5)
        check2 = ctx2.acceptance_check([1 / 3])
        assert check2.lhs <= 1e-24
        assert check2.accepted

    def test_energy_reduction_identity(self):
        ctx = ineq_context("von_neumann", sigma=1.3, rho=0.4, x=(0.2,), y=(0.7,))
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = rng.normal(size=1)
            g = ctx.grad(s)
            check = ctx.acceptance_check(s, g)
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
        check = ctx.acceptance_check([0.5])
        assert not check.accepted
        assert check.lhs > 0.0

    def test_x_plus_matches_extragradient(self):
        ctx = eq_qp_context(rho=0.5)
        s = np.array([0.4])
        check = ctx.acceptance_check(s)
        np.testing.assert_allclose(check.x_plus, ctx.extragradient(s), atol=1e-14)

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
        check = ctx.acceptance_check(np.array([0.9]))
        assert check.domain_ok
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
            phi_vals = np.array([phi.value([e]) for e in etas[:: 1000]])
            etas_c = etas[::1000]
            dvals = phi_vals - phi.value(ctx.y_anchor) - phi_y * (etas_c - ctx.y_anchor[0])
            obj = ctx.problem.f.value(s) + r * etas_c - dvals / ctx.sigma
            coarse_best = etas_c[int(np.argmax(obj))]
            fine = np.linspace(max(coarse_best - 0.2, 1e-12), coarse_best + 0.2, 20001)
            phi_vals = np.array([phi.value([e]) for e in fine])
            dvals = phi_vals - phi.value(ctx.y_anchor) - phi_y * (fine - ctx.y_anchor[0])
            obj = ctx.problem.f.value(s) + r * fine - dvals / ctx.sigma
            sup = float(np.max(obj))
            offset = phi.conj_value(phi.grad(ctx.y_anchor)) / ctx.sigma
            j_no_prox = ctx.value(s) - 0.5 * (s_val - ctx.x_anchor[0]) ** 2 / ctx.sigma
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
            H = ctx.hess(s)
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
    def results(ctx, s):
        check = ctx.acceptance_check(s)
        return ctx.grad(s), check.lhs, check.rhs, check.x_plus, ctx.hess(s)

    def assert_fresh(self, ctx, s, array=None):
        array = s.copy() if array is None else array
        for got, want in zip(self.results(ctx, s), self.results(self.context(), array)):
            np.testing.assert_array_equal(got, want)

    def test_writable_point_mutated_in_place(self):
        ctx = self.context()
        s = np.array([0.3])
        before = self.results(ctx, s)
        s[0] = -0.2
        self.assert_fresh(ctx, s)
        assert ctx.grad(s)[0] != before[0][0]

    def test_read_only_view_of_a_writable_array(self):
        ctx = self.context()
        base = np.array([0.3])
        s = base[:]
        s.flags.writeable = False
        before = self.results(ctx, s)
        base[0] = -0.2
        self.assert_fresh(ctx, s)
        assert ctx.grad(s)[0] != before[0][0]

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
