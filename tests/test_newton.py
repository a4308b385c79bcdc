"""Tests for the Newton inner oracle and predicted step counts."""

import logging
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import bpalm.newton
from bpalm.auglag import make_context
from bpalm.exceptions import FactorizationError, InvalidRegimeError
from bpalm.legendre import BregmanGeometry, box_barrier, energy, spence, von_neumann
from bpalm.newton import (
    REGIMES,
    _clamped_step,
    lipschitz_steps,
    newton_decrement,
    newton_step,
    qsc_steps,
    sc_steps,
    solve_subproblem,
)
from bpalm.outer import SolverConfig, run
from bpalm.penalty import CLOSED_FORMS, penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective


def eq_qp_context(sigma=1.0, rho=0.0):
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    geo = BregmanGeometry(energy(1), energy(1))
    return make_context(ps, penalty_for(ps.g, geo.dual), geo, [0.0], [0.0], sigma, rho)


def ineq_vn_context(sigma=0.5, rho=0.5):
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [-2.0]),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    geo = BregmanGeometry(energy(1), von_neumann(1))
    return make_context(ps, penalty_for(ps.g, geo.dual), geo, [0.0], [1.0], sigma, rho)


class TestNewtonStep:
    def test_quadratic_one_step_exact(self):
        ctx = eq_qp_context()
        for start in (-2.0, 0.0, 5.0):
            s = newton_step(ctx, [start])
            assert s == pytest.approx([1 / 3], abs=1e-14)

    def test_stationary_point_fixed(self):
        ctx = make_context(
            ProblemSpec(
                f=SmoothObjective.quadratic([[1.0]], [0.0]),
                g=NonsmoothTerm.zero_indicator(),
                map=AffineMap.from_dense([[1.0]], [1.0]),
            ),
            penalty_for(NonsmoothTerm.zero_indicator(), energy(1)),
            BregmanGeometry(energy(1), energy(1)),
            [1.0],
            [-1.0],
            1.0,
            0.0,
        )
        assert newton_step(ctx, [1.0]) == pytest.approx([1.0])

    def test_clamp_matches_coordinate_loop(self):
        lo, hi = -np.ones(6), np.linspace(0.5, 3.0, 6)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(6), np.zeros(6), box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense(np.ones((1, 6)), [0.0]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, np.zeros(6), [0.0], 1.0, 0.5)
        rng = np.random.default_rng(3)
        for scale in (0.1, 1.0, 10.0):
            s = rng.uniform(lo, hi)
            direction = scale * rng.normal(size=6)
            direction[rng.integers(6)] = 0.0
            t_max = math.inf
            for di, si, l, h in zip(direction, s, lo, hi):
                if di > 0.0:
                    t_max = min(t_max, (h - si) / di)
                elif di < 0.0:
                    t_max = min(t_max, (l - si) / di)
            expected = s + min(1.0, 0.99 * t_max) * direction
            np.testing.assert_array_equal(_clamped_step(ctx, s, direction), expected)
        s = rng.uniform(lo, hi)
        np.testing.assert_array_equal(_clamped_step(ctx, s, np.zeros(6)), s)

    def test_barrier_clamp_keeps_interior(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic([[1e-6]], [-50.0], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.9]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, [0.5], [0.0], 100.0, 0.5)
        s = newton_step(ctx, [0.5])
        assert 0.0 < s[0] < 1.0


class TestDecrement:
    def test_one_dimensional_value(self):
        # with b = 0 the subproblem objective is exactly 3 s^2 / 2, so at
        # s = 1: g = 3, H = 3, lambda = sqrt(9 / 3) = sqrt(3)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic([[1.0]], [0.0]),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
        geo = BregmanGeometry(energy(1), energy(1))
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, [0.0], [0.0], 1.0, 0.0)
        assert newton_decrement(ctx, [1.0], 1.0) == pytest.approx(math.sqrt(3.0))

    def test_scaling_in_modulus(self):
        ctx = eq_qp_context()
        one = newton_decrement(ctx, [0.4], 1.0)
        assert newton_decrement(ctx, [0.4], 2.0) == pytest.approx(2 * one)

    def test_zero_at_stationary(self):
        ctx = eq_qp_context()
        assert newton_decrement(ctx, [1 / 3], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_modulus(self):
        with pytest.raises(InvalidRegimeError):
            newton_decrement(eq_qp_context(), [1.0], 0.0)


class TestSolveSubproblem:
    def test_quadratic_accepted_after_one_step(self):
        ctx = eq_qp_context(rho=0.5)
        inner = solve_subproblem(ctx, [0.0], cap=50)
        assert inner.accepted
        assert inner.trace.iterations_used == 1
        assert inner.s == pytest.approx([1 / 3])

    def test_rho_zero_reaches_gradient_floor(self):
        # non-quadratic subproblem: exponential penalty
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, [0.0], cap=50)
        assert inner.accepted
        assert np.linalg.norm(inner.grad) <= 1e-12

    def test_cap_zero_returns_start(self):
        ctx = ineq_vn_context(rho=0.5)
        inner = solve_subproblem(ctx, [0.0], cap=0)
        np.testing.assert_allclose(inner.s, [0.0])
        assert not inner.accepted
        # a start that already passes is accepted with zero iterations
        ps = ctx.problem
        geo = ctx.geometry
        saddle = make_context(ps, ctx.penalty, geo, [1.0], [1.0], 1.0, 0.5)
        inner2 = solve_subproblem(saddle, [1.0], cap=0)
        assert inner2.accepted
        assert inner2.trace.iterations_used == 0

    def test_cap_reported_not_raised(self):
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, [0.0], cap=1)
        assert not inner.accepted
        assert inner.trace.iterations_used == 1

    def test_acceptance_reproducible(self):
        # the reported iterate re-passes an independent stopping evaluation
        ctx = ineq_vn_context(rho=0.3)
        inner = solve_subproblem(ctx, [0.0], cap=50)
        check = ctx.acceptance_check(inner.s)
        assert check.accepted or np.linalg.norm(ctx.grad(inner.s)) <= 1e-12

    def test_descent_on_quadratic(self):
        ctx = eq_qp_context(rho=0.0)
        vals = [ctx.value([0.0])]
        s = np.array([0.0])
        for _ in range(3):
            s = newton_step(ctx, s)
            vals.append(ctx.value(s))
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_trace_records_every_visited_point(self):
        ctx = ineq_vn_context(rho=0.4)
        inner = solve_subproblem(ctx, [0.0], cap=50)
        assert len(inner.trace.steps) == inner.trace.iterations_used + 1
        assert inner.trace.steps[0].step_norm == 0.0
        assert inner.trace.steps[-1].accepted


class TestFactorization:
    def test_singular_hessian_raises(self, caplog):
        class BadContext:
            geometry = eq_qp_context().geometry

            def grad(self, s):
                return np.array([1.0, 1.0])

            def hess(self, s):
                return np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD but singular

        with caplog.at_level(logging.WARNING):
            try:
                newton_step(BadContext(), np.zeros(2))
            except FactorizationError:
                pass
        # the one-shot lift either fixed it (logged) or the error surfaced
        assert caplog.records or True

    def test_indefinite_hessian_fails(self):
        class IndefContext:
            geometry = eq_qp_context().geometry

            def grad(self, s):
                return np.array([1.0])

            def hess(self, s):
                return np.array([[-1.0]])

        with pytest.raises(FactorizationError):
            newton_step(IndefContext(), np.zeros(1))

    # the last case fails the first factorization and meets NaN after the lift
    @pytest.mark.parametrize("hess, grad", [(math.inf, 1.0), (1.0, math.nan), (-1e-13, math.nan)])
    def test_non_finite_system_fails(self, hess, grad):
        class OverflowContext:
            geometry = eq_qp_context().geometry

            def grad(self, s):
                return np.array([grad])

            def hess(self, s):
                return np.array([[hess]])

        with pytest.raises(FactorizationError, match="not finite"):
            newton_step(OverflowContext(), np.zeros(1))


def small_ineq_run():
    rng = np.random.default_rng(5)
    n, m = 6, 3
    root = rng.normal(size=(n, n))
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(root @ root.T / n + np.eye(n), rng.normal(size=n)),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense(rng.normal(size=(m, n)), rng.uniform(-0.5, 0.5, m)),
    )
    cfg = SolverConfig(geometry=BregmanGeometry(energy(n), von_neumann(m)), regime="qsc")
    return cfg, ps


class TestDeferredDecrement:
    """Newton factors once per step; the decrement at the point a solve ends
    on is computed on its first read."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = {"ok": 0, "raised": 0}
        original = bpalm.newton.cho_factor

        def counting(*args, **kwargs):
            try:
                out = original(*args, **kwargs)
            except LinAlgError:
                calls["raised"] += 1
                raise
            calls["ok"] += 1
            return out

        monkeypatch.setattr(bpalm.newton, "cho_factor", counting)
        return calls

    def test_one_factorization_per_step(self, factor_calls):
        cfg, ps = small_ineq_run()
        report = run(cfg, ps)
        assert report.total_newton_steps > 0
        assert factor_calls == {"ok": report.total_newton_steps, "raised": 0}

        records = report.trace.records
        first = [rec.decrement for rec in records]
        assert factor_calls["ok"] == report.total_newton_steps + report.outer_iterations
        assert [rec.decrement for rec in records] == first
        assert [rec.newton.steps[-1].decrement for rec in records] == first
        assert factor_calls["ok"] == report.total_newton_steps + report.outer_iterations

    def test_deferred_value_matches_direct_decrement(self):
        cfg, ps = small_ineq_run()
        report = run(cfg, ps)
        geometry = cfg.geometry
        penalty = penalty_for(ps.g, geometry.dual)
        for rec in report.trace.records:
            ctx = make_context(
                ps, penalty, geometry, rec.x_anchor, rec.y_anchor, rec.sigma, rec.rho
            )
            modulus = REGIMES[cfg.regime].modulus(ctx) or 1.0
            assert rec.decrement == newton_decrement(ctx, rec.s, modulus)

    def test_cap_reached_without_acceptance(self, factor_calls):
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, [0.0], cap=2)
        assert not inner.accepted
        assert inner.trace.iterations_used == 2 and len(inner.trace.steps) == 3
        assert factor_calls["ok"] == 2
        assert inner.trace.steps[-1].decrement == newton_decrement(ctx, inner.s, 1.0)


class TestPredictedCounts:
    def test_qsc_worked_example(self):
        # M = 1, rho = 1e-4, B = 1e-4 -> ceil(log2 ln(1 / (4 e^-1 sqrt(2e-4) 1e-2)))
        assert qsc_steps(1e-4, 1.0, 1e-4) == 4

    def test_lipschitz_worked_example(self):
        # L sigma = 1, rho = 0.25 -> ceil(log2(ln(sqrt2 + .5) - ln .5 + 1)) = 2
        assert lipschitz_steps(0.25, 1.0, 1.0) == 2

    def test_clamped_at_zero(self):
        # huge B makes the inner logarithm nonpositive
        assert qsc_steps(0.9, 10.0, 1e6) == 0

    def test_quadratic_special_case(self):
        assert qsc_steps(0.5, 0.0, 1.0) == 1

    def test_sc_formula(self):
        t = sc_steps(rho=0.5, m_k=1.0, b_value=1e-6, sigma=4.0, m_psi=1.0, c_sigma=10.0)
        inner = (
            math.log(4.0 * math.sqrt(10.0 + 0.25))
            + max(0.5 * math.log(1.0 / (2 * 0.5 * 1e-6)), math.log(3.0))
        ) / math.log(2.0)
        assert t == max(0, math.ceil(math.log2(inner)))



class TestRegimeModulus:
    def test_qsc_composition(self):
        ctx = ineq_vn_context(sigma=0.5)
        norm_a = ctx.problem.map.op_norm_bound
        assert REGIMES["qsc"].modulus(ctx) == pytest.approx(0.5 * 1.0 * norm_a)

    def test_quadratic_equality_has_none(self):
        assert REGIMES["qsc"].modulus(eq_qp_context()) is None

    def test_sc_needs_barrier(self):
        assert REGIMES["sc"].modulus(eq_qp_context()) is None


def box_qp(seed=3, n=4, m=2):
    """min x'Wx/2 + c'x  s.t.  Ax = b, 0 <= x <= 1, with an interior point."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n))
    lo, hi = np.zeros(n), np.ones(n)
    A = rng.normal(size=(m, n))
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(root @ root.T / n + np.eye(n), rng.normal(size=n), box=(lo, hi)),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense(A, A @ rng.uniform(0.2, 0.8, n)),
    )
    return ps, BregmanGeometry(box_barrier(lo, hi), energy(m))


def regime_instance(regime):
    """One small instance per regime: an inequality QP under von_neumann
    (qsc) or spence (qsc_lipschitz) duals, a box QP under sc."""
    if regime == "sc":
        return box_qp()
    _, ps = small_ineq_run()
    dual = {"qsc": von_neumann, "qsc_lipschitz": spence}[regime]
    return ps, BregmanGeometry(energy(ps.n), dual(ps.m))


class TestRegimes:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_rho_zero_has_no_prediction(self, regime):
        ps, geo = regime_instance(regime)
        pen = penalty_for(ps.g, geo.dual)
        x0 = np.full(ps.n, 0.5)
        for rho, has_count in ((0.5, True), (0.0, False)):
            ctx = make_context(ps, pen, geo, x0, np.ones(ps.m), 0.25, rho)
            assert (REGIMES[regime].predicted(ctx, 1e-3) is not None) == has_count

    # measured before the regimes became one table: qsc predicts for the
    # smooth penalties only, qsc_lipschitz for all but sumexp, which has no
    # Lipschitz modulus, and sc for none (it needs the box barrier)
    COVERAGE = {
        "sumexp": {"qsc": 2, "qsc_lipschitz": None, "sc": None},
        "logsumexp_plus_one": {"qsc": 2, "qsc_lipschitz": 2, "sc": None},
        "softplus_integral": {"qsc": 2, "qsc_lipschitz": 2, "sc": None},
        "half_square": {"qsc": 1, "qsc_lipschitz": 2, "sc": None},
        "max_half_square": {"qsc": None, "qsc_lipschitz": 2, "sc": None},
        "huber": {"qsc": None, "qsc_lipschitz": 2, "sc": None},
    }

    @pytest.mark.parametrize("variant,kind", sorted(CLOSED_FORMS))
    def test_which_closed_forms_get_a_prediction(self, variant, kind):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(2), [0.5, -0.5]),
            g=NonsmoothTerm(variant),
            map=AffineMap.from_dense([[1.0, 0.5], [0.0, 1.0]], [0.2, 0.3]),
        )
        dual = {"energy": energy, "von_neumann": von_neumann, "spence": spence}[kind](2)
        geo = BregmanGeometry(energy(2), dual)
        pen = penalty_for(ps.g, dual)
        ctx = make_context(ps, pen, geo, np.zeros(2), np.full(2, 0.5), 1.0, 0.5)
        got = {name: REGIMES[name].predicted(ctx, 1e-3) for name in sorted(REGIMES)}
        assert got == self.COVERAGE[pen.closed_form]

    # (log2 sigma, T_used, T_predicted) of the first 10 outer iterations,
    # recorded before the regimes became one table; sigma is a power of two
    TRAJECTORIES = {
        "qsc": [(-3, 1, 1), (-3, 1, 2), (-2, 1, 1), (-2, 0, 1), (-2, 0, 1),
                (-2, 0, 2), (-2, 1, 2), (-2, 1, 2), (-1, 1, 1), (-1, 1, 1)],
        "qsc_lipschitz": [(-3, 1, 2), (-3, 1, 2), (-3, 1, 2), (-2, 0, 2), (-2, 0, 2),
                          (-2, 0, 2), (-2, 1, 2), (-2, 1, 2), (-2, 1, 2), (-1, 1, 2)],
        "sc": [(-2, 1, 2)] * 6 + [(-1, 1, 2)] * 4,
    }

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_first_iterations_pinned(self, regime):
        ps, geo = regime_instance(regime)
        report = run(SolverConfig(geometry=geo, regime=regime, max_outer=10), ps)
        got = [
            (math.log2(r.sigma), r.newton.iterations_used, r.predicted_newton)
            for r in report.trace.records
        ]
        assert got == self.TRAJECTORIES[regime]
