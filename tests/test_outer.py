"""Tests for the outer proximal multiplier driver."""

import math

import numpy as np
import pytest

from bpalm.auglag import evaluate_anchor
from bpalm.exceptions import DomainError, InvalidRegimeError
from bpalm.legendre import BregmanGeometry, box_barrier, burg, energy, spence, von_neumann
from bpalm.outer import (
    IterateState,
    RhoSchedule,
    SolveStatus,
    SolverConfig,
    outer_iteration,
    run,
    select_sigma,
)
from bpalm.legendre import Spence, VonNeumann
from bpalm.penalty import DualPenalty, penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective


def eq_qp():
    return ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )


def ineq_qp():
    """min (x - 2)^2 / 2 s.t. x <= 1; saddle (1, 1)."""
    return ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [-2.0]),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )


def eq_cfg(**kw):
    defaults = dict(geometry=BregmanGeometry(energy(1), energy(1)), regime="qsc")
    defaults.update(kw)
    return SolverConfig(**defaults)


def vn_cfg(problem, **kw):
    defaults = dict(
        geometry=BregmanGeometry(energy(problem.n), von_neumann(problem.m)),
        regime="qsc",
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestRhoSchedule:
    def test_constant(self):
        sched = RhoSchedule.constant(0.3)
        assert sched.value(0) == sched.value(7) == 0.3

    def test_geometric_with_floor(self):
        sched = RhoSchedule.geometric(0.5, 0.5, floor=1e-3)
        assert sched.value(1) == 0.25
        assert sched.value(40) == 1e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            RhoSchedule.constant(1.0)
        with pytest.raises(DomainError):
            RhoSchedule.geometric(0.5, 1.5)


class TestSelectSigma:
    def test_synthetic_backtrack(self):
        # M_f = 0, exponential penalty, residual 0 at the anchor keeps
        # g_k = ||grad f + A' exp(0)|| = 1 for every trial sigma, so the bound
        # is 1/sqrt(2): the target 1 shrinks exactly once to 0.5
        ps = ProblemSpec(
            f=SmoothObjective.quadratic([[1.0]], [0.0]),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
        cfg = vn_cfg(ps)
        pen = penalty_for(ps.g, cfg.geometry.dual)
        anchor = evaluate_anchor(ps, cfg.geometry, [0.0], [1.0])
        sigma, clipped, _ = select_sigma(cfg, ps, pen, anchor, 1.0)
        assert sigma == pytest.approx(0.5)
        assert clipped

    def test_unbounded_when_modulus_zero(self):
        # half-square penalty with a quadratic objective has no curvature
        # bound: the target is always admissible
        ps = eq_qp()
        cfg = eq_cfg()
        pen = penalty_for(ps.g, cfg.geometry.dual)
        anchor = evaluate_anchor(ps, cfg.geometry, [0.0], [0.0])
        sigma, clipped, _ = select_sigma(cfg, ps, pen, anchor, 64.0)
        assert sigma == 64.0
        assert not clipped

    def test_sc_accepts_target_at_stationary_start(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [-0.5], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.5]),
        )
        cfg = SolverConfig(geometry=BregmanGeometry(box_barrier(lo, hi), energy(1)), regime="sc")
        pen = penalty_for(ps.g, cfg.geometry.dual)
        # x = 0.5 is the saddle with y = 0: grad J vanishes, any sigma passes
        anchor = evaluate_anchor(ps, cfg.geometry, [0.5], [0.0])
        sigma, clipped, _ = select_sigma(cfg, ps, pen, anchor, 8.0)
        assert sigma == 8.0
        assert not clipped


class TestOuterIteration:
    def test_worked_example(self):
        ps = eq_qp()
        cfg = eq_cfg(sigma0=1.0, rho_schedule=RhoSchedule.constant(0.0))
        pen = penalty_for(ps.g, cfg.geometry.dual)
        state = IterateState(x=np.array([0.0]), y=np.array([0.0]), k=0)
        new_state, rec = outer_iteration(cfg, ps, pen, state)
        assert rec.s == pytest.approx([1 / 3], abs=1e-12)
        assert new_state.x == pytest.approx([1 / 3], abs=1e-12)
        assert new_state.y == pytest.approx([-2 / 3], abs=1e-12)
        assert rec.sigma == 1.0

    def test_fixed_point_at_saddle(self):
        ps = eq_qp()
        cfg = eq_cfg(rho_schedule=RhoSchedule.constant(0.5))
        pen = penalty_for(ps.g, cfg.geometry.dual)
        state = IterateState(x=np.array([1.0]), y=np.array([-1.0]), k=0)
        new_state, rec = outer_iteration(cfg, ps, pen, state)
        assert new_state.x == pytest.approx([1.0], abs=1e-10)
        assert new_state.y == pytest.approx([-1.0], abs=1e-10)
        assert rec.newton.iterations_used == 0

    def test_warm_start_contract(self):
        # the inner solve starts at the current anchor: its first recorded
        # gradient norm equals the subproblem gradient at x_k
        ps = ineq_qp()
        cfg = vn_cfg(ps)
        pen = penalty_for(ps.g, cfg.geometry.dual)
        state = IterateState(x=np.array([0.0]), y=np.array([1.0]), k=0)
        _, rec = outer_iteration(cfg, ps, pen, state)
        np.testing.assert_allclose(rec.x_anchor, [0.0])
        assert rec.newton.steps[0].step_norm == 0.0


    def test_next_iterate_is_shared_not_copied(self):
        # x_next and y_next are one read-only array each: the record's, the
        # next state's and the next context's anchors
        rep = run(vn_cfg(ineq_qp(), max_outer=5, tol_b=0.0, tol_kkt=0.0), ineq_qp())
        records = rep.trace.records
        assert len(records) == 5 and all(rec.accepted for rec in records)
        for prev, rec in zip(records, records[1:]):
            assert rec.x_anchor is prev.x_next and rec.y_anchor is prev.y_next
        assert not records[-1].x_next.flags.writeable
        assert not records[-1].y_next.flags.writeable


class TestRun:
    def test_equality_qp(self):
        rep = run(eq_cfg(tol_b=1e-10, tol_kkt=1e-8), eq_qp())
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.x == pytest.approx([1.0], abs=1e-7)
        assert rep.y == pytest.approx([-1.0], abs=1e-7)

    def test_inequality_exponential(self):
        rep = run(vn_cfg(ineq_qp()), ineq_qp())
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.x == pytest.approx([1.0], abs=1e-6)
        assert rep.y == pytest.approx([1.0], abs=1e-6)

    def test_max_outer_zero(self):
        rep = run(eq_cfg(max_outer=0), eq_qp())
        assert rep.status == SolveStatus.MAX_ITER
        assert rep.outer_iterations == 0
        assert rep.residuals.primal_res == pytest.approx(1.0)

    def test_default_starts(self):
        np.testing.assert_allclose(energy(2).start(), np.zeros(2))
        np.testing.assert_allclose(von_neumann(3).start(), np.ones(3))
        np.testing.assert_allclose(box_barrier([0.0], [2.0]).start(), [1.0])

    @pytest.mark.parametrize("factory", [energy, von_neumann, burg, spence], ids=lambda cls: cls.kind)
    def test_default_dual_start_follows_the_domain(self, factory):
        dual = factory(3)
        y0 = dual.start()
        assert np.array_equal(y0, np.ones(3) if dual.nonnegative else np.zeros(3))
        assert dual.in_interior(y0)

    def test_exponential_multiplier_identity(self):
        ps = ineq_qp()
        rep = run(vn_cfg(ps), ps)
        for rec in rep.trace.records:
            expected = rec.y_anchor * np.exp(rec.sigma * ps.map.residual(rec.s))
            np.testing.assert_allclose(rec.y_next, expected, atol=1e-12)

    def test_dual_interiority(self):
        ps = ineq_qp()
        for dual in (von_neumann(1), spence(1)):
            cfg = SolverConfig(geometry=BregmanGeometry(energy(1), dual), regime="qsc")
            rep = run(cfg, ps)
            assert all(np.all(r.y_next > 0.0) for r in rep.trace.records)

    def test_sigma_growth_unclipped_on_quadratics(self):
        rep = run(eq_cfg(sigma0=1.0, sigma_growth=2.0, max_outer=6,
                         tol_b=1e-300, tol_kkt=1e-300), eq_qp())
        sigmas = [r.sigma for r in rep.trace.records]
        np.testing.assert_allclose(sigmas, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0])

    def test_nearly_degenerate_duals_terminate_optimal(self):
        # two almost-parallel active rows force multipliers ~ 6.8e3; at that
        # scale the gradient's rounding floor sits above what the relative
        # test demands near the end, and the run must still close on the
        # outer tolerances instead of reporting an inner failure
        W = np.array(
            [[2.381136967116376, -0.9982353872375591],
             [-0.9982353872375591, 2.132728045857923]]
        )
        c = np.array([0.6234089008737357, -0.5461756104934902])
        A = np.array(
            [[-0.01180120700960992, -0.15140200420753405],
             [0.30178745626029124, 2.2589007355834987],
             [1.3020585640804112, -0.01660459246591676],
             [1.4580892393025482, -0.04657791282548052],
             [0.29507115047078647, 1.184712928256431],
             [1.960438907894606, 0.5977062128644799]]
        )
        b = np.array(
            [-0.18916186412220268, 0.12248818193108196, -0.6696815063870636,
             -0.49813617560190754, -0.5076239690232189, -0.9016739491582767]
        )
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(W, c),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(A, b),
        )
        cfg = SolverConfig(
            geometry=BregmanGeometry(energy(2), von_neumann(6)),
            regime="qsc",
            tol_b=1e-9,
            tol_kkt=1e-9,
            max_outer=500,
        )
        rep = run(cfg, ps)
        assert rep.status == SolveStatus.OPTIMAL
        assert rep.residuals.max_residual() <= 1e-9

    def test_diverged_on_infeasible(self):
        # x = 0 and x = 1 cannot both hold; multipliers blow up
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0]),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0], [1.0]], [0.0, 1.0]),
        )
        cfg = SolverConfig(
            geometry=BregmanGeometry(energy(1), energy(2)),
            regime="qsc",
            max_outer=500,
        )
        rep = run(cfg, ps)
        assert rep.status == SolveStatus.DIVERGED

    def test_invalid_start_raises(self):
        with pytest.raises(DomainError):
            run(vn_cfg(ineq_qp()), ineq_qp(), y0=[0.0])

    def test_geometry_dimension_mismatch(self):
        cfg = SolverConfig(geometry=BregmanGeometry(energy(2), energy(1)), regime="qsc")
        with pytest.raises(Exception):
            run(cfg, eq_qp())

    def test_sc_regime_validation(self):
        cfg = SolverConfig(geometry=BregmanGeometry(energy(1), energy(1)), regime="sc")
        with pytest.raises(InvalidRegimeError):
            run(cfg, eq_qp())

    def test_box_mismatch_rejected(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.5]),
        )
        cfg = SolverConfig(
            geometry=BregmanGeometry(box_barrier([0.0], [2.0]), energy(1)), regime="sc"
        )
        with pytest.raises(DomainError):
            run(cfg, ps)

    def test_report_fields(self):
        rep = run(eq_cfg(), eq_qp())
        assert rep.total_newton_steps == sum(
            r.newton.iterations_used for r in rep.trace.records
        )
        assert rep.sigma_final == rep.trace.records[-1].sigma
        assert rep.wall_seconds > 0.0


def test_config_validation():
    geometry = BregmanGeometry(energy(1), energy(1))
    with pytest.raises(DomainError):
        SolverConfig(geometry=geometry, sigma0=0.0)
    with pytest.raises(InvalidRegimeError):
        SolverConfig(geometry=geometry, regime="bfgs")
    for bad in (
        {"sigma0": math.nan},
        {"sigma0": math.inf},
        {"sigma_growth": math.nan},
        {"sigma_growth": math.inf},
        {"sigma_growth": 0.5},
        {"tol_b": math.nan},
        {"tol_b": -1e-10},
        {"tol_kkt": math.nan},
        {"tol_kkt": -1e-8},
        {"max_outer": -5},
    ):
        with pytest.raises(DomainError):
            SolverConfig(geometry=geometry, **bad)
    # zero tolerances, zero iterations and a negative Newton cap (read as 0)
    # stay accepted
    SolverConfig(geometry=geometry, tol_b=0.0, tol_kkt=0.0, max_outer=0, newton_cap=-1)


def _small_inequality_qp(seed: int, n: int = 10, m: int = 5) -> ProblemSpec:
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n))
    return ProblemSpec(
        f=SmoothObjective.quadratic(root @ root.T / n + np.eye(n), rng.normal(size=n)),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense(rng.normal(size=(m, n)), rng.uniform(-0.5, 0.5, m)),
    )


class TestEvaluationCounts:
    """Each evaluated point, an anchor (which is also the warm start) or a
    Newton iterate, computes Ax - b and grad f once; the dual geometry's
    gradient is taken once per outer iteration, at the anchor; P'(u) once
    per sigma trial and per Newton iterate, the warm start taking the
    accepted trial's."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def count(owner, attr, key):
            original = owner.__dict__[attr]
            counts[key] = 0

            def counting(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count(AffineMap, "residual", "residual")
        count(SmoothObjective, "grad", "f_grad")
        count(DualPenalty, "grad", "penalty_grad")
        count(VonNeumann, "grad", "dual_grad")
        count(Spence, "grad", "dual_grad")
        return counts

    @staticmethod
    def sigma_trials(cfg, records) -> int:
        trials, target = 0, cfg.sigma0
        for rec in records:
            trials += round(math.log2(target / rec.sigma)) + 1
            target = rec.sigma * cfg.sigma_growth
        return trials

    @pytest.mark.parametrize("dual", [von_neumann, spence], ids=["von_neumann", "spence"])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_each_point_evaluated_once(self, calls, dual, seed):
        ps = _small_inequality_qp(seed)
        cfg = SolverConfig(geometry=BregmanGeometry(energy(ps.n), dual(ps.m)), regime="qsc")
        report = run(cfg, ps)
        assert report.status == SolveStatus.OPTIMAL
        assert report.total_newton_steps > 0
        points = report.outer_iterations + report.total_newton_steps
        assert calls["residual"] == points
        assert calls["f_grad"] == points
        assert calls["dual_grad"] == report.outer_iterations
        trials = self.sigma_trials(cfg, report.trace.records)
        # the accepted sigma trial hands u and P'(u) to the warm start
        assert calls["penalty_grad"] == points + trials - report.outer_iterations
