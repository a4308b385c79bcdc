"""Tests for the outer proximal multiplier driver."""

import math
import tracemalloc

import numpy as np
import pytest

import bpalm.outer as outer
from bpalm import diagnostics as dg
from bpalm.auglag import SubproblemContext, evaluate_anchor, make_context
from bpalm.exceptions import DomainError, InvalidRegimeError
from bpalm.legendre import BregmanGeometry, box_barrier, energy, spence, von_neumann
from bpalm.outer import (
    IterateState,
    RhoSchedule,
    SolveStatus,
    SolverConfig,
    outer_iteration,
    run,
    select_sigma,
)
from bpalm.legendre import Energy, Spence, VonNeumann
from bpalm.newton import REGIMES
from bpalm.penalty import DualPenalty, penalty_for
from bpalm.oracle import golden_suite
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective
from test_acceptance import family_config
from test_diagnostics import anchors, logged_run
from test_newton import newton_decrement, solver_anchors
from test_problem import _load_benchmark_instances


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


def kl_ineq_qp(inst):
    """The QP of a benchmark inequality instance, as the kl_ineq workload
    builds it."""
    return ProblemSpec(
        f=SmoothObjective.quadratic(inst.W, inst.c),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense(inst.A, inst.b),
    )


def vn_cfg(problem, **kw):
    defaults = dict(
        geometry=BregmanGeometry(energy(problem.n), von_neumann(problem.m)),
        regime="qsc",
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestRhoSchedule:
    def test_constant(self):
        sched = RhoSchedule(0.3)
        assert sched.value(0) == sched.value(7) == 0.3

    def test_geometric(self):
        sched = RhoSchedule(0.5, 0.5)
        assert sched.value(1) == 0.25
        assert sched.value(40) == 0.5**41

    def test_validation(self):
        with pytest.raises(DomainError):
            RhoSchedule(1.0)
        with pytest.raises(DomainError):
            RhoSchedule(0.5, 1.5)


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
        ctx, clipped = select_sigma(cfg, ps, pen, anchor, 1.0, 0.5)
        assert ctx.sigma == pytest.approx(0.5)
        assert clipped

    def test_unbounded_when_modulus_zero(self):
        # half-square penalty with a quadratic objective has no curvature
        # bound: the target is always admissible
        ps = eq_qp()
        cfg = eq_cfg()
        pen = penalty_for(ps.g, cfg.geometry.dual)
        anchor = evaluate_anchor(ps, cfg.geometry, [0.0], [0.0])
        ctx, clipped = select_sigma(cfg, ps, pen, anchor, 64.0, 0.5)
        assert ctx.sigma == 64.0
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
        ctx, clipped = select_sigma(cfg, ps, pen, anchor, 8.0, 0.5)
        assert ctx.sigma == 8.0
        assert not clipped

    def test_solve_starts_from_the_accepted_trial(self, monkeypatch):
        ps = _small_inequality_qp(3)
        cfg = vn_cfg(ps)
        admissible = REGIMES[cfg.regime].admissible
        make, solve = outer.make_context, outer.solve_subproblem
        rungs, solves = [], []

        def trial(*args):
            rungs.append(make(*args))
            return rungs[-1]

        def solve_from(ctx, **kwargs):
            solves.append((rungs[:], ctx))
            rungs.clear()
            return solve(ctx, **kwargs)

        monkeypatch.setattr(outer, "make_context", trial)
        monkeypatch.setattr(outer, "solve_subproblem", solve_from)
        report, log = logged_run(cfg, ps)
        records = log.records
        # the solver's own arrays, in W's eigenbasis: the run has a spectral system
        system = solves[0][1].system
        assert system is not None
        x_anchors = solver_anchors(log, cfg.geometry, system)
        assert len(solves) == len(records)
        assert any(rec.sigma_clipped for rec in records)
        for (tried, ctx), rec, (x_anchor, _) in zip(solves, records, x_anchors):
            assert tried[-1] is ctx and admissible(ctx)
            assert not any(admissible(larger) for larger in tried[:-1])
            assert [c.sigma for c in tried] == [tried[0].sigma * 0.5**j for j in range(len(tried))]
            assert rec.sigma_clipped == (len(tried) > 1)
            assert (rec.sigma, rec.rho) == (ctx.sigma, ctx.rho)
            assert ctx.system is system
            if rec.k == 0:  # Q^T x0, formed once by run
                assert np.array_equal(x_anchor, ctx.start.s)
            else:
                assert x_anchor is ctx.start.s
            assert rec.newton.steps[0].grad_norm == float(np.linalg.norm(ctx.grad(ctx.start)))


class TestOuterIteration:
    def test_worked_example(self):
        ps = eq_qp()
        cfg = eq_cfg(sigma0=1.0, rho_schedule=RhoSchedule(0.0))
        pen = penalty_for(ps.g, cfg.geometry.dual)
        state = IterateState(x=np.array([0.0]), y=np.array([0.0]), k=0)
        new_state, rec, iterate = outer_iteration(cfg, ps, pen, state)
        assert iterate.s == pytest.approx([1 / 3], abs=1e-12)
        assert new_state.x == pytest.approx([1 / 3], abs=1e-12)
        assert new_state.y == pytest.approx([-2 / 3], abs=1e-12)
        assert rec.sigma == 1.0

    def test_fixed_point_at_saddle(self):
        ps = eq_qp()
        cfg = eq_cfg(rho_schedule=RhoSchedule(0.5))
        pen = penalty_for(ps.g, cfg.geometry.dual)
        state = IterateState(x=np.array([1.0]), y=np.array([-1.0]), k=0)
        new_state, rec, _ = outer_iteration(cfg, ps, pen, state)
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
        _, rec, _ = outer_iteration(cfg, ps, pen, state)
        anchor = evaluate_anchor(ps, cfg.geometry, state.x, state.y)
        ctx = make_context(ps, pen, cfg.geometry, anchor, rec.sigma, rec.rho)
        assert rec.newton.steps[0].grad_norm == float(np.linalg.norm(ctx.grad(ctx.start)))

    def test_next_iterate_is_shared_not_copied(self, monkeypatch):
        # the solver's x_next and y_next are one read-only array each: the
        # iterate's, the next state's and the next iteration's anchor; where
        # the run solves in W's eigenbasis (m < n), each read of s, x_next
        # or grad maps the solver's array back afresh, read-only too
        evaluated = []
        evaluate = outer.evaluate_anchor

        def capture(*args):
            evaluated.append(evaluate(*args))
            return evaluated[-1]

        monkeypatch.setattr(outer, "evaluate_anchor", capture)
        for ps, spectral in ((ineq_qp(), False), (_small_inequality_qp(3), True)):
            evaluated.clear()
            cfg = vn_cfg(ps, max_outer=5, tol_b=0.0, tol_kkt=0.0)
            _, log = logged_run(cfg, ps)
            assert len(log.iterates) == len(evaluated) == 5
            assert all(rec.accepted for rec in log.records)
            x0 = cfg.geometry.primal.start()
            Q = log.iterates[0].basis
            assert (Q is not None) == spectral
            assert np.array_equal(evaluated[0].x, x0 if Q is None else Q.T @ x0)
            assert np.array_equal(evaluated[0].y, cfg.geometry.dual.start())
            for prev, anchor in zip(log.iterates, evaluated[1:]):
                assert anchor.x is prev._x_next and anchor.y is prev.y_next
            for iterate in log.iterates:
                assert iterate.basis is Q
                solver = (iterate._s, iterate._x_next, iterate.y_next, iterate._grad)
                read = (iterate.s, iterate.x_next, iterate.y_next, iterate.grad)
                for array in solver + read:
                    assert not array.flags.writeable
                for kept, mapped in zip(solver[:2] + solver[3:], read[:2] + read[3:]):
                    if Q is None:
                        assert mapped is kept
                    else:  # computed on each read, not kept
                        assert mapped is not kept and np.array_equal(mapped, Q @ kept)
                if Q is not None:
                    assert iterate.s is not iterate.s


class TestObserver:
    """run hands each outer iteration's record and iterate to on_iteration."""

    def test_sees_every_record_once_in_k_order(self):
        ps = _small_inequality_qp(3)
        seen = []
        report = run(vn_cfg(ps), ps, on_iteration=lambda rec, it: seen.append((rec, it)))
        records = report.trace.records
        assert len(seen) == len(records) > 1
        assert all(rec is kept for (rec, _), kept in zip(seen, records))
        assert [rec.k for rec, _ in seen] == list(range(len(records)))
        last = seen[-1][1]
        assert np.array_equal(report.x, last.s) and np.array_equal(report.y, last.y_next)

    @pytest.mark.parametrize("dual", [von_neumann, spence], ids=["von_neumann", "spence"])
    def test_decrement_matches_a_rebuilt_context(self, dual):
        # the dense n x n path (m >= n); test_newton covers the spectral one
        ps = _small_inequality_qp(4, n=4, m=6)
        cfg = SolverConfig(geometry=BregmanGeometry(energy(ps.n), dual(ps.m)), regime="qsc")
        assert outer.SpectralSystem.for_run(ps, cfg.geometry) is None
        _, log = logged_run(cfg, ps)
        assert log.records
        penalty = penalty_for(ps.g, cfg.geometry.dual)
        points = zip(log.records, log.iterates, anchors(log, cfg.geometry))
        for rec, iterate, (x, y) in points:
            anchor = evaluate_anchor(ps, cfg.geometry, x, y)
            ctx = make_context(ps, penalty, cfg.geometry, anchor, rec.sigma, rec.rho)
            modulus = REGIMES[cfg.regime].modulus(ctx) or 1.0
            assert iterate.decrement == newton_decrement(ctx, iterate.s, modulus)
            assert rec.newton.steps[-1].decrement is None


class TestEigenbasisRun:
    """Where the run has a spectral system, it solves in W's eigenbasis and
    maps back at the edges; the dense path solves the same problem in the
    caller's coordinates."""

    @staticmethod
    def dense_run(cfg, ps, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(outer.SpectralSystem, "for_run", lambda problem, geometry: None)
            return run(cfg, ps)

    @pytest.mark.parametrize("dual", [von_neumann, spence], ids=["von_neumann", "spence"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_dense_path(self, dual, seed, monkeypatch):
        ps = _small_inequality_qp(seed, n=40, m=20)
        cfg = SolverConfig(geometry=BregmanGeometry(energy(ps.n), dual(ps.m)), max_outer=3000)
        assert outer.SpectralSystem.for_run(ps, cfg.geometry) is not None
        spectral, dense = run(cfg, ps), self.dense_run(cfg, ps, monkeypatch)
        assert spectral.status == dense.status == SolveStatus.OPTIMAL
        for a, b in ((spectral.x, dense.x), (spectral.y, dense.y)):
            assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)
        # decisions may part only where B reaches rounding level
        records = spectral.trace.records, dense.trace.records
        floor = next(
            (k for k, pair in enumerate(zip(*records)) if min(r.b_value for r in pair) <= 1e-10),
            min(map(len, records)),
        )
        assert floor > 10
        for a, b in zip(*(r[:floor] for r in records)):
            assert (a.sigma, a.newton.iterations_used) == (b.sigma, b.newton.iterations_used)

    def test_observer_reads_caller_coordinates(self):
        ps = _small_inequality_qp(3)
        report, log = logged_run(vn_cfg(ps), ps)
        last = log.iterates[-1]
        assert last.basis is not None
        assert np.array_equal(last.s, report.x)
        # the caller's stationarity: grad f(s) + A^T P'(u) + (s - x_k) / sigma
        rec = log.records[-1]
        x_anchor = log.iterates[-2].x_next
        grad = ps.f.grad(last.s) + ps.map.A.T @ last.y_next + (last.s - x_anchor) / rec.sigma
        np.testing.assert_allclose(last.grad, grad, atol=1e-12)

    def test_fejer_monotone_on_a_golden_problem(self):
        [gp] = [gp for gp in golden_suite() if gp.name == "ineq_qp_n10_m6"]
        cfg = family_config(gp)
        assert outer.SpectralSystem.for_run(gp.problem, cfg.geometry) is not None
        _, log = logged_run(cfg, gp.problem)
        res = dg.fejer_check(log, gp.x_star, gp.y_star, cfg.geometry)
        assert res.monotone
        # distances to the caller's x*: the iterates are not in the eigenbasis
        assert res.distances[-1] <= 1e-12 * res.distances[0]


def test_records_keep_scalars_only():
    # a report keeps each outer record's scalars, not the iteration's arrays,
    # which only an observer receives: at most 2 KB per record on a kl_ineq
    # sized QP, where the arrays of one iteration take about 12 KB
    ps = kl_ineq_qp(_load_benchmark_instances().inequality_instance(0, 300, 150))
    geometry = BregmanGeometry(energy(300), von_neumann(150))
    cfg = SolverConfig(geometry=geometry, tol_b=1e-8, tol_kkt=1e-8, max_outer=60)
    run(SolverConfig(geometry=geometry, max_outer=1), ps)  # first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run(cfg, ps)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.outer_iterations == 60
    assert retained <= 2048 * report.outer_iterations, retained / report.outer_iterations


def test_iterate_log_keeps_the_solver_arrays_only():
    # per iterate, an IterateLog keeps the solver's s, x_next, y_next and
    # gradient, 3n + m floats, with at most 2 KB for the record (see above)
    # and 1 KB for the array headers, the iterate and its deferred decrement.
    # A read in the caller's coordinates maps W's eigenbasis back and keeps
    # nothing; keeping the mapped s, x_next and gradient would add 3n floats.
    # Two run lengths cancel what a run keeps once, such as its system.
    n, m = 300, 150
    ps = kl_ineq_qp(_load_benchmark_instances().inequality_instance(0, n, m))
    geometry = BregmanGeometry(energy(n), von_neumann(m))
    logged_run(SolverConfig(geometry=geometry, max_outer=1), ps)  # first-call caches

    def retained(max_outer):
        cfg = SolverConfig(geometry=geometry, tol_b=1e-8, tol_kkt=1e-8, max_outer=max_outer)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report, log = logged_run(cfg, ps)
            for iterate in log.iterates:  # as the diagnostics read them
                iterate.s, iterate.x_next, iterate.grad
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.outer_iterations == max_outer
        assert log.iterates[0].basis is not None
        return kept

    per_iterate = (retained(60) - retained(20)) / 40
    assert per_iterate <= 8 * (3 * n + m) + 3072, per_iterate


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

    @pytest.mark.parametrize("factory", [energy, von_neumann, spence], ids=lambda cls: cls.kind)
    def test_default_dual_start_follows_the_domain(self, factory):
        dual = factory(3)
        y0 = dual.start()
        assert np.array_equal(y0, np.ones(3) if dual.nonnegative else np.zeros(3))
        assert dual.in_interior(y0)

    def test_exponential_multiplier_identity(self):
        ps = ineq_qp()
        cfg = vn_cfg(ps)
        _, log = logged_run(cfg, ps)
        points = zip(log.records, log.iterates, anchors(log, cfg.geometry))
        for rec, iterate, (_, y_anchor) in points:
            expected = y_anchor * np.exp(rec.sigma * ps.map.residual(iterate.s))
            np.testing.assert_allclose(iterate.y_next, expected, atol=1e-12)

    def test_dual_interiority(self):
        ps = ineq_qp()
        for dual in (von_neumann(1), spence(1)):
            cfg = SolverConfig(geometry=BregmanGeometry(energy(1), dual), regime="qsc")
            _, log = logged_run(cfg, ps)
            assert all(np.all(it.y_next > 0.0) for it in log.iterates)

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
        # the multiplier bound is the one test that reports divergence
        assert np.linalg.norm(rep.y) > 1e12

    def test_inner_failure_when_newton_cap_is_spent(self):
        # no Newton step allowed: the first subproblem cannot be accepted
        rep = run(vn_cfg(ineq_qp(), newton_cap=0), ineq_qp())
        assert rep.status == SolveStatus.INNER_FAILURE
        assert rep.outer_iterations == 1
        assert not rep.trace.records[0].accepted

    @pytest.mark.parametrize("seed", [0, 7])
    def test_slow_primal_progress_still_ends_optimal(self, seed):
        # the primal residual stalls for many clipped iterations on these
        # kl_ineq instances; only the outer tolerances may stop the run
        instances = _load_benchmark_instances()
        inst = instances.inequality_instance(seed, 300, 150)
        cfg = SolverConfig(
            geometry=BregmanGeometry(energy(300), von_neumann(150)),
            tol_b=1e-8,
            tol_kkt=1e-8,
            max_outer=3000,
        )
        rep = run(cfg, kl_ineq_qp(inst))
        assert rep.status == SolveStatus.OPTIMAL
        assert instances.kkt_residual(inst, rep.x, rep.y) <= 1e-8
        assert instances.reference_distance(inst, rep.x) <= 1e-6

    def test_sigma_beyond_the_float_range_raises(self):
        # the energy acceptance test squares sigma, which overflows from ~1e154
        with pytest.raises(DomainError):
            run(eq_cfg(sigma0=1e200), eq_qp())

    def test_geometry_dimension_mismatch(self):
        cfg = SolverConfig(geometry=BregmanGeometry(energy(2), energy(1)), regime="qsc")
        with pytest.raises(Exception):
            run(cfg, eq_qp())

    def test_sc_regime_validation(self):
        cfg = SolverConfig(geometry=BregmanGeometry(energy(1), energy(1)), regime="sc")
        with pytest.raises(InvalidRegimeError):
            run(cfg, eq_qp())

    @pytest.mark.parametrize("factory", [von_neumann, spence], ids=lambda cls: cls.kind)
    def test_primal_outside_the_objective_domain_rejected(self, factory):
        # min (x + 2)^2 / 2 s.t. x <= 5 has x* = -2, which an orthant primal
        # never reaches: the run would spend max_outer at dual_res ~ 2
        ps = ProblemSpec(
            f=SmoothObjective.quadratic([[1.0]], [2.0]),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense([[1.0]], [5.0]),
        )
        cfg = SolverConfig(geometry=BregmanGeometry(factory(1), von_neumann(1)), max_outer=300)
        log = dg.IterateLog()
        with pytest.raises(DomainError):
            run(cfg, ps, on_iteration=log)
        assert log.records == []

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

    def test_nearly_equal_boxes_rejected_before_the_first_iteration(self):
        # a barrier box a hair wider than f's would let x reach points where
        # f is undefined, mid-run; the boxes must be the same numbers
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(2), [-2.0, 0.5], box=(np.zeros(2), np.ones(2))),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0, 1.0]], [1.5]),
        )
        barrier = box_barrier(np.zeros(2), np.full(2, 1.0 + 5e-6))
        cfg = SolverConfig(geometry=BregmanGeometry(barrier, energy(1)), regime="sc")
        calls = []
        with pytest.raises(DomainError, match="objective box and barrier box must coincide"):
            run(cfg, ps, on_iteration=lambda record, iterate: calls.append(record.k))
        assert calls == []

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
        {"newton_cap": -1},
    ):
        with pytest.raises(DomainError):
            SolverConfig(geometry=geometry, **bad)
    # zero tolerances, zero iterations and a zero Newton cap stay accepted
    SolverConfig(geometry=geometry, tol_b=0.0, tol_kkt=0.0, max_outer=0, newton_cap=0)


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
    gradient is taken once per outer iteration, at the anchor, and the
    primal geometry's once per point; each sigma trial builds one context,
    whose warm start computes P'(u) and the subproblem gradient, and each
    Newton iterate computes both once."""

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
        count(Energy, "grad", "primal_grad")
        count(outer, "make_context", "make_context")
        count(SubproblemContext, "grad", "subproblem_grad")
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
        assert calls["primal_grad"] == points
        trials = self.sigma_trials(cfg, report.trace.records)
        assert calls["make_context"] == trials
        # the accepted trial's context is the solve's: its P'(u) is the warm start's
        assert calls["penalty_grad"] == points + trials - report.outer_iterations
        # the step-size test's warm-start gradient is the solve's first
        assert calls["subproblem_grad"] == trials + report.total_newton_steps
