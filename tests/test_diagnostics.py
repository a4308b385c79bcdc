"""Tests for the trace diagnostics."""

import numpy as np
import pytest

from bpalm import diagnostics as dg
from bpalm.exceptions import DomainError, InsufficientTraceError
from bpalm.legendre import (
    BregmanGeometry,
    box_barrier,
    bregman_distance,
    energy,
    spence,
    von_neumann,
)
from bpalm.oracle import golden_suite
from bpalm.outer import RhoSchedule, SolveStatus, SolverConfig, run
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective


def eq_qp():
    return ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )


def solve_eq(tol=1e-9, max_outer=100, **kw):
    cfg = SolverConfig(
        geometry=BregmanGeometry(energy(1), energy(1)),
        regime="qsc",
        tol_b=tol,
        tol_kkt=tol,
        max_outer=max_outer,
        **kw,
    )
    return cfg, run(cfg, eq_qp())


class TestFejer:
    def test_converged_run_monotone(self):
        cfg, rep = solve_eq()
        res = dg.fejer_check(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert res.monotone
        assert res.violations == []
        assert all(b <= a + 1e-10 for a, b in zip(res.distances, res.distances[1:]))

    def test_single_iterate_trivially_monotone(self):
        cfg, rep = solve_eq(max_outer=1)
        res = dg.fejer_check(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert res.monotone

    def test_corrupted_trace_detected(self):
        cfg, rep = solve_eq()
        rep.trace.records.reverse()  # negative control
        res = dg.fejer_check(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert not res.monotone
        assert res.violations

    def test_solution_outside_domain_raises(self):
        lo, hi = np.zeros(1), np.ones(1)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [-2.0], box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.9]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        cfg = SolverConfig(geometry=geo, regime="sc", max_outer=5)
        rep = run(cfg, ps)
        with pytest.raises(DomainError):
            dg.fejer_check(rep.trace, [1.0], [0.0], geo)  # x* on the box boundary


class TestRateFit:
    def test_superlinear_with_doubling_sigma(self):
        cfg, rep = solve_eq(
            tol=1e-300,
            max_outer=8,
            sigma_growth=2.0,
            rho_schedule=RhoSchedule.geometric(0.5, 0.5),
        )
        est = dg.rate_fit(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert est.superlinear
        tail = est.ratios[-5:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.1

    def test_constant_parameters_not_superlinear(self):
        cfg, rep = solve_eq(
            tol=1e-300,
            max_outer=12,
            sigma_growth=1.0,
            rho_schedule=RhoSchedule.constant(0.5),
        )
        est = dg.rate_fit(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert not est.superlinear
        # contraction factors hover around a constant level
        assert max(est.ratios[2:]) > 0.05

    def test_truncates_at_rounding_floor(self):
        cfg, rep = solve_eq(
            tol=1e-300,
            max_outer=25,
            sigma_growth=2.0,
            rho_schedule=RhoSchedule.geometric(0.5, 0.5),
        )
        est = dg.rate_fit(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert len(est.ratios) <= len(est.distances) - 1

    def test_insufficient_trace(self):
        cfg, rep = solve_eq(max_outer=4, tol=1e-300)
        with pytest.raises(InsufficientTraceError):
            dg.rate_fit(rep.trace, [1.0], [-1.0], cfg.geometry)


class TestErgodicGap:
    def test_bound_holds_on_eq_run(self):
        cfg, rep = solve_eq()
        pts = [
            (np.array([1.0]), np.array([-1.0])),
            (np.array([0.0]), np.array([0.0])),
            (np.array([2.0]), np.array([1.0])),
        ]
        res = dg.ergodic_gap_check(rep.trace, eq_qp(), cfg.geometry, pts)
        assert res.max_violation <= 1e-8

    def test_saddle_point_gap_nonnegative_first_prefix(self):
        # with the saddle as test point the one-step inequality already holds
        cfg, rep = solve_eq(max_outer=1, tol=1e-300)
        res = dg.ergodic_gap_check(
            rep.trace, eq_qp(), cfg.geometry, [(np.array([1.0]), np.array([-1.0]))]
        )
        assert res.max_violation <= 1e-8

    def test_conic_feasibility_on_inequality_run(self):
        gp = [g for g in golden_suite() if g.family == "ineq"][2]
        geo = BregmanGeometry(energy(gp.problem.n), von_neumann(gp.problem.m))
        cfg = SolverConfig(geometry=geo, regime="qsc", tol_b=1e-9, tol_kkt=1e-9, max_outer=300)
        rep = run(cfg, gp.problem)
        assert rep.status == SolveStatus.OPTIMAL
        res = dg.conic_feasibility_check(rep.trace, gp.problem, geo, gp.x_star, gp.y_star)
        assert res.max_excess <= 1e-8
        # the bounds and gaps decay together
        assert res.bounds[-1] < res.bounds[0]


def cap_search_per_start(phi, y0, radius):
    """The cap search one start at a time, as a reference for the batch."""
    m = y0.size
    candidates = [np.zeros(m)]
    for i in range(m):
        e = np.zeros(m)
        e[i] = radius
        candidates.append(e)
    candidates.append(np.full(m, radius / np.sqrt(m)))
    if np.linalg.norm(y0) > 0:
        candidates.append(radius * y0 / np.linalg.norm(y0))
    for k in range(1, m):
        mix = np.zeros(m)
        mix[: k + 1] = radius / np.sqrt(k + 1)
        candidates.append(mix)
    best = max(bregman_distance(phi, c, y0) for c in candidates)
    for start in candidates[1:]:
        y = start.copy()
        for _ in range(60):
            if phi.nonnegative:
                grad = phi.grad(np.maximum(y, 1e-148)) - phi.grad(y0)
            else:
                grad = y - y0
            y = np.maximum(y + 0.1 * radius / (1.0 + np.linalg.norm(grad)) * grad, 0.0)
            norm = np.linalg.norm(y)
            if norm > 0:
                y = y * (radius / norm)
        best = max(best, bregman_distance(phi, y, y0))
    return best


@pytest.mark.parametrize("factory", [spence, von_neumann, energy])
@pytest.mark.parametrize("m", [1, 5])
def test_batched_cap_search_matches_per_start_loop(factory, m):
    rng = np.random.default_rng(m)
    y0 = rng.uniform(0.05, 2.0, m)
    geo = BregmanGeometry(energy(2), factory(m))
    got = dg._max_divergence_on_cap(geo, y0, 3.0)
    assert got == pytest.approx(cap_search_per_start(geo.dual, y0, 3.0), rel=1e-12)


class TestDualAsymptotics:
    def test_dual_values_approach_optimum(self):
        # F*(v_k, y_{k+1}) -> F*(0, y*) along a run with the Euclidean primal
        from bpalm.problem import dual_perturbation_value

        cfg, rep = solve_eq()
        ps = eq_qp()
        target = dual_perturbation_value(ps, [0.0], [-1.0])
        assert target == pytest.approx(-0.5)
        values = [
            dual_perturbation_value(ps, rec.dual_perturbation, rec.y_next)
            for rec in rep.trace.records
        ]
        gaps = [abs(v - target) for v in values]
        assert gaps[-1] <= 1e-8
        assert gaps[-1] <= gaps[0]

    def test_perturbation_vector_is_lagrangian_subgradient(self):
        # v_k agrees with grad_x L(s_k, y_{k+1}) for the smooth objective
        from bpalm.problem import lagrangian

        cfg, rep = solve_eq()
        ps = eq_qp()
        h = 1e-7
        for rec in rep.trace.records[:5]:
            fd = (
                lagrangian(ps, rec.s + h, rec.y_next)
                - lagrangian(ps, rec.s - h, rec.y_next)
            ) / (2 * h)
            assert rec.dual_perturbation[0] == pytest.approx(fd, abs=1e-6)


class TestSummability:
    def test_partial_sums_bounded(self):
        cfg, rep = solve_eq()
        total, budget = dg.summability_check(rep.trace, [1.0], [-1.0], cfg.geometry)
        assert total <= budget + 1e-6

    def test_budget_uses_max_rho(self):
        cfg, rep = solve_eq(rho_schedule=RhoSchedule.constant(0.25))
        d0 = dg.summability_check(rep.trace, [1.0], [-1.0], cfg.geometry)[1]
        expected = (0.5 * 1.0**2 + 0.5 * (-1.0) ** 2) / (1 - 0.25)
        assert d0 == pytest.approx(expected)
