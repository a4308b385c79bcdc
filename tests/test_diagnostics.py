"""Tests for the trace diagnostics."""

import math

import numpy as np
import pytest

from bpalm import diagnostics as dg
from bpalm.exceptions import DomainError, InsufficientTraceError, UnsupportedError
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


def logged_run(cfg, problem):
    """run with an IterateLog observing; returns the report and the log."""
    log = dg.IterateLog()
    return run(cfg, problem, on_iteration=log), log


def anchors(log, geometry):
    """Each logged outer iteration's anchor (x_k, y_k): the geometry's start,
    then each iterate's successor."""
    start = (geometry.primal.start(), geometry.dual.start())
    return [start] + [(it.x_next, it.y_next) for it in log.iterates[:-1]]


def solve_eq(tol=1e-9, max_outer=100, **kw):
    cfg = SolverConfig(
        geometry=BregmanGeometry(energy(1), energy(1)),
        regime="qsc",
        tol_b=tol,
        tol_kkt=tol,
        max_outer=max_outer,
        **kw,
    )
    return cfg, logged_run(cfg, eq_qp())[1]


class TestFejer:
    def test_converged_run_monotone(self):
        cfg, log = solve_eq()
        res = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry)
        assert res.monotone
        assert res.violations == []
        assert all(b <= a + 1e-10 for a, b in zip(res.distances, res.distances[1:]))

    def test_single_iterate_trivially_monotone(self):
        cfg, log = solve_eq(max_outer=1)
        res = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry)
        assert res.monotone

    def test_corrupted_trace_detected(self):
        cfg, log = solve_eq()
        log.records.reverse()  # negative control
        log.iterates.reverse()
        res = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry)
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
        _, log = logged_run(cfg, ps)
        with pytest.raises(DomainError):
            dg.fejer_check(log, [1.0], [0.0], geo)  # x* on the box boundary


class TestRateFit:
    def test_superlinear_with_doubling_sigma(self):
        cfg, log = solve_eq(
            tol=1e-300,
            max_outer=8,
            sigma_growth=2.0,
            rho_schedule=RhoSchedule(0.5, 0.5),
        )
        est = dg.rate_fit(dg.fejer_check(log, [1.0], [-1.0], cfg.geometry).distances)
        assert est.superlinear
        tail = est.ratios[-5:]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.1

    def test_constant_parameters_not_superlinear(self):
        cfg, log = solve_eq(
            tol=1e-300,
            max_outer=12,
            sigma_growth=1.0,
            rho_schedule=RhoSchedule(0.5),
        )
        est = dg.rate_fit(dg.fejer_check(log, [1.0], [-1.0], cfg.geometry).distances)
        assert not est.superlinear
        # contraction factors hover around a constant level
        assert max(est.ratios[2:]) > 0.05

    def test_truncates_at_rounding_floor(self):
        cfg, log = solve_eq(
            tol=1e-300,
            max_outer=25,
            sigma_growth=2.0,
            rho_schedule=RhoSchedule(0.5, 0.5),
        )
        distances = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry).distances
        est = dg.rate_fit(distances)
        assert len(est.ratios) <= len(distances) - 1

    def test_insufficient_trace(self):
        cfg, log = solve_eq(max_outer=4, tol=1e-300)
        with pytest.raises(InsufficientTraceError):
            dg.rate_fit(dg.fejer_check(log, [1.0], [-1.0], cfg.geometry).distances)


class TestErgodicGap:
    def test_bound_holds_on_eq_run(self):
        cfg, log = solve_eq()
        pts = [
            (np.array([1.0]), np.array([-1.0])),
            (np.array([0.0]), np.array([0.0])),
            (np.array([2.0]), np.array([1.0])),
        ]
        assert dg.ergodic_gap_check(log, eq_qp(), cfg.geometry, pts) <= 1e-8

    def test_saddle_point_gap_nonnegative_first_prefix(self):
        # with the saddle as test point the one-step inequality already holds
        cfg, log = solve_eq(max_outer=1, tol=1e-300)
        gap = dg.ergodic_gap_check(
            log, eq_qp(), cfg.geometry, [(np.array([1.0]), np.array([-1.0]))]
        )
        assert gap <= 1e-8

    def test_conic_feasibility_on_inequality_run(self):
        gp = [g for g in golden_suite() if g.family == "ineq"][2]
        geo = BregmanGeometry(energy(gp.problem.n), von_neumann(gp.problem.m))
        cfg = SolverConfig(geometry=geo, regime="qsc", tol_b=1e-9, tol_kkt=1e-9, max_outer=300)
        rep, log = logged_run(cfg, gp.problem)
        assert rep.status == SolveStatus.OPTIMAL
        assert dg.conic_feasibility_check(log, gp.problem, geo, gp.x_star, gp.y_star) <= 1e-8

    def test_conic_feasibility_refuses_a_non_orthant_constraint(self):
        cfg, log = solve_eq()
        with pytest.raises(UnsupportedError):
            dg.conic_feasibility_check(log, eq_qp(), cfg.geometry, [1.0], [-1.0])


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
    grad0 = phi.grad(y0) if phi.nonnegative else None
    for start in candidates[1:]:
        y = start.copy()
        for _ in range(60):
            if phi.nonnegative:
                grad = phi.grad(np.maximum(y, 1e-148)) - grad0
            else:
                grad = y - y0
            y = np.maximum(y + 0.1 * radius / (1.0 + np.linalg.norm(grad)) * grad, 0.0)
            norm = np.linalg.norm(y)
            if norm > 0:
                y = y * (radius / norm)
        best = max(best, bregman_distance(phi, y, y0))
    return best


@pytest.mark.parametrize("factory", [spence, von_neumann, energy], ids=lambda cls: cls.kind)
@pytest.mark.parametrize("m", [1, 2, 5, 100])
def test_batched_cap_search_matches_per_start_loop(factory, m):
    # the rows the ascent starts from already hold its maximum at the dual start
    geo = BregmanGeometry(energy(2), factory(m))
    for radius in [0.5, 1.07, 3.0, 2.0 * math.sqrt(m) + 1.0, 60.0]:
        got = dg._max_divergence_on_cap(geo, radius)
        want = cap_search_per_start(geo.dual, geo.dual.start(), radius)
        assert got == pytest.approx(want, rel=1e-12)
        assert got >= want - 8 * np.spacing(want)  # the ascent gains only rounding


def random_cap_points(rng, m, radius, count):
    """Points of {y >= 0, ||y|| <= radius}, a fifth or more of them on the
    sphere: half of them uniform directions, half equal levels on a random
    support with one odd coordinate, the shape a von Neumann maximizer can
    take."""
    half = count // 2
    spread = np.abs(rng.standard_normal((half, m)))
    norms = np.minimum(rng.uniform(0.0, 1.25, half) ** (1.0 / m), 1.0)
    spread *= (radius * norms / np.linalg.norm(spread, axis=1))[:, None]
    support = np.arange(m) < rng.integers(1, m + 1, count - half)[:, None]
    levels = support * rng.uniform(0.0, 1.0, (count - half, 1))
    levels[np.arange(count - half), rng.integers(0, m, count - half)] = rng.uniform(0.0, 4.0, count - half)
    norms = np.minimum(rng.uniform(0.5, 1.25, count - half), 1.0)
    levels *= (radius * norms / np.linalg.norm(levels, axis=1))[:, None]
    return np.vstack([spread, levels])


@pytest.mark.parametrize("factory", [spence, von_neumann, energy], ids=lambda cls: cls.kind)
def test_no_cap_point_exceeds_the_cap_maximum(factory):
    rng = np.random.default_rng(2718)
    for m, radius in [(2, 60.0), (5, 1.07), (8, 7.0), (30, 20.0)]:
        geo = BregmanGeometry(energy(2), factory(m))
        best = dg._max_divergence_on_cap(geo, radius)
        points = random_cap_points(rng, m, radius, 10_000)
        assert np.all(np.linalg.norm(points, axis=1) <= radius * (1 + 1e-15))
        distances = bregman_distance(geo.dual, points, geo.dual.start())
        # a point on the sphere carries its normalization's rounding (up to 5 ulps)
        assert np.max(distances) <= best + 8 * np.spacing(best)


def test_distance_calls_do_not_grow_with_the_trace(monkeypatch):
    # each check evaluates its Bregman distances on stacks of iterates, so the
    # number of calls is the same for 150 records as for 10
    gp = [g for g in golden_suite() if g.family == "ineq"][7]
    ps = gp.problem
    geo = BregmanGeometry(energy(ps.n), spence(ps.m))
    cfg = SolverConfig(geometry=geo, tol_b=1e-300, tol_kkt=1e-300, max_outer=150)
    _, log = logged_run(cfg, ps)
    assert len(log.iterates) >= 100
    calls = []
    original = dg.bregman_distance
    monkeypatch.setattr(dg, "bregman_distance", lambda *a: calls.append(a) or original(*a))

    def count(log):
        calls.clear()
        dg.rate_fit(dg.fejer_check(log, gp.x_star, gp.y_star, geo).distances)
        points = [(gp.x_star, gp.y_star), (np.zeros(ps.n), geo.dual.start())]
        dg.ergodic_gap_check(log, ps, geo, points)
        dg.conic_feasibility_check(log, ps, geo, gp.x_star, gp.y_star)
        return len(calls)

    short = dg.IterateLog(log.records[:10], log.iterates[:10])
    assert count(log) == count(short) > 0


@pytest.mark.parametrize("block", [None, 20], ids=["one_block", "carried_blocks"])
def test_ergodic_checks_match_running_sums(block, monkeypatch):
    # the prefix-sum averages and row-wise Lagrangians, and the Fejér series,
    # reproduce the record-by-record definition exactly, also when the sums
    # are carried and the eigenbasis reads mapped from one block of records
    # to the next
    from bpalm.problem import lagrangian

    if block is not None:
        monkeypatch.setattr(dg, "BLOCK_COORDS", block)
    gp = [g for g in golden_suite() if g.family == "ineq"][4]
    ps = gp.problem
    geo = BregmanGeometry(energy(ps.n), von_neumann(ps.m))
    _, log = logged_run(SolverConfig(geometry=geo, max_outer=300), ps)
    points = [(gp.x_star, gp.y_star), (np.zeros(ps.n), 2.0 * np.ones(ps.m))]
    x0, y0 = geo.primal.start(), geo.dual.start()
    rhs = [
        bregman_distance(geo.primal, x, x0) + bregman_distance(geo.dual, y, y0)
        for x, y in points
    ]
    weight, sx, sy, excess, conic = 0.0, np.zeros(ps.n), np.zeros(ps.m), [], []
    bound_num = bregman_distance(geo.primal, gp.x_star, x0) + dg._max_divergence_on_cap(
        geo, 2.0 * float(np.linalg.norm(gp.y_star)) + 1.0
    )
    for rec, iterate in zip(log.records, log.iterates):
        weight += rec.sigma
        sx = sx + rec.sigma * iterate.s
        sy = sy + rec.sigma * iterate.y_next
        s_bar, y_bar = sx / weight, sy / weight
        excess.append(
            [lagrangian(ps, s_bar, y) - lagrangian(ps, x, y_bar) - r / weight
             for (x, y), r in zip(points, rhs)]
        )
        obj = abs(ps.f.value(s_bar) - ps.f.value(gp.x_star))
        feas = float(np.linalg.norm(np.maximum(ps.map.residual(s_bar), 0.0)))
        conic.append(max(obj, feas) - bound_num / weight)
    assert dg.ergodic_gap_check(log, ps, geo, points) == max(map(max, excess))
    assert dg.conic_feasibility_check(log, ps, geo, gp.x_star, gp.y_star) == max(conic)
    assert log.iterates[0].basis is not None  # the run solved in W's eigenbasis
    last = log.iterates[-1]
    fejer = [
        bregman_distance(geo.primal, gp.x_star, x) + bregman_distance(geo.dual, gp.y_star, y)
        for x, y in anchors(log, geo) + [(last.x_next, last.y_next)]
    ]
    assert dg.fejer_check(log, gp.x_star, gp.y_star, geo).distances == fejer


def dual_perturbations(cfg, log):
    """v_k in the x-block of the KKT operator at (s, y_next), per iteration:
    grad - (psi'(s) - psi'(x_k)) / sigma."""
    psi = cfg.geometry.primal
    return [
        it.grad - (psi.grad(it.s) - psi.grad(x)) / rec.sigma
        for rec, it, (x, _) in zip(log.records, log.iterates, anchors(log, cfg.geometry))
    ]


def dual_perturbation_value(ps, v, y):
    """f*(v - A'y) + <b, y> + g*(y) for a quadratic f with invertible W, whose
    conjugate is f*(z) = (z - c)' W^{-1} (z - c) / 2."""
    z = np.asarray(v, dtype=float) - ps.map.A.T @ np.asarray(y, dtype=float) - ps.f.c
    return 0.5 * float(z @ np.linalg.solve(ps.f.W, z)) + float(ps.map.b @ y) + ps.g.conj_value(y)


class TestDualAsymptotics:
    def test_dual_values_approach_optimum(self):
        # F*(v_k, y_{k+1}) -> F*(0, y*) along a run with the Euclidean primal
        cfg, log = solve_eq()
        ps = eq_qp()
        target = dual_perturbation_value(ps, [0.0], [-1.0])
        assert target == pytest.approx(-0.5)
        values = [
            dual_perturbation_value(ps, v, it.y_next)
            for v, it in zip(dual_perturbations(cfg, log), log.iterates)
        ]
        gaps = [abs(v - target) for v in values]
        assert gaps[-1] <= 1e-8
        assert gaps[-1] <= gaps[0]

    def test_perturbation_vector_is_lagrangian_subgradient(self):
        # v_k agrees with grad_x L(s_k, y_{k+1}) for the smooth objective
        from bpalm.problem import lagrangian

        cfg, log = solve_eq()
        ps = eq_qp()
        h = 1e-7
        for v, it in list(zip(dual_perturbations(cfg, log), log.iterates))[:5]:
            fd = (
                lagrangian(ps, it.s + h, it.y_next)
                - lagrangian(ps, it.s - h, it.y_next)
            ) / (2 * h)
            assert v[0] == pytest.approx(fd, abs=1e-6)


class TestSummability:
    def test_partial_sums_bounded(self):
        cfg, log = solve_eq()
        fejer = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry)
        total, budget = dg.summability_check(log, fejer.distances)
        assert total <= budget + 1e-6

    def test_budget_uses_max_rho(self):
        cfg, log = solve_eq(rho_schedule=RhoSchedule(0.25))
        fejer = dg.fejer_check(log, [1.0], [-1.0], cfg.geometry)
        d0 = dg.summability_check(log, fejer.distances)[1]
        expected = (0.5 * 1.0**2 + 0.5 * (-1.0) ** 2) / (1 - 0.25)
        assert d0 == pytest.approx(expected)
