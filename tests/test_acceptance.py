"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity.

The golden problems are solved once per family configuration and the reports
are shared across criteria.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

import bpalm.diagnostics as dg
from bpalm.cli import main as cli_main
from bpalm.legendre import (
    BregmanGeometry,
    box_barrier,
    bregman_distance,
    energy,
    spence,
    von_neumann,
)
from bpalm.oracle import golden_suite, solve_equality_qp
from bpalm.outer import RhoSchedule, SolveStatus, SolverConfig, run
from bpalm.penalty import CLOSED_FORMS, penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective
from test_cli import write_document
from test_diagnostics import anchors, logged_run
from test_penalty import penalty_bruteforce

DUALS = {"energy": energy, "von_neumann": von_neumann, "spence": spence}


def family_config(gp):
    n, m = gp.problem.n, gp.problem.m
    if gp.family == "eq":
        return SolverConfig(
            geometry=BregmanGeometry(energy(n), energy(m)),
            regime="qsc",
            tol_b=1e-9,
            tol_kkt=1e-9,
            max_outer=100,
        )
    if gp.family in ("ineq", "vecmax"):
        return SolverConfig(
            geometry=BregmanGeometry(energy(n), von_neumann(m)),
            regime="qsc",
            tol_b=1e-9,
            tol_kkt=1e-9,
            max_outer=300,
        )
    if gp.family == "box":
        return SolverConfig(
            geometry=BregmanGeometry(box_barrier(*gp.problem.f.box), energy(m)),
            regime="sc",
            sigma_growth=1000.0,
            rho_schedule=RhoSchedule(1e-4),
            tol_b=1e-5,
            tol_kkt=1e-6,
            max_outer=3000,
        )
    return SolverConfig(  # one_norm
        geometry=BregmanGeometry(energy(n), energy(m)),
        regime="qsc",
        tol_b=1e-9,
        tol_kkt=1e-9,
        max_outer=300,
    )


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    for gp in golden_suite():
        cfg = family_config(gp)
        started = time.perf_counter()
        report, log = logged_run(cfg, gp.problem)
        wall = time.perf_counter() - started
        runs.append((gp, cfg, report, log, wall))
    return runs


def _emit(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_golden_solve_equivalence(suite_runs):
    worst_rel = 0.0
    worst_time = 0.0
    assert len(suite_runs) >= 20
    for gp, cfg, report, _, wall in suite_runs:
        assert report.status == SolveStatus.OPTIMAL, gp.name
        tol = 1e-6 * (1.0 + np.linalg.norm(gp.x_star))
        err = np.linalg.norm(report.x - gp.x_star)
        assert err <= tol, f"{gp.name}: |x - x*| = {err:.2e} > {tol:.2e}"
        yerr = np.linalg.norm(report.y - gp.y_star)
        assert yerr <= 1e-5 * (1.0 + np.linalg.norm(gp.y_star)), gp.name
        assert wall < 1.0, f"{gp.name}: {wall:.2f}s"
        worst_rel = max(worst_rel, err / tol)
        worst_time = max(worst_time, wall)
    _emit(
        1,
        True,
        f"{len(suite_runs)} golden solves; worst error {worst_rel:.2f} of budget, "
        f"slowest {worst_time * 1e3:.0f} ms",
    )


def test_criterion_02_penalty_conjugacy():
    rng = np.random.default_rng(2024)
    worst_val = 0.0
    worst_grad = 0.0
    h = 1e-6
    for (variant, kind), form in CLOSED_FORMS.items():
        for m, count, grid in ((1, 25, 400), (2, 25, 150)):
            p = penalty_for(NonsmoothTerm(variant), DUALS[kind](m))
            for _ in range(count):
                u = rng.uniform(-2.0, 2.0, m)
                ref = penalty_bruteforce(variant, kind, 1.0, u, grid=grid)
                gap = abs(p.value(u) - ref)
                assert gap <= 1e-4, f"{form} m={m}: |value - bruteforce| = {gap:.2e}"
                worst_val = max(worst_val, gap)
                g = p.grad(u)
                for i in range(m):
                    e = np.zeros(m)
                    e[i] = h
                    fd = (p.value(u + e) - p.value(u - e)) / (2 * h)
                    gerr = abs(g[i] - fd)
                    assert gerr <= 1e-6 * (1.0 + abs(fd)), f"{form}: grad err {gerr:.2e}"
                    worst_grad = max(worst_grad, gerr)
    _emit(
        2,
        True,
        f"conjugacy worst gap {worst_val:.2e} (tol 1e-4), "
        f"gradient worst gap {worst_grad:.2e} (tol 1e-6)",
    )


# the conjugate's Hessian diagonal at t in closed form; the box barrier's
# conjugate has none, so it goes through the inverse gradient map
CONJ_HESS_DIAG = {
    "energy": lambda fn, t: np.ones(fn.dim),
    "von_neumann": lambda fn, t: np.exp(t),
    "spence": lambda fn, t: 0.5 * (1.0 + np.tanh(0.5 * t)),
    "box_barrier": lambda fn, t: 1.0 / fn.hess_diag(fn.conj_grad(t)),
}


def test_criterion_03_legendre_calculus():
    rng = np.random.default_rng(3)
    geometries = [
        energy(4),
        von_neumann(4),
        spence(4),
        box_barrier(-np.ones(4), 2.0 * np.ones(4)),
    ]
    worst_rt = 0.0
    worst_inv = 0.0
    for fn in geometries:
        for _ in range(1000):
            if fn.kind == "energy":
                z = rng.normal(size=4) * 2.0
            elif fn.kind == "box_barrier":
                z = fn.lower + (fn.upper - fn.lower) * rng.uniform(0.01, 0.99, 4)
            else:
                z = np.exp(rng.uniform(-2.5, 2.5, 4))
            back = fn.conj_grad(fn.grad(z))
            rt = np.linalg.norm(back - z) / (1.0 + np.linalg.norm(z))
            assert rt <= 1e-10, fn.kind
            worst_rt = max(worst_rt, rt)
            conj_hess = CONJ_HESS_DIAG[fn.kind](fn, fn.grad(z))
            inv = np.max(np.abs(conj_hess * fn.hess_diag(z) - 1.0))
            assert inv <= 1e-8, fn.kind
            worst_inv = max(worst_inv, inv)
            z2 = z + rng.normal(size=4) * 0.05
            if fn.in_interior(z2):
                d = bregman_distance(fn, z, z2)
                assert d > 0.0
            assert bregman_distance(fn, z, z) == 0.0
    _emit(
        3,
        True,
        f"1000 samples x 4 geometries: roundtrip worst {worst_rt:.2e} (tol 1e-10), "
        f"inverse-Hessian worst {worst_inv:.2e} (tol 1e-8)",
    )


def test_criterion_04_inner_complexity_bound(suite_runs):
    checked = 0
    over_ten = 0
    for gp, cfg, report, _, _ in suite_runs:
        if gp.family not in ("ineq", "box"):
            continue
        for rec in report.trace.records:
            checked += 1
            assert rec.predicted_newton is not None, gp.name
            assert rec.newton.iterations_used <= rec.predicted_newton, (
                f"{gp.name} k={rec.k}: used {rec.newton.iterations_used} "
                f"> predicted {rec.predicted_newton}"
            )
            if rec.newton.iterations_used > 10:
                over_ten += 1
    share = 1.0 - over_ten / checked
    assert share >= 0.95
    _emit(
        4,
        True,
        f"{checked} outer iterations: observed <= predicted everywhere; "
        f"{share * 100:.1f}% within 10 steps",
    )


def test_criterion_05_quadratic_decrement_contraction(suite_runs):
    pairs = 0
    worst = -math.inf
    for gp, cfg, _, log, _ in suite_runs:
        if gp.family != "box":
            continue
        for rec, iterate in zip(log.records, log.iterates):
            lams = [s.decrement for s in rec.newton.steps[:-1]] + [iterate.decrement]
            for a, b in zip(lams, lams[1:]):
                if a < 0.25:
                    pairs += 1
                    excess = b - (2.0 * a * a + 1e-8)
                    worst = max(worst, excess)
                    assert excess <= 0.0, f"{gp.name}: {b:.3e} > 2*{a:.3e}^2"
    assert pairs > 0
    _emit(5, True, f"{pairs} decrement pairs below 1/4; worst excess {worst:.2e}")


def test_criterion_06_fejer_monotonicity(suite_runs):
    checked = 0
    skipped = 0
    for gp, cfg, report, log, _ in suite_runs:
        if report.status != SolveStatus.OPTIMAL:
            continue
        geometry = cfg.geometry
        if not (geometry.primal.in_domain(gp.x_star) and geometry.dual.in_domain(gp.y_star)):
            skipped += 1  # solution on the boundary: the distance is undefined
            continue
        res = dg.fejer_check(log, gp.x_star, gp.y_star, cfg.geometry)
        assert res.monotone, f"{gp.name}: violations at {res.violations[:5]}"
        checked += 1
    assert checked >= 20
    _emit(
        6,
        True,
        f"monotone on {checked}/{checked} in-domain converged runs "
        f"({skipped} boundary-solution runs covered by the ergodic criteria)",
    )


def test_criterion_07_superlinear_tail():
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([0.5, -1.0])
    A = np.array([[1.0, 2.0]])
    b = np.array([1.0])
    x_star, y_star = solve_equality_qp(W, c, A, b)
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(W, c),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense(A, b),
    )
    cfg = SolverConfig(
        geometry=BregmanGeometry(energy(2), energy(1)),
        regime="qsc",
        sigma_growth=2.0,
        rho_schedule=RhoSchedule(0.5, 0.5),
        tol_b=1e-300,
        tol_kkt=1e-300,
        max_outer=8,
    )
    _, log = logged_run(cfg, ps)
    est = dg.rate_fit(dg.fejer_check(log, x_star, y_star, cfg.geometry).distances)
    tail = est.ratios[-5:]
    ok = (
        est.superlinear
        and len(tail) == 5
        and all(b < a for a, b in zip(tail, tail[1:]))
        and tail[-1] < 0.1
    )
    _emit(7, ok, f"tail ratios {['%.1e' % q for q in tail]}, final {tail[-1]:.2e} < 0.1")


def test_criterion_08_ergodic_bounds(suite_runs):
    worst_gap = -math.inf
    worst_conic = -math.inf
    rng = np.random.default_rng(8)
    for gp, cfg, _, log, _ in suite_runs:
        psi = cfg.geometry.primal
        if psi.kind == "box_barrier":
            x_pts = [0.5 * (psi.lower + psi.upper),
                     psi.lower + (psi.upper - psi.lower) * rng.uniform(0.2, 0.8, psi.dim)]
        else:
            x_pts = [gp.x_star, np.zeros(gp.problem.n)]
        if cfg.geometry.dual.kind == "energy":
            y_pts = [gp.y_star, np.zeros(gp.problem.m)]
        else:
            y_pts = [np.maximum(gp.y_star, 0.0), np.ones(gp.problem.m)]
        pts = [(x, y) for x in x_pts for y in y_pts]
        gap = dg.ergodic_gap_check(log, gp.problem, cfg.geometry, pts)
        assert gap <= 1e-8, f"{gp.name}: {gap:.2e}"
        worst_gap = max(worst_gap, gap)
        if gp.family == "ineq":
            conic = dg.conic_feasibility_check(
                log, gp.problem, cfg.geometry, gp.x_star, gp.y_star
            )
            assert conic <= 1e-8, f"{gp.name}: {conic:.2e}"
            worst_conic = max(worst_conic, conic)
    _emit(
        8,
        True,
        f"ergodic worst excess {worst_gap:.2e}, conic worst excess "
        f"{worst_conic:.2e} (tol 1e-8)",
    )


def test_criterion_09_exponential_multiplier_identity(suite_runs):
    worst = 0.0
    checked = 0
    for gp, cfg, _, log, _ in suite_runs:
        # the multiplicative update is the orthant/von-Neumann pairing; the
        # vecmax problems share the dual geometry but update through softmax
        if gp.family != "ineq" or cfg.geometry.dual.kind != "von_neumann":
            continue
        anchor_seq = anchors(log, cfg.geometry)
        for rec, iterate, (_, y_anchor) in zip(log.records, log.iterates, anchor_seq):
            expected = y_anchor * np.exp(rec.sigma * gp.problem.map.residual(iterate.s))
            gap = float(np.max(np.abs(iterate.y_next - expected)))
            assert gap <= 1e-12, f"{gp.name} k={rec.k}: {gap:.2e}"
            worst = max(worst, gap)
            checked += 1
    assert checked > 0
    _emit(9, True, f"{checked} multiplier updates, worst componentwise gap {worst:.2e}")


def test_criterion_10_cli_determinism_and_schema(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "eq.json"
    write_document(
        str(doc),
        objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
        constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
        solution={"x": [1.0], "y": [-1.0]},
    )
    monkeypatch.setenv("BPALM_WALL_TIME_MS", "0")
    trace1, trace2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    rc = cli_main(["--problem", str(doc), "--report", "json", "--trace", str(trace1)])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = cli_main(["--problem", str(doc), "--report", "json", "--trace", str(trace2)])
    out2 = capsys.readouterr().out
    assert rc == 0
    assert out1 == out2
    assert trace1.read_bytes() == trace2.read_bytes()
    payload = json.loads(out1)
    schema = [
        "status", "iterations", "newton_steps_total", "dual_res",
        "primal_res", "compl_res", "sigma_final", "wall_time_ms",
    ]
    assert all(k in payload for k in schema)
    header = trace1.read_text().splitlines()[0]
    assert header == (
        "k,sigma,rho,T_k_used,T_k_predicted,B_k,grad_norm,decrement,"
        "dual_res,primal_res,D_to_solution"
    )
    _emit(10, True, "byte-identical reports and traces; schema and columns fixed")
