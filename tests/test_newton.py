"""Tests for the Newton inner oracle and predicted step counts."""

import logging
import math
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgError

import bpalm.auglag
import bpalm.cli
import bpalm.newton
import bpalm.outer
from bpalm.auglag import SubproblemContext, evaluate_anchor, make_context
from bpalm.exceptions import FactorizationError, InvalidRegimeError
from bpalm.legendre import BoxBarrier, BregmanGeometry, box_barrier, energy, spence, von_neumann
from bpalm.newton import (
    REGIMES,
    SpectralSystem,
    _clamped_step,
    _decrement,
    _newton_direction,
    _solve_spd,
    lipschitz_steps,
    qsc_steps,
    sc_steps,
    solve_subproblem,
)
from bpalm.oracle import golden_suite
from bpalm.outer import SolverConfig, run
from bpalm.penalty import CLOSED_FORMS, penalty_for
from bpalm.problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective
from test_acceptance import family_config
from test_auglag import marginal_value
from test_diagnostics import logged_run
from test_output_digest import benchmark_document
from test_problem import _load_benchmark_instances


def eq_qp_context(sigma=1.0, rho=0.0):
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    geo = BregmanGeometry(energy(1), energy(1))
    anchor = evaluate_anchor(ps, geo, [0.0], [0.0])
    return make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, sigma, rho)


def ineq_vn_context(sigma=0.5, rho=0.5):
    ps = ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [-2.0]),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )
    geo = BregmanGeometry(energy(1), von_neumann(1))
    anchor = evaluate_anchor(ps, geo, [0.0], [1.0])
    return make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, sigma, rho)


def newton_direction(ctx, point, g):
    """-H^{-1} g at an evaluated point, as `solve_subproblem` takes it."""
    hess = partial(ctx.hess, point)
    return _newton_direction(ctx.system, ctx.sigma, ctx.penalty, point.u, g, hess)


def newton_step(ctx, s):
    """One pure, clamped Newton step on the subproblem objective from s."""
    point = ctx.evaluate(s)
    return _clamped_step(ctx, point.s, newton_direction(ctx, point, ctx.grad(point)))


def newton_decrement(ctx, s, modulus):
    """modulus * sqrt(<grad, hess^{-1} grad>) at s."""
    point = ctx.evaluate(s)
    g = ctx.grad(point)
    return _decrement(g, newton_direction(ctx, point, g), modulus)


class TestNewtonStep:
    def test_quadratic_one_step_exact(self):
        ctx = eq_qp_context()
        for start in (-2.0, 0.0, 5.0):
            s = newton_step(ctx, [start])
            assert s == pytest.approx([1 / 3], abs=1e-14)

    def test_stationary_point_fixed(self):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic([[1.0]], [0.0]),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [1.0]),
        )
        geo = BregmanGeometry(energy(1), energy(1))
        anchor = evaluate_anchor(ps, geo, [1.0], [-1.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 1.0, 0.0)
        assert newton_step(ctx, [1.0]) == pytest.approx([1.0])

    def test_clamp_matches_coordinate_loop(self):
        lo, hi = -np.ones(6), np.linspace(0.5, 3.0, 6)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(6), np.zeros(6), box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense(np.ones((1, 6)), [0.0]),
        )
        geo = BregmanGeometry(box_barrier(lo, hi), energy(1))
        anchor = evaluate_anchor(ps, geo, np.zeros(6), [0.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 1.0, 0.5)
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
        anchor = evaluate_anchor(ps, geo, [0.5], [0.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 100.0, 0.5)
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
        anchor = evaluate_anchor(ps, geo, [0.0], [0.0])
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, 1.0, 0.0)
        assert newton_decrement(ctx, [1.0], 1.0) == pytest.approx(math.sqrt(3.0))

    def test_scaling_in_modulus(self):
        ctx = eq_qp_context()
        one = newton_decrement(ctx, [0.4], 1.0)
        assert newton_decrement(ctx, [0.4], 2.0) == pytest.approx(2 * one)

    def test_zero_at_stationary(self):
        ctx = eq_qp_context()
        assert newton_decrement(ctx, [1 / 3], 1.0) == pytest.approx(0.0, abs=1e-12)


class TestSolveSubproblem:
    def test_quadratic_accepted_after_one_step(self):
        ctx = eq_qp_context(rho=0.5)
        inner = solve_subproblem(ctx, cap=50)
        assert inner.accepted
        assert inner.trace.iterations_used == 1
        assert inner.point.s == pytest.approx([1 / 3])

    def test_rho_zero_reaches_gradient_floor(self):
        # non-quadratic subproblem: exponential penalty
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, cap=50)
        assert inner.accepted
        assert np.linalg.norm(inner.grad) <= 1e-12

    def test_cap_zero_returns_start(self):
        ctx = ineq_vn_context(rho=0.5)
        inner = solve_subproblem(ctx, cap=0)
        np.testing.assert_allclose(inner.point.s, [0.0])
        assert not inner.accepted
        # a start that already passes is accepted with zero iterations
        ps = ctx.problem
        geo = ctx.geometry
        anchor = evaluate_anchor(ps, geo, [1.0], [1.0])
        saddle = make_context(ps, ctx.penalty, geo, anchor, 1.0, 0.5)
        inner2 = solve_subproblem(saddle, cap=0)
        assert inner2.accepted
        assert inner2.trace.iterations_used == 0

    def test_cap_reported_not_raised(self):
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, cap=1)
        assert not inner.accepted
        assert inner.trace.iterations_used == 1

    def test_acceptance_reproducible(self):
        # the reported iterate re-passes an independent stopping evaluation
        ctx = ineq_vn_context(rho=0.3)
        inner = solve_subproblem(ctx, cap=50)
        point = ctx.evaluate(inner.point.s)
        g = ctx.grad(point)
        assert ctx.acceptance_check(point, g).accepted or np.linalg.norm(g) <= 1e-12

    def test_descent_on_quadratic(self):
        ctx = eq_qp_context(rho=0.0)
        vals = [marginal_value(ctx, [0.0])]
        s = np.array([0.0])
        for _ in range(3):
            s = newton_step(ctx, s)
            vals.append(marginal_value(ctx, s))
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_trace_records_every_visited_point(self):
        ctx = ineq_vn_context(rho=0.4)
        inner = solve_subproblem(ctx, cap=50)
        assert len(inner.trace.steps) == inner.trace.iterations_used + 1
        assert inner.accepted


class TestFactorization:
    def test_singular_hessian_is_lifted(self, caplog):
        H = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD but singular
        with caplog.at_level(logging.WARNING):
            step = -_solve_spd(H.copy, np.array([1.0, 1.0]))
        # the second pivot is exactly 0; the lift 2e-12 I makes it positive
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "retrying with lift 2.000e-12" in record.getMessage()
        assert np.all(np.isfinite(step))
        # g lies on H's eigenvector of eigenvalue 2, so the step is about -g/2
        assert step.sum() == pytest.approx(-1.0, rel=1e-9)

    def test_indefinite_hessian_fails(self):
        with pytest.raises(FactorizationError):
            _solve_spd(np.array([[-1.0]]).copy, np.array([1.0]))

    # the last case fails the first factorization and meets NaN after the lift
    @pytest.mark.parametrize("hess, grad", [(math.inf, 1.0), (1.0, math.nan), (-1e-13, math.nan)])
    def test_non_finite_system_fails(self, hess, grad):
        with pytest.raises(FactorizationError, match="not finite"):
            _solve_spd(np.array([[hess]]).copy, np.array([grad]))


class TestCholeskyWrappers:
    """bpalm.newton's own cho_factor and cho_solve call LAPACK directly and
    must give scipy's bits."""

    @pytest.mark.parametrize("m", [1, 2, 100, 150])
    def test_bit_identical_to_scipy(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            root = rng.normal(size=(m, m))
            H = root @ root.T / m + rng.uniform(0.0, 1.0) * np.eye(m)
            H[np.tril_indices(m, -1)] *= 1.0 + 1e-15  # not exactly symmetric, as K is
            g = rng.normal(size=m)
            # a 1 x 1 H is Fortran-ordered too, and cho_factor overwrites it
            reference = scipy.linalg.cho_factor(H.copy())
            c = bpalm.newton.cho_factor(H)
            assert c.tobytes() == reference[0].tobytes()
            x = bpalm.newton.cho_solve(c, g)
            assert x.tobytes() == scipy.linalg.cho_solve(reference, g).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 100, 150])
    def test_spectral_system_factors_the_products_of_k(self, m):
        # SpectralSystem.solve hands potrf K in Fortran order; the factor is
        # the one of K = I + E G E formed row-scaled, as a C-ordered array
        rng = np.random.default_rng(m)
        n = m + 7
        root = rng.normal(size=(n, n))
        system = spectral_system(root @ root.T / n + np.eye(n), rng.normal(size=(m, n)))
        factored = []

        def recording(a):
            factored.append(a.copy(order="K"))  # cho_factor overwrites a
            return original(a)

        original = bpalm.newton.cho_factor
        cases = [(sigma, np.exp(rng.uniform(-6.0, 6.0, m))) for sigma in (2.0**-4, 1.0, 2.0**5)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bpalm.newton, "cho_factor", recording)
            for sigma, d in cases:
                system.solve(sigma, d, rng.normal(size=n))
        for (sigma, d), a in zip(cases, factored):
            G = system._gram(sigma)[1]
            assert np.array_equal(G, G.T)  # numpy forms root @ root.T with syrk
            assert a.flags.f_contiguous
            e = np.sqrt(sigma * d)
            K = G * e
            K *= e[:, None]
            K[np.diag_indices(m)] += 1.0
            assert a.tobytes(order="C") == K.tobytes()
            assert original(a).tobytes() == original(K).tobytes()

    def test_lift_retry_starts_from_the_unfactored_matrix(self, monkeypatch):
        # the second pivot of this singular K fails; the retry must factor
        # K + lift I, not what the failed factorization left behind
        # (each call of the assembler gives a new Fortran K, which the
        # failed factorization overwrites in place)
        K = np.asfortranarray([[1.0, 1.0], [1.0, 1.0]])
        original = bpalm.newton.cho_factor
        seen = []

        def recording(a):
            seen.append(a.copy())
            return original(a)

        monkeypatch.setattr(bpalm.newton, "cho_factor", recording)
        _solve_spd(partial(np.copy, K, order="F"), np.array([1.0, 1.0]))
        assert len(seen) == 2
        assert np.array_equal(K, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(seen[1], seen[0] + 2e-12 * np.eye(2))

    @pytest.mark.parametrize("path", ["dense", "spectral"])
    def test_lifted_solve_factors_the_reassembled_matrix(self, path, monkeypatch):
        # the first factorization fails, having written over its matrix as a
        # failed potrf does; the retry factors a newly assembled K + lift I
        # (H + lift I on the dense path), and the step is bit for bit the one
        # of factoring that sum in a copy
        W, A, g = spectral_pieces(17)
        sigma, d = 0.5, np.exp(np.random.default_rng(18).uniform(-3.0, 3.0, A.shape[0]))
        original = bpalm.newton.cho_factor
        seen = []

        def failing_once(a):
            seen.append(a.copy())
            if len(seen) == 1:
                a[...] = np.nan
                raise LinAlgError("1-th leading minor of the array is not positive definite")
            return original(a)

        monkeypatch.setattr(bpalm.newton, "cho_factor", failing_once)
        system = spectral_system(W, A)
        if path == "dense":
            step = -_solve_spd(partial(dense_hessian, W, A, sigma, d), g)
        else:
            step = -system.solve(sigma, d, g)
        first, second = seen
        lifted = first + 1e-12 * (1.0 + np.trace(first) / len(first)) * np.eye(len(first))
        assert second.tobytes() == lifted.tobytes()
        factor = scipy.linalg.cho_factor(lifted)
        if path == "dense":
            assert first.tobytes() == dense_hessian(W, A, sigma, d).tobytes()
            reference = -scipy.linalg.cho_solve(factor, g)
        else:
            # test_spectral_system_factors_the_products_of_k pins first as K
            w = system._gram(sigma)[0]
            e = np.sqrt(sigma * d)
            r = w * g
            z = e * scipy.linalg.cho_solve(factor, e * (system.B @ r))
            reference = -(r - w * (system.B.T @ z))
        assert step.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("m", [2, 100, 150])
    def test_fortran_matrix_is_factored_in_place(self, m):
        rng = np.random.default_rng(m)
        root = rng.normal(size=(m, m))
        K = np.asfortranarray(root @ root.T / m + np.eye(m))
        K[np.tril_indices(m, -1)] *= 1.0 + 1e-15  # not exactly symmetric
        reference = scipy.linalg.cho_factor(K)[0]  # factored in a copy
        c = bpalm.newton.cho_factor(K)
        assert c is K
        assert c.tobytes() == reference.tobytes()

    def test_failed_pivot_raises_linalg_error(self):
        with pytest.raises(LinAlgError, match="2-th leading minor"):
            bpalm.newton.cho_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        H = np.eye(2)
        H[1, 0] = bad  # in the triangle LAPACK does not read
        with pytest.raises(ValueError):
            bpalm.newton.cho_factor(H)
        with pytest.raises(ValueError):
            bpalm.newton.cho_solve(bpalm.newton.cho_factor(np.eye(2)), np.array([1.0, bad]))


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

    # perfbench counts factorizations and SPD lifts by wrapping this same
    # module global, so every factorization must go through it
    def test_one_factorization_per_step(self, factor_calls):
        cfg, ps = small_ineq_run()
        assert SpectralSystem.for_run(ps, cfg.geometry) is not None  # m x m systems
        report, log = logged_run(cfg, ps)
        assert report.total_newton_steps > 0
        assert factor_calls == {"ok": report.total_newton_steps, "raised": 0}

        first = [iterate.decrement for iterate in log.iterates]
        assert factor_calls["ok"] == report.total_newton_steps + report.outer_iterations
        assert [iterate.decrement for iterate in log.iterates] == first
        assert all(rec.newton.steps[-1].decrement is None for rec in log.records)
        assert factor_calls["ok"] == report.total_newton_steps + report.outer_iterations

    def test_deferred_value_matches_direct_decrement(self, monkeypatch):
        # the reference contexts share the run's spectral system, so both
        # sides take the same constraint-space solve
        built = []
        for_run = SpectralSystem.for_run

        def capture(problem, geometry):
            built.append(for_run(problem, geometry))
            return built[-1]

        monkeypatch.setattr(SpectralSystem, "for_run", capture)
        cfg, ps = small_ineq_run()
        _, log = logged_run(cfg, ps)
        [system] = built
        assert system is not None
        geometry = cfg.geometry
        penalty = penalty_for(ps.g, geometry.dual)
        solved = system.problem  # the problem in W's eigenbasis, which the run solved
        points = zip(log.records, log.iterates, solver_anchors(log, geometry, system))
        for rec, iterate, (x, y) in points:
            anchor = evaluate_anchor(solved, geometry, x, y)
            ctx = make_context(solved, penalty, geometry, anchor, rec.sigma, rec.rho, system)
            modulus = REGIMES[cfg.regime].modulus(ctx) or 1.0
            assert iterate.decrement == newton_decrement(ctx, iterate._s, modulus)

    def test_cap_reached_without_acceptance(self, factor_calls):
        ctx = ineq_vn_context(rho=0.0)
        inner = solve_subproblem(ctx, cap=2)
        assert not inner.accepted
        assert inner.trace.iterations_used == 2 and len(inner.trace.steps) == 3
        assert factor_calls["ok"] == 2
        assert inner.trace.steps[-1].decrement is None
        assert inner.decrement() == newton_decrement(ctx, inner.point.s, 1.0)


def solver_anchors(log, geometry, system):
    """Each logged outer iteration's anchor (x_k, y_k) in the coordinates the
    run solved in: W's eigenbasis where it had a spectral system."""
    x0 = geometry.primal.start()
    x0 = x0 if system is None else system.Q.T @ x0
    return [(x0, geometry.dual.start())] + [(it._x_next, it.y_next) for it in log.iterates[:-1]]


def spectral_system(W, A):
    """The spectral system of min x'Wx/2 s.t. Ax <= 0; its Newton systems
    read W and A alone."""
    m, n = A.shape
    return SpectralSystem(
        ProblemSpec(
            f=SmoothObjective.quadratic(W, np.zeros(n)),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(A, np.zeros(m)),
        )
    )


def spectral_pieces(seed, n=12, m=5, shift=0.5):
    """W = R R'/n + shift I (the benchmark instances' family; shift 0 and a
    thin R make W singular), a wide A and a gradient."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(n, n if shift else n - 1))
    W = root @ root.T / n + shift * np.eye(n)
    return W, rng.normal(size=(m, n)), rng.normal(size=n)


def backward_error(H, x, g):
    """||Hx - g|| / (||H|| ||x|| + ||g||), spectral norm."""
    return np.linalg.norm(H @ x - g) / (
        np.linalg.norm(H, 2) * np.linalg.norm(x) + np.linalg.norm(g)
    )


def dense_hessian(W, A, sigma, d):
    return W + np.eye(W.shape[0]) / sigma + sigma * (A.T * d) @ A


def dispatch_case(case):
    """A small problem, geometry and regime for each Newton-system path."""
    rng = np.random.default_rng(15)
    A, b = rng.normal(size=(2, 4)), rng.uniform(0.5, 1.0, 2)
    quad = SmoothObjective.quadratic(np.eye(4), rng.normal(size=4))
    orthant = NonsmoothTerm.nonneg_orthant_indicator()
    geo = BregmanGeometry(energy(4), von_neumann(2))
    if case == "box_barrier":
        return (*box_qp(), "sc")
    if case == "named_objective":
        ps = ProblemSpec(SmoothObjective.named("logistic", 4), orthant, AffineMap.from_dense(A, b))
    elif case == "logsumexp_plus_one":
        ps = ProblemSpec(quad, NonsmoothTerm("vecmax"), AffineMap.from_dense(A, b))
    elif case == "m_not_below_n":
        ps = ProblemSpec(quad, orthant, AffineMap.from_dense(rng.normal(size=(4, 4)), np.ones(4)))
        geo = BregmanGeometry(energy(4), von_neumann(4))
    else:
        ps = ProblemSpec(quad, orthant, AffineMap.from_dense(A, b))
    return ps, geo, "qsc"


def revisiting_sigma_run():
    """A spectral-path inequality QP (n = 20, m = 10) whose sigma sequence
    returns to earlier values: 108 outer iterations over 12 distinct sigmas."""
    rng = np.random.default_rng(0)
    n, m = 20, 10
    root = rng.normal(size=(n, n))
    W = root.T @ root / n + np.eye(n) * (0.5 + rng.uniform(0.0, 0.5))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ np.linalg.solve(W, -c) - rng.uniform(-0.4, 0.6, size=m)
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(W, c),
        g=NonsmoothTerm.nonneg_orthant_indicator(),
        map=AffineMap.from_dense(A, b),
    )
    cfg = SolverConfig(geometry=BregmanGeometry(energy(n), spence(m)), regime="qsc")
    return cfg, ps


class TestDecrementReads:
    """The trace pass reads each deferred decrement with one factorization:
    no anchor, context or gradient is evaluated again, and the sigma-ordered
    pass builds each spectral G at most once."""

    @pytest.mark.parametrize(
        "case",
        ["spectral", "box_barrier", "logsumexp_plus_one", "m_not_below_n", "named_objective"],
    )
    def test_trace_pass_only_factors(self, case, monkeypatch, tmp_path):
        built = []
        for_run = SpectralSystem.for_run

        def capture(problem, geometry):
            built.append(for_run(problem, geometry))
            return built[-1]

        monkeypatch.setattr(SpectralSystem, "for_run", capture)
        if case == "spectral":
            cfg, ps = revisiting_sigma_run()
        else:
            ps, geo, regime = dispatch_case(case)
            cfg = SolverConfig(geometry=geo, regime=regime, max_outer=20)
        _, log = logged_run(cfg, ps)
        [system] = built
        assert (system is not None) == (case == "spectral")
        records = log.records
        sigmas = [rec.sigma for rec in records]
        if case == "spectral":  # k order would rebuild G at every change of sigma
            assert sum(a != b for a, b in zip(sigmas, sigmas[1:])) + 1 > len(set(sigmas))

        calls = Counter()

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        gram = SpectralSystem._gram

        def counting_gram(self, sigma):
            calls["G"] += sigma not in self._grams  # a miss builds G
            return gram(self, sigma)

        for module in (bpalm.auglag, bpalm.newton, bpalm.outer, bpalm.cli):
            for name in ("evaluate_anchor", "make_context"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), name))
        monkeypatch.setattr(SubproblemContext, "grad", counted(SubproblemContext.grad, "grad"))
        monkeypatch.setattr(bpalm.newton, "cho_factor", counted(bpalm.newton.cho_factor, "factor"))
        monkeypatch.setattr(SpectralSystem, "_gram", counting_gram)
        path = tmp_path / "trace.csv"
        bpalm.cli._write_trace(str(path), log, cfg.geometry, None, None)

        assert calls["evaluate_anchor"] == calls["make_context"] == calls["grad"] == 0
        assert calls["factor"] == len(records)
        assert calls["G"] <= (0 if system is None else len(set(sigmas)))
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(rec.k) for rec in records]
        # each read equals the direct decrement of a context rebuilt on the
        # problem the run solved, bit for bit
        penalty = penalty_for(ps.g, cfg.geometry.dual)
        solved = ps if system is None else system.problem
        points = zip(records, log.iterates, solver_anchors(log, cfg.geometry, system), rows)
        for rec, iterate, (x, y), row in points:
            anchor = evaluate_anchor(solved, cfg.geometry, x, y)
            ctx = make_context(solved, penalty, cfg.geometry, anchor, rec.sigma, rec.rho, system)
            modulus = REGIMES[cfg.regime].modulus(ctx) or 1.0
            assert iterate.decrement == newton_decrement(ctx, iterate._s, modulus)
            assert row.split(",")[7] == format(iterate.decrement, ".17g")


class TestGramSlots:
    """SpectralSystem keeps (w, G) for the two most recently used sigmas and
    drops the older before it builds G for a third."""

    @staticmethod
    def fresh_gram(system, sigma):
        w = 1.0 / (system.lam + 1.0 / sigma)
        root = system.B * np.sqrt(w)
        return w, root @ root.T

    def test_builds_only_outside_the_two_most_recent(self):
        W, A, _ = spectral_pieces(19)
        system = spectral_system(W, A)
        returned, builds = [], []
        for i, sigma in enumerate([1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0]):
            w, G = system._gram(sigma)
            if not any(G is kept for kept in returned):
                builds.append(i)
            returned.append(G)
            assert len(system._grams) <= 2
            # a revisited sigma's (w, G) is a fresh build's, bit for bit
            fresh_w, fresh_G = self.fresh_gram(system, sigma)
            assert w.tobytes() == fresh_w.tobytes()
            assert G.tobytes() == fresh_G.tobytes()
        assert builds == [0, 1, 4, 6]

    def test_a_run_holds_two_grams_and_keeps_one(self, monkeypatch):
        gram, refs, held = SpectralSystem._gram, [], []

        def tracking(self, sigma):
            pair = gram(self, sigma)
            if not any(ref() is pair[1] for ref in refs):
                refs.append(weakref.ref(pair[1]))
            held.append(sum(ref() is not None for ref in refs))
            return pair

        monkeypatch.setattr(SpectralSystem, "_gram", tracking)
        cfg, ps = revisiting_sigma_run()
        _, log = logged_run(cfg, ps)
        assert len(refs) > 2 and max(held) == 2
        # the log's deferred decrements keep the system, with one G
        assert log.iterates and sum(ref() is not None for ref in refs) == 1


class TestSpectralSystem:
    """Constraint-space Newton solves for quadratic objectives under the
    energy primal, in W's eigenbasis: each system is
    diag(lam) + I/sigma + sigma B^T D B with B = A Q."""

    @staticmethod
    def eigenbasis_hessian(system, sigma, d):
        return dense_hessian(np.diag(system.lam), system.B, sigma, d)

    @pytest.mark.parametrize("log2_sigma", [-20, -10, 0, 10, 20])
    def test_backward_error_over_wide_spectra(self, log2_sigma):
        sigma = 2.0**log2_sigma
        W, A, g = spectral_pieces(11)
        system = spectral_system(W, A)
        rng = np.random.default_rng(12)
        for _ in range(5):
            d = np.exp(rng.uniform(-30.0, 30.0, A.shape[0]))
            d[rng.integers(A.shape[0])] = 0.0
            x = system.solve(sigma, d, g)
            assert backward_error(self.eigenbasis_hessian(system, sigma, d), x, g) <= 1e-14

    def test_backward_error_with_singular_objective(self):
        # w = 1/(lam + 1/sigma) reaches sigma on W's null space, and the
        # Woodbury correction cancels terms that large: at sigma = 2^20 the
        # error is 3.7e-14 on this draw of d, and over 300 draws its median
        # is 2.1e-13 and its maximum 2.5e-12, where the dense path needs its
        # SPD lift and reaches 8.3e-14 and 1.6e-13
        W, A, g = spectral_pieces(11, shift=0.0)
        system = spectral_system(W, A)
        rng = np.random.default_rng(12)
        for log2_sigma in (-20, 0, 20):
            sigma = 2.0**log2_sigma
            d = np.exp(rng.uniform(-30.0, 30.0, A.shape[0]))
            d[rng.integers(A.shape[0])] = 0.0
            x = system.solve(sigma, d, g)
            assert backward_error(self.eigenbasis_hessian(system, sigma, d), x, g) <= 1e-11

    def test_agrees_with_dense_path(self):
        # mapped back, the eigenbasis solve is the caller's system's
        W, A, g = spectral_pieces(13)
        system = spectral_system(W, A)
        Q = system.Q
        rng = np.random.default_rng(14)
        for sigma in (2.0**-6, 0.5, 1.0, 8.0, 2.0**6):
            d = np.exp(rng.uniform(-9.0, 9.0, A.shape[0]))
            dense = np.linalg.solve(dense_hessian(W, A, sigma, d), g)
            x = Q @ system.solve(sigma, d, Q.T @ g)
            assert np.linalg.norm(x - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_eigenbasis_problem(self):
        # built with the constructors: no second eigvalsh or svdvals, and B
        # is the system's own array, not a copy
        cfg, ps = small_ineq_run()
        system = SpectralSystem.for_run(ps, cfg.geometry)
        solved, Q = system.problem, system.Q
        np.testing.assert_allclose(Q @ np.diag(system.lam) @ Q.T, ps.f.W, atol=1e-13)
        assert solved.map.A is system.B and solved.map.b is ps.map.b
        assert solved.map.op_norm_bound == ps.map.op_norm_bound
        assert solved.g is ps.g
        for name in ("qsc_modulus", "lipschitz_modulus"):
            assert getattr(solved.f, name) == getattr(ps.f, name)
        x = np.linspace(-1.0, 1.0, ps.n)
        np.testing.assert_allclose(Q @ solved.f.grad(Q.T @ x), ps.f.grad(x), atol=1e-13)
        assert solved.f.value(Q.T @ x) == pytest.approx(ps.f.value(x), rel=1e-13)
        np.testing.assert_allclose(solved.map.residual(Q.T @ x), ps.map.residual(x), atol=1e-13)
        for array in (Q, system.lam, system.B):
            assert not array.flags.writeable

    def test_newton_oracle_agrees_with_dense_context(self):
        cfg, ps = small_ineq_run()
        pen = penalty_for(ps.g, cfg.geometry.dual)
        system = SpectralSystem.for_run(ps, cfg.geometry)
        Q = system.Q
        x0, y0 = np.full(ps.n, 0.1), np.full(ps.m, 0.5)
        anchor = evaluate_anchor(ps, cfg.geometry, x0, y0)
        dense = make_context(ps, pen, cfg.geometry, anchor, 0.25, 0.5)
        anchor = evaluate_anchor(system.problem, cfg.geometry, Q.T @ x0, y0)
        spectral = make_context(system.problem, pen, cfg.geometry, anchor, 0.25, 0.5, system)
        s = np.linspace(-0.3, 0.3, ps.n)
        np.testing.assert_allclose(
            Q @ newton_step(spectral, Q.T @ s), newton_step(dense, s), rtol=1e-8
        )
        assert newton_decrement(spectral, Q.T @ s, 2.0) == pytest.approx(
            newton_decrement(dense, s, 2.0), rel=1e-8
        )

    @pytest.fixture
    def hess_calls(self, monkeypatch):
        calls = []
        original = SubproblemContext.hess

        def counting(ctx, s):
            calls.append(ctx.system)
            return original(ctx, s)

        monkeypatch.setattr(SubproblemContext, "hess", counting)
        return calls

    @pytest.mark.parametrize(
        "case",
        ["box_barrier", "logsumexp_plus_one", "m_not_below_n", "named_objective", "spectral"],
    )
    def test_dispatch(self, case, hess_calls, monkeypatch):
        factored, decomposed = [], []
        original, original_eigh = bpalm.newton.cho_factor, bpalm.newton.eigh

        def recording(K, *args, **kwargs):
            factored.append(K.shape[0])
            return original(K, *args, **kwargs)

        def recording_eigh(W, *args, **kwargs):
            decomposed.append(W.shape[0])
            return original_eigh(W, *args, **kwargs)

        monkeypatch.setattr(bpalm.newton, "cho_factor", recording)
        monkeypatch.setattr(bpalm.newton, "eigh", recording_eigh)
        ps, geo, regime = dispatch_case(case)
        report = run(SolverConfig(geometry=geo, regime=regime, max_outer=20), ps)
        assert report.total_newton_steps > 0
        if case == "spectral":
            assert hess_calls == []
            assert set(factored) == {ps.m}
            assert decomposed == [ps.n]
        else:
            assert len(hess_calls) == report.total_newton_steps
            assert set(factored) == {ps.n}
            # no path that assembles the n x n Hessian pays for eigh(W),
            # logsumexp_plus_one included: its penalty Hessian is not diagonal
            assert decomposed == []
        assert all(system is None for system in hess_calls)

    def seeded_qp(self):
        rng = np.random.default_rng(60)
        n, m = 60, 30
        root = rng.normal(size=(n, n))
        return ProblemSpec(
            f=SmoothObjective.quadratic(root @ root.T / n + np.eye(n), rng.normal(size=n)),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(rng.normal(size=(m, n)), rng.uniform(-0.5, 0.5, m)),
        )

    # (outer iterations, Newton steps) recorded with the dense n x n path
    @pytest.mark.parametrize("dual, counts", [(von_neumann, (62, 53)), (spence, (66, 57))])
    def test_counts_match_dense_path(self, dual, counts):
        ps = self.seeded_qp()
        cfg = SolverConfig(geometry=BregmanGeometry(energy(60), dual(30)), max_outer=3000)
        report = run(cfg, ps)
        assert report.status.value == "optimal"
        assert (report.outer_iterations, report.total_newton_steps) == counts


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

    # Off the golden suite, criterion 4 fails once in each of these seeded
    # sweep runs (n, m = n/2, tol 1e-8): one Newton step where 0 are
    # predicted, early in the run (von_neumann at k = 9, spence at k = 13)
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize(
        "dual, n, seed",
        [(von_neumann, 20, 13), (spence, 50, 11)],
        ids=["von_neumann-20-13", "spence-50-11"],
    )
    def test_observed_within_predicted_off_the_golden_suite(self, dual, n, seed):
        inst = _load_benchmark_instances().inequality_instance(seed, n, n // 2)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(inst.W, inst.c),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(inst.A, inst.b),
        )
        geometry = BregmanGeometry(energy(n), dual(n // 2))
        report = run(SolverConfig(geometry=geometry, tol_b=1e-8, tol_kkt=1e-8), ps)
        assert report.status.value == "optimal"
        for rec in report.trace.records:
            assert rec.predicted_newton is not None
            assert rec.newton.iterations_used <= rec.predicted_newton, rec.k


class TestRegimeModulus:
    def test_qsc_composition(self):
        ctx = ineq_vn_context(sigma=0.5)
        norm_a = ctx.problem.map.op_norm_bound
        assert REGIMES["qsc"].modulus(ctx) == pytest.approx(0.5 * 1.0 * norm_a)

    def test_quadratic_equality_has_none(self):
        assert REGIMES["qsc"].modulus(eq_qp_context()) == 0.0


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
            anchor = evaluate_anchor(ps, geo, x0, np.ones(ps.m))
            ctx = make_context(ps, pen, geo, anchor, 0.25, rho)
            assert (REGIMES[regime].predicted(ctx, 1e-3) is not None) == has_count

    # measured before the regimes became one table: qsc predicts for the
    # smooth penalties only, qsc_lipschitz for all but sumexp, which has no
    # Lipschitz modulus; sc refuses these unboxed problems
    COVERAGE = {
        "sumexp": {"qsc": 2, "qsc_lipschitz": None},
        "logsumexp_plus_one": {"qsc": 2, "qsc_lipschitz": 2},
        "softplus_integral": {"qsc": 2, "qsc_lipschitz": 2},
        "half_square": {"qsc": 1, "qsc_lipschitz": 2},
        "max_half_square": {"qsc": None, "qsc_lipschitz": 2},
        "huber": {"qsc": None, "qsc_lipschitz": 2},
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
        anchor = evaluate_anchor(ps, geo, np.zeros(2), np.full(2, 0.5))
        ctx = make_context(ps, pen, geo, anchor, 1.0, 0.5)
        got = {name: REGIMES[name].predicted(ctx, 1e-3) for name in ("qsc", "qsc_lipschitz")}
        assert got == self.COVERAGE[pen.closed_form]
        with pytest.raises(InvalidRegimeError, match="needs a boxed quadratic"):
            run(SolverConfig(geometry=geo, regime="sc"), ps)

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


class TestStepSizeRules:
    """Each regime's step-size test against its README formula, computed here
    in numpy.  qsc admits sigma <= min(1/(2 g M_f), 1/sqrt(2 g alpha ||A||))
    for g = ||grad f(x) + A^T P'(u)||, u = grad phi(y) + sigma r; sc admits
    16 M^2 sigma <g, psi''(x)^-1 g> < 1 for M = max(M_f, sqrt(sigma) M_psi)
    and g = grad f(x) + A^T y + sigma A^T r.  With r = Ax - b = 0 at the
    anchor the bound does not depend on sigma, and sigma is tried just below
    and just above it."""

    @staticmethod
    def admissible(regime, ps, geo, x, y, sigma):
        anchor = evaluate_anchor(ps, geo, x, y)
        ctx = make_context(ps, penalty_for(ps.g, geo.dual), geo, anchor, sigma, 0.5)
        return REGIMES[regime].admissible(ctx)

    @staticmethod
    def logistic_case(y_level, a_scale, residual):
        """Logistic f (M_f = 1) with the sum-exp penalty (alpha = 1)."""
        rng = np.random.default_rng(5)
        A = a_scale * rng.normal(size=(2, 3))
        x = rng.uniform(-1.0, 1.0, 3)
        ps = ProblemSpec(
            f=SmoothObjective.named("logistic", 3),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(A, A @ x - residual),
        )
        return ps, BregmanGeometry(energy(3), von_neumann(2)), x, np.full(2, y_level)

    @staticmethod
    def qsc_terms(ps, x, y, sigma):
        A = ps.map.A
        multiplier = y * np.exp(sigma * (A @ x - ps.map.b))  # P'(log y + sigma r)
        g = np.linalg.norm(1.0 / (1.0 + np.exp(-x)) + A.T @ multiplier)
        return 1.0 / (2.0 * g), 1.0 / math.sqrt(2.0 * g * np.linalg.norm(A, 2))

    @staticmethod
    def box_case(residual):
        """A box QP (M_f = 0) under the box barrier (M_psi = 1)."""
        rng = np.random.default_rng(6)
        root, A = rng.normal(size=(4, 4)), rng.normal(size=(2, 4))
        x, y = rng.uniform(0.2, 0.8, 4), rng.normal(size=2)
        lo, hi = np.zeros(4), np.ones(4)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(root @ root.T / 4, rng.normal(size=4), box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense(A, A @ x - residual),
        )
        return ps, BregmanGeometry(box_barrier(lo, hi), energy(2)), x, y

    @staticmethod
    def sc_quad(ps, x, y, sigma):
        """<g, psi''(x)^-1 g>; the rule reads 16 sigma^2 quad < 1 here."""
        A = ps.map.A
        g = ps.f.W @ x + ps.f.c + A.T @ y + sigma * (A.T @ (A @ x - ps.map.b))
        return float(g @ (g / (1.0 + 1.0 / (1.0 - x) ** 2 + 1.0 / x**2)))

    @pytest.mark.parametrize("regime", ["qsc", "qsc_lipschitz"])
    @pytest.mark.parametrize("y_level,a_scale,binding", [(10.0, 1.0, 0), (0.01, 5.0, 1)])
    def test_qsc_bound(self, regime, y_level, a_scale, binding):
        ps, geo, x, y = self.logistic_case(y_level, a_scale, 0.0)
        terms = self.qsc_terms(ps, x, y, 1.0)
        assert np.argmin(terms) == binding
        assert self.admissible(regime, ps, geo, x, y, min(terms) * (1.0 - 1e-9))
        assert not self.admissible(regime, ps, geo, x, y, min(terms) * (1.0 + 1e-9))

    def test_sc_bound(self):
        ps, geo, x, y = self.box_case(0.0)
        bound = 1.0 / (4.0 * math.sqrt(self.sc_quad(ps, x, y, 1.0)))
        assert self.admissible("sc", ps, geo, x, y, bound * (1.0 - 1e-9))
        assert not self.admissible("sc", ps, geo, x, y, bound * (1.0 + 1e-9))

    def test_rules_over_sigmas_off_feasibility(self):
        residual = np.array([0.3, -0.2])
        cases = [
            ("qsc", self.logistic_case(1.0, 1.0, residual),
             lambda ps, x, y, sigma: sigma <= min(self.qsc_terms(ps, x, y, sigma))),
            ("sc", self.box_case(residual),
             lambda ps, x, y, sigma: 16.0 * sigma**2 * self.sc_quad(ps, x, y, sigma) < 1.0),
        ]
        for regime, (ps, geo, x, y), rule in cases:
            seen = set()
            for sigma in 2.0 ** np.arange(-12.0, 6.0, 1.0 / 16.0):
                expected = rule(ps, x, y, sigma)
                assert self.admissible(regime, ps, geo, x, y, sigma) == expected, (regime, sigma)
                seen.add(expected)
            assert seen == {True, False}

    def test_sc_anchor_terms_serve_every_trial(self):
        # one anchor's evaluation serves every sigma's context
        residual = np.array([0.3, -0.2])
        ps, geo, x, y = self.box_case(residual)
        anchor = evaluate_anchor(ps, geo, x, y)
        penalty = penalty_for(ps.g, geo.dual)
        for sigma in 2.0 ** np.arange(-12.0, 6.0, 1.0 / 16.0):
            ctx = make_context(ps, penalty, geo, anchor, sigma, 0.5)
            expected = 16.0 * sigma**2 * self.sc_quad(ps, x, y, sigma) < 1.0
            assert REGIMES["sc"].admissible(ctx) == expected, sigma

    def test_sc_hessian_at_the_anchor_once_per_outer_iteration(self, monkeypatch):
        # sigma backtracks in 20 of box_qp_0_n3's 21 outer iterations; every
        # trial of an anchor reads the psi''(x) that evaluate_anchor formed
        # (the Newton solve's first Hessian, outside both, reads x again)
        gp = next(g for g in golden_suite() if g.family == "box")
        cfg = family_config(gp)
        phase, calls = [None], Counter()
        anchor_at, select, make = (
            bpalm.outer.evaluate_anchor, bpalm.outer.select_sigma, bpalm.outer.make_context
        )
        hess_diag = BoxBarrier.hess_diag

        def during(name, fn):
            def wrapped(*args):
                phase[0] = name
                try:
                    return fn(*args)
                finally:
                    phase[0] = None

            return wrapped

        def trial(*args):
            calls["trial"] += 1
            return make(*args)

        def counting(self, z):
            calls[phase[0]] += 1
            return hess_diag(self, z)

        monkeypatch.setattr(bpalm.outer, "evaluate_anchor", during("anchor", anchor_at))
        monkeypatch.setattr(bpalm.outer, "select_sigma", during("search", select))
        monkeypatch.setattr(bpalm.outer, "make_context", trial)
        monkeypatch.setattr(BoxBarrier, "hess_diag", counting)
        report = run(cfg, gp.problem)
        assert report.outer_iterations == 21
        assert calls["trial"] > report.outer_iterations
        assert calls["anchor"] == report.outer_iterations
        assert calls["search"] == 0


class TestEarlyRejectionInSolves:
    """Where a solve keeps no B, a bound rejects most failing tests without
    the exact dual distance, and the outputs do not move."""

    def run_cli(self, tmp_path, capsys, tag):
        counts = Counter()
        distance = bpalm.auglag._distance

        def counting(fn, z1, z2):
            counts[fn.kind] += 1  # energy for D_psi(s, x), spence for D_phi(y_plus, y)
            return distance(fn, z1, z2)

        trace = tmp_path / f"{tag}.csv"
        argv = ["--problem", str(tmp_path / "spence.json"), "--dual", "spence"]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bpalm.auglag, "_distance", counting)
            assert bpalm.cli.main(argv + ["--report", "json", "--trace", str(trace)]) == 0
        return counts, capsys.readouterr().out, trace.read_bytes()

    def test_fewer_exact_dual_distances_and_the_same_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BPALM_WALL_TIME_MS", "0")
        benchmark_document(tmp_path / "spence.json", 20, 10, 0)
        counts, report, trace = self.run_cli(tmp_path, capsys, "bound")
        monkeypatch.setattr(SubproblemContext, "_bound_rejects", lambda *args: False)
        exact_counts, exact_report, exact_trace = self.run_cli(tmp_path, capsys, "exact")
        # one primal and, without the bound, one dual distance per test
        assert exact_counts["spence"] == exact_counts["energy"] == counts["energy"]
        assert counts["spence"] < 0.75 * exact_counts["spence"]
        assert (report, trace) == (exact_report, exact_trace)
