"""Tests for the reference solvers and golden problem registry."""

import numpy as np
import pytest

from bpalm.exceptions import ScaleError, SingularSystemError
from bpalm.oracle import (
    golden_suite,
    solve_box_qp_bruteforce,
    solve_equality_qp,
    solve_inequality_qp_bruteforce,
)
from bpalm.problem import kkt_residuals
from test_penalty import penalty_bruteforce


class TestEqualityOracle:
    def test_scalar_example(self):
        x, y = solve_equality_qp([[1.0]], [0.0], [[1.0]], [1.0])
        assert x == pytest.approx([1.0])
        assert y == pytest.approx([-1.0])

    def test_zero_solution(self):
        # c chosen so x* = 0 forces A'y = -c
        A = np.array([[1.0, 2.0]])
        c = np.array([3.0, 6.0])
        x, y = solve_equality_qp(np.eye(2), c, A, [0.0])
        np.testing.assert_allclose(x, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(A.T @ y, -c, atol=1e-12)

    def test_random_instance_residual(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(5, 5))
        W = M.T @ M + np.eye(5)
        c = rng.normal(size=5)
        A = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        x, y = solve_equality_qp(W, c, A, b)
        assert np.linalg.norm(W @ x + c + A.T @ y) <= 1e-10
        assert np.linalg.norm(A @ x - b) <= 1e-10

    def test_singular_system(self):
        with pytest.raises(SingularSystemError):
            solve_equality_qp(np.zeros((1, 1)), [0.0], [[0.0]], [1.0])


class TestBoxOracle:
    def test_interior_matches_equality_solve(self):
        rng = np.random.default_rng(2)
        W = np.eye(3) * 2.0
        c = rng.normal(size=3) * 0.1
        A = np.array([[1.0, 1.0, 1.0]])
        b = np.array([0.1])
        x_eq, y_eq = solve_equality_qp(W, c, A, b)
        assert np.all(np.abs(x_eq) < 10.0)
        x, y = solve_box_qp_bruteforce(W, c, -10 * np.ones(3), 10 * np.ones(3), A, b)
        np.testing.assert_allclose(x, x_eq, atol=1e-8)
        np.testing.assert_allclose(y, y_eq, atol=1e-8)

    def test_one_dimensional_bound(self):
        x, y = solve_box_qp_bruteforce([[1.0]], [-2.0], [0.0], [1.0], [], [])
        assert x == pytest.approx([1.0])

    def test_active_bound_instance(self):
        # min ||x - (1.5, .7, .1)||^2/2 s.t. sum x = 1.5 on [0,1]^3
        c = -np.array([1.5, 0.7, 0.1])
        x, y = solve_box_qp_bruteforce(
            np.eye(3), c, np.zeros(3), np.ones(3), [[1.0, 1.0, 1.0]], [1.5]
        )
        np.testing.assert_allclose(x, [1.0, 0.5, 0.0], atol=1e-10)
        assert y == pytest.approx([0.2])

    def test_scale_error(self):
        n = 13
        with pytest.raises(ScaleError):
            solve_box_qp_bruteforce(
                np.eye(n), np.zeros(n), np.zeros(n), np.ones(n), np.ones((1, n)), [1.0]
            )

    def test_projected_gradient_fallback(self):
        rng = np.random.default_rng(3)
        n = 20
        M = rng.normal(size=(n, n))
        W = M.T @ M / n + np.eye(n)
        c = rng.normal(size=n)
        lo, hi = -0.2 * np.ones(n), 0.2 * np.ones(n)
        x, y = solve_box_qp_bruteforce(W, c, lo, hi, [], [])
        assert y.size == 0
        r = x - np.clip(x - (W @ x + c), lo, hi)
        assert np.linalg.norm(r) <= 1e-8


class TestInequalityOracle:
    def test_known_instance(self):
        # min (x-2)^2/2 s.t. x <= 1
        x, y = solve_inequality_qp_bruteforce([[1.0]], [-2.0], [[1.0]], [1.0])
        assert x == pytest.approx([1.0])
        assert y == pytest.approx([1.0])

    def test_inactive_constraints(self):
        x, y = solve_inequality_qp_bruteforce(np.eye(2), np.zeros(2), np.eye(2), [1.0, 1.0])
        np.testing.assert_allclose(x, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(y, np.zeros(2), atol=1e-12)

    def test_scale_error(self):
        with pytest.raises(ScaleError):
            solve_inequality_qp_bruteforce(
                np.eye(2), np.zeros(2), np.ones((15, 2)), np.ones(15)
            )


class TestPenaltyBruteforce:
    def test_zero_energy_is_half_square(self):
        u = np.array([0.7, -1.2])
        assert penalty_bruteforce("zero", "energy", 1.0, u) == pytest.approx(
            0.5 * float(u @ u), abs=1e-6
        )

    def test_orthant_energy_example(self):
        assert penalty_bruteforce("orthant", "energy", 1.0, [2.0]) == pytest.approx(
            2.0, abs=1e-6
        )

    def test_symmetric_minimum_slice(self):
        # u = 0: half-square penalties evaluate to their minimum 0
        assert penalty_bruteforce("zero", "energy", 1.0, [0.0]) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_scale_error(self):
        with pytest.raises(ScaleError):
            penalty_bruteforce("zero", "energy", 1.0, [0.0, 0.0, 0.0])


class TestGoldenSuite:
    def test_composition(self):
        suite = golden_suite()
        assert len(suite) >= 20
        families = {gp.family for gp in suite}
        assert families == {"eq", "ineq", "box", "vecmax", "one_norm"}
        sizes = [gp.problem.n for gp in suite if gp.family == "eq"]
        assert max(sizes) == 20

    def test_solutions_verified(self):
        for gp in golden_suite():
            r = kkt_residuals(gp.problem, gp.x_star, gp.y_star)
            assert r.max_residual() <= 1e-10, gp.name

    def test_inequality_actives_mixed(self):
        # the inequality instances should exercise both active and inactive rows
        suite = [gp for gp in golden_suite() if gp.family == "ineq"]
        has_active = any(np.any(gp.y_star > 1e-6) for gp in suite)
        has_inactive = any(np.any(gp.y_star < 1e-10) for gp in suite)
        assert has_active and has_inactive
