"""Tests for the composite problem representation and KKT residuals."""

import math

import numpy as np
import pytest

from bpalm.exceptions import DimensionError, DomainError, UnsupportedError
from bpalm.oracle import golden_suite
from bpalm.problem import (
    AffineMap,
    NonsmoothTerm,
    ProblemSpec,
    SmoothObjective,
    canonicalize_triplets,
    dual_perturbation_value,
    kkt_residuals,
    lagrangian,
    project_simplex,
    spectral_norm_bound,
)
from bpalm.problem import _NAMED


def simple_eq_qp():
    """min x^2/2 s.t. x = 1; saddle point (1, -1)."""
    return ProblemSpec(
        f=SmoothObjective.quadratic([[1.0]], [0.0]),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0]], [1.0]),
    )


class TestAffineMap:
    def test_triplets_canonicalized(self):
        A = canonicalize_triplets([(0, 0, 1.0), (0, 0, 2.0), (1, 1, -1.0)], 2, 2)
        np.testing.assert_allclose(A, [[3.0, 0.0], [0.0, -1.0]])

    def test_out_of_range_triplet(self):
        with pytest.raises(DimensionError):
            canonicalize_triplets([(0, 1, 1.0)], 1, 1)

    @pytest.mark.parametrize("A, b", [([[math.nan]], [0.0]), ([[1.0]], [math.inf])])
    def test_rejects_non_finite(self, A, b):
        with pytest.raises(DomainError, match="finite"):
            AffineMap.from_dense(A, b)

    def test_bad_b_length(self):
        with pytest.raises(DimensionError):
            AffineMap.from_dense([[1.0, 0.0]], [1.0, 2.0])

    def test_op_norm_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=rng.integers(1, 6, size=2))
            true = np.linalg.norm(A, 2)
            bound = spectral_norm_bound(A)
            assert bound >= true * (1 - 1e-8)
            assert bound <= true * (1 + 1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_op_norm_bound_of_huge_entries(self):
        # M^T M overflows beyond ~1e154; the bound rescales by a power of two
        bound = AffineMap.from_dense([[1e200, 0.0]], [0.0]).op_norm_bound
        # the bound carries a relative safety margin of 1e-9, plus rounding
        assert 1e200 <= bound <= 1e200 * (1.0 + 1.1e-9)

    def test_residual(self):
        amap = AffineMap.from_dense([[1.0, 2.0]], [3.0])
        assert amap.residual(np.array([1.0, 1.0])) == pytest.approx([0.0])


class TestSmoothObjective:
    def test_quadratic_values(self):
        f = SmoothObjective.quadratic([[2.0]], [1.0])
        assert f.value(np.array([1.0])) == pytest.approx(2.0)
        assert f.grad(np.array([1.0])) == pytest.approx([3.0])
        assert f.lipschitz_modulus == pytest.approx(2.0, rel=1e-6)
        assert f.qsc_modulus == 0.0

    @pytest.mark.parametrize("W, c", [([[math.inf]], [0.0]), ([[1.0]], [math.nan])])
    def test_quadratic_rejects_non_finite(self, W, c):
        with pytest.raises(DomainError, match="finite"):
            SmoothObjective.quadratic(W, c)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_symmetrizing_huge_entries_does_not_overflow(self):
        # 2^1023 + 2^1023 overflows; the halves are exact and add up to 2^1023,
        # and the semidefiniteness test factors W at an exact smaller scale
        big = 8.98846567431158e307
        W = [[big, 0.5 * big], [0.5 * big, big]]
        f = SmoothObjective.quadratic(W, [0.0, 0.0])
        np.testing.assert_array_equal(f.W, W)
        assert math.isfinite(f.lipschitz_modulus)

    @pytest.mark.parametrize(
        "W",
        [np.zeros((300, 300)), np.outer(np.arange(300.0) - 150.0, np.arange(300.0) - 150.0),
         np.full((2, 2), 1e-310), np.diag([1e300, 1e-300])],
        ids=["zero", "rank_one", "subnormal_rank_one", "wide_range_diagonal"],
    )
    def test_singular_and_badly_scaled_psd_accepted(self, W):
        SmoothObjective.quadratic(W, np.zeros(W.shape[0]))

    @pytest.mark.parametrize(
        "W", [[[0.0, 0.0], [0.0, -1.0]], [[1.0, 2.0], [2.0, 1.0]], [[0.0, 1e308], [1e308, 0.0]]],
        ids=["negative_diagonal", "indefinite", "huge_indefinite"],
    )
    def test_requires_semidefinite(self, W):
        with pytest.raises(DomainError, match="semidefinite"):
            SmoothObjective.quadratic(W, [0.0, 0.0])

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            SmoothObjective.quadratic([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])

    def test_box_domain(self):
        f = SmoothObjective.quadratic(np.eye(1), [0.0], box=([0.0], [1.0]))
        assert f.value(np.array([2.0])) == math.inf
        assert f.value(np.array([1.0])) == 0.5  # closed box
        with pytest.raises(DomainError):
            f.grad(np.array([2.0]))

    @pytest.mark.parametrize("name", sorted(_NAMED))
    def test_named_derivatives(self, name):
        f = SmoothObjective.named(name, 3)
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(5):
            x = rng.normal(size=3)
            g = f.grad(x)
            H = f.hess(x)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                assert g[i] == pytest.approx(
                    (f.value(x + e) - f.value(x - e)) / (2 * h), rel=1e-5, abs=1e-7
                )
                np.testing.assert_allclose(
                    H[:, i], (f.grad(x + e) - f.grad(x - e)) / (2 * h), atol=1e-5
                )

    def test_unknown_named(self):
        with pytest.raises(UnsupportedError):
            SmoothObjective.named("rosenbrock", 2)


class TestNonsmoothTerm:
    def test_conjugates(self):
        assert NonsmoothTerm.zero_indicator().conj_value(np.array([5.0])) == 0.0
        orth = NonsmoothTerm.nonneg_orthant_indicator()
        assert orth.conj_value(np.array([1.0, 0.0])) == 0.0
        assert orth.conj_value(np.array([-1.0])) == math.inf
        vmax = NonsmoothTerm.vecmax()
        assert vmax.conj_value(np.array([0.5, 0.5])) == 0.0
        assert vmax.conj_value(np.array([0.5, 0.2])) == math.inf
        one = NonsmoothTerm.one_norm()
        assert one.conj_value(np.array([1.0, -1.0])) == 0.0
        assert one.conj_value(np.array([1.5])) == math.inf

    def test_values(self):
        assert NonsmoothTerm.vecmax().value(np.array([1.0, 3.0])) == 3.0
        assert NonsmoothTerm.one_norm().value(np.array([1.0, -2.0])) == 3.0
        assert NonsmoothTerm.zero_indicator().value(np.array([0.0])) == 0.0
        assert NonsmoothTerm.zero_indicator().value(np.array([0.1])) == math.inf

    def test_unknown_variant(self):
        with pytest.raises(UnsupportedError):
            NonsmoothTerm("quadratic_cone")


def test_project_simplex():
    y = project_simplex(np.array([0.8, 0.4]))
    assert y.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(y, [0.7, 0.3])
    y = project_simplex(np.array([-1.0, 2.5]))
    np.testing.assert_allclose(y, [0.0, 1.0])


class TestLagrangian:
    def test_worked_example(self):
        ps = simple_eq_qp()
        assert lagrangian(ps, [1.0], [0.0]) == pytest.approx(0.5)
        assert lagrangian(ps, [1.0], [-1.0]) == pytest.approx(0.5)

    def test_outside_simplex(self):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0]),
            g=NonsmoothTerm.vecmax(),
            map=AffineMap.from_dense([[1.0], [1.0]], [0.0, 0.0]),
        )
        assert lagrangian(ps, [0.0], [0.5, 0.1]) == -math.inf

    def test_outside_objective_domain(self):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0], box=([0.0], [1.0])),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
        assert lagrangian(ps, [2.0], [0.0]) == math.inf

    def test_convex_concave_sampled(self):
        ps = simple_eq_qp()
        rng = np.random.default_rng(1)
        for _ in range(50):
            x1, x2, y = rng.normal(size=3)
            t = rng.uniform()
            mix = lagrangian(ps, [t * x1 + (1 - t) * x2], [y])
            bound = t * lagrangian(ps, [x1], [y]) + (1 - t) * lagrangian(ps, [x2], [y])
            assert mix <= bound + 1e-10
            # linear (hence concave) in y for every fixed x
            y1, y2 = rng.normal(size=2)
            mix_y = lagrangian(ps, [x1], [t * y1 + (1 - t) * y2])
            bound_y = t * lagrangian(ps, [x1], [y1]) + (1 - t) * lagrangian(ps, [x1], [y2])
            assert mix_y >= bound_y - 1e-10


class TestKKTResiduals:
    def test_saddle_point_zero(self):
        ps = simple_eq_qp()
        r = kkt_residuals(ps, [1.0], [-1.0])
        assert r.max_residual() <= 1e-12

    def test_partial_point(self):
        ps = simple_eq_qp()
        r = kkt_residuals(ps, [0.0], [0.0])
        assert r.dual_res == 0.0
        assert r.primal_res == pytest.approx(1.0)

    def test_orthant_strictly_feasible(self):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0]),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense([[1.0]], [1.0]),
        )
        r = kkt_residuals(ps, [0.0], [0.0])  # Ax - b = -1
        assert r.primal_res == 0.0
        assert r.compl_res == 0.0

    def test_golden_solutions(self):
        for gp in golden_suite():
            r = kkt_residuals(gp.problem, gp.x_star, gp.y_star)
            assert r.max_residual() <= 1e-8, gp.name

    def test_dual_matches_lagrangian_gradient(self):
        suite = [g for g in golden_suite() if g.family in ("eq", "ineq")]
        h = 1e-6
        for gp in suite[:4]:
            ps = gp.problem
            rng = np.random.default_rng(5)
            x = rng.normal(size=ps.n)
            y = np.abs(rng.normal(size=ps.m))
            grad = np.zeros(ps.n)
            for i in range(ps.n):
                e = np.zeros(ps.n)
                e[i] = h
                grad[i] = (lagrangian(ps, x + e, y) - lagrangian(ps, x - e, y)) / (2 * h)
            r = kkt_residuals(ps, x, y)
            assert r.dual_res == pytest.approx(np.linalg.norm(grad), rel=1e-6, abs=1e-6)

    def test_wrong_multiplier_length(self):
        with pytest.raises(DimensionError):
            kkt_residuals(simple_eq_qp(), [1.0], [1.0, 2.0])


class TestDualPerturbation:
    def test_worked_example(self):
        ps = simple_eq_qp()
        for y in (-1.0, 0.0, 0.7):
            assert dual_perturbation_value(ps, [0.0], [y]) == pytest.approx(
                0.5 * y * y + y
            )
        assert dual_perturbation_value(ps, [0.0], [-1.0]) == pytest.approx(-0.5)
        assert dual_perturbation_value(ps, [0.0], [0.0]) == 0.0

    def test_minimum_at_dual_solution(self):
        ps = simple_eq_qp()
        ys = np.linspace(-2.0, 0.5, 100)
        vals = [dual_perturbation_value(ps, [0.0], [y]) for y in ys]
        assert ys[int(np.argmin(vals))] == pytest.approx(-1.0, abs=0.05)

    def test_unsupported_for_callbacks(self):
        ps = ProblemSpec(
            f=SmoothObjective.named("logistic", 1),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
        with pytest.raises(UnsupportedError):
            dual_perturbation_value(ps, [0.0], [0.0])

    def test_infinite_off_conjugate_domain(self):
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(1), [0.0]),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
        assert dual_perturbation_value(ps, [0.0], [-1.0]) == math.inf


def test_problem_dimension_check():
    with pytest.raises(DimensionError):
        ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(2), np.zeros(2)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
