"""Tests for the composite problem representation and KKT residuals."""

import functools
import importlib.util
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bpalm import cli
from bpalm.exceptions import BpalmError, DimensionError, DomainError, ParseError, UnsupportedError
from bpalm.newton import SpectralSystem
from bpalm.oracle import golden_suite
from bpalm.problem import (
    AffineMap,
    NonsmoothTerm,
    ProblemSpec,
    SmoothObjective,
    canonicalize_triplets,
    kkt_residuals,
    lagrangian,
    project_simplex,
    spectral_norm_bound,
)
from bpalm.penalty import CLOSED_FORMS
from bpalm.problem import _G_CATALOG, _NAMED


def _load_benchmark_instances():
    """perfbench/instances.py, which draws the benchmark's problems."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# (workload, n, m, instance seeds) as perfbench/workloads.py defines them;
# cli_verify's problem files hold these W and A, triplet by triplet
_BENCHMARK_INSTANCES = [("kl_ineq", 300, 150, range(8)), ("cli_verify", 200, 100, range(4))]


@functools.cache
def _matrices() -> dict:
    """Every W and A of the benchmark and golden problems, by name."""
    out = {}
    make = _load_benchmark_instances().inequality_instance
    for workload, n, m, seeds in _BENCHMARK_INSTANCES:
        for seed in seeds:
            inst = make(seed, n, m)
            out[f"{workload}_{seed}"] = (inst.W, inst.A)
    for gp in golden_suite():
        out[gp.name] = (gp.problem.f.W, gp.problem.map.A)
    return out


def _hadamard_rotated(s, perm_u, perm_v) -> np.ndarray:
    """U diag(s) V' with U, V column permutations of the 16 x 16 Sylvester
    Hadamard matrix over 4: orthogonal with entries +-1/4, so for s of few
    significant bits every entry is exact and the singular values are s."""
    H = np.ones((1, 1))
    for _ in range(4):
        H = np.block([[H, H], [H, -H]])
    Q = H / 4.0
    return (Q[:, perm_u] * s) @ Q[:, perm_v].T


def _norm_at_top_singular_vector(M) -> float:
    """||M v||_2 / ||v||_2 for M's top right singular vector v, every sum
    taken exactly with math.fsum; never above ||M||_2 but by rounding."""
    v = np.linalg.svd(M)[2][0]
    Mv = [math.fsum(row * v) for row in M]
    return math.sqrt(math.fsum(t * t for t in Mv)) / math.sqrt(math.fsum(v * v))


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
            assert bound >= true
            assert bound <= true * (1 + 1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_op_norm_bound_of_huge_entries(self):
        # M^T M would overflow beyond ~1e154; the SVD scales internally
        bound = AffineMap.from_dense([[1e200, 0.0]], [0.0]).op_norm_bound
        # the bound carries a relative margin of 4 max(m, n) eps, plus rounding
        assert 1e200 <= bound <= 1e200 * (1.0 + 1.1e-9)
        bound = AffineMap.from_dense([[1e300, 1e300]], [0.0]).op_norm_bound
        assert math.sqrt(2.0) * 1e300 <= bound <= math.sqrt(2.0) * 1e300 * (1.0 + 1e-14)
        big = 2.0**1023
        bound = AffineMap.from_dense([[big, 0.5 * big]], [0.0]).op_norm_bound
        assert math.isfinite(bound) and bound >= math.sqrt(1.25) * big

    @pytest.mark.parametrize("which", ["W", "A"])
    @pytest.mark.parametrize("name", sorted(_matrices()))
    def test_bounds_are_certified(self, name, which):
        """The step-size rule's moduli bound ||M||_2 from above on every
        benchmark and golden matrix."""
        W, A = _matrices()[name]
        if which == "W":
            f = SmoothObjective.quadratic(W, np.zeros(W.shape[0]))
            M, bound = f.W, f.lipschitz_modulus
        else:
            M = A
            bound = AffineMap.from_dense(A, np.zeros(A.shape[0])).op_norm_bound
        assert bound >= _norm_at_top_singular_vector(M)

    @pytest.mark.parametrize("gap", [2.0**-20, 2.0**-52], ids=["gap_2^-20", "gap_2^-52"])
    def test_bound_with_nearly_equal_top_singular_values(self, gap):
        s = np.array([1.0 - gap, 1.0, 0.75, 0.5] + [0.25] * 12)
        rng = np.random.default_rng(5)
        M = _hadamard_rotated(s, rng.permutation(16), rng.permutation(16))
        bound = spectral_norm_bound(M)
        assert bound >= 1.0  # the exact ||M||_2
        assert bound >= _norm_at_top_singular_vector(M)
        assert bound <= 1.0 + 1e-12

    def test_wide_map_forms_no_gram_matrix(self):
        A = np.ones((1, 4096))
        tracemalloc.start()
        try:
            amap = AffineMap.from_dense(A, [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the 4096 x 4096 Gram matrix is 128 MiB
        assert amap.op_norm_bound >= 64.0

    def test_residual(self):
        amap = AffineMap.from_dense([[1.0, 2.0]], [3.0])
        assert amap.residual(np.array([1.0, 1.0])) == pytest.approx([0.0])


def _summed_in_file_order(triplets, rows, cols) -> np.ndarray:
    """Each float(v) added into a zeroed float64 matrix, in file order."""
    M = np.zeros((rows, cols))
    for i, j, v in triplets:
        M[i, j] += float(v)
    return M


def _seeded_triplets(seed, rows, cols, count) -> list:
    """Triplets with repeated positions and int, float, -0.0 and beyond-2^53
    int values, as JSON decodes them (Python ints and floats)."""
    rng = np.random.default_rng(seed)
    values = [
        lambda: float(rng.normal()),
        lambda: int(rng.integers(-5, 6)),
        lambda: -0.0,
        lambda: 2**53 + int(rng.integers(1, 2**10)),
        lambda: float(rng.choice([1e16, -1e16, 1.0, 0.1, 3.0])),
    ]
    return [
        [int(rng.integers(rows)), int(rng.integers(cols)), values[rng.integers(len(values))]()]
        for _ in range(count)
    ]


class TestCanonicalizeTriplets:
    """`canonicalize_triplets` against a test-side loop, bit for bit, and the
    error of the first bad entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_summing_in_file_order(self, seed):
        rows, cols = 3, 4
        triplets = _seeded_triplets(seed, rows, cols, 200)
        M = canonicalize_triplets(triplets, rows, cols)
        assert M.tobytes() == _summed_in_file_order(triplets, rows, cols).tobytes()

    def test_order_dependent_sums_keep_file_order(self):
        # 1e16 + 1 rounds back to 1e16; cancelling first keeps the 1
        forward = [[0, 1, 1e16], [0, 1, 1.0], [0, 1, -1e16]]
        backward = [[0, 1, 1e16], [0, 1, -1e16], [0, 1, 1.0]]
        assert canonicalize_triplets(forward, 1, 2)[0, 1] == 0.0
        assert canonicalize_triplets(backward, 1, 2)[0, 1] == 1.0
        for triplets in (forward, backward):
            got = canonicalize_triplets(triplets, 1, 2)
            assert got.tobytes() == _summed_in_file_order(triplets, 1, 2).tobytes()

    def test_signed_zero_and_large_ints(self):
        M = canonicalize_triplets([[0, 0, -0.0]] + [[1, 1, 2**53 + 1]] * 3, 2, 2)
        assert math.copysign(1.0, M[0, 0]) == 1.0  # 0.0 + -0.0 is +0.0
        # each int rounds to 2^53 before the sum; the exact sum would round up
        assert M[1, 1] == 3.0 * 2.0**53 != float(3 * (2**53 + 1))

    def test_result_layout(self):
        M = canonicalize_triplets([[1, 2, 1]], 2, 3)
        assert M.shape == (2, 3) and M.dtype == np.float64
        assert M.flags.c_contiguous and M.flags.writeable
        assert M[1, 2] == 1.0 and np.count_nonzero(M) == 1

    @pytest.mark.parametrize(
        "entry",
        [[0, 0, True], [True, 0, 1.0], [0, False, 1.0], ["0", 0, 1.0], [0, 0, "1"], [0, 0, None],
         [0.0, 0, 1.0], [9, 9, "x"]],
        ids=["bool_value", "bool_row", "bool_col", "string_row", "string_value", "none_value",
             "float_index", "bad_type_before_range"],
    )
    def test_bad_types_raise_parse_error(self, entry):
        with pytest.raises(ParseError, match="int indices and a number required"):
            canonicalize_triplets([entry], 2, 3)

    @pytest.mark.parametrize(
        "entry", [[-1, 0, 1.0], [0, -1, 1.0], [1, 3, 1.0], [2, 0, 1.0]],
        ids=["row_minus_one", "col_minus_one", "col_equals_cols", "row_equals_rows"],
    )
    def test_out_of_range_raises_dimension_error(self, entry):
        # j = -1 or j = cols would land in a neighbouring row of a flat index
        with pytest.raises(DimensionError, match=r"out of range for 2x3"):
            canonicalize_triplets([[0, 0, 1.0], entry], 2, 3)

    @pytest.mark.parametrize(
        "entry", [[0, 0], [0, 0, 1.0, 2.0], 5, None, [0, 0, 10**400]],
        ids=["too_short", "too_long", "number", "none", "int_beyond_double"],
    )
    def test_malformed_entries_raise_parse_error(self, entry):
        with pytest.raises(ParseError, match=r"triplets must be \[i, j, value\] lists"):
            canonicalize_triplets([[0, 0, 1.0], entry], 2, 3)

    def test_first_bad_entry_decides(self):
        with pytest.raises(DimensionError):
            canonicalize_triplets([[5, 0, 1.0], [0, 0, "x"]], 2, 3)
        with pytest.raises(ParseError):
            canonicalize_triplets([[0, 0, "x"], [5, 0, 1.0]], 2, 3)


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

    @staticmethod
    def _with_smallest_eigenvalue(lam_min):
        """Q diag(1, 1/2, 1/4, lam_min) Q' with Q the 4 x 4 Hadamard matrix
        over 2, entries +-1/2; exact for lam_min = -eps."""
        H = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                      [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])
        Q = H / 2.0
        return (Q * np.array([1.0, 0.5, 0.25, lam_min])) @ Q.T

    def test_eigenvalue_at_rounding_level_accepted(self):
        W = self._with_smallest_eigenvalue(-np.finfo(float).eps)
        f = SmoothObjective.quadratic(W, np.zeros(4))
        assert f.lipschitz_modulus >= 1.0

    def test_eigenvalue_beyond_rounding_rejected(self):
        W = self._with_smallest_eigenvalue(-1e-10)
        with pytest.raises(DomainError, match="semidefinite"):
            SmoothObjective.quadratic(W, np.zeros(4))

    def test_requires_symmetry(self):
        with pytest.raises(DomainError):
            SmoothObjective.quadratic([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])

    # the tolerance is np.allclose(W, W.T, atol=1e-12): |W - W'| <= 1e-12 +
    # 1e-5 |W'|, which for W[1, 0] = 1 reads 1e-5 + 1e-12 at W[0, 1]
    @pytest.mark.parametrize("excess, accepted", [(-2e-12, True), (2e-12, False)])
    def test_symmetry_tolerance_edge(self, excess, accepted):
        W = np.array([[2.0, 1.0 + 1e-5 + 1e-12 + excess], [1.0, 2.0]])
        assert np.allclose(W, W.T, atol=1e-12) == accepted
        if accepted:
            SmoothObjective.quadratic(W, [0.0, 0.0])
        else:
            with pytest.raises(DomainError, match="symmetric"):
                SmoothObjective.quadratic(W, [0.0, 0.0])

    def test_empty_objective_rejected(self):
        with pytest.raises(DimensionError, match="positive"):
            SmoothObjective.quadratic(np.zeros((0, 0)), [])

    def test_box_domain(self):
        f = SmoothObjective.quadratic(np.eye(1), [0.0], box=([0.0], [1.0]))
        assert f.value(np.array([2.0])) == math.inf
        assert f.value(np.array([1.0])) == 0.5  # closed box
        with pytest.raises(DomainError):
            f.grad(np.array([2.0]))

    # accepted, each box below would give an empty domain, a NaN residual
    # or a silently dropped third bound
    @pytest.mark.parametrize(
        "box, error",
        [
            (([1.0], [0.0]), DomainError),  # l > u
            (([0.5], [0.5]), DomainError),  # l = u
            (([math.nan], [1.0]), DomainError),
            (([0.0], [math.nan]), DomainError),
            (([0.0], [1.0], [2.0]), DimensionError),  # a third bound
            (([0.0],), DimensionError),
            (([[0.0]], [[1.0]]), DimensionError),  # 2-D bounds
            ((0.0, 1.0), DimensionError),  # scalar bounds
            (([0.0, 0.0], [1.0]), DimensionError),
        ],
        ids=["l>u", "l=u", "nan_l", "nan_u", "three_bounds", "one_bound", "2d", "scalars", "lengths"],
    )
    def test_box_bounds_are_checked(self, box, error):
        with pytest.raises(error):
            SmoothObjective.quadratic(np.eye(1), [0.0], box=box)

    def test_box_bounds_may_be_infinite(self):
        f = SmoothObjective.quadratic(np.eye(2), [0.0, 0.0], box=([-math.inf, 0.0], [1.0, math.inf]))
        assert f.in_domain(np.array([-1e300, 1e300]))
        assert not f.in_domain(np.array([0.0, -1.0]))

    def test_diagonal_quadratic_is_the_diagonal_matrix(self):
        # the objective run solves in W's eigenbasis, x'diag(lam)x/2 + (Q'c)'x,
        # is bit for bit the dense quadratic of diag(lam) and Q'c
        W = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(W, [1.0, -2.0, 0.25]),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0, 1.0, 1.0]], [0.5]),
        )
        system = SpectralSystem(ps)
        rotated = system.problem.f
        dense = SmoothObjective.quadratic(np.diag(system.lam), system.Q.T @ ps.f.c)
        x = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -3.0]])
        np.testing.assert_array_equal(rotated.value(x), dense.value(x))
        np.testing.assert_array_equal(rotated.grad(x[0]), dense.grad(x[0]))
        np.testing.assert_array_equal(rotated.hess(x[0]), dense.hess(x[0]))

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

    @pytest.mark.parametrize(
        "n, error", [(0, DimensionError), (-3, DimensionError), (2.5, BpalmError), (True, BpalmError)]
    )
    def test_named_requires_a_positive_int_dimension(self, n, error):
        with pytest.raises(error):
            SmoothObjective.named("logistic", n)

    def test_box_is_read_only(self):
        f = SmoothObjective.quadratic(np.eye(2), [0.0, 0.0], box=([0.0, 0.0], [1.0, 1.0]))
        for bound in f.box:
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.5
        assert f.in_domain(np.array([0.75, 0.5]))


class TestNonsmoothTerm:
    def test_conjugates(self):
        assert NonsmoothTerm.zero_indicator().conj_value(np.array([5.0])) == 0.0
        orth = NonsmoothTerm.nonneg_orthant_indicator()
        assert orth.conj_value(np.array([1.0, 0.0])) == 0.0
        assert orth.conj_value(np.array([-1.0])) == math.inf
        vmax = NonsmoothTerm("vecmax")
        assert vmax.conj_value(np.array([0.5, 0.5])) == 0.0
        assert vmax.conj_value(np.array([0.5, 0.2])) == math.inf
        one = NonsmoothTerm("one_norm")
        assert one.conj_value(np.array([1.0, -1.0])) == 0.0
        assert one.conj_value(np.array([1.5])) == math.inf

    def test_unknown_variant(self):
        with pytest.raises(UnsupportedError):
            NonsmoothTerm("quadratic_cone")

    def test_catalogs_name_the_same_variants(self):
        # a g variant added to one table and not the others fails here
        assert set(cli._CONSTRAINT_TYPES.values()) == set(_G_CATALOG)
        for variant in _G_CATALOG:
            assert (variant, cli._DEFAULT_DUAL[variant]) in CLOSED_FORMS
        assert set(cli._DEFAULT_DUAL) == set(_G_CATALOG)
        assert {variant for variant, _ in CLOSED_FORMS} <= set(_G_CATALOG)


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
            g=NonsmoothTerm("vecmax"),
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

    def test_wrong_point_length(self):
        with pytest.raises(DimensionError, match="point length 3, expected 2"):
            kkt_residuals(_two_variable_qp(), [1.0, 2.0, 3.0], [0.0])


def _two_variable_qp():
    return ProblemSpec(
        f=SmoothObjective.quadratic(np.eye(2), np.zeros(2)),
        g=NonsmoothTerm.zero_indicator(),
        map=AffineMap.from_dense([[1.0, 1.0]], [1.0]),
    )


@pytest.mark.parametrize(
    "x, y", [([1.0, 2.0, 3.0], [0.0]), ([[1.0, 2.0, 3.0]], [0.0]), ([1.0, 2.0], [0.0, 1.0])],
    ids=["point", "stacked_points", "multiplier"],
)
def test_lagrangian_refuses_wrong_lengths(x, y):
    with pytest.raises(DimensionError):
        lagrangian(_two_variable_qp(), x, y)


def test_problem_dimension_check():
    with pytest.raises(DimensionError):
        ProblemSpec(
            f=SmoothObjective.quadratic(np.eye(2), np.zeros(2)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense([[1.0]], [0.0]),
        )
