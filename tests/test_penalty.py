"""Tests for the marginalized dual penalty catalog."""

import math

import numpy as np
import pytest

from bpalm.exceptions import UnsupportedError
from bpalm.legendre import burg, energy, spence, von_neumann
from bpalm.oracle import penalty_bruteforce
from bpalm.penalty import CLOSED_FORMS, penalty_for
from bpalm.problem import NonsmoothTerm

DUALS = {"energy": energy, "von_neumann": von_neumann, "spence": spence}


def all_penalties(m=2):
    out = []
    for variant, kind in CLOSED_FORMS:
        p = penalty_for(NonsmoothTerm(variant), DUALS[kind](m))
        out.append((p.closed_form, p))
    return out


# test ids are the closed-form names, so they do not move with the dataclass
PENALTY_IDS = [form for form, _ in all_penalties()]


class TestValues:
    def test_logsumexp_plus_one(self):
        p = penalty_for(NonsmoothTerm.vecmax(), von_neumann(2))
        assert p.value([0.0, 0.0]) == pytest.approx(math.log(2) + 1.0)

    def test_max_half_square(self):
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), energy(1))
        assert p.value([2.0]) == pytest.approx(2.0)
        assert p.value([-3.0]) == 0.0

    def test_huber(self):
        p = penalty_for(NonsmoothTerm.one_norm(), energy(1))
        assert p.value([0.5]) == pytest.approx(0.125)
        assert p.value([2.0]) == pytest.approx(1.5)

    def test_softplus_integral_at_zero(self):
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), spence(1))
        assert p.value([0.0]) == pytest.approx(math.pi**2 / 12.0)

    def test_sumexp_overflow_is_extended_real(self):
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), von_neumann(1))
        assert p.value([1000.0]) == math.inf

    def test_logsumexp_shifted_no_overflow(self):
        p = penalty_for(NonsmoothTerm.vecmax(), von_neumann(2))
        assert p.value([1000.0, 999.0]) == pytest.approx(
            1000.0 + math.log(1 + math.exp(-1.0)) + 1.0
        )


class TestGradients:
    def test_softmax_symmetry(self):
        p = penalty_for(NonsmoothTerm.vecmax(), von_neumann(2))
        np.testing.assert_allclose(p.grad([0.0, 0.0]), [0.5, 0.5])

    def test_softplus(self):
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), spence(1))
        assert p.grad([0.0]) == pytest.approx([math.log(2.0)])

    def test_exponential_multiplier_update(self):
        # y+ = exp(ln y + sigma a): zero residual fixes the multiplier
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), von_neumann(1))
        y = np.array([2.0])
        assert p.grad(np.log(y) + 1.0 * 0.0) == pytest.approx([2.0])

    @pytest.mark.parametrize("form,p", all_penalties(), ids=PENALTY_IDS)
    def test_matches_central_differences(self, form, p):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, 2)
            # keep clear of the kinks where the a.e. derivative jumps
            if form in ("max_half_square",):
                u = np.where(np.abs(u) < 0.05, 0.1, u)
            if form == "huber":
                u = np.where(np.abs(np.abs(u) - 1.0) < 0.05, 0.5, u)
            g = p.grad(u)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (p.value(u + e) - p.value(u - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_orthant_pairings_stay_feasible(self):
        rng = np.random.default_rng(18)
        for kind in ("energy", "von_neumann", "spence"):
            p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), DUALS[kind](3))
            for _ in range(30):
                u = rng.uniform(-20.0, 20.0, 3)
                assert np.all(p.grad(u) >= 0.0)


class TestHessians:
    def test_softplus_sigmoid(self):
        p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), spence(1))
        np.testing.assert_allclose(p.hess([0.0]), [[0.5]])

    def test_softmax_matrix(self):
        p = penalty_for(NonsmoothTerm.vecmax(), von_neumann(2))
        np.testing.assert_allclose(
            p.hess([0.0, 0.0]), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15
        )

    def test_half_square_identity(self):
        p = penalty_for(NonsmoothTerm.zero_indicator(), energy(2))
        np.testing.assert_allclose(p.hess([1.0, -2.0]), np.eye(2))

    def test_kink_convention(self):
        mhs = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), energy(1))
        assert mhs.hess([0.0])[0, 0] == 1.0
        hub = penalty_for(NonsmoothTerm.one_norm(), energy(1))
        assert hub.hess([1.0])[0, 0] == 1.0
        assert hub.hess([1.0 + 1e-12])[0, 0] == 0.0

    @pytest.mark.parametrize("form,p", all_penalties(), ids=PENALTY_IDS)
    def test_psd(self, form, p):
        rng = np.random.default_rng(19)
        for _ in range(10):
            H = p.hess(rng.uniform(-2, 2, 2))
            np.testing.assert_allclose(H, H.T)
            assert np.min(np.linalg.eigvalsh(H)) >= -1e-12


class TestModuli:
    def test_catalog(self):
        table = {
            "sumexp": (1.0, None),
            "logsumexp_plus_one": (2.0, 1.0),
            "softplus_integral": (1.0, 1.0),
            "half_square": (0.0, 1.0),
            "max_half_square": (0.0, 1.0),
            "huber": (0.0, 1.0),
        }
        for _, p in all_penalties():
            moduli = (p.qsc_modulus, p.lipschitz_modulus)
            assert moduli == table[p.closed_form], p.closed_form


class TestConjugacy:
    @pytest.mark.parametrize("m", [1, 2])
    def test_value_matches_bruteforce(self, m):
        rng = np.random.default_rng(20)
        for (variant, kind), form in CLOSED_FORMS.items():
            p = penalty_for(NonsmoothTerm(variant), DUALS[kind](m))
            for _ in range(4):
                u = rng.uniform(-2.0, 2.0, m)
                ref = penalty_bruteforce(variant, kind, 1.0, u)
                assert p.value(u) == pytest.approx(ref, abs=1e-4), form


class TestQSCBound:
    @pytest.mark.parametrize(
        "variant,kind",
        [("orthant", "von_neumann"), ("vecmax", "von_neumann"), ("orthant", "spence")],
    )
    def test_third_derivative_inequality(self, variant, kind):
        # |D^3 P(u)[h,h,e_j]| <= alpha <h, hess h> with D^3 by differences of
        # the Hessian; 5% slack absorbs the finite-difference error
        p = penalty_for(NonsmoothTerm(variant), DUALS[kind](3))
        rng = np.random.default_rng(21)
        step = 1e-5
        for _ in range(25):
            u = rng.uniform(-1.5, 1.5, 3)
            hvec = rng.normal(size=3)
            quad = float(hvec @ (p.hess(u) @ hvec))
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                d3 = float(hvec @ ((p.hess(u + e) - p.hess(u - e)) / (2 * step) @ hvec))
                assert abs(d3) <= p.qsc_modulus * quad * 1.05 + 1e-12


def test_softplus_approximates_max_quadratic():
    # |softplus(u) - max(u, 0)| = log(1 + exp(-|u|)) <= exp(-|u|); the decay
    # envelope is exp itself, not scaled by log 2 (log(1+t) ~ t as t -> 0)
    p = penalty_for(NonsmoothTerm.nonneg_orthant_indicator(), spence(1))
    for u in (10.0, -10.0):
        diff = abs(p.grad([u])[0] - max(u, 0.0))
        assert 0.0 < diff <= math.exp(-abs(u))


def test_unsupported_pairing():
    with pytest.raises(UnsupportedError):
        penalty_for(NonsmoothTerm.one_norm(), von_neumann(2))
    with pytest.raises(UnsupportedError):
        penalty_for(NonsmoothTerm.zero_indicator(), burg(2))
