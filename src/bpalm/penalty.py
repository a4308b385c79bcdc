"""Marginalized dual penalties and the multiplier-update map.

Marginalizing the multiplier against a Bregman proximal term turns the dual
block of the regularized saddle problem into a smooth penalty
``P = phi* box (sigma * g)`` whose gradient is exactly the multiplier update
``(grad phi + sigma dg*)^{-1}``.  For the supported (g, phi) pairings the
penalty has one of six closed forms, each with known generalized
self-concordance moduli.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import UnsupportedError
from .legendre import LegendreFunction, sigmoid, softmax, softmax_jacobian
from .legendre import softplus, softplus_antiderivative
from .problem import NonsmoothTerm

__all__ = ["DualPenalty", "penalty_for", "CLOSED_FORMS"]


@dataclass(frozen=True)
class DualPenalty:
    """One catalog entry: closed form, its derivatives and its moduli.

    ``grad`` is the multiplier-update map; for orthant pairings it is
    componentwise nonnegative, so multipliers stay dual-feasible by
    construction.  ``smooth`` is False for the kinked forms: they are
    quadratic almost everywhere, so their third derivative vanishes where it
    exists, but they carry no C^3 certificate.
    """

    closed_form: str
    smooth: bool
    _value: Callable[[np.ndarray], float] = field(repr=False)
    _grad: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    # None when the Hessian is not diagonal
    _hess_diag: Callable[[np.ndarray], np.ndarray] | None = field(repr=False)
    qsc_modulus: float
    lipschitz_modulus: float | None

    def value(self, u) -> float:
        return self._value(np.asarray(u, dtype=float))

    def grad(self, u) -> np.ndarray:
        return self._grad(np.asarray(u, dtype=float))

    def hess(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        diag = self.hess_diag_or_none(u)
        if diag is not None:
            return np.diag(diag)
        return softmax_jacobian(u)

    def hess_diag_or_none(self, u) -> np.ndarray | None:
        """Diagonal of the Hessian when it is diagonal, else None."""
        if self._hess_diag is None:
            return None
        return self._hess_diag(np.asarray(u, dtype=float))


def _sumexp(u: np.ndarray) -> float:
    if float(np.max(u)) > 700.0:
        return math.inf  # genuine extended-real overflow
    return float(np.sum(np.exp(u)))


def _logsumexp_plus_one(u: np.ndarray) -> float:
    return float(np.logaddexp.reduce(u)) + 1.0


def _softplus_integral(u: np.ndarray) -> float:
    return float(np.sum(softplus_antiderivative(u)))


def _max_half_square(u: np.ndarray) -> float:
    up = np.maximum(u, 0.0)
    return 0.5 * float(up @ up)


def _huber(u: np.ndarray) -> float:
    w = np.abs(u)
    return float(np.sum(np.where(w <= 1.0, 0.5 * u * u, w - 0.5)))


# (nonsmooth variant, dual geometry kind) -> penalty: closed form, C^3, value,
# gradient, Hessian diagonal, qsc modulus alpha, Lipschitz modulus beta.
# The kinked forms' Hessian diagonal is 1 at the kink, which keeps the
# active-set reading of u = 0 (max_half_square) and |u| = 1 (huber).
CLOSED_FORMS = {
    ("orthant", "von_neumann"): DualPenalty(
        "sumexp", True, _sumexp, np.exp, np.exp, 1.0, None
    ),
    ("vecmax", "von_neumann"): DualPenalty(
        "logsumexp_plus_one", True, _logsumexp_plus_one, softmax, None, 2.0, 1.0
    ),
    ("orthant", "spence"): DualPenalty(
        "softplus_integral", True, _softplus_integral, softplus, sigmoid, 1.0, 1.0
    ),
    ("zero", "energy"): DualPenalty(
        "half_square", True, lambda u: 0.5 * float(u @ u), np.copy, np.ones_like, 0.0, 1.0
    ),
    ("orthant", "energy"): DualPenalty(
        "max_half_square", False, _max_half_square, lambda u: np.maximum(u, 0.0),
        lambda u: (u >= 0.0).astype(float), 0.0, 1.0,
    ),
    ("one_norm", "energy"): DualPenalty(
        "huber", False, _huber, lambda u: np.clip(u, -1.0, 1.0),
        lambda u: (np.abs(u) <= 1.0).astype(float), 0.0, 1.0,
    ),
}


def penalty_for(g: NonsmoothTerm, dual: LegendreFunction) -> DualPenalty:
    """Look up the closed form for a (nonsmooth term, dual geometry) pairing."""
    penalty = CLOSED_FORMS.get((g.variant, dual.kind))
    if penalty is None:
        raise UnsupportedError(
            f"no marginalized penalty for g={g.variant!r} with dual "
            f"geometry {dual.kind!r}"
        )
    return penalty
