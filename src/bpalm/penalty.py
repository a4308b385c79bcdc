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
from dataclasses import dataclass

import numpy as np

from .exceptions import UnsupportedError
from .legendre import PI2_6, LegendreFunction, dilog
from .problem import NonsmoothTerm

__all__ = ["DualPenalty", "PenaltyModuli", "penalty_for", "CLOSED_FORMS"]


def _softmax(u: np.ndarray) -> np.ndarray:
    e = np.exp(u - np.max(u))
    return e / e.sum()


def _sigmoid(u: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _softplus_antiderivative(t: float) -> float:
    """integral_0^t ln(1 + exp(tau)) dtau + pi^2/12, i.e. -Li2(-exp(t))."""
    if t <= 0.0:
        return -dilog(-math.exp(t))
    return PI2_6 + 0.5 * t * t + dilog(-math.exp(-t))


@dataclass(frozen=True)
class PenaltyModuli:
    alpha: float
    beta: float | None


# (nonsmooth variant, dual geometry kind) -> closed form
CLOSED_FORMS = {
    ("orthant", "von_neumann"): "sumexp",
    ("vecmax", "von_neumann"): "logsumexp_plus_one",
    ("orthant", "spence"): "softplus_integral",
    ("zero", "energy"): "half_square",
    ("orthant", "energy"): "max_half_square",
    ("one_norm", "energy"): "huber",
}

# closed form -> (qsc modulus alpha, lipschitz modulus beta, three times
# differentiable).  The kinked forms are quadratic almost everywhere, so their
# third derivative vanishes where it exists, but they carry no C^3 certificate.
_FORM_TABLE = {
    "sumexp": (1.0, None, True),
    "logsumexp_plus_one": (2.0, 1.0, True),
    "softplus_integral": (1.0, 1.0, True),
    "half_square": (0.0, 1.0, True),
    "max_half_square": (0.0, 1.0, False),
    "huber": (0.0, 1.0, False),
}


@dataclass(frozen=True)
class DualPenalty:
    """One catalog entry: closed form plus moduli.

    ``grad`` is the multiplier-update map; for orthant pairings it is
    componentwise nonnegative, so multipliers stay dual-feasible by
    construction.
    """

    closed_form: str
    nonsmooth_variant: str
    dual_kind: str
    qsc_modulus: float
    lipschitz_modulus: float | None
    smooth: bool

    def value(self, u) -> float:
        u = np.asarray(u, dtype=float)
        form = self.closed_form
        if form == "sumexp":
            peak = float(np.max(u))
            if peak > 700.0:
                return math.inf  # genuine extended-real overflow
            return float(np.sum(np.exp(u)))
        if form == "logsumexp_plus_one":
            return float(np.logaddexp.reduce(u)) + 1.0
        if form == "softplus_integral":
            return float(sum(_softplus_antiderivative(float(t)) for t in u))
        if form == "half_square":
            return 0.5 * float(u @ u)
        if form == "max_half_square":
            up = np.maximum(u, 0.0)
            return 0.5 * float(up @ up)
        w = np.abs(u)
        return float(np.sum(np.where(w <= 1.0, 0.5 * u * u, w - 0.5)))

    def grad(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        form = self.closed_form
        if form == "sumexp":
            return np.exp(u)
        if form == "logsumexp_plus_one":
            return _softmax(u)
        if form == "softplus_integral":
            return np.logaddexp(0.0, u)
        if form == "half_square":
            return u.copy()
        if form == "max_half_square":
            return np.maximum(u, 0.0)
        return np.clip(u, -1.0, 1.0)

    def hess(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        diag = self.hess_diag_or_none(u)
        if diag is not None:
            return np.diag(diag)
        s = _softmax(u)
        return np.diag(s) - np.outer(s, s)

    def hess_diag_or_none(self, u) -> np.ndarray | None:
        """Diagonal of the Hessian when it is diagonal, else None."""
        u = np.asarray(u, dtype=float)
        form = self.closed_form
        if form == "sumexp":
            return np.exp(u)
        if form == "logsumexp_plus_one":
            return None
        if form == "softplus_integral":
            return _sigmoid(u)
        if form == "half_square":
            return np.ones(u.size)
        if form == "max_half_square":
            # value 1 at the kink keeps the active-set reading of u = 0
            return (u >= 0.0).astype(float)
        return (np.abs(u) <= 1.0).astype(float)

    def moduli(self, sigma: float) -> PenaltyModuli:
        if sigma <= 0.0:
            raise UnsupportedError("sigma must be positive")
        return PenaltyModuli(alpha=self.qsc_modulus, beta=self.lipschitz_modulus)


def penalty_for(g: NonsmoothTerm, dual: LegendreFunction) -> DualPenalty:
    """Look up the closed form for a (nonsmooth term, dual geometry) pairing."""
    key = (g.variant, dual.kind)
    form = CLOSED_FORMS.get(key)
    if form is None:
        raise UnsupportedError(
            f"no marginalized penalty for g={g.variant!r} with dual "
            f"geometry {dual.kind!r}"
        )
    alpha, beta, smooth = _FORM_TABLE[form]
    return DualPenalty(
        closed_form=form,
        nonsmooth_variant=g.variant,
        dual_kind=dual.kind,
        qsc_modulus=alpha,
        lipschitz_modulus=beta,
        smooth=smooth,
    )
