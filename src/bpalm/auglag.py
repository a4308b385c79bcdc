"""Per-outer-iteration subproblem: smooth objective, derivatives, stopping rule.

The subproblem objective is

    f(s) + (1/sigma) P(grad_phi(y) + sigma (As - b)) + (1/sigma) D_psi(s, x)

where the additive constant -(1/sigma) phi*(grad_phi(y)) of the marginalized
saddle function is dropped; it shifts values only, never minimizers or
gradients, and every acceptance decision is gradient-based.

Acceptance uses the relative rule

    D_psi(s, x_plus(s)) <= rho * [D_psi(s, x) + D_phi(y_plus(s), y)]

with the corrected point x_plus(s) = grad_psi*(grad_psi(s) - sigma grad(s)).
For the Euclidean primal geometry the left side reduces to
(sigma^2 / 2) ||grad(s)||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import DomainError
from .legendre import BregmanGeometry, bregman_distance
from .penalty import DualPenalty
from .problem import ProblemSpec

if TYPE_CHECKING:
    from .newton import SpectralSystem

__all__ = ["SubproblemContext", "AcceptanceCheck", "make_context"]


@dataclass(frozen=True)
class AcceptanceCheck:
    accepted: bool
    lhs: float
    rhs: float
    b_value: float
    x_plus: np.ndarray | None
    domain_ok: bool = True


@dataclass(frozen=True)
class SubproblemContext:
    """Frozen state defining one subproblem; all evaluations are pure.

    ``system`` is the run's constraint-space Newton system, shared by every
    context of the run, or None where Newton steps assemble ``hess``.
    """

    problem: ProblemSpec
    penalty: DualPenalty
    geometry: BregmanGeometry
    x_anchor: np.ndarray
    y_anchor: np.ndarray
    sigma: float
    rho: float
    grad_phi_y: np.ndarray
    grad_psi_x: np.ndarray
    system: SpectralSystem | None = None

    def dual_argument(self, s: np.ndarray) -> np.ndarray:
        return self.grad_phi_y + self.sigma * self.problem.map.residual(s)

    def multiplier_candidate(self, s: np.ndarray) -> np.ndarray:
        """y_plus(s), the exact maximizer of the dual block."""
        return self.penalty.grad(self.dual_argument(s))

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        psi = self.geometry.primal
        if not psi.in_domain(s):
            return math.inf
        fs = self.problem.f.value(s)
        if fs == math.inf:
            return math.inf
        prox = bregman_distance(psi, s, self.x_anchor)
        if prox == math.inf:
            return math.inf
        return fs + (self.penalty.value(self.dual_argument(s)) + prox) / self.sigma

    def grad(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        psi = self.geometry.primal
        pull = self.problem.map.A.T @ self.multiplier_candidate(s)
        prox = (psi.grad(s) - self.grad_psi_x) / self.sigma
        return self.problem.f.grad(s) + pull + prox

    def hess(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        psi = self.geometry.primal
        A = self.problem.map.A
        u = self.dual_argument(s)
        diag = self.penalty.hess_diag_or_none(u)
        if diag is None:
            H = self.sigma * (A.T @ self.penalty.hess(u) @ A)
        else:
            # scaling the columns of A^T forms no m x m matrix; for a
            # power-of-two sigma it rounds exactly like sigma * (A^T D A)
            H = (A.T * (self.sigma * diag)) @ A
        H += self.problem.f.hess(s)
        H[np.diag_indices_from(H)] += psi.hess_diag(s) / self.sigma
        return H

    def anchor_gap(self, s) -> float:
        """D_psi(s, x) + D_phi(y_plus(s), y): the progress proxy B."""
        s = np.asarray(s, dtype=float)
        primal = bregman_distance(self.geometry.primal, s, self.x_anchor)
        dual = bregman_distance(
            self.geometry.dual, self.multiplier_candidate(s), self.y_anchor
        )
        return primal + dual

    def extragradient(self, s, grad: np.ndarray | None = None) -> np.ndarray:
        """x_plus(s) = grad_psi*(grad_psi(s) - sigma grad(s))."""
        s = np.asarray(s, dtype=float)
        psi = self.geometry.primal
        if grad is None:
            grad = self.grad(s)
        target = psi.grad(s) - self.sigma * grad
        if not psi.conj_in_interior(target):
            raise DomainError("corrected point leaves int dom of the conjugate")
        return psi.conj_grad(target)

    def acceptance_check(self, s, grad: np.ndarray | None = None) -> AcceptanceCheck:
        s = np.asarray(s, dtype=float)
        psi = self.geometry.primal
        if grad is None:
            grad = self.grad(s)
        b_value = self.anchor_gap(s)
        rhs = self.rho * b_value
        if psi.kind == "energy":
            # exact reduction of D_psi(s, x_plus); avoids the cancellation in
            # forming s - (s - sigma g)
            lhs = 0.5 * self.sigma**2 * float(grad @ grad)
            x_plus = s - self.sigma * grad
            return AcceptanceCheck(lhs <= rhs, lhs, rhs, b_value, x_plus)
        try:
            x_plus = self.extragradient(s, grad)
        except DomainError:
            return AcceptanceCheck(False, math.inf, rhs, b_value, None, domain_ok=False)
        lhs = bregman_distance(psi, s, x_plus)
        return AcceptanceCheck(lhs <= rhs, lhs, rhs, b_value, x_plus)


def _frozen(z) -> np.ndarray:
    """z as a read-only float array; an array that is already read-only and
    owns its data is shared, not copied."""
    z = np.asarray(z, dtype=float)
    if z.flags.writeable or not z.flags.owndata:
        z = z.copy()
        z.flags.writeable = False
    return z


def make_context(
    problem: ProblemSpec,
    penalty: DualPenalty,
    geometry: BregmanGeometry,
    x_anchor,
    y_anchor,
    sigma: float,
    rho: float,
    system: SpectralSystem | None = None,
) -> SubproblemContext:
    x_anchor = _frozen(x_anchor)
    y_anchor = _frozen(y_anchor)
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    if not geometry.primal.in_interior(x_anchor):
        raise DomainError("primal anchor must be interior to the primal geometry")
    if not geometry.dual.in_interior(y_anchor):
        raise DomainError("dual anchor must be interior to the dual geometry")
    grad_phi_y = geometry.dual.grad(y_anchor)
    grad_phi_y.flags.writeable = False
    grad_psi_x = geometry.primal.grad(x_anchor)
    grad_psi_x.flags.writeable = False
    return SubproblemContext(
        problem=problem,
        penalty=penalty,
        geometry=geometry,
        x_anchor=x_anchor,
        y_anchor=y_anchor,
        sigma=float(sigma),
        rho=float(rho),
        grad_phi_y=grad_phi_y,
        grad_psi_x=grad_psi_x,
        system=system,
    )
