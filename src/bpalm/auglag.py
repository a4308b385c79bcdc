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

__all__ = [
    "Anchor",
    "PointEvaluation",
    "SubproblemContext",
    "AcceptanceCheck",
    "evaluate_anchor",
    "make_context",
]


@dataclass(frozen=True)
class AcceptanceCheck:
    accepted: bool
    lhs: float
    rhs: float
    b_value: float
    x_plus: np.ndarray | None  # None when the extragradient leaves the domain


@dataclass(frozen=True)
class Anchor:
    """The outer iterate (x, y) and what both the step-size test and the
    subproblem read there: r = Ax - b, grad f(x) and grad phi(y), each
    evaluated once.  x and y are read-only."""

    x: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    grad_f: np.ndarray
    grad_phi_y: np.ndarray

    def dual_update(self, penalty: DualPenalty, sigma: float, residual=None):
        """The dual argument u = grad phi(y) + sigma r and the multiplier
        candidate P'(u), for r the anchor's own residual unless given."""
        u = self.grad_phi_y + sigma * (self.residual if residual is None else residual)
        return u, penalty.grad(u)


@dataclass(frozen=True)
class PointEvaluation:
    """What the subproblem reads at one iterate s, each computed once:
    r = As - b, grad f(s), grad psi(s), the dual argument
    u = grad phi(y) + sigma r and the multiplier candidate y_plus = P'(u), the
    exact maximizer of the dual block."""

    s: np.ndarray
    residual: np.ndarray
    grad_f: np.ndarray
    grad_psi: np.ndarray
    u: np.ndarray
    y_plus: np.ndarray


@dataclass(frozen=True)
class SubproblemContext:
    """Frozen state defining one subproblem; all evaluations are pure.

    ``start`` is the evaluation at the warm start, the anchor x.  ``system``
    is the run's constraint-space Newton system, shared by every context of
    the run, or None where Newton steps assemble ``hess``.  The methods that
    read a point take its `PointEvaluation`, so that one iterate's evaluation
    serves the gradient, the acceptance test and the Newton system.
    """

    problem: ProblemSpec
    penalty: DualPenalty
    geometry: BregmanGeometry
    anchor: Anchor
    sigma: float
    rho: float
    start: PointEvaluation
    system: SpectralSystem | None = None

    @property
    def x_anchor(self) -> np.ndarray:
        return self.anchor.x

    @property
    def y_anchor(self) -> np.ndarray:
        return self.anchor.y

    def evaluate(self, s) -> PointEvaluation:
        """The point quantities at s, computed afresh."""
        s = np.asarray(s, dtype=float)
        r = self.problem.map.residual(s)
        u, y_plus = self.anchor.dual_update(self.penalty, self.sigma, r)
        return PointEvaluation(
            s, r, self.problem.f.grad(s), self.geometry.primal.grad(s), u, y_plus
        )

    def grad(self, point: PointEvaluation) -> np.ndarray:
        pull = self.problem.map.A.T @ point.y_plus
        prox = (point.grad_psi - self.start.grad_psi) / self.sigma
        return point.grad_f + pull + prox

    def hess(self, point: PointEvaluation) -> np.ndarray:
        return subproblem_hess(
            self.problem, self.penalty, self.geometry, self.sigma, point.s, point.u
        )

    def anchor_gap(self, point: PointEvaluation) -> float:
        """D_psi(s, x) + D_phi(y_plus(s), y): the progress proxy B."""
        primal = bregman_distance(self.geometry.primal, point.s, self.x_anchor)
        dual = bregman_distance(self.geometry.dual, point.y_plus, self.y_anchor)
        return primal + dual

    def extragradient(self, point: PointEvaluation, grad: np.ndarray) -> np.ndarray:
        """x_plus(s) = grad_psi*(grad_psi(s) - sigma grad(s))."""
        psi = self.geometry.primal
        target = point.grad_psi - self.sigma * grad
        if not psi.conj_in_interior(target):
            raise DomainError("corrected point leaves int dom of the conjugate")
        return psi.conj_grad(target)

    def acceptance_check(self, point: PointEvaluation, grad: np.ndarray) -> AcceptanceCheck:
        s = point.s
        psi = self.geometry.primal
        b_value = self.anchor_gap(point)
        rhs = self.rho * b_value
        if psi.kind == "energy":
            # exact reduction of D_psi(s, x_plus); avoids the cancellation in
            # forming s - (s - sigma g)
            lhs = 0.5 * self.sigma**2 * float(grad @ grad)
            x_plus = s - self.sigma * grad
            return AcceptanceCheck(lhs <= rhs, lhs, rhs, b_value, x_plus)
        try:
            x_plus = self.extragradient(point, grad)
        except DomainError:
            return AcceptanceCheck(False, math.inf, rhs, b_value, None)
        lhs = bregman_distance(psi, s, x_plus)
        return AcceptanceCheck(lhs <= rhs, lhs, rhs, b_value, x_plus)


def _frozen(z) -> np.ndarray:
    """z as a read-only float array; a read-only array that owns its data is
    shared, not copied."""
    z = np.asarray(z, dtype=float)
    if z.flags.writeable or not z.flags.owndata:
        z = z.copy()
        z.flags.writeable = False
    return z


def subproblem_hess(problem, penalty, geometry, sigma: float, s, u) -> np.ndarray:
    """f''(s) + sigma A^T P''(u) A + psi''(s) / sigma at s, with dual argument u."""
    A = problem.map.A
    diag = penalty.hess_diag_or_none(u)
    if diag is None:
        H = sigma * (A.T @ penalty.hess(u) @ A)
    else:
        # scaling the columns of A^T forms no m x m matrix; for a
        # power-of-two sigma it rounds exactly like sigma * (A^T D A)
        H = (A.T * (sigma * diag)) @ A
    H += problem.f.hess(s)
    diagonal = np.einsum("ii->i", H)  # a strided view: no index arrays
    diagonal += geometry.primal.hess_diag(s) / sigma
    return H


def evaluate_anchor(problem: ProblemSpec, geometry: BregmanGeometry, x, y) -> Anchor:
    """The anchor at (x, y), which must be interior to the geometries."""
    x = _frozen(x)
    y = _frozen(y)
    if not geometry.primal.in_interior(x):
        raise DomainError("primal anchor must be interior to the primal geometry")
    if not geometry.dual.in_interior(y):
        raise DomainError("dual anchor must be interior to the dual geometry")
    return Anchor(
        x=x,
        y=y,
        residual=problem.map.residual(x),
        grad_f=problem.f.grad(x),
        grad_phi_y=geometry.dual.grad(y),
    )


def make_context(
    problem: ProblemSpec,
    penalty: DualPenalty,
    geometry: BregmanGeometry,
    anchor: Anchor,
    sigma: float,
    rho: float,
    system: SpectralSystem | None = None,
    trial: tuple[np.ndarray, np.ndarray] | None = None,
) -> SubproblemContext:
    """The subproblem at ``anchor``, its warm start evaluated from the
    anchor's own r, grad f and grad psi.  ``trial`` is (u, P'(u)) at the
    anchor for this sigma, as `select_sigma` returns it; it is computed here
    when not given."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    u, y_plus = anchor.dual_update(penalty, sigma) if trial is None else trial
    start = PointEvaluation(
        anchor.x, anchor.residual, anchor.grad_f, geometry.primal.grad(anchor.x), u, y_plus
    )
    return SubproblemContext(
        problem=problem,
        penalty=penalty,
        geometry=geometry,
        anchor=anchor,
        sigma=float(sigma),
        rho=float(rho),
        start=start,
        system=system,
    )
