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
from dataclasses import dataclass, field
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
    x_plus: np.ndarray | None
    domain_ok: bool = True


@dataclass(frozen=True)
class Anchor:
    """The outer iterate (x, y) and what both the step-size test and the
    subproblem read there: r = Ax - b, grad f(x) and grad phi(y), each
    evaluated once.  Every array is read-only."""

    x: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    grad_f: np.ndarray
    grad_phi_y: np.ndarray
    # (penalty, sigma, u, P'(u)) of the step-size test's last, accepted trial
    _trial: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PointEvaluation:
    """What the subproblem reads at one iterate s, each computed once:
    r = As - b, grad f(s), grad psi(s), the dual argument
    u = grad phi(y) + sigma r and the multiplier candidate y_plus = P'(u).
    Every array is read-only."""

    s: np.ndarray
    residual: np.ndarray
    grad_f: np.ndarray
    grad_psi: np.ndarray
    u: np.ndarray
    y_plus: np.ndarray


@dataclass(frozen=True)
class SubproblemContext:
    """Frozen state defining one subproblem; all evaluations are pure.

    ``system`` is the run's constraint-space Newton system, shared by every
    context of the run, or None where Newton steps assemble ``hess``.  The
    last evaluated point is kept while it cannot change (see `evaluate`), so
    the gradient, the acceptance test and the Newton system at one iterate
    share its evaluation.
    """

    problem: ProblemSpec
    penalty: DualPenalty
    geometry: BregmanGeometry
    anchor: Anchor
    sigma: float
    rho: float
    grad_psi_x: np.ndarray
    system: SpectralSystem | None = None
    _last: PointEvaluation | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def x_anchor(self) -> np.ndarray:
        return self.anchor.x

    @property
    def y_anchor(self) -> np.ndarray:
        return self.anchor.y

    def evaluate(self, s) -> PointEvaluation:
        """The point quantities at s.  The last point is kept for the next
        call only if s cannot change under it: a read-only array that owns
        its data, as the anchor and the Newton iterates are.  At the anchor,
        r, grad f and grad psi are its own, u and P'(u) its accepted trial's."""
        last = self._last
        if last is not None and s is last.s and not s.flags.writeable:
            return last
        s = np.asarray(s, dtype=float)
        trial = None
        if s is self.anchor.x:
            r, grad_f, grad_psi = self.anchor.residual, self.anchor.grad_f, self.grad_psi_x
            trial = self.anchor._trial
        else:
            r = _readonly(self.problem.map.residual(s))
            grad_f = _readonly(self.problem.f.grad(s))
            grad_psi = _readonly(self.geometry.primal.grad(s))
        if trial is not None and trial[0] is self.penalty and trial[1] == self.sigma:
            u, y_plus = _readonly(trial[2]), _readonly(trial[3])  # the same sum, bit for bit
        else:
            u = _readonly(self.anchor.grad_phi_y + self.sigma * r)
            y_plus = _readonly(self.penalty.grad(u))
        point = PointEvaluation(s, r, grad_f, grad_psi, u, y_plus)
        if _immutable(s):
            object.__setattr__(self, "_last", point)
        return point

    def dual_argument(self, s: np.ndarray) -> np.ndarray:
        return self.evaluate(s).u

    def multiplier_candidate(self, s: np.ndarray) -> np.ndarray:
        """y_plus(s), the exact maximizer of the dual block."""
        return self.evaluate(s).y_plus

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
        point = self.evaluate(s)
        pull = self.problem.map.A.T @ point.y_plus
        prox = (point.grad_psi - self.grad_psi_x) / self.sigma
        return point.grad_f + pull + prox

    def hess(self, s) -> np.ndarray:
        p = self.evaluate(s)
        return subproblem_hess(self.problem, self.penalty, self.geometry, self.sigma, p.s, p.u)

    def anchor_gap(self, s) -> float:
        """D_psi(s, x) + D_phi(y_plus(s), y): the progress proxy B."""
        point = self.evaluate(s)
        primal = bregman_distance(self.geometry.primal, point.s, self.x_anchor)
        dual = bregman_distance(self.geometry.dual, point.y_plus, self.y_anchor)
        return primal + dual

    def extragradient(self, s, grad: np.ndarray | None = None) -> np.ndarray:
        """x_plus(s) = grad_psi*(grad_psi(s) - sigma grad(s))."""
        point = self.evaluate(s)
        psi = self.geometry.primal
        if grad is None:
            grad = self.grad(point.s)
        target = point.grad_psi - self.sigma * grad
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


def _immutable(z: np.ndarray) -> bool:
    """Whether z cannot change under a reader: read-only, owning its data."""
    return not z.flags.writeable and z.flags.owndata


def _readonly(z: np.ndarray) -> np.ndarray:
    """A freshly computed array, made read-only in place."""
    z.flags.writeable = False
    return z


def _frozen(z) -> np.ndarray:
    """z as a read-only float array; an immutable array is shared, not copied."""
    z = np.asarray(z, dtype=float)
    if not _immutable(z):
        z = _readonly(z.copy())
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
        residual=_readonly(problem.map.residual(x)),
        grad_f=_readonly(problem.f.grad(x)),
        grad_phi_y=_readonly(geometry.dual.grad(y)),
    )


def make_context(
    problem: ProblemSpec,
    penalty: DualPenalty,
    geometry: BregmanGeometry,
    anchor: Anchor,
    sigma: float,
    rho: float,
    system: SpectralSystem | None = None,
) -> SubproblemContext:
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    return SubproblemContext(
        problem=problem,
        penalty=penalty,
        geometry=geometry,
        anchor=anchor,
        sigma=float(sigma),
        rho=float(rho),
        grad_psi_x=_readonly(geometry.primal.grad(anchor.x)),
        system=system,
    )
