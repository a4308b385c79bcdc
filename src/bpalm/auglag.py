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
from functools import cached_property
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
    x_plus: np.ndarray


@dataclass(frozen=True)
class Anchor:
    """The outer iterate (x, y) and what every sigma trial's subproblem reads
    there: r = Ax - b, grad f(x), grad psi(x), grad phi(y) and phi''(y), each
    evaluated once.  x and y are read-only.  ``memo`` keeps what a regime's
    step-size test forms at the anchor on its first trial, for the later
    trials to reuse."""

    x: np.ndarray
    y: np.ndarray
    residual: np.ndarray
    grad_f: np.ndarray
    grad_psi: np.ndarray
    grad_phi_y: np.ndarray
    hess_phi_y: np.ndarray
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def dual_update(self, penalty: DualPenalty, sigma: float, residual: np.ndarray):
        """The dual argument u = grad phi(y) + sigma r and the multiplier
        candidate P'(u) for the residual r = As - b of a point s."""
        u = self.grad_phi_y + sigma * residual
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

    ``start`` is the evaluation at the warm start, the anchor x; the regime's
    step-size test reads it to admit or reject this sigma.  ``system``
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

    @cached_property
    def start_grad(self) -> np.ndarray:
        """The gradient at the warm start, which the step-size test and the
        Newton solve both read."""
        return self.grad(self.start)

    def grad(self, point: PointEvaluation) -> np.ndarray:
        pull = self.problem.map.A.T @ point.y_plus
        prox = (point.grad_psi - self.start.grad_psi) / self.sigma
        return point.grad_f + pull + prox

    def hess(self, point: PointEvaluation) -> np.ndarray:
        return subproblem_hess(
            self.problem, self.penalty, self.geometry, self.sigma, point.s, point.u
        )

    def extragradient(self, point: PointEvaluation, grad: np.ndarray) -> np.ndarray:
        """x_plus(s) = grad_psi*(grad_psi(s) - sigma grad(s))."""
        return self.geometry.primal.conj_grad(point.grad_psi - self.sigma * grad)

    def acceptance_check(
        self, point: PointEvaluation, grad: np.ndarray, exact: bool = True
    ) -> AcceptanceCheck:
        """The relative test at s, with B = D_psi(s, x) + D_phi(y_plus, y).

        Unless ``exact``, it rejects without D_phi (rhs and b_value are then
        NaN) where lhs > rho (D_psi + U)(1 + delta), as the exact test would:
        D_phi <= U = sum d^2 max(phi''(y_plus), phi''(y)) / 2 with d = y_plus - y
        by Taylor's theorem, as every catalog phi'' peaks at an end of the
        segment.  delta = 2^-31 + (2m + 16) 2^-53 for m dual coordinates covers
        the rounding of U (m + 8 units of 2^-53; its terms, formed as (d phi'') d,
        do not underflow), of the computed D_phi (m - 1 units plus 2^-33 per
        term, above the KL raw form's worst cancellation), of B and of rho B.
        A y_plus on the boundary, where phi'' is unbounded, takes the exact path.
        """
        s = point.s
        psi = self.geometry.primal
        if psi.kind == "energy":
            # exact reduction of D_psi(s, x_plus); avoids the cancellation in
            # forming s - (s - sigma g)
            lhs = 0.5 * self.sigma**2 * float(grad @ grad)
            x_plus = s - self.sigma * grad
        else:
            x_plus = self.extragradient(point, grad)
            lhs = bregman_distance(psi, s, x_plus)
        primal = _distance(psi, s, self.x_anchor)
        if not exact and self._bound_rejects(lhs, primal, point.y_plus):
            return AcceptanceCheck(False, lhs, math.nan, math.nan, x_plus)
        b_value = primal + _distance(self.geometry.dual, point.y_plus, self.y_anchor)
        rhs = self.rho * b_value
        return AcceptanceCheck(lhs <= rhs, lhs, rhs, b_value, x_plus)

    def _bound_rejects(self, lhs: float, primal: float, y_plus: np.ndarray) -> bool:
        d = y_plus - self.y_anchor
        slack = self.rho * (1.0 + 2.0**-31 + (2 * d.size + 16) * 2.0**-53)
        at_anchor = self.anchor.hess_phi_y
        # phi''(y) alone bounds U from below: where that cannot reject, U cannot
        if not lhs > (primal + 0.5 * float((d * at_anchor) @ d)) * slack:
            return False
        try:
            curvature = np.maximum(self.geometry.dual.hess_diag(y_plus), at_anchor)
        except DomainError:  # y_plus on the boundary, where phi'' is unbounded
            return False
        return lhs > (primal + 0.5 * float((d * curvature) @ d)) * slack


def _distance(fn, z1: np.ndarray, z2: np.ndarray) -> float:
    """bregman_distance(fn, z1, z2) for one z1 in the domain, if finite, and
    z2 proven interior, proving neither again; a non-finite result takes the
    validated path, which gives +inf off the domain."""
    d = max(float(fn.distance(z1, z2)), 0.0)
    return d if math.isfinite(d) else bregman_distance(fn, z1, z2)


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
        grad_psi=geometry.primal.grad(x),
        grad_phi_y=geometry.dual.grad(y),
        hess_phi_y=geometry.dual.hess_diag(y),
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
    """The subproblem at ``anchor``, its warm start evaluated from the
    anchor's own r, grad f and grad psi."""
    # the energy acceptance test squares sigma, and a float ** overflow raises
    if not (sigma > 0.0 and math.isfinite(sigma * sigma)):
        raise DomainError(f"sigma must be positive with a finite square, got {sigma}")
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")
    u, y_plus = anchor.dual_update(penalty, sigma, anchor.residual)
    start = PointEvaluation(anchor.x, anchor.residual, anchor.grad_f, anchor.grad_psi, u, y_plus)
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
