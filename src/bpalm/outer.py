"""Outer proximal multiplier loop: step-size selection, dispatch, updates.

Each outer iteration selects the largest admissible step size by backtracking
against the regime's self-referential bound, solves the smooth subproblem with
the Newton oracle from the warm start, then applies the mirror-corrected
primal update and the exact multiplier update.  Termination couples the
progress proxy B with natural-map KKT residuals: B alone can be small far from
optimality when the relative tolerance is large.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .auglag import Anchor, _frozen, evaluate_anchor, make_context
from .exceptions import (
    BisectionFailedError,
    DimensionError,
    DomainError,
    InvalidRegimeError,
)
from .legendre import INTERIOR_FLOOR, BregmanGeometry
from .newton import REGIMES, NewtonTrace, SpectralSystem, solve_subproblem
from .penalty import DualPenalty, penalty_for
from .problem import KKTResiduals, ProblemSpec, kkt_residuals

__all__ = [
    "SolveStatus",
    "RhoSchedule",
    "SolverConfig",
    "IterateState",
    "OuterRecord",
    "SolveTrace",
    "SolveReport",
    "select_sigma",
    "outer_iteration",
    "run",
]

# sigma backtracking; perfbench/workloads.py counts backtracks assuming 0.5
_MAX_BACKTRACKS = 40
_SHRINK = 0.5
_SIGMA_MIN = 1e-12

# a multiplier norm above _DIVERGENCE_NORM, or _STAGNATION_LIMIT clipped
# iterations in a row without primal progress, stop the run as diverged
_DIVERGENCE_NORM = 1e12
_STAGNATION_LIMIT = 50


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INNER_FAILURE = "inner_failure"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class RhoSchedule:
    """Relative-error tolerance per outer iteration, constant or geometric.

    A positive floor keeps a decaying schedule above what double precision can
    certify: the inner test compares quantities of size sigma^2 ||grad||^2
    against rho * B, and rho below ~1e-12 demands gradient norms the Newton
    oracle cannot reach in floating point.
    """

    rho0: float
    factor: float = 1.0
    floor: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rho0 < 1.0:
            raise DomainError(f"rho must lie in [0, 1), got {self.rho0}")
        if not 0.0 < self.factor <= 1.0:
            raise DomainError(f"rho decay factor must lie in (0, 1], got {self.factor}")
        if not 0.0 <= self.floor <= self.rho0:
            raise DomainError(f"rho floor must lie in [0, rho0], got {self.floor}")

    @classmethod
    def constant(cls, rho: float) -> "RhoSchedule":
        return cls(rho0=rho, factor=1.0)

    @classmethod
    def geometric(cls, rho0: float, factor: float, floor: float = 0.0) -> "RhoSchedule":
        return cls(rho0=rho0, factor=factor, floor=floor)

    def value(self, k: int) -> float:
        return max(self.rho0 * self.factor**k, self.floor)


@dataclass
class SolverConfig:
    geometry: BregmanGeometry
    regime: str = "qsc"
    sigma0: float = 1.0
    sigma_growth: float = 2.0
    rho_schedule: RhoSchedule = field(default_factory=lambda: RhoSchedule.constant(0.5))
    tol_b: float = 1e-10
    tol_kkt: float = 1e-8
    max_outer: int = 200
    newton_cap: int = 50

    def __post_init__(self):
        # comparisons written so that NaN fails them; a negative newton_cap
        # acts as 0
        if not 0.0 < self.sigma0 < math.inf:
            raise DomainError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not 1.0 <= self.sigma_growth < math.inf:
            raise DomainError(f"sigma growth must be finite and >= 1, got {self.sigma_growth}")
        for name in ("tol_b", "tol_kkt"):
            if not getattr(self, name) >= 0.0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_outer < 0:
            raise DomainError(f"max_outer must be nonnegative, got {self.max_outer}")
        if self.regime not in REGIMES:
            raise InvalidRegimeError(f"unknown regime {self.regime!r}")


@dataclass
class IterateState:
    x: np.ndarray
    y: np.ndarray
    k: int
    sigma_prev: float | None = None


@dataclass(frozen=True)
class OuterRecord:
    """Everything one outer iteration produced, for traces and diagnostics."""

    k: int
    sigma: float
    rho: float
    sigma_clipped: bool
    x_anchor: np.ndarray
    y_anchor: np.ndarray
    s: np.ndarray
    x_next: np.ndarray
    y_next: np.ndarray
    b_value: float
    grad_norm: float
    newton: NewtonTrace
    predicted_newton: int | None
    residuals: KKTResiduals
    grad: np.ndarray  # the subproblem gradient at s; grad_norm is its norm
    accepted: bool

    @property
    def decrement(self) -> float:
        """Newton decrement at s; the first read pays one factorization."""
        return self.newton.steps[-1].decrement


@dataclass
class SolveTrace:
    x0: np.ndarray
    y0: np.ndarray
    records: list[OuterRecord] = field(default_factory=list)


@dataclass
class SolveReport:
    status: SolveStatus
    x: np.ndarray
    y: np.ndarray
    residuals: KKTResiduals
    outer_iterations: int
    total_newton_steps: int
    sigma_final: float
    wall_seconds: float
    trace: SolveTrace


def _validate(cfg: SolverConfig, problem: ProblemSpec) -> None:
    psi, phi = cfg.geometry.primal, cfg.geometry.dual
    if psi.dim != problem.n:
        raise DimensionError(
            f"primal geometry dimension {psi.dim} != problem dimension {problem.n}"
        )
    if phi.dim != problem.m:
        raise DimensionError(
            f"dual geometry dimension {phi.dim} != constraint dimension {problem.m}"
        )
    if psi.kind == "box_barrier":
        if problem.f.box is None:
            raise DomainError("box-barrier geometry requires a box-constrained objective")
        lo, hi = problem.f.box
        if not (np.allclose(lo, psi.lower) and np.allclose(hi, psi.upper)):
            raise DomainError("objective box and barrier box must coincide")
    elif problem.f.box is not None:
        raise DomainError(
            "box-constrained objectives need the box-barrier primal geometry"
        )
    REGIMES[cfg.regime].validate(problem, cfg.geometry)


def select_sigma(
    cfg: SolverConfig,
    problem: ProblemSpec,
    penalty: DualPenalty,
    anchor: Anchor,
    target: float,
) -> tuple[float, bool, tuple[np.ndarray, np.ndarray]]:
    """Largest step size in {target * shrink^j} passing the regime bound at
    the anchor.

    Returns the step size, whether backtracking had to shrink the target,
    and the accepted trial's dual argument u and multiplier candidate P'(u)
    at the anchor, which `make_context` takes for the warm start.
    """
    admissible = REGIMES[cfg.regime].admissibility(problem, penalty, cfg.geometry, anchor)
    for j in range(_MAX_BACKTRACKS):
        sigma = target * _SHRINK**j
        if sigma < _SIGMA_MIN:
            break
        trial = anchor.dual_update(penalty, sigma)
        if admissible(sigma, trial[1]):
            return sigma, j > 0, trial
    raise BisectionFailedError(
        f"no admissible sigma >= {_SIGMA_MIN} below target {target}"
    )


def outer_iteration(
    cfg: SolverConfig,
    problem: ProblemSpec,
    penalty: DualPenalty,
    state: IterateState,
    system: SpectralSystem | None = None,
) -> tuple[IterateState, OuterRecord]:
    """One outer step; on inner failure the state is returned unchanged.

    ``system`` is the run's constraint-space Newton system, if it has one.
    The anchor, which is also the warm start, is evaluated once for the
    step-size test and the subproblem; the inner solve's last point serves
    the multiplier update and the KKT residuals.
    """
    target = cfg.sigma0 if state.sigma_prev is None else state.sigma_prev * cfg.sigma_growth
    anchor = evaluate_anchor(problem, cfg.geometry, state.x, state.y)
    sigma, clipped, trial = select_sigma(cfg, problem, penalty, anchor, target)
    rho = cfg.rho_schedule.value(state.k)
    ctx = make_context(problem, penalty, cfg.geometry, anchor, sigma, rho, system, trial)
    regime = REGIMES[cfg.regime]

    inner = solve_subproblem(ctx, cap=cfg.newton_cap, modulus=regime.modulus(ctx))
    at_s = inner.point
    s = at_s.s

    y_next = at_s.y_plus
    if cfg.geometry.dual.nonnegative:
        y_next = np.maximum(y_next, INTERIOR_FLOOR)
    x_next = inner.x_plus if inner.x_plus is not None else s
    # one read-only array each, shared by the record, the next state and the
    # next context's anchors
    x_next.flags.writeable = False
    y_next.flags.writeable = False

    try:
        predicted = regime.predicted(ctx, inner.b_value)
    except (ArithmeticError, ValueError):  # no bound computable in floats (B = inf)
        predicted = None

    residuals = kkt_residuals(problem, s, y_next, grad_f=at_s.grad_f, residual=at_s.residual)

    record = OuterRecord(
        k=state.k,
        sigma=sigma,
        rho=rho,
        sigma_clipped=clipped,
        # y_anchor, s and grad are shared with the deferred decrement of the
        # last Newton record
        x_anchor=ctx.x_anchor,
        y_anchor=ctx.y_anchor,
        s=s,
        x_next=x_next,
        y_next=y_next,
        b_value=inner.b_value,
        grad_norm=inner.trace.steps[-1].grad_norm,
        newton=inner.trace,
        predicted_newton=predicted,
        residuals=residuals,
        grad=inner.grad,
        accepted=inner.accepted,
    )
    if not inner.accepted:
        return state, record

    new_state = IterateState(x=x_next, y=y_next, k=state.k + 1, sigma_prev=sigma)
    return new_state, record


def run(
    cfg: SolverConfig,
    problem: ProblemSpec,
    x0=None,
    y0=None,
) -> SolveReport:
    """Drive outer iterations until the progress proxy and the KKT residuals
    both fall below their tolerances."""
    penalty = penalty_for(problem.g, cfg.geometry.dual)
    _validate(cfg, problem)
    # one read-only copy each, shared by the trace and the first anchor
    x0 = _frozen(cfg.geometry.primal.start() if x0 is None else x0)
    y0 = _frozen(cfg.geometry.dual.start() if y0 is None else y0)
    if not cfg.geometry.primal.in_interior(x0):
        raise DomainError("x0 must be interior to the primal geometry")
    if not cfg.geometry.dual.in_interior(y0):
        raise DomainError("y0 must be interior to the dual geometry")

    started = time.perf_counter()
    trace = SolveTrace(x0=x0, y0=y0)
    state = IterateState(x=x0, y=y0, k=0)
    status = SolveStatus.MAX_ITER
    best_primal = math.inf
    stall = 0
    # built here, per call: W's eigendecomposition is part of the solve
    system = SpectralSystem.for_run(problem, cfg.geometry)

    for _ in range(cfg.max_outer):
        try:
            state, record = outer_iteration(cfg, problem, penalty, state, system)
        except BisectionFailedError:
            status = SolveStatus.INNER_FAILURE
            break
        trace.records.append(record)
        resid = record.residuals
        converged = record.b_value <= cfg.tol_b and resid.max_residual() <= cfg.tol_kkt
        if not record.accepted:
            # the relative test can sink below what floating point can certify
            # (required ||grad|| ~ sqrt(B)/sigma under the gradient's rounding
            # floor); the iterate still counts as a solution if it meets the
            # outer tolerances, which is what the report promises
            status = SolveStatus.OPTIMAL if converged else SolveStatus.INNER_FAILURE
            break
        if converged:
            status = SolveStatus.OPTIMAL
            break
        if float(np.linalg.norm(state.y)) > _DIVERGENCE_NORM:
            status = SolveStatus.DIVERGED
            break
        if (
            record.sigma_clipped
            and resid.primal_res > cfg.tol_kkt
            and resid.primal_res > 0.999 * best_primal
        ):
            stall += 1
            if stall >= _STAGNATION_LIMIT:
                status = SolveStatus.DIVERGED
                break
        else:
            stall = 0
        best_primal = min(best_primal, resid.primal_res)

    if trace.records:
        last = trace.records[-1]
        final_x, final_y = last.s, last.y_next
        residuals = last.residuals
        sigma_final = last.sigma
    else:
        final_x, final_y = x0, y0
        residuals = kkt_residuals(problem, x0, y0)
        sigma_final = cfg.sigma0

    return SolveReport(
        status=status,
        x=final_x.copy(),
        y=final_y.copy(),
        residuals=residuals,
        outer_iterations=len(trace.records),
        total_newton_steps=sum(r.newton.iterations_used for r in trace.records),
        sigma_final=sigma_final,
        wall_seconds=time.perf_counter() - started,
        trace=trace,
    )
