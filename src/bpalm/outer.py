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
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .auglag import Anchor, SubproblemContext, _frozen, evaluate_anchor, make_context
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
    "Iterate",
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

# a multiplier norm above _DIVERGENCE_NORM stops the run as diverged
_DIVERGENCE_NORM = 1e12


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    INNER_FAILURE = "inner_failure"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class RhoSchedule:
    """Relative-error tolerance rho_k = rho0 * factor**k of outer iteration k.

    The Solodov-Svaiter test needs only rho_k in [0, 1); the default factor 1
    keeps rho constant, and a factor below 1 makes it decay geometrically.
    """

    rho0: float
    factor: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho0 < 1.0:
            raise DomainError(f"rho must lie in [0, 1), got {self.rho0}")
        if not 0.0 < self.factor <= 1.0:
            raise DomainError(f"rho decay factor must lie in (0, 1], got {self.factor}")

    def value(self, k: int) -> float:
        return self.rho0 * self.factor**k


@dataclass
class SolverConfig:
    geometry: BregmanGeometry
    regime: str = "qsc"
    sigma0: float = 1.0
    sigma_growth: float = 2.0
    rho_schedule: RhoSchedule = RhoSchedule(0.5)
    tol_b: float = 1e-10
    tol_kkt: float = 1e-8
    max_outer: int = 200
    newton_cap: int = 50

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not 0.0 < self.sigma0 < math.inf:
            raise DomainError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if not 1.0 <= self.sigma_growth < math.inf:
            raise DomainError(f"sigma growth must be finite and >= 1, got {self.sigma_growth}")
        for name in ("tol_b", "tol_kkt", "max_outer", "newton_cap"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.regime not in REGIMES:
            raise InvalidRegimeError(f"unknown regime {self.regime!r}")


@dataclass
class IterateState:
    x: np.ndarray
    y: np.ndarray
    k: int
    sigma_prev: float | None = None


@dataclass(frozen=True, slots=True)
class OuterRecord:
    """The scalars of one outer iteration, for traces and diagnostics; the
    iteration's arrays go to `run`'s observer as an `Iterate`."""

    k: int
    sigma: float
    rho: float
    sigma_clipped: bool
    b_value: float
    grad_norm: float
    newton: NewtonTrace
    predicted_newton: int | None
    residuals: KKTResiduals
    accepted: bool


@dataclass(frozen=True)
class Iterate:
    """The arrays of one outer iteration: the subproblem's last point s, its
    gradient there and the next iterate (x_next, y_next), which is the next
    iteration's anchor.  Each is read-only.

    The iterate keeps the solver's own arrays, shared, not copied, which the
    deferred decrement reads too.  Where the run solves in W's eigenbasis
    (``basis`` is Q), each read of s, x_next or grad maps the solver's array
    back to the caller's coordinates, and nothing keeps the result; the
    diagnostics map blocks of ``_s`` and ``_x_next`` with one product each."""

    _s: np.ndarray
    _x_next: np.ndarray
    y_next: np.ndarray
    _grad: np.ndarray  # the subproblem gradient at s; the record's grad_norm is its norm
    _decrement: Callable[[], float] = field(repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)

    def _in_caller_coordinates(self, z: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return z
        out = self.basis @ z
        out.flags.writeable = False
        return out

    @property
    def s(self) -> np.ndarray:
        return self._in_caller_coordinates(self._s)

    @property
    def x_next(self) -> np.ndarray:
        return self._in_caller_coordinates(self._x_next)

    @property
    def grad(self) -> np.ndarray:
        return self._in_caller_coordinates(self._grad)

    @cached_property
    def decrement(self) -> float:
        """Newton decrement at s; the first read pays one factorization."""
        return self._decrement()


@dataclass
class SolveTrace:
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
    # the primal geometry lives on f's own domain: all of R^n, or f's box
    box = problem.f.box
    if psi.kind != ("energy" if box is None else "box_barrier"):
        raise DomainError(
            "the primal geometry must be energy for an unboxed objective, or the box "
            f"barrier of the objective's box, not {psi.kind!r}"
        )
    if box is not None and not np.array_equal(box, (psi.lower, psi.upper)):
        raise DomainError("objective box and barrier box must coincide")
    REGIMES[cfg.regime].validate(problem, cfg.geometry)


def select_sigma(
    cfg: SolverConfig,
    problem: ProblemSpec,
    penalty: DualPenalty,
    anchor: Anchor,
    target: float,
    rho: float,
    system: SpectralSystem | None = None,
) -> tuple[SubproblemContext, bool]:
    """The subproblem of the largest step size in {target * shrink^j} that
    passes the regime's step-size test at the anchor, and whether
    backtracking had to shrink the target.  Each trial is a context."""
    admissible = REGIMES[cfg.regime].admissible
    for j in range(_MAX_BACKTRACKS):
        sigma = target * _SHRINK**j
        if sigma < _SIGMA_MIN:
            break
        ctx = make_context(problem, penalty, cfg.geometry, anchor, sigma, rho, system)
        if admissible(ctx):
            return ctx, j > 0
    raise BisectionFailedError(
        f"no admissible sigma >= {_SIGMA_MIN} below target {target}"
    )


def outer_iteration(
    cfg: SolverConfig,
    problem: ProblemSpec,
    penalty: DualPenalty,
    state: IterateState,
    system: SpectralSystem | None = None,
) -> tuple[IterateState, OuterRecord, Iterate]:
    """One outer step; on inner failure the state is returned unchanged.

    ``system`` is the run's constraint-space Newton system, if it has one;
    then ``problem`` is its ``system.problem`` and ``state`` is in W's
    eigenbasis, and the iterate maps its reads back.
    The anchor, which is also the warm start, is evaluated once and shared
    by every sigma trial; the accepted trial's context is the subproblem
    solved, and the inner solve's last point serves the multiplier update
    and the KKT residuals.
    """
    target = cfg.sigma0 if state.sigma_prev is None else state.sigma_prev * cfg.sigma_growth
    anchor = evaluate_anchor(problem, cfg.geometry, state.x, state.y)
    rho = cfg.rho_schedule.value(state.k)
    ctx, clipped = select_sigma(cfg, problem, penalty, anchor, target, rho, system)
    regime = REGIMES[cfg.regime]

    inner = solve_subproblem(ctx, cap=cfg.newton_cap, modulus=regime.modulus(ctx))
    at_s = inner.point
    s = at_s.s

    y_next = at_s.y_plus
    if cfg.geometry.dual.nonnegative:
        y_next = np.maximum(y_next, INTERIOR_FLOOR)
    x_next = inner.x_plus
    # one read-only array each, shared by the iterate, the next state and the
    # next context's anchors
    for array in (s, x_next, y_next, inner.grad):
        array.flags.writeable = False

    try:
        predicted = regime.predicted(ctx, inner.b_value)
    except (ArithmeticError, ValueError):  # no bound computable in floats (B = inf)
        predicted = None

    residuals = kkt_residuals(problem, s, y_next, grad_f=at_s.grad_f, residual=at_s.residual)

    record = OuterRecord(
        k=state.k,
        sigma=ctx.sigma,
        rho=rho,
        sigma_clipped=clipped,
        b_value=inner.b_value,
        grad_norm=inner.trace.steps[-1].grad_norm,
        newton=inner.trace,
        predicted_newton=predicted,
        residuals=residuals,
        accepted=inner.accepted,
    )
    basis = None if system is None else system.Q
    iterate = Iterate(s, x_next, y_next, inner.grad, inner.decrement, basis)
    if not inner.accepted:
        return state, record, iterate

    new_state = IterateState(x=x_next, y=y_next, k=state.k + 1, sigma_prev=ctx.sigma)
    return new_state, record, iterate


def run(
    cfg: SolverConfig,
    problem: ProblemSpec,
    on_iteration: Callable[[OuterRecord, Iterate], object] | None = None,
) -> SolveReport:
    """Drive outer iterations until the progress proxy and the KKT residuals
    both fall below their tolerances (optimal), ||y|| exceeds
    _DIVERGENCE_NORM (diverged), no step size is admissible or the Newton cap
    is spent without acceptance (inner_failure), or max_outer is reached
    (max_iter).

    The run starts at the geometry's interior points ``primal.start()`` and
    ``dual.start()``, the one start a replay of the run can assume; a caller
    that needs another drives `outer_iteration` from its own `IterateState`.

    Where the run has a spectral system, the loop solves the problem in W's
    eigenbasis, and only the report's x and the iterate's reads map back.

    The report's trace keeps each iteration's record; ``on_iteration``, if
    given, is called once per outer iteration, in k order, with the record
    and the iterate, whose arrays nothing else keeps."""
    penalty = penalty_for(problem.g, cfg.geometry.dual)
    _validate(cfg, problem)
    x0 = _frozen(cfg.geometry.primal.start())
    y0 = _frozen(cfg.geometry.dual.start())

    started = time.perf_counter()
    trace = SolveTrace()
    # built here, per call: W's eigendecomposition is part of the solve
    system = SpectralSystem.for_run(problem, cfg.geometry)
    solved, start = problem, x0
    if system is not None:
        solved, start = system.problem, system.Q.T @ x0
        start.flags.writeable = False
    state = IterateState(x=start, y=y0, k=0)
    status = SolveStatus.MAX_ITER

    iterate = None
    for _ in range(cfg.max_outer):
        try:
            state, record, iterate = outer_iteration(cfg, solved, penalty, state, system)
        except BisectionFailedError:
            status = SolveStatus.INNER_FAILURE
            break
        trace.records.append(record)
        if on_iteration is not None:
            on_iteration(record, iterate)
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

    if trace.records:
        last = trace.records[-1]
        final_x, final_y = iterate.s, iterate.y_next
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
