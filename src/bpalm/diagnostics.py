"""Empirical certification of the convergence claims from solver traces.

These post-processors replay a finished trace against an oracle solution or a
set of test points: monotone decrease of the primal-dual distance, fitted
contraction factors with a superlinearity verdict, the ergodic saddle-point
bound, and the ergodic objective/feasibility bound for conic constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, InsufficientTraceError, ScaleError
from .legendre import BregmanGeometry, bregman_distance
from .outer import SolveTrace
from .problem import ProblemSpec, lagrangian

__all__ = [
    "FejerResult",
    "RateEstimate",
    "ErgodicGapResult",
    "ConicFeasibilityResult",
    "fejer_check",
    "rate_fit",
    "ergodic_gap_check",
    "conic_feasibility_check",
    "summability_check",
]

_FEJER_SLACK = 1e-10

# q-ratios are meaningless once distances dip into rounding noise
_DISTANCE_FLOOR = 1e-28


def _distance_series(
    trace: SolveTrace, x_star, y_star, geometry: BregmanGeometry
) -> list[float]:
    """D(z*, z_k) along the anchor sequence, starting at the initial point."""
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    points = [(trace.x0, trace.y0)] + [(r.x_next, r.y_next) for r in trace.records]
    series = []
    for x_k, y_k in points:
        d = bregman_distance(geometry.primal, x_star, x_k) + bregman_distance(
            geometry.dual, y_star, y_k
        )
        series.append(d)
    if series and math.isinf(series[0]):
        raise DomainError("oracle solution lies outside the geometry's domain")
    return series


@dataclass
class FejerResult:
    monotone: bool
    distances: list[float]
    violations: list[int] = field(default_factory=list)


def fejer_check(
    trace: SolveTrace, x_star, y_star, geometry: BregmanGeometry
) -> FejerResult:
    """Nonincrease of D(z*, z_k) along the run, within a 1e-10 slack."""
    d = _distance_series(trace, x_star, y_star, geometry)
    violations = [k for k in range(len(d) - 1) if d[k + 1] > d[k] + _FEJER_SLACK]
    return FejerResult(monotone=not violations, distances=d, violations=violations)


@dataclass
class RateEstimate:
    distances: list[float]
    ratios: list[float]
    superlinear: bool


def rate_fit(
    trace: SolveTrace, x_star, y_star, geometry: BregmanGeometry
) -> RateEstimate:
    """Contraction factors q_k = d_{k+1}/d_k of the distance to the solution.

    Superlinear verdict: the last five ratios decrease strictly and the final
    one is below 0.1.  The series truncates where distances reach rounding
    noise (an exact solve drives them to zero and the ratio degenerates).
    """
    if len(trace.records) < 6:
        raise InsufficientTraceError(
            f"rate fit needs at least 6 iterations, trace has {len(trace.records)}"
        )
    d = _distance_series(trace, x_star, y_star, geometry)
    ratios = []
    for k in range(len(d) - 1):
        if d[k] <= _DISTANCE_FLOOR or d[k + 1] <= _DISTANCE_FLOOR:
            break
        ratios.append(d[k + 1] / d[k])
    tail = ratios[-5:]
    superlinear = bool(
        len(tail) == 5
        and all(tail[i + 1] < tail[i] for i in range(4))
        and tail[-1] < 0.1
    )
    return RateEstimate(distances=d, ratios=ratios, superlinear=superlinear)


@dataclass
class ErgodicGapResult:
    max_violation: float
    worst_k: int
    worst_point: int


def ergodic_gap_check(
    trace: SolveTrace,
    problem: ProblemSpec,
    geometry: BregmanGeometry,
    test_points: list[tuple[np.ndarray, np.ndarray]],
) -> ErgodicGapResult:
    """Verify L(s_bar_K, y) - L(x, y_bar_K) <= (D(x, x0) + D(y, y0)) / sum sigma
    at every prefix K and every test point; returns the worst signed excess."""
    worst = -math.inf
    worst_k = worst_point = -1
    weight = 0.0
    sx = np.zeros(problem.n)
    sy = np.zeros(problem.m)
    rhs_num = []
    for x, y in test_points:
        rhs_num.append(
            bregman_distance(geometry.primal, np.asarray(x, float), trace.x0)
            + bregman_distance(geometry.dual, np.asarray(y, float), trace.y0)
        )
    for k, rec in enumerate(trace.records):
        weight += rec.sigma
        sx = sx + rec.sigma * rec.s
        sy = sy + rec.sigma * rec.y_next
        s_bar = sx / weight
        y_bar = sy / weight
        for j, (x, y) in enumerate(test_points):
            lhs = lagrangian(problem, s_bar, y) - lagrangian(problem, x, y_bar)
            if math.isnan(lhs):
                continue  # both Lagrangians infinite; the bound is vacuous here
            excess = lhs - rhs_num[j] / weight
            if excess > worst:
                worst, worst_k, worst_point = excess, k, j
    return ErgodicGapResult(max_violation=worst, worst_k=worst_k, worst_point=worst_point)


def _max_divergence_on_cap(
    geometry: BregmanGeometry, y0: np.ndarray, radius: float
) -> float:
    """Lower bound on max D(y, y0) over {y >= 0, ||y|| <= radius}.

    The maximum of a convex function over the cap sits on the sphere part or
    at the origin; candidate directions (vertices, uniform mixtures, the
    anchor direction) are polished together, as the rows of one array, by a
    short projected ascent.  Any feasible point gives a valid lower bound,
    which makes the feasibility check conservative.
    """
    phi = geometry.dual
    m = y0.size
    norm0 = np.linalg.norm(y0)
    starts = [radius * np.eye(m), np.full((1, m), radius / math.sqrt(m))]
    if norm0 > 0:
        starts.append(radius * y0[None, :] / norm0)
    # uniform mixtures of the first k + 1 vertices, k = 1 .. m - 1
    mix_levels = radius / np.sqrt(np.arange(2, m + 1))
    starts.append(np.tril(np.ones((m, m)))[1:] * mix_levels[:, None])
    y = np.vstack(starts)

    best = max(bregman_distance(phi, c, y0) for c in [np.zeros(m), *y])
    if phi.nonnegative:
        # the geometry is separable, so one function of dimension k*m takes
        # the gradients of all k starts in one call
        wide = type(phi)(y.size)
        grad0 = phi.grad(y0)
    for _ in range(60):
        if phi.nonnegative:
            grad = wide.grad(np.maximum(y, 1e-148).ravel()).reshape(y.shape) - grad0
        else:
            grad = y - y0
        step = 0.1 * radius / (1.0 + np.linalg.norm(grad, axis=1))
        y = np.maximum(y + step[:, None] * grad, 0.0)
        norm = np.linalg.norm(y, axis=1)
        pos = norm > 0
        y[pos] *= (radius / norm[pos])[:, None]
    return max(best, max(bregman_distance(phi, c, y0) for c in y))


@dataclass
class ConicFeasibilityResult:
    max_excess: float
    objective_gaps: list[float]
    feasibility_gaps: list[float]
    bounds: list[float]


def conic_feasibility_check(
    trace: SolveTrace,
    problem: ProblemSpec,
    geometry: BregmanGeometry,
    x_star,
    y_star,
) -> ConicFeasibilityResult:
    """Ergodic objective and feasibility decay for conic (orthant) constraints:
    max{|f(s_bar) - f(x*)|, dist(As_bar - b, nonpositive orthant)} against
    (D(x*, x0) + max D(y, y0)) / sum sigma with the max over the dual cone
    intersected with the ball of radius 2||y*|| + 1."""
    if problem.g.variant != "orthant":
        raise ScaleError("conic feasibility check covers orthant constraints")
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    radius = 2.0 * float(np.linalg.norm(y_star)) + 1.0
    d_primal = bregman_distance(geometry.primal, x_star, trace.x0)
    d_dual_max = _max_divergence_on_cap(geometry, trace.y0, radius)
    f_star = problem.f.value(x_star)

    weight = 0.0
    sx = np.zeros(problem.n)
    obj_gaps, feas_gaps, bounds = [], [], []
    worst = -math.inf
    for rec in trace.records:
        weight += rec.sigma
        sx = sx + rec.sigma * rec.s
        s_bar = sx / weight
        obj = abs(problem.f.value(s_bar) - f_star)
        feas = float(np.linalg.norm(np.maximum(problem.map.residual(s_bar), 0.0)))
        bound = (d_primal + d_dual_max) / weight
        obj_gaps.append(obj)
        feas_gaps.append(feas)
        bounds.append(bound)
        worst = max(worst, max(obj, feas) - bound)
    return ConicFeasibilityResult(
        max_excess=worst,
        objective_gaps=obj_gaps,
        feasibility_gaps=feas_gaps,
        bounds=bounds,
    )


def summability_check(
    trace: SolveTrace, x_star, y_star, geometry: BregmanGeometry
) -> tuple[float, float]:
    """Partial sums of the progress proxy against the telescoped distance
    budget D(z*, z0) / (1 - max rho); returns (sum, budget)."""
    d0 = bregman_distance(geometry.primal, np.asarray(x_star, float), trace.x0)
    d0 += bregman_distance(geometry.dual, np.asarray(y_star, float), trace.y0)
    rho_max = max((r.rho for r in trace.records), default=0.0)
    total = sum(r.b_value for r in trace.records)
    return total, d0 / (1.0 - rho_max)
