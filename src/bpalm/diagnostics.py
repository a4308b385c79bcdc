"""Empirical certification of the convergence claims from solver runs.

These post-processors replay a finished run's iterates, kept by an
`IterateLog`, against an oracle solution or a set of test points: monotone
decrease of the primal-dual distance, fitted contraction factors with a
superlinearity verdict, the ergodic saddle-point bound, and the ergodic
objective/feasibility bound for conic constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError, InsufficientTraceError, UnsupportedError
from .legendre import BLOCK_COORDS, INTERIOR_FLOOR, BregmanGeometry, bregman_distance
from .outer import Iterate, OuterRecord
from .problem import ProblemSpec, lagrangian

__all__ = [
    "IterateLog",
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


@dataclass
class IterateLog:
    """An `outer.run` observer keeping what the checks replay: each outer
    iteration's record and iterate, in k order.  The iterates' arrays are the
    solver's own, shared, not copied.  The checks replay a `run`, so they take
    its start from the geometry."""

    records: list[OuterRecord] = field(default_factory=list)
    iterates: list[Iterate] = field(default_factory=list)

    def __call__(self, record: OuterRecord, iterate: Iterate) -> None:
        self.records.append(record)
        self.iterates.append(iterate)


def _distance_series(
    log: IterateLog, x_star, y_star, geometry: BregmanGeometry
) -> list[float]:
    """D(z*, z_k) along the anchor sequence, starting at the initial point,
    from one distance call per geometry on the stacked anchors."""

    def distances(fn, z_star, attr):  # one geometry's stack at a time
        anchors = np.array([fn.start()] + [getattr(it, attr) for it in log.iterates], dtype=float)
        return bregman_distance(fn, z_star, anchors)

    primal = distances(geometry.primal, x_star, "x_next")
    return (primal + distances(geometry.dual, y_star, "y_next")).tolist()


@dataclass
class FejerResult:
    monotone: bool
    distances: list[float]
    violations: list[int] = field(default_factory=list)


def fejer_check(
    log: IterateLog, x_star, y_star, geometry: BregmanGeometry
) -> FejerResult:
    """Nonincrease of D(z*, z_k) along the run, within a 1e-10 slack."""
    d = _distance_series(log, x_star, y_star, geometry)
    if math.isinf(d[0]):
        raise DomainError("oracle solution lies outside the geometry's domain")
    violations = [k for k in range(len(d) - 1) if d[k + 1] > d[k] + _FEJER_SLACK]
    return FejerResult(monotone=not violations, distances=d, violations=violations)


@dataclass
class RateEstimate:
    ratios: list[float]
    superlinear: bool


def rate_fit(distances: list[float]) -> RateEstimate:
    """Contraction factors q_k = d_{k+1}/d_k of the distance to the solution,
    from a run's D(z*, z_k) series as `fejer_check` returns it.

    Superlinear verdict: the last five ratios decrease strictly and the final
    one is below 0.1.  The series truncates where distances reach rounding
    noise (an exact solve drives them to zero and the ratio degenerates).
    """
    iterations = len(distances) - 1  # the series starts at the run's start
    if iterations < 6:
        raise InsufficientTraceError(
            f"rate fit needs at least 6 iterations, the run has {iterations}"
        )
    ratios = []
    for prev, cur in zip(distances, distances[1:]):
        if prev <= _DISTANCE_FLOOR or cur <= _DISTANCE_FLOOR:
            break
        ratios.append(cur / prev)
    tail = ratios[-5:]
    superlinear = bool(
        len(tail) == 5
        and all(tail[i + 1] < tail[i] for i in range(4))
        and tail[-1] < 0.1
    )
    return RateEstimate(ratios=ratios, superlinear=superlinear)


@dataclass
class ErgodicGapResult:
    max_violation: float
    worst_k: int
    worst_point: int


def ergodic_gap_check(
    log: IterateLog,
    problem: ProblemSpec,
    geometry: BregmanGeometry,
    test_points: list[tuple[np.ndarray, np.ndarray]],
) -> ErgodicGapResult:
    """Verify L(s_bar_K, y) - L(x, y_bar_K) <= (D(x, x0) + D(y, y0)) / sum sigma
    at every prefix K and every test point; returns the worst signed excess,
    the first in (K, point) order among equals."""
    n, m = problem.n, problem.m
    xs = np.array([x for x, _ in test_points], dtype=float).reshape(-1, n)
    ys = np.array([y for _, y in test_points], dtype=float).reshape(-1, m)
    psi, phi = geometry.primal, geometry.dual
    rhs = bregman_distance(psi, xs, psi.start()) + bregman_distance(phi, ys, phi.start())
    excess = np.empty((len(log.iterates), len(test_points)))
    averages = _ergodic_averages(log, lambda it: np.concatenate([it.s, it.y_next]), n + m)
    with np.errstate(invalid="ignore"):
        for rows, weight, bars in averages:
            s_bar, y_bar = bars[:, :n], bars[:, n:]
            for j in range(len(test_points)):
                lhs = lagrangian(problem, s_bar, ys[j]) - lagrangian(problem, xs[j], y_bar)
                excess[rows, j] = lhs - rhs[j] / weight
    # NaN where both Lagrangians are infinite: the bound is vacuous there
    excess[np.isnan(excess)] = -math.inf
    if excess.size == 0 or excess.max() == -math.inf:
        return ErgodicGapResult(max_violation=-math.inf, worst_k=-1, worst_point=-1)
    k, j = np.unravel_index(np.argmax(excess), excess.shape)
    return ErgodicGapResult(max_violation=float(excess[k, j]), worst_k=int(k), worst_point=int(j))


def _ergodic_averages(log: IterateLog, vector, dim: int):
    """Per block of consecutive iterations: its rows, the weights
    sum_{i<=k} sigma_i and the sigma-weighted averages of ``vector(iterate)``,
    per prefix k.

    np.cumsum adds in k order and each block starts from the sum the last
    one ended with, so every prefix is bit for bit the running sum; blocks of at
    most BLOCK_COORDS coordinates bound the memory.
    """
    sigmas = [r.sigma for r in log.records]
    weight = np.cumsum(sigmas)
    carried = np.zeros(dim)
    step = max(1, BLOCK_COORDS // dim)
    for lo in range(0, len(sigmas), step):
        rows = slice(lo, lo + step)
        pairs = zip(sigmas[rows], log.iterates[rows])
        prefix = np.array([sigma * vector(it) for sigma, it in pairs])
        prefix[0] += carried
        np.cumsum(prefix, axis=0, out=prefix)
        carried = prefix[-1].copy()
        yield rows, weight[rows], prefix / weight[rows, None]


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

    best = np.max(bregman_distance(phi, np.vstack([np.zeros(m), y]), y0))
    grad0 = phi.grad(y0) if phi.nonnegative else None
    start = y.copy()
    live = np.arange(len(y))  # the ascent maps rows alone: a row it fixes stays fixed
    for _ in range(60):
        z = y[live]
        if phi.nonnegative:
            # separable: one function of dimension k*m takes all k gradients
            grad = type(phi)(z.size).grad(np.maximum(z, INTERIOR_FLOOR).ravel())
            grad = grad.reshape(z.shape) - grad0
        else:
            grad = z - y0
        step = 0.1 * radius / (1.0 + np.linalg.norm(grad, axis=1))
        z_next = np.maximum(z + step[:, None] * grad, 0.0)
        norm = np.linalg.norm(z_next, axis=1)
        pos = norm > 0
        z_next[pos] *= (radius / norm[pos])[:, None]
        y[live] = z_next
        live = live[(z_next != z).any(axis=1)]
        if not live.size:
            break
    moved = y[(y != start).any(axis=1)]  # a row at its start has its distance in best
    return float(max(best, np.max(bregman_distance(phi, moved, y0), initial=-np.inf)))


@dataclass
class ConicFeasibilityResult:
    max_excess: float
    objective_gaps: list[float]
    feasibility_gaps: list[float]
    bounds: list[float]


def conic_feasibility_check(
    log: IterateLog,
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
        raise UnsupportedError("conic feasibility check covers orthant constraints")
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    radius = 2.0 * float(np.linalg.norm(y_star)) + 1.0
    d_primal = bregman_distance(geometry.primal, x_star, geometry.primal.start())
    d_dual_max = _max_divergence_on_cap(geometry, geometry.dual.start(), radius)
    f_star = problem.f.value(x_star)

    obj, feas, bounds = (np.empty(len(log.iterates)) for _ in range(3))
    for rows, weight, s_bar in _ergodic_averages(log, lambda it: it.s, problem.n):
        obj[rows] = np.abs(problem.f.value(s_bar) - f_star)
        excess = np.maximum(problem.map.residual(s_bar), 0.0)
        feas[rows] = np.sqrt(np.vecdot(excess, excess))  # np.linalg.norm's sum per row
        bounds[rows] = (d_primal + d_dual_max) / weight
    return ConicFeasibilityResult(
        max_excess=float(np.max(np.maximum(obj, feas) - bounds, initial=-math.inf)),
        objective_gaps=obj.tolist(),
        feasibility_gaps=feas.tolist(),
        bounds=bounds.tolist(),
    )


def summability_check(
    log: IterateLog, x_star, y_star, geometry: BregmanGeometry
) -> tuple[float, float]:
    """Partial sums of the progress proxy against the telescoped distance
    budget D(z*, z0) / (1 - max rho); returns (sum, budget)."""
    d0 = bregman_distance(geometry.primal, np.asarray(x_star, float), geometry.primal.start())
    d0 += bregman_distance(geometry.dual, np.asarray(y_star, float), geometry.dual.start())
    rho_max = max((r.rho for r in log.records), default=0.0)
    total = sum((r.b_value for r in log.records), 0.0)
    return total, d0 / (1.0 - rho_max)
