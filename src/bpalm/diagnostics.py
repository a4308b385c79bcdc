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
from .legendre import BLOCK_COORDS, BregmanGeometry, bregman_distance
from .outer import Iterate, OuterRecord
from .problem import ProblemSpec, lagrangian

__all__ = [
    "IterateLog",
    "FejerResult",
    "RateEstimate",
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


def _stacked_reads(iterates: list[Iterate], raw: str, out: np.ndarray) -> None:
    """out[i] = iterates[i].s or .x_next, for raw "_s" or "_x_next", from the
    solver's arrays: where the run solved in W's eigenbasis, one stacked
    product with Q per block of at most BLOCK_COORDS coordinates maps them
    back, each row bit for bit the iterate's own mapped read."""
    basis = iterates[0].basis if iterates else None
    step = max(1, BLOCK_COORDS // out.shape[1])
    for lo in range(0, len(iterates), step):
        z = np.array([getattr(it, raw) for it in iterates[lo : lo + step]])
        out[lo : lo + step] = z if basis is None else np.matmul(basis, z[..., None])[..., 0]


def _distance_series(
    log: IterateLog, x_star, y_star, geometry: BregmanGeometry
) -> list[float]:
    """D(z*, z_k) along the anchor sequence, starting at the initial point,
    from one distance call per geometry on the stacked anchors, the dual's
    (under Spence, the larger temporaries) before the primal stack exists."""
    psi, phi = geometry.primal, geometry.dual
    y_anchors = np.array([phi.start()] + [it.y_next for it in log.iterates], dtype=float)
    dual = bregman_distance(phi, y_star, y_anchors)
    x_anchors = np.empty((len(log.iterates) + 1, psi.dim))
    x_anchors[0] = psi.start()
    _stacked_reads(log.iterates, "_x_next", x_anchors[1:])
    return (bregman_distance(psi, x_star, x_anchors) + dual).tolist()


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


def ergodic_gap_check(
    log: IterateLog,
    problem: ProblemSpec,
    geometry: BregmanGeometry,
    test_points: list[tuple[np.ndarray, np.ndarray]],
) -> float:
    """Verify L(s_bar_K, y) - L(x, y_bar_K) <= (D(x, x0) + D(y, y0)) / sum sigma
    at every prefix K and every test point; returns the worst signed excess."""
    n, m = problem.n, problem.m
    xs = np.array([x for x, _ in test_points], dtype=float).reshape(-1, n)
    ys = np.array([y for _, y in test_points], dtype=float).reshape(-1, m)
    psi, phi = geometry.primal, geometry.dual
    rhs = bregman_distance(psi, xs, psi.start()) + bregman_distance(phi, ys, phi.start())
    excess = np.empty((len(log.iterates), len(test_points)))
    averages = _ergodic_averages(log, n, m)
    with np.errstate(invalid="ignore"):
        for rows, weight, bars in averages:
            s_bar, y_bar = bars[:, :n], bars[:, n:]
            for j in range(len(test_points)):
                lhs = lagrangian(problem, s_bar, ys[j]) - lagrangian(problem, xs[j], y_bar)
                excess[rows, j] = lhs - rhs[j] / weight
    # NaN where both Lagrangians are infinite: the bound is vacuous there
    excess[np.isnan(excess)] = -math.inf
    return float(np.max(excess, initial=-math.inf))


def _ergodic_averages(log: IterateLog, n: int, m: int = 0):
    """Per block of consecutive iterations: its rows, the weights
    sum_{i<=k} sigma_i and the sigma-weighted averages of s, followed by those
    of y_next when m > 0, per prefix k.

    np.cumsum adds in k order and each block starts from the sum the last
    one ended with, so every prefix is bit for bit the running sum; blocks of at
    most BLOCK_COORDS coordinates bound the memory.
    """
    sigmas = np.array([r.sigma for r in log.records])
    weight = np.cumsum(sigmas)
    carried = np.zeros(n + m)
    step = max(1, BLOCK_COORDS // (n + m))
    for lo in range(0, len(sigmas), step):
        rows = slice(lo, lo + step)
        block = log.iterates[rows]
        prefix = np.empty((len(block), n + m))
        _stacked_reads(block, "_s", prefix[:, :n])
        if m:
            prefix[:, n:] = [it.y_next for it in block]
        prefix *= sigmas[rows, None]
        prefix[0] += carried
        np.cumsum(prefix, axis=0, out=prefix)
        carried = prefix[-1].copy()
        yield rows, weight[rows], prefix / weight[rows, None]


def _max_divergence_on_cap(geometry: BregmanGeometry, radius: float) -> float:
    """max D(y, y0) over the cap {y >= 0, ||y|| <= radius}, y0 the dual start,
    from the origin, the vertices radius * e_i and the rows radius / sqrt(k) on
    the first k coordinates.  With s_i = y_i**2 the cap is the simplex
    {s >= 0, sum s <= radius**2} and D(y, y0) = sum g(s_i).  Spence: g is convex,
    since g'(s) = (phi'(sqrt s) - phi'(1)) / (2 sqrt s) increases, so the maximum
    is the origin or a vertex.  Energy: y0 = 0, so D = radius**2 / 2 on the sphere.
    Von Neumann: g is convex below s = e**2 and concave above it, so a maximizer
    has equal coordinates above e and at most one in (0, e); a grid over such
    points (m <= 40, radius <= 100) found none above the rows.  The value is a
    lower bound in any case, so the feasibility check stays conservative."""
    phi, m = geometry.dual, geometry.dual.dim
    levels = radius / np.sqrt(np.arange(2, m + 1))
    rows = [np.zeros((1, m)), radius * np.eye(m), np.tril(np.ones((m, m)))[1:] * levels[:, None]]
    return float(np.max(bregman_distance(phi, np.vstack(rows), phi.start())))


def conic_feasibility_check(
    log: IterateLog,
    problem: ProblemSpec,
    geometry: BregmanGeometry,
    x_star,
    y_star,
) -> float:
    """Ergodic objective and feasibility decay for conic (orthant) constraints:
    max{|f(s_bar) - f(x*)|, dist(As_bar - b, nonpositive orthant)} against
    (D(x*, x0) + max D(y, y0)) / sum sigma with the max over the dual cone
    intersected with the ball of radius 2||y*|| + 1; returns the worst signed
    excess over the prefixes."""
    if problem.g.variant != "orthant":
        raise UnsupportedError("conic feasibility check covers orthant constraints")
    radius = 2.0 * float(np.linalg.norm(y_star)) + 1.0
    d_primal = bregman_distance(geometry.primal, x_star, geometry.primal.start())
    d_dual_max = _max_divergence_on_cap(geometry, radius)
    f_star = problem.f.value(x_star)

    obj, feas, bounds = (np.empty(len(log.iterates)) for _ in range(3))
    for rows, weight, s_bar in _ergodic_averages(log, problem.n):
        obj[rows] = np.abs(problem.f.value(s_bar) - f_star)
        excess = np.maximum(problem.map.residual(s_bar), 0.0)
        feas[rows] = np.sqrt(np.vecdot(excess, excess))  # np.linalg.norm's sum per row
        bounds[rows] = (d_primal + d_dual_max) / weight
    return float(np.max(np.maximum(obj, feas) - bounds, initial=-math.inf))


def summability_check(log: IterateLog, distances: list[float]) -> tuple[float, float]:
    """Partial sums of the progress proxy against the telescoped distance
    budget D(z*, z0) / (1 - max rho), with D(z*, z0) the first entry of the
    run's D(z*, z_k) series as `fejer_check` returns it; returns (sum, budget)."""
    d0 = distances[0]
    rho_max = max((r.rho for r in log.records), default=0.0)
    total = sum((r.b_value for r in log.records), 0.0)
    return total, d0 / (1.0 - rho_max)
