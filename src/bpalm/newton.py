"""Inner second-order oracle: pure Newton steps, decrement, and the regimes.

No line search: the outer step-size rule places the warm start inside the
quadratic-convergence region, so full steps suffice.  A fraction-to-boundary
clamp (factor 0.99) protects floating point when the primal geometry has a
bounded domain.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .auglag import PointEvaluation, SubproblemContext, subproblem_hess
from .exceptions import FactorizationError, InvalidRegimeError
from .legendre import BregmanGeometry
from .penalty import DualPenalty, penalty_for
from .problem import ProblemSpec

__all__ = [
    "NewtonStepRecord",
    "NewtonTrace",
    "InnerSolve",
    "SpectralSystem",
    "newton_step",
    "newton_decrement",
    "solve_subproblem",
    "qsc_steps",
    "lipschitz_steps",
    "sc_steps",
    "Regime",
    "REGIMES",
]

logger = logging.getLogger(__name__)

# ||grad|| at which an iterate counts as an exact subproblem solution even if
# the relative test is unattainable (rho = 0 on a non-quadratic objective)
GRAD_FLOOR = 1e-12

_BOUNDARY_FRACTION = 0.99
_TINY_B = 1e-300  # stands in for a measured B of exactly zero inside logs


@dataclass(frozen=True)
class NewtonStepRecord:
    """One visited iterate.

    The last iterate of a solve takes no step, so nothing there needs the
    Hessian but its decrement: it is stored as a zero-argument function,
    called on the first read of ``decrement`` and replaced by its value.
    """

    grad_norm: float
    decrement_or_deferred: float | Callable[[], float]
    step_norm: float
    accepted: bool

    @property
    def decrement(self) -> float:
        value = self.decrement_or_deferred
        if callable(value):
            value = value()
            object.__setattr__(self, "decrement_or_deferred", value)
        return value


@dataclass
class NewtonTrace:
    """Records for every visited iterate, the warm start included."""

    steps: list[NewtonStepRecord] = field(default_factory=list)
    iterations_used: int = 0


@dataclass(frozen=True)
class InnerSolve:
    """The solve's last iterate: its evaluation, gradient and acceptance
    test."""

    point: PointEvaluation
    trace: NewtonTrace
    accepted: bool
    grad: np.ndarray
    x_plus: np.ndarray | None
    b_value: float


def _solve_spd(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H^{-1} g through a Cholesky factorization, with a one-shot diagonal
    lift on failure; the objective is strongly convex, so failures indicate
    conditioning rather than modeling."""
    try:
        try:
            return cho_solve(cho_factor(H), g)
        except LinAlgError:
            lift = 1e-12 * (1.0 + float(np.trace(H)) / H.shape[0])
            logger.warning("SPD factorization failed; retrying with lift %.3e", lift)
            return cho_solve(cho_factor(H + lift * np.eye(H.shape[0])), g)
    except LinAlgError as exc:
        raise FactorizationError("subproblem Hessian is not numerically SPD") from exc
    except ValueError as exc:  # scipy's finiteness check
        raise FactorizationError("subproblem Hessian or gradient is not finite") from exc


def _clamped_step(ctx: SubproblemContext, s: np.ndarray, direction: np.ndarray) -> np.ndarray:
    psi = ctx.geometry.primal
    lower = getattr(psi, "lower", None)
    if lower is None:
        return s + direction
    up, down = direction > 0.0, direction < 0.0
    ratios = np.concatenate(
        ((psi.upper[up] - s[up]) / direction[up], (lower[down] - s[down]) / direction[down])
    )
    t_max = float(ratios.min()) if ratios.size else math.inf
    t = min(1.0, _BOUNDARY_FRACTION * t_max)
    return s + t * direction


class SpectralSystem:
    """Constraint-space Newton systems for a quadratic objective under the
    energy primal, built once per run from eigh(W) = Q diag(lam) Q^T.

    With w = 1/(lam + 1/sigma), B = A Q and D = diag(d) the penalty
    Hessian, the subproblem Hessian is
    H = Q (diag(1/w) + sigma B^T D B) Q^T, and Woodbury with
    E = diag(sqrt(sigma d)) gives

        H^{-1} g = Q (r - w * B^T E K^{-1} E B r),   r = w * Q^T g,

    where K = I + E G E and G = B diag(w) B^T.  K is m x m with eigenvalues
    at least 1 and holds no 1/(sigma d), so entries of d that underflow to 0
    need no special case.  G depends on sigma only and is kept for the last
    sigma seen.
    """

    def __init__(self, W: np.ndarray, A: np.ndarray):
        try:
            lam, self.Q = eigh(W)
        except LinAlgError as exc:
            raise FactorizationError("eigendecomposition of W did not converge") from exc
        # W is validated PSD; a negative rounding-level eigenvalue would
        # make w change sign at large sigma
        self.lam = np.maximum(lam, 0.0)
        self.B = A @ self.Q
        self._sigma = self._w = self._G = None

    @classmethod
    def for_run(
        cls, problem: ProblemSpec, geometry: BregmanGeometry
    ) -> "SpectralSystem | None":
        """The run's system, or None where the dense n x n path is used: a
        non-quadratic objective, a non-energy primal geometry, m >= n, or a
        penalty whose Hessian is not diagonal."""
        if (
            problem.f.variant != "quadratic"
            or geometry.primal.kind != "energy"
            or problem.m >= problem.n
            or not penalty_for(problem.g, geometry.dual).diagonal
        ):
            return None
        return cls(problem.f.W, problem.map.A)

    def _gram(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        if sigma != self._sigma:
            w = 1.0 / (self.lam + 1.0 / sigma)
            root = self.B * np.sqrt(w)
            self._w, self._G, self._sigma = w, root @ root.T, sigma
        return self._w, self._G

    def solve(self, sigma: float, d: np.ndarray, g: np.ndarray) -> np.ndarray:
        """H^{-1} g for H = W + I/sigma + sigma A^T diag(d) A."""
        w, G = self._gram(sigma)
        e = np.sqrt(sigma * d)
        K = G * e
        K *= e[:, None]
        diagonal = np.einsum("ii->i", K)  # a strided view: no index arrays
        diagonal += 1.0
        r = w * (self.Q.T @ g)
        z = e * _solve_spd(K, e * (self.B @ r))
        return self.Q @ (r - w * (self.B.T @ z))


def _newton_direction(
    system: SpectralSystem | None,
    sigma: float,
    penalty: DualPenalty,
    u: np.ndarray,
    g: np.ndarray,
    hess: Callable[[], np.ndarray],
) -> np.ndarray:
    """-H^{-1} g at a point with dual argument u and gradient g.

    The run's spectral system, when it has one, solves in constraint space;
    otherwise ``hess()`` assembles the n x n Hessian.
    """
    if system is None:
        return -_solve_spd(hess(), g)
    return -system.solve(sigma, penalty.hess_diag_or_none(u), g)


def _step_at(ctx: SubproblemContext, point: PointEvaluation, g: np.ndarray) -> np.ndarray:
    """The Newton direction at an evaluated iterate with gradient g."""
    return _newton_direction(
        ctx.system, ctx.sigma, ctx.penalty, point.u, g, partial(ctx.hess, point)
    )


def _decrement(g: np.ndarray, d: np.ndarray, scale: float) -> float:
    return scale * math.sqrt(max(float(-g @ d), 0.0))


def _deferred_decrement(
    ctx: SubproblemContext, s: np.ndarray, g: np.ndarray, scale: float
) -> Callable[[], float]:
    """The decrement at a solve's last iterate s, as a function computing it.
    It keeps the gradient g at s and arrays the outer record holds, not the
    context, its anchor gradients or the point's evaluation; a call
    recomputes u, the solve's own sum, bit for bit."""
    problem, penalty, geometry, system = ctx.problem, ctx.penalty, ctx.geometry, ctx.system
    sigma, y_anchor = ctx.sigma, ctx.y_anchor

    def decrement() -> float:
        u = geometry.dual.grad(y_anchor) + sigma * problem.map.residual(s)
        hess = partial(subproblem_hess, problem, penalty, geometry, sigma, s, u)
        return _decrement(g, _newton_direction(system, sigma, penalty, u, g, hess), scale)

    return decrement


def newton_step(ctx: SubproblemContext, s) -> np.ndarray:
    """One pure Newton step on the subproblem objective from s."""
    point = ctx.evaluate(s)
    return _clamped_step(ctx, point.s, _step_at(ctx, point, ctx.grad(point)))


def newton_decrement(ctx: SubproblemContext, s, modulus: float) -> float:
    """modulus * sqrt(<grad, hess^{-1} grad>) at s."""
    if modulus <= 0.0:
        raise InvalidRegimeError("decrement modulus must be positive")
    point = ctx.evaluate(s)
    g = ctx.grad(point)
    return _decrement(g, _step_at(ctx, point, g), modulus)


def solve_subproblem(ctx: SubproblemContext, cap: int, modulus: float | None = None) -> InnerSolve:
    """Iterate Newton steps from the warm start ``ctx.start`` until the
    relative acceptance test passes.

    The test also runs at the warm start, so a near-optimal anchor needs no
    step at all.  Hitting the cap is reported, not raised.  Each new iterate
    is evaluated once, and its evaluation serves the gradient, the acceptance
    test and the Newton system.
    """
    scale = modulus if modulus and modulus > 0.0 else 1.0
    cap = max(cap, 0)
    point = ctx.start
    trace = NewtonTrace()
    step_norm = 0.0

    for t in range(cap + 1):
        g = ctx.grad(point)
        grad_norm = float(np.linalg.norm(g))
        check = ctx.acceptance_check(point, g)
        accepted = check.accepted or grad_norm <= GRAD_FLOOR
        trace.iterations_used = t
        if accepted or t == cap:
            trace.steps.append(
                NewtonStepRecord(
                    grad_norm, _deferred_decrement(ctx, point.s, g, scale), step_norm, accepted
                )
            )
            return InnerSolve(point, trace, accepted, g, check.x_plus, check.b_value)
        d = _step_at(ctx, point, g)
        trace.steps.append(NewtonStepRecord(grad_norm, _decrement(g, d, scale), step_norm, False))
        s_next = _clamped_step(ctx, point.s, d)
        step_norm = float(np.linalg.norm(s_next - point.s))
        point = ctx.evaluate(s_next)


def _ceil_log2(x: float) -> int:
    if x <= 0.0:
        return 0
    return max(0, math.ceil(math.log2(x)))


# Sufficient pure-Newton step counts from the complexity propositions.  All
# three are double logarithms; a nonpositive inner logarithm means the test is
# satisfiable immediately and the count clamps to 0.
def qsc_steps(rho: float, m_k: float, b_value: float) -> int:
    if m_k == 0.0:
        return 1  # the subproblem is an exact quadratic: one step solves it
    b = max(b_value, _TINY_B)
    # the contraction chain gives theta^(2^T) <= c_k sqrt(2 rho B) / sigma
    # with c_k = 2 m_k exp(-1) sigma; the count is zero exactly when the
    # warm start already passes the relative test
    inner = math.log(
        1.0 / (2.0 * m_k * math.exp(-1.0) * math.sqrt(2.0 * rho) * math.sqrt(b))
    )
    return _ceil_log2(inner)


def lipschitz_steps(rho: float, l_k: float, sigma: float) -> int:
    inner = (
        math.log(math.sqrt(2.0) * l_k * sigma + math.sqrt(rho))
        - math.log(math.sqrt(rho))
        + 1.0
    )
    return _ceil_log2(inner)


def sc_steps(
    rho: float, m_k: float, b_value: float, sigma: float, m_psi: float, c_sigma: float
) -> int:
    b = max(b_value, _TINY_B)
    inner = (
        math.log(sigma / m_k * math.sqrt(c_sigma + 1.0 / sigma))
        + max(0.5 * math.log(1.0 / (2.0 * rho * b)), math.log(3.0 * m_psi))
    ) / math.log(2.0)
    return _ceil_log2(inner)


def _qsc_modulus(ctx: SubproblemContext) -> float | None:
    m = max(
        ctx.sigma * ctx.penalty.qsc_modulus * ctx.problem.map.op_norm_bound,
        ctx.problem.f.qsc_modulus,
    )
    return m if m > 0.0 else None


def _sc_bound(m_f: float, m_psi: float, sigma: float) -> float:
    """The subproblem's self-concordance modulus max(m_f, sqrt(sigma) m_psi)."""
    return max(m_f, math.sqrt(sigma) * m_psi)


def _sc_modulus(ctx: SubproblemContext) -> float | None:
    m_psi = ctx.geometry.primal.sc_modulus
    m_f = ctx.problem.f.sc_modulus
    if m_psi is None or m_f is None:
        return None
    m = _sc_bound(m_f, m_psi, ctx.sigma)
    return m if m > 0.0 else None


def _qsc_admissibility(problem, penalty, geometry, anchor) -> Callable[[float, np.ndarray], bool]:
    """The per-anchor step-size test of a trial sigma, given the trial's
    multiplier candidate P'(u) at the anchor."""
    A = problem.map.A
    grad_f = anchor.grad_f
    m_f = problem.f.qsc_modulus
    alpha = penalty.qsc_modulus
    norm_a = problem.map.op_norm_bound

    def admissible(sigma: float, y_plus: np.ndarray) -> bool:
        g_k = float(np.linalg.norm(grad_f + A.T @ y_plus))
        bound = math.inf
        if g_k * m_f > 0.0:
            bound = 1.0 / (2.0 * g_k * m_f)
        pull = 2.0 * g_k * alpha * norm_a
        if pull > 0.0:
            bound = min(bound, 1.0 / math.sqrt(pull))
        return sigma <= bound

    return admissible


def _sc_admissibility(problem, penalty, geometry, anchor) -> Callable[[float, np.ndarray], bool]:
    """Keep the warm start inside the quadratic convergence region of the
    local norm, sigma * 16 M^2 <gJ, hess_psi^{-1} gJ> < 1."""
    A = problem.map.A
    m_psi = geometry.primal.sc_modulus
    m_f_sc = problem.f.sc_modulus
    inv_hess = 1.0 / geometry.primal.hess_diag(anchor.x)
    base = anchor.grad_f + A.T @ anchor.y
    pull = A.T @ anchor.residual

    def admissible(sigma: float, y_plus: np.ndarray) -> bool:
        m_k = _sc_bound(m_f_sc, m_psi, sigma)
        g_j = base + sigma * pull
        quad = float(g_j @ (inv_hess * g_j))
        return 16.0 * m_k * m_k * quad * sigma < 1.0

    return admissible


def _qsc_count(ctx: SubproblemContext, b_value: float) -> int | None:
    if not ctx.penalty.smooth:
        return None  # a kinked penalty carries no C^3 certificate
    return qsc_steps(ctx.rho, _qsc_modulus(ctx) or 0.0, b_value)


def _lipschitz_count(ctx: SubproblemContext, b_value: float) -> int | None:
    beta = ctx.penalty.lipschitz_modulus
    l_f = ctx.problem.f.lipschitz_modulus
    if beta is None or l_f is None:
        return None
    l_k = l_f + beta * ctx.sigma * ctx.problem.map.op_norm_bound**2 + 1.0 / ctx.sigma
    return lipschitz_steps(ctx.rho, l_k, ctx.sigma)


def _sc_count(ctx: SubproblemContext, b_value: float) -> int | None:
    m_k = _sc_modulus(ctx)
    m_psi = ctx.geometry.primal.sc_modulus
    # the curvature bound c_sigma is known for quadratic objectives only
    if m_k is None or not m_psi or ctx.problem.f.variant != "quadratic":
        return None
    c_sigma = ctx.sigma * ctx.problem.map.op_norm_bound**2 + ctx.problem.f.lipschitz_modulus
    return sc_steps(ctx.rho, m_k, b_value, ctx.sigma, m_psi, c_sigma)


def _sc_validate(problem: ProblemSpec, geometry: BregmanGeometry) -> None:
    if problem.g.variant != "zero" or geometry.dual.kind != "energy":
        raise InvalidRegimeError(
            "sc regime covers equality constraints with the Euclidean dual"
        )
    if not geometry.primal.sc_modulus:
        raise InvalidRegimeError(
            "sc regime needs a self-concordant primal geometry (box barrier)"
        )
    if problem.f.sc_modulus is None:
        raise InvalidRegimeError("sc regime needs an objective SC modulus")


@dataclass(frozen=True)
class Regime:
    """One complexity regime: ``modulus`` is the subproblem's generalized
    self-concordance modulus (None when zero or unknown), ``admissibility``
    builds from an `Anchor` the step-size test that puts the warm start inside
    Newton's quadratic region (called with a trial sigma and the trial's
    P'(u) at the anchor), ``predicted`` is the sufficient Newton count,
    and ``validate`` rejects the problems the regime does not cover."""

    modulus: Callable[[SubproblemContext], float | None]
    admissibility: Callable[..., Callable[[float, np.ndarray], bool]]
    _count: Callable[[SubproblemContext, float], int | None]
    validate: Callable[[ProblemSpec, BregmanGeometry], None] = lambda problem, geometry: None

    def predicted(self, ctx: SubproblemContext, b_value: float) -> int | None:
        """None where the regime gives no bound: rho = 0 or a modulus the
        problem does not carry."""
        if ctx.rho <= 0.0:
            return None
        return self._count(ctx, b_value)


REGIMES = {
    "qsc": Regime(_qsc_modulus, _qsc_admissibility, _qsc_count),
    "qsc_lipschitz": Regime(_qsc_modulus, _qsc_admissibility, _lipschitz_count),
    "sc": Regime(_sc_modulus, _sc_admissibility, _sc_count, _sc_validate),
}
