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
from scipy.linalg import LinAlgError, eigh, get_lapack_funcs

from .auglag import PointEvaluation, SubproblemContext, subproblem_hess
from .exceptions import FactorizationError, InvalidRegimeError
from .legendre import BregmanGeometry
from .penalty import DualPenalty, penalty_for
from .problem import AffineMap, ProblemSpec, SmoothObjective

__all__ = [
    "NewtonStepRecord",
    "NewtonTrace",
    "InnerSolve",
    "SpectralSystem",
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


@dataclass(frozen=True, slots=True)
class NewtonStepRecord:
    """One visited iterate.

    The last iterate of a solve takes no step, so nothing there needs the
    Hessian but its decrement, which is left as None here:
    `InnerSolve.decrement` computes it on request.
    """

    grad_norm: float
    decrement: float | None


@dataclass
class NewtonTrace:
    """Records for every visited iterate, the warm start included."""

    steps: list[NewtonStepRecord] = field(default_factory=list)

    @property
    def iterations_used(self) -> int:
        """Newton steps taken: every record but the warm start's."""
        return len(self.steps) - 1


@dataclass(frozen=True)
class InnerSolve:
    """The solve's last iterate: its evaluation, gradient and acceptance
    test, and its Newton decrement as a function that computes it."""

    point: PointEvaluation
    trace: NewtonTrace
    accepted: bool
    grad: np.ndarray
    x_plus: np.ndarray
    b_value: float
    decrement: Callable[[], float]


# scipy's cho_factor and cho_solve without their per-call argument handling:
# the same LAPACK calls on the same arrays, so the same bits
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def cho_factor(a: np.ndarray) -> np.ndarray:
    """The upper Cholesky factor of a, whose lower triangle is a's.

    A Fortran-ordered a, potrf's own order, is factored in place and
    returned, also when potrf fails partway, so the caller gives a up; any
    other a is factored in a Fortran copy, as scipy's cho_factor does."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    c, info = _potrf(a, lower=False, clean=False, overwrite_a=True)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, for c = cho_factor(a)."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    return _potrs(c, b, lower=False)[0]


def _solve_spd(assemble: Callable[[], np.ndarray], g: np.ndarray) -> np.ndarray:
    """H^{-1} g for H = assemble() through a Cholesky factorization, with a
    one-shot diagonal lift on failure; the objective is strongly convex, so
    failures indicate conditioning rather than modeling.

    The factorization may overwrite the matrix it is given, so each call of
    ``assemble`` returns a new one: the lift retry assembles H again."""
    try:
        try:
            return cho_solve(cho_factor(assemble()), g)
        except LinAlgError:
            H = assemble()
            lift = 1e-12 * (1.0 + float(np.trace(H)) / H.shape[0])
            logger.warning("SPD factorization failed; retrying with lift %.3e", lift)
            return cho_solve(cho_factor(H + lift * np.eye(H.shape[0])), g)
    except LinAlgError as exc:
        raise FactorizationError("subproblem Hessian is not numerically SPD") from exc
    except ValueError as exc:  # the finiteness checks
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
    """A quadratic objective under the energy primal in the eigenbasis of W,
    eigh(W) = Q diag(lam) Q^T, and its constraint-space Newton systems, built
    once per run.

    ``problem`` is the run's problem in the coordinates x~ = Q^T x:
    f(x~) = x~^T diag(lam) x~ / 2 + (Q^T c)^T x~ and the map x~ -> B x~ - b
    with B = A Q, under A's own norm bound.  The energy distances, the
    penalties and the 2-norms of gradients and KKT residuals are invariant
    under the orthogonal change, so `run` solves it instead, and no n x n
    product is left in the outer loop.

    With w = 1/(lam + 1/sigma) and D = diag(d) the penalty Hessian, the
    subproblem Hessian there is H = diag(1/w) + sigma B^T D B, and Woodbury
    with E = diag(sqrt(sigma d)) gives

        H^{-1} g = r - w * B^T E K^{-1} E B r,   r = w * g,

    where K = I + E G E and G = B diag(w) B^T.  K is m x m with eigenvalues
    at least 1 and holds no 1/(sigma d), so entries of d that underflow to 0
    need no special case.  G depends on sigma only.  The rule for sigma
    moves between neighbouring powers of two, so (w, G) is kept for the two
    most recently used sigmas; the older is dropped before a third is built,
    so no more than two G's are ever held.
    """

    def __init__(self, problem: ProblemSpec):
        f, affine = problem.f, problem.map
        try:
            lam, self.Q = eigh(f.W)
        except LinAlgError as exc:
            raise FactorizationError("eigendecomposition of W did not converge") from exc
        # W is validated PSD; a negative rounding-level eigenvalue would
        # make w change sign at large sigma
        self.lam = np.maximum(lam, 0.0)
        self.B = affine.A @ self.Q
        for array in (self.Q, self.lam, self.B):
            array.flags.writeable = False
        lam, qc = self.lam, self.Q.T @ f.c
        rotated = SmoothObjective(
            lambda x: 0.5 * np.vecdot(x, lam * x) + np.vecdot(qc, x),
            lambda x: lam * x + qc,
            lambda x: np.diag(lam),
            f.qsc_modulus,
            f.lipschitz_modulus,
            n=f.n,
        )
        self.problem = ProblemSpec(
            rotated, problem.g, AffineMap(self.B, affine.b, affine.op_norm_bound)
        )
        self._grams: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def for_run(
        cls, problem: ProblemSpec, geometry: BregmanGeometry
    ) -> "SpectralSystem | None":
        """The run's system, or None where the dense n x n path is used: a
        non-quadratic objective, a non-energy primal geometry, m >= n, or a
        penalty whose Hessian is not diagonal."""
        if (
            problem.f.W is None
            or geometry.primal.kind != "energy"
            or problem.m >= problem.n
            or not penalty_for(problem.g, geometry.dual).diagonal
        ):
            return None
        return cls(problem)

    def _gram(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        grams = self._grams
        if sigma in grams:
            grams[sigma] = grams.pop(sigma)  # now the most recently used
        else:
            self.keep_last()
            w = 1.0 / (self.lam + 1.0 / sigma)
            root = self.B * np.sqrt(w)
            grams[sigma] = w, root @ root.T
        return grams[sigma]

    def keep_last(self) -> None:
        """Drop every kept (w, G) but the most recently used sigma's."""
        grams = self._grams
        while len(grams) > 1:
            del grams[next(iter(grams))]

    def solve(self, sigma: float, d: np.ndarray, g: np.ndarray) -> np.ndarray:
        """H^{-1} g for H = diag(lam) + I/sigma + sigma B^T diag(d) B."""
        w, G = self._gram(sigma)
        e = np.sqrt(sigma * d)
        r = w * g
        z = e * _solve_spd(partial(_constraint_matrix, G, e), e * (self.B @ r))
        return r - w * (self.B.T @ z)


def _constraint_matrix(G: np.ndarray, e: np.ndarray) -> np.ndarray:
    """A new K = I + E G E, in potrf's Fortran order."""
    # Kt.T is K bit for bit (root @ root.T is a syrk)
    Kt = G * e[:, None]
    Kt *= e
    diagonal = np.einsum("ii->i", Kt)  # a strided view: no index arrays
    diagonal += 1.0
    return Kt.T


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
        return -_solve_spd(hess, g)
    return -system.solve(sigma, penalty.hess_diag_or_none(u), g)


def _decrement(g: np.ndarray, d: np.ndarray, scale: float) -> float:
    return scale * math.sqrt(max(float(-g @ d), 0.0))


def _deferred_decrement(
    ctx: SubproblemContext, s: np.ndarray, g: np.ndarray, scale: float
) -> Callable[[], float]:
    """The decrement at a solve's last iterate s, as a function computing it.
    It keeps the gradient g at s and arrays the outer iterate holds, not the
    context, its anchor gradients or the point's evaluation; a call
    recomputes u, the solve's own sum, bit for bit."""
    problem, penalty, geometry, system = ctx.problem, ctx.penalty, ctx.geometry, ctx.system
    sigma, y_anchor = ctx.sigma, ctx.anchor.y

    def decrement() -> float:
        u = geometry.dual.grad(y_anchor) + sigma * problem.map.residual(s)
        hess = partial(subproblem_hess, problem, penalty, geometry, sigma, s, u)
        return _decrement(g, _newton_direction(system, sigma, penalty, u, g, hess), scale)

    return decrement


def solve_subproblem(ctx: SubproblemContext, cap: int, modulus: float = 0.0) -> InnerSolve:
    """Iterate Newton steps from the warm start ``ctx.start`` until the
    relative acceptance test passes.

    The test also runs at the warm start, so a near-optimal anchor needs no
    step at all.  Hitting the cap is reported, not raised.  Each new iterate
    is evaluated once, and its evaluation serves the gradient, the acceptance
    test and the Newton system.
    """
    scale = modulus or 1.0
    point, g = ctx.start, ctx.start_grad
    trace = NewtonTrace()

    for t in range(cap + 1):
        grad_norm = float(np.linalg.norm(g))
        floor = grad_norm <= GRAD_FLOOR
        check = ctx.acceptance_check(point, g, exact=floor or t == cap)
        accepted = check.accepted or floor
        if accepted or t == cap:
            trace.steps.append(NewtonStepRecord(grad_norm, None))
            decrement = _deferred_decrement(ctx, point.s, g, scale)
            return InnerSolve(point, trace, accepted, g, check.x_plus, check.b_value, decrement)
        hess = partial(ctx.hess, point)
        d = _newton_direction(ctx.system, ctx.sigma, ctx.penalty, point.u, g, hess)
        trace.steps.append(NewtonStepRecord(grad_norm, _decrement(g, d, scale)))
        point = ctx.evaluate(_clamped_step(ctx, point.s, d))
        g = ctx.grad(point)


def _ceil_log2(x: float) -> int:
    if x <= 0.0:
        return 0
    return max(0, math.ceil(math.log2(x)))


# Sufficient pure-Newton step counts from the complexity propositions.  All
# three are double logarithms.  _ceil_log2 maps every inner logarithm at most
# 1, not only a nonpositive one, to 0 steps, since ceil(log2(x)) <= 0 on
# (0, 1].  An inner logarithm just below 1 thus predicts 0 steps for a warm
# start that can still fail the relative test: ROADMAP item 2, pinned by the
# two strict xfails of TestPredictedCounts in tests/test_newton.py (qsc inner
# logarithms 0.968 and 0.937, one step used).
def qsc_steps(rho: float, m_k: float, b_value: float) -> int:
    if m_k == 0.0:
        return 1  # the subproblem is an exact quadratic: one step solves it
    b = max(b_value, _TINY_B)
    # the contraction chain gives theta^(2^T) <= c_k sqrt(2 rho B) / sigma
    # with c_k = 2 m_k exp(-1) sigma; the count is zero wherever the inner
    # logarithm is at most 1 (see above)
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


def _qsc_modulus(ctx: SubproblemContext) -> float:
    return max(
        ctx.sigma * ctx.penalty.qsc_modulus * ctx.problem.map.op_norm_bound,
        ctx.problem.f.qsc_modulus,
    )


def _sc_modulus(ctx: SubproblemContext) -> float:
    """The subproblem's self-concordance modulus max(M_f, sqrt(sigma) M_psi),
    with M_f = 0: sc runs only boxed quadratics, whose third derivative is 0."""
    return math.sqrt(ctx.sigma) * ctx.geometry.primal.sc_modulus


def _qsc_admissible(ctx: SubproblemContext) -> bool:
    """sigma <= min(1 / (2 g M_f), 1 / sqrt(2 g alpha ||A||)) for g the norm
    of the subproblem gradient at the warm start, grad f(x) + A^T P'(u)."""
    g_k = float(np.linalg.norm(ctx.start_grad))
    bound = math.inf
    if g_k * ctx.problem.f.qsc_modulus > 0.0:
        bound = 1.0 / (2.0 * g_k * ctx.problem.f.qsc_modulus)
    pull = 2.0 * g_k * ctx.penalty.qsc_modulus * ctx.problem.map.op_norm_bound
    if pull > 0.0:
        bound = min(bound, 1.0 / math.sqrt(pull))
    return ctx.sigma <= bound


def _sc_admissible(ctx: SubproblemContext) -> bool:
    """Keep the warm start inside the quadratic convergence region of the
    local norm, 16 M^2 sigma <g, psi''(x)^{-1} g> < 1, for g the subproblem
    gradient at the warm start, grad f(x) + A^T (y + sigma r) under sc's
    equality constraints and energy dual."""
    m_k, g = _sc_modulus(ctx), ctx.start_grad
    quad = float(g @ (g / ctx.anchor.hess_psi))
    return 16.0 * m_k * m_k * quad * ctx.sigma < 1.0


def _qsc_count(ctx: SubproblemContext, b_value: float) -> int | None:
    if not ctx.penalty.smooth:
        return None  # a kinked penalty carries no C^3 certificate
    return qsc_steps(ctx.rho, _qsc_modulus(ctx), b_value)


def _lipschitz_count(ctx: SubproblemContext, b_value: float) -> int | None:
    beta = ctx.penalty.lipschitz_modulus
    l_f = ctx.problem.f.lipschitz_modulus
    if beta is None or l_f is None:
        return None
    l_k = l_f + beta * ctx.sigma * ctx.problem.map.op_norm_bound**2 + 1.0 / ctx.sigma
    return lipschitz_steps(ctx.rho, l_k, ctx.sigma)


def _sc_count(ctx: SubproblemContext, b_value: float) -> int:
    sigma, m_psi = ctx.sigma, ctx.geometry.primal.sc_modulus
    c_sigma = sigma * ctx.problem.map.op_norm_bound**2 + ctx.problem.f.lipschitz_modulus
    return sc_steps(ctx.rho, _sc_modulus(ctx), b_value, sigma, m_psi, c_sigma)


def _sc_validate(problem: ProblemSpec, geometry: BregmanGeometry) -> None:
    if problem.g.variant != "zero" or geometry.dual.kind != "energy":
        raise InvalidRegimeError(
            "sc regime covers equality constraints with the Euclidean dual"
        )


@dataclass(frozen=True)
class Regime:
    """One complexity regime: ``modulus`` is the subproblem's generalized
    self-concordance modulus (0.0 for a quadratic subproblem), ``admissible`` is
    the step-size test that a sigma trial's subproblem passes when its warm
    start lies inside Newton's quadratic region, ``predicted`` is the
    sufficient Newton count, and ``validate`` rejects the problems the regime
    does not cover.  A regime runs the boxed objectives, under the box
    barrier, if ``barrier`` and the unboxed ones otherwise; `run` checks it."""

    modulus: Callable[[SubproblemContext], float]
    admissible: Callable[[SubproblemContext], bool]
    _count: Callable[[SubproblemContext, float], int | None]
    barrier: bool = False
    validate: Callable[[ProblemSpec, BregmanGeometry], None] = lambda problem, geometry: None

    def predicted(self, ctx: SubproblemContext, b_value: float) -> int | None:
        """None where the regime gives no bound: rho = 0 or a modulus the
        problem does not carry."""
        if ctx.rho <= 0.0:
            return None
        return self._count(ctx, b_value)


REGIMES = {
    "qsc": Regime(_qsc_modulus, _qsc_admissible, _qsc_count),
    "qsc_lipschitz": Regime(_qsc_modulus, _qsc_admissible, _lipschitz_count),
    "sc": Regime(_sc_modulus, _sc_admissible, _sc_count, barrier=True, validate=_sc_validate),
}
