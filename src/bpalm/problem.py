"""Composite problem representation, Lagrangian, and KKT residuals.

A problem is ``min f(x) + g(Ax - b)`` with a smooth convex ``f``, a nonsmooth
convex ``g`` from a small catalog, and a dense affine map built from sparse
triplet input.  Termination quantities are natural-map residuals that vanish
exactly at saddle points, independent of the geometry the solver runs in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .exceptions import DimensionError, DomainError, ParseError, UnsupportedError
from .legendre import sigmoid, softmax, softmax_jacobian, softplus

__all__ = [
    "AffineMap",
    "SmoothObjective",
    "NonsmoothTerm",
    "ProblemSpec",
    "KKTResiduals",
    "lagrangian",
    "kkt_residuals",
    "dual_perturbation_value",
    "project_simplex",
]

# Slack for indicator-domain membership; multiplier iterates satisfy the dual
# constraints only up to roundoff (e.g. softmax sums to 1 +/- eps).
_DOMAIN_TOL = 1e-9


def spectral_norm_bound(M: np.ndarray) -> float:
    """Upper bound on the spectral norm via power iteration on M^T M."""
    if M.size == 0:
        return 0.0
    peak = float(np.max(np.abs(M)))
    if 2.0**500 < peak < math.inf:
        # M^T M would overflow; an exact power-of-two scale (at most 2**1023)
        # changes no digit
        scale = 2.0 ** (math.frexp(peak)[1] - 1)
        return scale * spectral_norm_bound(M / scale)
    G = M.T @ M
    n = G.shape[0]
    # deterministic start with a mild tilt so it is not orthogonal to the
    # leading eigenvector of structured matrices
    v = 1.0 + np.arange(n) / (7.0 * n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(500):
        w = G @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new = float(v @ (G @ v))
        if abs(new - lam) <= 1e-15 * max(1.0, abs(new)):
            lam = new
            break
        lam = new
    return math.sqrt(max(lam, 0.0)) * (1.0 + 1e-9)


def canonicalize_triplets(triplets, rows: int, cols: int) -> np.ndarray:
    """Dense matrix from (i, j, value) triplets; duplicates are summed."""
    M = np.zeros((rows, cols))
    try:
        for entry in triplets:
            i, j, v = entry
            i, j, v = int(i), int(j), float(v)
            if not (0 <= i < rows and 0 <= j < cols):
                raise DimensionError(
                    f"triplet index ({i}, {j}) out of range for {rows}x{cols}"
                )
            M[i, j] += v
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"triplets must be [i, j, value] lists: {exc}") from exc
    return M


@dataclass(frozen=True)
class AffineMap:
    """x -> Ax - b with a cached upper bound on ||A||."""

    A: np.ndarray
    b: np.ndarray
    op_norm_bound: float

    @classmethod
    def from_dense(cls, A, b) -> "AffineMap":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.size:
            raise DimensionError(f"A has {A.shape[0]} rows but b has length {b.size}")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise DomainError("affine map: A and b must be finite")
        A = A.copy()
        b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        return cls(A=A, b=b, op_norm_bound=spectral_norm_bound(A))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x - self.b


class SmoothObjective:
    """Smooth convex part of the composite objective.

    Either a (possibly box-constrained) convex quadratic or a callback triple
    of evaluators.  Carries the generalized self-concordance moduli the
    path-following rules consume: ``qsc_modulus`` always, ``lipschitz_modulus``
    and ``sc_modulus`` when available.
    """

    def __init__(
        self,
        variant: str,
        *,
        n: int,
        W: np.ndarray | None = None,
        c: np.ndarray | None = None,
        value_fn=None,
        grad_fn=None,
        hess_fn=None,
        qsc_modulus: float = 0.0,
        lipschitz_modulus: float | None = None,
        sc_modulus: float | None = None,
        box: tuple[np.ndarray, np.ndarray] | None = None,
        domain_predicate=None,
    ):
        self.variant = variant
        self.n = int(n)
        self.W = W
        self.c = c
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_fn = hess_fn
        self.qsc_modulus = float(qsc_modulus)
        self.lipschitz_modulus = lipschitz_modulus
        self.sc_modulus = sc_modulus
        self.box = box
        self.domain_predicate = domain_predicate

    @classmethod
    def quadratic(cls, W, c, *, box=None) -> "SmoothObjective":
        """f(x) = x'Wx/2 + c'x, optionally plus the indicator of a closed box."""
        c = np.atleast_1d(np.asarray(c, dtype=float)).copy()
        W = np.atleast_2d(np.asarray(W, dtype=float)).copy()
        if W.shape != (c.size, c.size):
            raise DimensionError(f"W shape {W.shape} does not match c length {c.size}")
        if not (np.isfinite(W).all() and np.isfinite(c).all()):
            raise DomainError("quadratic objective: W and c must be finite")
        if not np.allclose(W, W.T, atol=1e-12):
            raise DomainError("quadratic objective requires symmetric W")
        W = 0.5 * W + 0.5 * W.T  # halving first cannot overflow
        if box is not None:
            lo = np.atleast_1d(np.asarray(box[0], dtype=float)).copy()
            hi = np.atleast_1d(np.asarray(box[1], dtype=float)).copy()
            if lo.size != c.size or hi.size != c.size:
                raise DimensionError("box bounds must match the variable dimension")
            box = (lo, hi)
        W.flags.writeable = False
        c.flags.writeable = False
        return cls(
            "quadratic",
            n=c.size,
            W=W,
            c=c,
            qsc_modulus=0.0,
            lipschitz_modulus=spectral_norm_bound(W),
            sc_modulus=0.0,
            box=box,
        )

    @classmethod
    def from_callbacks(
        cls,
        n: int,
        value_fn,
        grad_fn,
        hess_fn,
        *,
        qsc_modulus: float,
        lipschitz_modulus: float | None = None,
        sc_modulus: float | None = None,
        domain_predicate=None,
    ) -> "SmoothObjective":
        return cls(
            "callback",
            n=n,
            value_fn=value_fn,
            grad_fn=grad_fn,
            hess_fn=hess_fn,
            qsc_modulus=qsc_modulus,
            lipschitz_modulus=lipschitz_modulus,
            sc_modulus=sc_modulus,
            domain_predicate=domain_predicate,
        )

    @classmethod
    def named(cls, name: str, n: int) -> "SmoothObjective":
        """Smooth convex test objectives with known moduli."""
        if name == "sumexp":
            return cls.from_callbacks(
                n,
                lambda x: float(np.sum(np.exp(x))),
                lambda x: np.exp(x),
                lambda x: np.diag(np.exp(x)),
                qsc_modulus=1.0,
            )
        if name == "logsumexp":
            return cls.from_callbacks(
                n,
                lambda x: float(np.logaddexp.reduce(x)),
                softmax,
                softmax_jacobian,
                qsc_modulus=2.0,
                lipschitz_modulus=1.0,
            )
        if name == "logistic":
            return cls.from_callbacks(
                n,
                lambda x: float(np.sum(softplus(x))),
                sigmoid,
                lambda x: np.diag(sigmoid(x) * (1.0 - sigmoid(x))),
                qsc_modulus=1.0,
                lipschitz_modulus=0.25,
            )
        raise UnsupportedError(f"unknown named objective {name!r}")

    # The gradient of a box-constrained quadratic extends continuously to the
    # closed box, so domain checks accept the closure; golden solutions sit on
    # active bounds and must remain evaluable.
    def _check_domain(self, x: np.ndarray, tol: float = _DOMAIN_TOL) -> None:
        if self.box is not None:
            lo, hi = self.box
            if np.any(x < lo - tol) or np.any(x > hi + tol):
                raise DomainError("point outside the objective's box domain")
        if self.domain_predicate is not None and not self.domain_predicate(x):
            raise DomainError("point rejected by the objective's domain predicate")

    def in_domain(self, x: np.ndarray) -> bool:
        try:
            self._check_domain(x)
        except DomainError:
            return False
        return True

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            return math.inf
        if self.variant == "quadratic":
            return 0.5 * float(x @ (self.W @ x)) + float(self.c @ x)
        return float(self._value_fn(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        if self.variant == "quadratic":
            return self.W @ x + self.c
        return np.asarray(self._grad_fn(x), dtype=float)

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        if self.variant == "quadratic":
            return self.W
        return np.asarray(self._hess_fn(x), dtype=float)


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, y.size + 1)
    mask = u - css / ks > 0
    k = ks[mask][-1]
    tau = css[mask][-1] / k
    return np.maximum(y - tau, 0.0)


@dataclass(frozen=True)
class NonsmoothTerm:
    """Catalog entry for g; the variant pins g and its conjugate exactly."""

    variant: str  # zero | orthant | vecmax | one_norm

    _VARIANTS = ("zero", "orthant", "vecmax", "one_norm")

    def __post_init__(self):
        if self.variant not in self._VARIANTS:
            raise UnsupportedError(f"unknown nonsmooth variant {self.variant!r}")

    @classmethod
    def zero_indicator(cls) -> "NonsmoothTerm":
        return cls("zero")

    @classmethod
    def nonneg_orthant_indicator(cls) -> "NonsmoothTerm":
        return cls("orthant")

    @classmethod
    def vecmax(cls) -> "NonsmoothTerm":
        return cls("vecmax")

    @classmethod
    def one_norm(cls) -> "NonsmoothTerm":
        return cls("one_norm")

    def value(self, w: np.ndarray, tol: float = _DOMAIN_TOL) -> float:
        w = np.asarray(w, dtype=float)
        if self.variant == "zero":
            return 0.0 if np.all(np.abs(w) <= tol) else math.inf
        if self.variant == "orthant":
            return 0.0 if np.all(w <= tol) else math.inf
        if self.variant == "vecmax":
            return float(np.max(w))
        return float(np.sum(np.abs(w)))

    def conj_value(self, y: np.ndarray, tol: float = _DOMAIN_TOL) -> float:
        y = np.asarray(y, dtype=float)
        if self.variant == "zero":
            return 0.0
        if self.variant == "orthant":
            return 0.0 if np.all(y >= -tol) else math.inf
        if self.variant == "vecmax":
            on_simplex = np.all(y >= -tol) and abs(float(y.sum()) - 1.0) <= tol
            return 0.0 if on_simplex else math.inf
        return 0.0 if np.all(np.abs(y) <= 1.0 + tol) else math.inf


@dataclass(frozen=True)
class ProblemSpec:
    """min f(x) + g(Ax - b)."""

    f: SmoothObjective
    g: NonsmoothTerm
    map: AffineMap

    def __post_init__(self):
        if self.f.n != self.map.n:
            raise DimensionError(
                f"objective dimension {self.f.n} does not match map columns {self.map.n}"
            )

    @property
    def n(self) -> int:
        return self.map.n

    @property
    def m(self) -> int:
        return self.map.m


@dataclass(frozen=True)
class KKTResiduals:
    dual_res: float
    primal_res: float
    compl_res: float

    def max_residual(self) -> float:
        return max(self.dual_res, self.primal_res, self.compl_res)


def lagrangian(ps: ProblemSpec, x, y) -> float:
    """L(x, y) = f(x) + <Ax - b, y> - g*(y), extended-real valued."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = ps.f.value(x)
    if fx == math.inf:
        return math.inf
    gstar = ps.g.conj_value(y)
    if gstar == math.inf:
        return -math.inf
    return fx + float(ps.map.residual(x) @ y) - gstar


def kkt_residuals(ps: ProblemSpec, x, y) -> KKTResiduals:
    """Natural-map optimality residuals; all vanish exactly at saddle points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size != ps.m:
        raise DimensionError(f"multiplier length {y.size}, expected {ps.m}")
    grad_f = ps.f.grad(x)  # raises DomainError off the objective's domain
    stat = grad_f + ps.map.A.T @ y
    if ps.f.box is not None:
        lo, hi = ps.f.box
        dual = float(np.linalg.norm(x - np.clip(x - stat, lo, hi)))
    else:
        dual = float(np.linalg.norm(stat))

    r = ps.map.residual(x)
    if ps.g.variant == "zero":
        primal = float(np.linalg.norm(r))
        compl = 0.0
    elif ps.g.variant == "orthant":
        primal = float(np.linalg.norm(np.maximum(r, 0.0)))
        compl = abs(float(y @ r))
    elif ps.g.variant == "vecmax":
        simplex_dist = float(np.linalg.norm(y - project_simplex(y)))
        gap = max(float(np.max(r)) - float(y @ r), 0.0)
        primal = simplex_dist + gap
        compl = 0.0
    else:  # one_norm
        primal = float(np.linalg.norm(y - np.clip(y + r, -1.0, 1.0)))
        compl = 0.0
    return KKTResiduals(dual_res=dual, primal_res=primal, compl_res=compl)


def dual_perturbation_value(ps: ProblemSpec, v, y) -> float:
    """Value of the dual perturbation function f*(v - A'y) + <b, y> + g*(y).

    Only available when f* has a closed form, i.e. for an unconstrained
    quadratic objective with positive-definite curvature.
    """
    if ps.f.variant != "quadratic" or ps.f.box is not None:
        raise UnsupportedError("conjugate objective available only for plain quadratics")
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    gstar = ps.g.conj_value(y)
    if gstar == math.inf:
        return math.inf
    z = v - ps.map.A.T @ y - ps.f.c
    try:
        factor = cho_factor(ps.f.W)
    except LinAlgError as exc:
        raise UnsupportedError("conjugate objective requires positive-definite W") from exc
    fstar = 0.5 * float(z @ cho_solve(factor, z))
    return fstar + float(ps.map.b @ y) + gstar
