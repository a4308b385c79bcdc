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
# scipy's LAPACK, which the Newton solves use too; numpy bundles a second copy
from scipy.linalg import eigvalsh, svdvals

from .exceptions import DimensionError, DomainError, ParseError, UnsupportedError
from .legendre import all_rows, positive_dimension, sigmoid, softmax, softmax_jacobian, softplus

__all__ = [
    "AffineMap",
    "SmoothObjective",
    "NonsmoothTerm",
    "ProblemSpec",
    "KKTResiduals",
    "lagrangian",
    "kkt_residuals",
    "project_simplex",
]

# Slack for indicator-domain membership; multiplier iterates satisfy the dual
# constraints only up to roundoff (e.g. softmax sums to 1 +/- eps).
_DOMAIN_TOL = 1e-9

# The semidefiniteness test refuses W when its smallest computed eigenvalue
# lies below -8 n eps ||W||_2, ||W||_2 at least the smallest normal (below it
# rounding is absolute).  The eigensolver errs by a modest multiple of
# n eps ||W||_2, so singular PSD matrices (zero, rank one) pass.
_PSD_SLACK = 8.0 * np.finfo(float).eps


def _rounding_margin(dim: int) -> float:
    """1 + 4 dim eps, for dim the larger dimension (see `spectral_norm_bound`)."""
    return 1.0 + 4.0 * dim * np.finfo(float).eps


def spectral_norm_bound(M: np.ndarray) -> float:
    """Upper bound on ||M||_2 from one SVD of M, which forms no Gram matrix
    and scales M internally, so that huge entries give a finite bound.

    A computed singular value s is within p eps ||M||_2 of the true one, p a
    modestly growing function of the dimensions (LAPACK Users' Guide, 4.9;
    4.7 for symmetric eigenvalues).  With p = max(m, n), ||M||_2 <= s / (1 -
    p eps) <= s (1 + 2 p eps), and the other 2 p eps of the margin 1 + 4 p eps
    cover the product's two roundings, whenever ||M||_2 is a normal number.
    """
    if M.size == 0:
        return 0.0
    return float(svdvals(M, check_finite=False)[0]) * _rounding_margin(max(M.shape))


def canonicalize_triplets(triplets, rows: int, cols: int) -> np.ndarray:
    """Dense matrix from (i, j, value) triplets with int indices and int or
    float values, never booleans; duplicates are summed in file order."""
    M = np.zeros(rows * cols)
    flat = memoryview(M)  # its stores skip numpy's scalar indexing
    try:
        for entry in triplets:
            i, j, v = entry
            typed = type(i) is int and type(j) is int and type(v) in (int, float)
            if typed and 0 <= i < rows and 0 <= j < cols:
                flat[i * cols + j] += float(v)
            elif not typed:
                raise ParseError(f"bad triplet {entry!r}: int indices and a number required")
            else:  # checked before indexing, so that j = -1 cannot wrap a row
                raise DimensionError(
                    f"triplet index ({i}, {j}) out of range for {rows}x{cols}"
                )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"triplets must be [i, j, value] lists: {exc}") from exc
    return M.reshape(rows, cols)


@dataclass(frozen=True)
class AffineMap:
    """x -> Ax - b; ``op_norm_bound`` is `spectral_norm_bound(A)`, which the
    step-size rules and the predicted Newton counts read."""

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
        """Ax - b, per row of x, one matrix-vector product each."""
        return np.matmul(self.A, np.asarray(x)[..., None])[..., 0] - self.b


# smooth convex test objectives with known moduli, in `SmoothObjective`'s
# argument order: name -> (value per row, gradient, Hessian, qsc modulus,
# Lipschitz modulus or None)
_NAMED = {
    "sumexp": (
        lambda x: np.sum(np.exp(x), axis=-1), np.exp, lambda x: np.diag(np.exp(x)), 1.0, None
    ),
    "logsumexp": (lambda x: np.logaddexp.reduce(x, axis=-1), softmax, softmax_jacobian, 2.0, 1.0),
    "logistic": (
        lambda x: np.sum(softplus(x), axis=-1),
        sigmoid,
        lambda x: np.diag(sigmoid(x) * (1.0 - sigmoid(x))),
        1.0,
        0.25,
    ),
}


class SmoothObjective:
    """Smooth convex part of the composite objective: its value (per row of a
    stack of points), gradient and Hessian functions on R^n, and the
    generalized self-concordance moduli the path-following rules consume:
    ``qsc_modulus`` always, ``lipschitz_modulus`` when available (sc runs
    only boxed quadratics, with no third derivative).  A quadratic also keeps
    its read-only ``W`` and ``c``, and ``box``, the read-only bounds of a
    box-constrained one; ``W`` is None for any other objective.
    """

    def __init__(
        self,
        value_fn,
        grad_fn,
        hess_fn,
        qsc_modulus: float,
        lipschitz_modulus: float | None,
        *,
        n: int,
        W: np.ndarray | None = None,
        c: np.ndarray | None = None,
        box: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._hess_fn = hess_fn
        self.qsc_modulus = qsc_modulus
        self.lipschitz_modulus = lipschitz_modulus
        self.n = n
        self.W = W
        self.c = c
        self.box = box

    @classmethod
    def quadratic(cls, W, c, *, box=None) -> "SmoothObjective":
        """f(x) = x'Wx/2 + c'x, optionally plus the indicator of a closed box:
        two 1-D bounds of length n with l < u componentwise (infinite allowed).
        One eigenvalue pass over W gives the semidefiniteness test (see
        `_PSD_SLACK`) and the Lipschitz modulus: ||W||_2 with the rounding
        margin of `spectral_norm_bound`."""
        c = np.atleast_1d(np.asarray(c, dtype=float)).copy()
        W = np.atleast_2d(np.asarray(W, dtype=float)).copy()
        if W.shape != (c.size, c.size):
            raise DimensionError(f"W shape {W.shape} does not match c length {c.size}")
        if c.size == 0:
            raise DimensionError("quadratic objective: dimension must be positive, got 0")
        if not (np.isfinite(W).all() and np.isfinite(c).all()):
            raise DomainError("quadratic objective: W and c must be finite")
        # np.allclose(W, W.T, atol=1e-12) without its infinity handling
        if not (np.abs(W - W.T) <= 1e-5 * np.abs(W.T) + 1e-12).all():
            raise DomainError("quadratic objective requires symmetric W")
        W = 0.5 * W + 0.5 * W.T  # halving first cannot overflow
        n = c.size
        lam = eigvalsh(W, check_finite=False)  # ascending
        norm = max(float(lam[-1]), -float(lam[0]))
        if lam[0] < -n * _PSD_SLACK * max(norm, np.finfo(float).tiny):
            raise DomainError("quadratic objective requires positive semidefinite W")
        if box is not None:
            box = tuple(np.array(v, dtype=float) for v in box)
            if len(box) != 2 or any(v.shape != (n,) for v in box):
                raise DimensionError(f"box: expected two bounds, 1-D vectors of length {n}")
            if not np.all(box[0] < box[1]):  # also refuses NaN
                raise DomainError("box: bounds require l < u componentwise")
        for array in (W, c) + (box or ()):
            array.flags.writeable = False
        return cls(
            lambda x: 0.5 * np.vecdot(x, np.matmul(W, x[..., None])[..., 0]) + np.vecdot(c, x),
            lambda x: W @ x + c,
            lambda x: W,
            0.0,
            norm * _rounding_margin(n),
            n=n,
            W=W,
            c=c,
            box=box,
        )

    @classmethod
    def named(cls, name: str, n: int) -> "SmoothObjective":
        """The smooth convex test objective ``_NAMED[name]`` on R^n, n a
        positive int."""
        if name not in _NAMED:
            raise UnsupportedError(f"unknown named objective {name!r}")
        return cls(*_NAMED[name], n=positive_dimension(n, "named objective: dimension"))

    # The gradient of a box-constrained quadratic extends continuously to the
    # closed box, so domain checks accept the closure; golden solutions sit on
    # active bounds and must remain evaluable.  Stacks of points get one
    # answer per row.
    def in_domain(self, x: np.ndarray) -> bool:
        if self.box is None:
            return True
        lo, hi = self.box
        return all_rows(~((x < lo - _DOMAIN_TOL) | (x > hi + _DOMAIN_TOL)))

    def _check_domain(self, x: np.ndarray) -> None:
        if not self.in_domain(x):
            raise DomainError("point outside the objective's box domain")

    def value(self, x: np.ndarray) -> float:
        """f(x), one value per row for points x of shape (..., n)."""
        x = np.asarray(x, dtype=float)
        out = np.where(self.in_domain(x), self._value_fn(x), math.inf)
        return float(out) if out.ndim == 0 else out

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        return self._grad_fn(x)

    def hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._check_domain(x)
        return self._hess_fn(x)


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


# g's catalog: variant -> (membership test, per row within _DOMAIN_TOL, of the
# set C whose indicator is g*; the (primal, complementarity) residuals of a
# multiplier y at r = Ax - b)
_G_CATALOG = {
    "zero": (  # C = R^m
        lambda y: np.ones(y.shape[:-1], dtype=bool),
        lambda y, r: (float(np.linalg.norm(r)), 0.0),
    ),
    "orthant": (
        lambda y: all_rows(y >= -_DOMAIN_TOL),
        lambda y, r: (float(np.linalg.norm(np.maximum(r, 0.0))), abs(float(y @ r))),
    ),
    "vecmax": (  # C the probability simplex; the primal residual adds the gap max r - <y, r>
        lambda y: all_rows(y >= -_DOMAIN_TOL) & (np.abs(y.sum(axis=-1) - 1.0) <= _DOMAIN_TOL),
        lambda y, r: (
            float(np.linalg.norm(y - project_simplex(y)))
            + max(float(np.max(r)) - float(y @ r), 0.0),
            0.0,
        ),
    ),
    "one_norm": (  # C the l-infinity unit ball
        lambda y: all_rows(np.abs(y) <= 1.0 + _DOMAIN_TOL),
        lambda y, r: (float(np.linalg.norm(y - np.clip(y + r, -1.0, 1.0))), 0.0),
    ),
}


@dataclass(frozen=True)
class NonsmoothTerm:
    """Catalog entry for g: the variant, a key of `_G_CATALOG`, pins g and its
    conjugate exactly."""

    variant: str

    def __post_init__(self):
        if self.variant not in _G_CATALOG:
            raise UnsupportedError(f"unknown nonsmooth variant {self.variant!r}")

    @classmethod
    def zero_indicator(cls) -> "NonsmoothTerm":
        return cls("zero")

    @classmethod
    def nonneg_orthant_indicator(cls) -> "NonsmoothTerm":
        return cls("orthant")

    def conj_value(self, y: np.ndarray) -> float:
        """g*(y), an indicator: one value per row for y of shape (..., m)."""
        inside = _G_CATALOG[self.variant][0](np.asarray(y, dtype=float))
        out = np.where(inside, 0.0, math.inf)
        return float(out) if out.ndim == 0 else out


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
    """L(x, y) = f(x) + <Ax - b, y> - g*(y), extended-real valued: +inf off
    dom f, else -inf off dom g*.  Stacks x of shape (..., n) and y of shape
    (..., m) broadcast row by row and give one value per row."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1:] != (ps.n,) or y.shape[-1:] != (ps.m,):
        raise DimensionError(
            f"points of shape {x.shape} and multipliers of shape {y.shape}, expected "
            f"rows of length {ps.n} and {ps.m}"
        )
    fx = ps.f.value(x)
    gstar = ps.g.conj_value(y)
    with np.errstate(invalid="ignore"):  # inf - inf in rows the masks replace
        out = fx + np.vecdot(ps.map.residual(x), y) - gstar
    out = np.where(gstar == math.inf, -math.inf, out)
    out = np.where(fx == math.inf, math.inf, out)
    return float(out) if out.ndim == 0 else out


def kkt_residuals(ps: ProblemSpec, x, y, *, grad_f=None, residual=None) -> KKTResiduals:
    """Natural-map optimality residuals; all vanish exactly at saddle points.

    ``grad_f`` and ``residual``, when given, are grad f(x) and Ax - b as the
    caller has already evaluated them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != ps.n:
        raise DimensionError(f"point length {x.size}, expected {ps.n}")
    if y.size != ps.m:
        raise DimensionError(f"multiplier length {y.size}, expected {ps.m}")
    if grad_f is None:
        grad_f = ps.f.grad(x)  # raises DomainError off the objective's domain
    stat = grad_f + ps.map.A.T @ y
    if ps.f.box is not None:
        lo, hi = ps.f.box
        dual = float(np.linalg.norm(x - np.clip(x - stat, lo, hi)))
    else:
        dual = float(np.linalg.norm(stat))

    r = ps.map.residual(x) if residual is None else residual
    primal, compl = _G_CATALOG[ps.g.variant][1](y, r)
    return KKTResiduals(dual_res=dual, primal_res=primal, compl_res=compl)
