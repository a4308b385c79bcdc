"""Legendre distance-generating functions and the Bregman-distance calculus.

Every geometry in the catalog is separable, so gradients and Hessians are
computed coordinate-wise and Hessians are diagonal.  Values are extended-real:
``+inf`` outside the domain, never a large finite sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DimensionError, DomainError

__all__ = [
    "LegendreFunction",
    "BregmanGeometry",
    "energy",
    "von_neumann",
    "burg",
    "spence",
    "box_barrier",
    "product",
    "bregman_distance",
    "dual_bregman_distance",
    "dilog",
]

PI2_6 = math.pi**2 / 6.0

# Componentwise values closer to the boundary than this are treated as
# boundary points (gradient undefined).  The guard only has to keep 1/t and
# 1/t**2 finite; a larger margin would reject the tiny-but-positive dual
# iterates produced by multiplicative multiplier updates.
BOUNDARY_MARGIN = 1e-150


def _li2_coefficients(terms: int) -> np.ndarray:
    """B_2k / (2k+1)! for k = 1..terms, from the Bernoulli recurrence in
    exact rationals (B_1 = -1/2 convention)."""
    bern = [Fraction(1)]
    for n in range(1, 2 * terms + 1):
        bern.append(-sum(math.comb(n + 1, k) * bern[k] for k in range(n)) / (n + 1))
    return np.array([float(bern[2 * k] / math.factorial(2 * k + 1)) for k in range(1, terms + 1)])


# On [-1, 1/2] the series variable u = -ln(1 - x) has |u| <= ln 2, where the
# k-th term shrinks like (ln 2 / 2 pi)^(2k); after 10 terms the remainder is
# below 1e-22 relative.  Highest power first, for Horner's rule.
_LI2_COEFFS = _li2_coefficients(10)[::-1]


def _li2_series(x: np.ndarray) -> np.ndarray:
    """Li2(x) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! for x in [-1, 1/2]."""
    u = -np.log1p(-x)
    v = u * u
    poly = np.full_like(u, _LI2_COEFFS[0])
    for c in _LI2_COEFFS[1:]:
        poly = poly * v + c
    return u - 0.25 * v + u * v * poly


def dilog(x):
    """Real dilogarithm Li2(x) = sum_k x**k / k**2 for x <= 1, elementwise.

    The inversion identity maps x < -1 to 1/x and the reflection identity
    maps x > 1/2 to 1 - x; the Bernoulli series then covers [-1, 1/2] for
    all elements at once.  Scalars map to floats, arrays to arrays.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr > 1.0):
        raise DomainError(f"dilog defined for x <= 1, got max {np.max(arr)}")
    inverted = arr < -1.0
    reflected = arr > 0.5
    arg = np.where(reflected, 1.0 - arr, arr)
    arg = np.where(inverted, 1.0 / np.where(inverted, arr, -1.0), arg)
    li = _li2_series(arg)
    # ln(-x) on the inverted elements, ln x and ln(1 - x) on the reflected
    # ones, zero elsewhere (including x = 1, where ln x ln(1 - x) -> 0)
    log_x = np.log(np.where(inverted, -arr, np.where(reflected, arr, 1.0)))
    log_rest = np.log(np.where(reflected & (arr < 1.0), arg, 1.0))
    out = np.where(
        inverted,
        -PI2_6 - 0.5 * log_x * log_x - li,
        np.where(reflected, PI2_6 - log_x * log_rest - li, li),
    )
    return float(out) if out.ndim == 0 else out


def _excess_log(t: np.ndarray) -> np.ndarray:
    """t - log1p(t), series-evaluated near 0 to avoid cancellation."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-4
    ts = t[small]
    out[small] = ts * ts * (0.5 + ts * (-1.0 / 3.0 + ts * 0.25))
    tb = t[~small]
    out[~small] = tb - np.log1p(tb)
    return out


def _kl_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ln(a/b) - a + b componentwise, stable for a close to b; a >= 0, b > 0."""
    out = np.empty_like(b)
    zero = a <= 0.0
    out[zero] = b[zero]
    az, bz = a[~zero], b[~zero]
    r = (az - bz) / bz
    small = np.abs(r) < 1e-4
    rs = r[small]
    # b h(r) with h(r) = (1+r) log1p(r) - r = r^2/2 - r^3/6 + r^4/12 - ...
    h = np.empty_like(r)
    h[small] = rs * rs * (0.5 + rs * (-1.0 / 6.0 + rs / 12.0))
    # far from the cancellation zone the raw form is exact; log differences
    # keep it finite for denormal ratios
    ab, bb = az[~small], bz[~small]
    h[~small] = (ab * (np.log(ab) - np.log(bb)) - ab + bb) / bb
    out[~zero] = bz * h
    return out


def softplus(t: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, t)


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Derivative of softplus, through tanh so it never overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def softmax(t: np.ndarray) -> np.ndarray:
    e = np.exp(t - np.max(t))
    return e / e.sum()


def softmax_jacobian(t: np.ndarray) -> np.ndarray:
    """diag(s) - s s^T with s = softmax(t), the Hessian of log-sum-exp."""
    s = softmax(t)
    return np.diag(s) - np.outer(s, s)


def softplus_antiderivative(t):
    """-Li2(-exp(t)), the integral of softplus over (-inf, t], elementwise.

    For positive t the inversion identity folds in, so the series argument
    stays in [-1, 0).
    """
    t = np.asarray(t, dtype=float)
    li = dilog(-np.exp(-np.abs(t)))
    return np.where(t > 0.0, PI2_6 + 0.5 * t * t + li, -li)


def _as_vector(z, dim: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1 or z.size != dim:
        raise DimensionError(f"expected vector of length {dim}, got shape {z.shape}")
    return z


class LegendreFunction:
    """Base class for the catalog; subclasses fill in the scalar calculus.

    The public surface is ``value``, ``grad``, ``conj_grad``, ``conj_value``,
    ``hess_diag`` and the domain predicates.  ``grad`` and
    ``conj_grad`` are mutually inverse bijections between the domain
    interiors; ``hess_diag`` of conjugate pairs are reciprocal.
    """

    kind: str = "abstract"
    # dom phi is the nonnegative orthant (or its interior), so dual iterates
    # start at all-ones and are floored above the boundary
    nonnegative: bool = False

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)

    # -- domain -------------------------------------------------------------
    def in_domain(self, z) -> bool:
        raise NotImplementedError

    def in_interior(self, z) -> bool:
        raise NotImplementedError

    def conj_in_interior(self, t) -> bool:
        """Membership of t in int dom of the convex conjugate."""
        raise NotImplementedError

    # -- calculus -----------------------------------------------------------
    def value(self, z) -> float:
        raise NotImplementedError

    def grad(self, z) -> np.ndarray:
        raise NotImplementedError

    def conj_grad(self, t) -> np.ndarray:
        raise NotImplementedError

    def conj_value(self, t) -> float:
        """Conjugate value via the Fenchel identity at the maximizer."""
        t = _as_vector(t, self.dim)
        z = self.conj_grad(t)
        return float(t @ z) - self.value(z)

    def hess_diag(self, z) -> np.ndarray:
        raise NotImplementedError

    def conj_hess_diag(self, t) -> np.ndarray:
        """Hessian diagonal of the conjugate; the default composes through
        the inverse gradient map (conjugate pairs have reciprocal Hessians)."""
        return 1.0 / self.hess_diag(self.conj_grad(t))

    # SC constant on the domain interior; None when no global constant exists.
    sc_modulus: float | None = None

    def distance(self, z1: np.ndarray, z2: np.ndarray) -> float:
        """Raw Bregman distance for interior arguments; subclasses override
        with cancellation-free forms (the generic value difference loses all
        accuracy once z1 and z2 agree to ~8 digits)."""
        return self.value(z1) - self.value(z2) - float(self.grad(z2) @ (z1 - z2))

    def _require_interior(self, z) -> np.ndarray:
        z = _as_vector(z, self.dim)
        if not self.in_interior(z):
            raise DomainError(f"{self.kind}: point not in the domain interior")
        return z

    def _require_conj_interior(self, t) -> np.ndarray:
        t = _as_vector(t, self.dim)
        if not self.conj_in_interior(t):
            raise DomainError(f"{self.kind}: point not in int dom of conjugate")
        return t

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Energy(LegendreFunction):
    """phi(z) = ||z||^2 / 2; the Euclidean geometry."""

    kind = "energy"
    sc_modulus = 0.0

    def in_domain(self, z) -> bool:
        return True

    in_interior = in_domain

    def conj_in_interior(self, t) -> bool:
        return True

    def value(self, z) -> float:
        z = _as_vector(z, self.dim)
        return 0.5 * float(z @ z)

    def grad(self, z) -> np.ndarray:
        return _as_vector(z, self.dim).copy()

    def conj_grad(self, t) -> np.ndarray:
        return _as_vector(t, self.dim).copy()

    def conj_value(self, t) -> float:
        t = _as_vector(t, self.dim)
        return 0.5 * float(t @ t)

    def hess_diag(self, z) -> np.ndarray:
        _as_vector(z, self.dim)
        return np.ones(self.dim)

    def conj_hess_diag(self, t) -> np.ndarray:
        _as_vector(t, self.dim)
        return np.ones(self.dim)

    def distance(self, z1, z2) -> float:
        d = _as_vector(z1, self.dim) - _as_vector(z2, self.dim)
        return 0.5 * float(d @ d)


class VonNeumann(LegendreFunction):
    """phi(t) = t ln t - t on [0, inf); D_phi is the Kullback-Leibler divergence."""

    kind = "von_neumann"
    nonnegative = True

    def in_domain(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) >= 0.0))

    def in_interior(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) > BOUNDARY_MARGIN))

    def conj_in_interior(self, t) -> bool:
        _as_vector(t, self.dim)
        return True

    def value(self, z) -> float:
        z = _as_vector(z, self.dim)
        if not self.in_domain(z):
            return math.inf
        pos = z > 0.0
        out = -float(z.sum())
        out += float(np.sum(z[pos] * np.log(z[pos])))  # 0 ln 0 := 0
        return out

    def grad(self, z) -> np.ndarray:
        return np.log(self._require_interior(z))

    def conj_grad(self, t) -> np.ndarray:
        return np.exp(_as_vector(t, self.dim))

    def conj_value(self, t) -> float:
        return float(np.sum(np.exp(_as_vector(t, self.dim))))

    def hess_diag(self, z) -> np.ndarray:
        return 1.0 / self._require_interior(z)

    def conj_hess_diag(self, t) -> np.ndarray:
        return np.exp(_as_vector(t, self.dim))

    def distance(self, z1, z2) -> float:
        z1 = _as_vector(z1, self.dim)
        z2 = _as_vector(z2, self.dim)
        return float(np.sum(_kl_terms(z1, z2)))


class Burg(LegendreFunction):
    """phi(t) = -ln t on (0, inf); D_phi is the Itakura-Saito divergence."""

    kind = "burg"
    nonnegative = True
    sc_modulus = 1.0

    def in_domain(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) > 0.0))

    def in_interior(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) > BOUNDARY_MARGIN))

    def conj_in_interior(self, t) -> bool:
        return bool(np.all(_as_vector(t, self.dim) < -BOUNDARY_MARGIN))

    def value(self, z) -> float:
        z = _as_vector(z, self.dim)
        if not self.in_domain(z):
            return math.inf
        return -float(np.sum(np.log(z)))

    def grad(self, z) -> np.ndarray:
        return -1.0 / self._require_interior(z)

    def conj_grad(self, t) -> np.ndarray:
        return -1.0 / self._require_conj_interior(t)

    def conj_value(self, t) -> float:
        t = self._require_conj_interior(t)
        return float(np.sum(-1.0 - np.log(-t)))

    def hess_diag(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return 1.0 / (z * z)

    def conj_hess_diag(self, t) -> np.ndarray:
        t = self._require_conj_interior(t)
        return 1.0 / (t * t)

    def distance(self, z1, z2) -> float:
        z1 = _as_vector(z1, self.dim)
        z2 = _as_vector(z2, self.dim)
        return float(np.sum(_excess_log((z1 - z2) / z2)))


# 20-point Gauss-Legendre rule on [0, 1] for the near branch of the Spence
# distance: nodes (1 + x_i)/2 and weights w_i/2
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES = 0.5 * (1.0 + _GL_NODES)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _spence_q(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = 1 - exp(-t) and its dilogarithm Li2(q), one dilog pass."""
    q = -np.expm1(-t)
    return q, dilog(q)


class Spence(LegendreFunction):
    """phi(t) = integral of ln(exp(tau) - 1) on [0, t], with dom phi = [0, inf).

    The derivative pair is phi'(t) = ln(exp(t) - 1) and its inverse the
    softplus map t* -> ln(1 + exp(t*)).  Values go through the dilogarithm in
    the reflected form phi(t) = t^2/2 + t ln q - Li2(q) with q = 1 - exp(-t),
    which keeps Li2's argument accurate for small t, and
    phi*(t*) = -Li2(-exp(t*)).

    The distance is chosen per coordinate, for D(a, b) with d = a - b:

    - near, |d| <= b/2: D = d^2/2 + int_0^d log1p(-expm1(-s)/expm1(b)) ds,
      whose integrand has the sign of s, so no term cancels; the nearest
      singularity lies at s = -b, which a 20-point Gauss-Legendre rule on an
      interval of length at most b/2 resolves to rounding;
    - far: the reflected values regroup into
      D = d^2/2 + a ln(q_a/q_b) + Li2(q_b) - Li2(q_a), where the terms
      cancel by a factor of at most about ten.

    Against an 80-digit reference both are accurate to a few ulps, for b
    from the boundary margin up to hundreds; the plain value difference
    carries an absolute error of about 1e-15 instead.
    """

    kind = "spence"
    nonnegative = True

    def in_domain(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) >= 0.0))

    def in_interior(self, z) -> bool:
        return bool(np.all(_as_vector(z, self.dim) > BOUNDARY_MARGIN))

    def conj_in_interior(self, t) -> bool:
        _as_vector(t, self.dim)
        return True

    def value(self, z) -> float:
        z = _as_vector(z, self.dim)
        if not self.in_domain(z):
            return math.inf
        t = z[z > 0.0]  # phi(0) = 0
        q, li = _spence_q(t)
        return float(np.sum(0.5 * t * t + t * np.log(q) - li))

    def grad(self, z) -> np.ndarray:
        z = self._require_interior(z)
        small = z < 30.0
        out = np.empty_like(z)
        out[small] = np.log(np.expm1(z[small]))
        out[~small] = z[~small] + np.log1p(-np.exp(-z[~small]))
        return out

    def conj_grad(self, t) -> np.ndarray:
        return softplus(_as_vector(t, self.dim))

    def conj_value(self, t) -> float:
        return float(np.sum(softplus_antiderivative(_as_vector(t, self.dim))))

    def hess_diag(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return 1.0 / (-np.expm1(-z))

    def conj_hess_diag(self, t) -> np.ndarray:
        return sigmoid(_as_vector(t, self.dim))

    def distance(self, z1, z2) -> float:
        a = _as_vector(z1, self.dim)
        b = _as_vector(z2, self.dim)
        d = a - b
        near = np.abs(d) <= 0.5 * b
        total = 0.5 * float(d @ d)

        dn, bn = d[near], b[near]
        s = dn[:, None] * _GL_NODES
        # -expm1(-s)/expm1(b) without overflow: -s <= b/2, and the clip only
        # acts where exp(-b) is already 0
        r = -np.expm1(np.minimum(-s, 700.0)) * (np.exp(-bn) / -np.expm1(-bn))[:, None]
        total += float(dn @ (np.log1p(r) @ _GL_WEIGHTS))

        af, bf = a[~near], b[~near]
        k = af.size
        q, li = _spence_q(np.concatenate([af, bf]))
        qa, qb = q[:k], q[k:]
        # a ln(q_a/q_b) -> 0 as a -> 0
        ratio = np.log(np.where(af > 0.0, qa, qb) / qb)
        total += float(np.sum(af * ratio + li[k:] - li[:k]))
        return total


class BoxBarrier(LegendreFunction):
    """phi(z) = ||z||^2/2 - sum ln(u - z) - sum ln(z - l) on the open box (l, u).

    Legendre and self-concordant with constant 1; the conjugate gradient has
    no closed form and is computed by a safeguarded per-coordinate Newton
    bisection on the strictly increasing map phi'.
    """

    kind = "box_barrier"
    sc_modulus = 1.0

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionError("box bounds must be 1-D vectors of equal length")
        if not np.all(np.isfinite(lower)) or not np.all(np.isfinite(upper)):
            raise DomainError("box barrier requires finite bounds")
        if not np.all(lower < upper):
            raise DomainError("box barrier requires l < u componentwise")
        super().__init__(lower.size)
        self.lower = lower
        self.upper = upper
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    def in_domain(self, z) -> bool:
        z = _as_vector(z, self.dim)
        return bool(np.all(z > self.lower) and np.all(z < self.upper))

    def in_interior(self, z) -> bool:
        z = _as_vector(z, self.dim)
        return bool(
            np.all(z - self.lower > BOUNDARY_MARGIN)
            and np.all(self.upper - z > BOUNDARY_MARGIN)
        )

    def conj_in_interior(self, t) -> bool:
        _as_vector(t, self.dim)
        return True

    def value(self, z) -> float:
        z = _as_vector(z, self.dim)
        if not self.in_domain(z):
            return math.inf
        return 0.5 * float(z @ z) - float(
            np.sum(np.log(self.upper - z)) + np.sum(np.log(z - self.lower))
        )

    def grad(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return z + 1.0 / (self.upper - z) - 1.0 / (z - self.lower)

    def hess_diag(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return 1.0 + 1.0 / (self.upper - z) ** 2 + 1.0 / (z - self.lower) ** 2

    def conj_grad(self, t) -> np.ndarray:
        t = _as_vector(t, self.dim)
        out = np.empty(self.dim)
        for i in range(self.dim):
            out[i] = self._invert_scalar(float(t[i]), self.lower[i], self.upper[i])
        return out

    def distance(self, z1, z2) -> float:
        z1 = _as_vector(z1, self.dim)
        z2 = _as_vector(z2, self.dim)
        delta = z1 - z2
        upper_part = _excess_log(-delta / (self.upper - z2))
        lower_part = _excess_log(delta / (z2 - self.lower))
        return 0.5 * float(delta @ delta) + float(np.sum(upper_part + lower_part))

    @staticmethod
    def _invert_scalar(target: float, lo: float, hi: float) -> float:
        """Solve x + 1/(hi-x) - 1/(x-lo) = target for x in (lo, hi).

        Safeguarded Newton with a shrinking bracket; the residual tolerance is
        relative to the target since the map's scale is unbounded near the
        bounds.
        """

        def phi_prime(x):
            return x + 1.0 / (hi - x) - 1.0 / (x - lo)

        a, b = lo, hi
        width = hi - lo
        # asymptotic inverse near the bounds: x ~ hi - 1/t resp. lo + 1/(-t);
        # a near-root start keeps the Newton phase short for extreme targets
        x = 0.5 * (lo + hi)
        up = target - hi + 1.0 / width
        dn = lo + 1.0 / width - target
        if up > 4.0 / width:
            x = hi - 1.0 / up
        elif dn > 4.0 / width:
            x = lo + 1.0 / dn
        tol = 1e-12 * (1.0 + abs(target))
        for _ in range(120):
            fx = phi_prime(x) - target
            if abs(fx) <= tol:
                return x
            if fx > 0.0:
                b = x
            else:
                a = x
            h = 1.0 + 1.0 / (hi - x) ** 2 + 1.0 / (x - lo) ** 2
            step = x - fx / h
            x_new = step if a < step < b else 0.5 * (a + b)
            if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)) or b - a <= 1e-17 * max(
                1.0, abs(x)
            ):
                return x_new
            x = x_new
        return x


class Product(LegendreFunction):
    """Coordinate-block product of catalog functions; evaluations decompose."""

    kind = "product"

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise DimensionError("product requires at least one block")
        super().__init__(sum(fn.dim for fn in blocks))
        self.blocks = tuple(blocks)
        offsets = np.cumsum([0] + [fn.dim for fn in blocks])
        self._slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(blocks))]
        mods = [fn.sc_modulus for fn in blocks]
        self.sc_modulus = None if any(m is None for m in mods) else max(mods)

    def _split(self, z):
        z = _as_vector(z, self.dim)
        return [(fn, z[s]) for fn, s in zip(self.blocks, self._slices)]

    def in_domain(self, z) -> bool:
        return all(fn.in_domain(part) for fn, part in self._split(z))

    def in_interior(self, z) -> bool:
        return all(fn.in_interior(part) for fn, part in self._split(z))

    def conj_in_interior(self, t) -> bool:
        return all(fn.conj_in_interior(part) for fn, part in self._split(t))

    def value(self, z) -> float:
        return float(sum(fn.value(part) for fn, part in self._split(z)))

    def grad(self, z) -> np.ndarray:
        return np.concatenate([fn.grad(part) for fn, part in self._split(z)])

    def conj_grad(self, t) -> np.ndarray:
        return np.concatenate([fn.conj_grad(part) for fn, part in self._split(t)])

    def conj_value(self, t) -> float:
        return float(sum(fn.conj_value(part) for fn, part in self._split(t)))

    def hess_diag(self, z) -> np.ndarray:
        return np.concatenate([fn.hess_diag(part) for fn, part in self._split(z)])

    def conj_hess_diag(self, t) -> np.ndarray:
        return np.concatenate([fn.conj_hess_diag(part) for fn, part in self._split(t)])

    def distance(self, z1, z2) -> float:
        parts1 = self._split(z1)
        parts2 = self._split(z2)
        return float(
            sum(fn.distance(p1, p2) for (fn, p1), (_, p2) in zip(parts1, parts2))
        )


def energy(dim: int) -> Energy:
    return Energy(dim)


def von_neumann(dim: int) -> VonNeumann:
    return VonNeumann(dim)


def burg(dim: int) -> Burg:
    return Burg(dim)


def spence(dim: int) -> Spence:
    return Spence(dim)


def box_barrier(lower, upper) -> BoxBarrier:
    return BoxBarrier(lower, upper)


def product(blocks) -> Product:
    return Product(blocks)


def bregman_distance(fn: LegendreFunction, z1, z2) -> float:
    """D(z1, z2) = phi(z1) - phi(z2) - <grad phi(z2), z1 - z2>.

    Extended-real: +inf unless z1 is in the domain and z2 in its interior;
    always nonnegative, zero exactly when z1 == z2.
    """
    z1 = _as_vector(z1, fn.dim)
    z2 = _as_vector(z2, fn.dim)
    if not fn.in_domain(z1) or not fn.in_interior(z2):
        return math.inf
    if np.array_equal(z1, z2):
        return 0.0
    return max(fn.distance(z1, z2), 0.0)


def dual_bregman_distance(fn: LegendreFunction, t1, t2) -> float:
    """Bregman distance generated by the conjugate of ``fn``."""
    t1 = _as_vector(t1, fn.dim)
    t2 = _as_vector(t2, fn.dim)
    if not fn.conj_in_interior(t1) or not fn.conj_in_interior(t2):
        return math.inf
    if np.array_equal(t1, t2):
        return 0.0
    d = fn.conj_value(t1) - fn.conj_value(t2) - float(fn.conj_grad(t2) @ (t1 - t2))
    return max(d, 0.0)


@dataclass(frozen=True)
class BregmanGeometry:
    """Primal/dual pair of Legendre functions over the decision and multiplier spaces."""

    primal: LegendreFunction
    dual: LegendreFunction

    def joint(self) -> Product:
        """The separable function on the product space, for primal-dual distances."""
        return Product([self.primal, self.dual])
