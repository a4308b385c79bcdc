"""Legendre distance-generating functions and the Bregman-distance calculus.

Every geometry in the catalog is separable, so gradients and Hessians are
computed coordinate-wise and Hessians are diagonal.  The solver reads a
geometry only through these, the conjugate gradient and the Bregman distance,
which is extended-real: ``+inf`` outside the domain, never a large finite
sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from .exceptions import DimensionError, DomainError

__all__ = [
    "LegendreFunction",
    "BregmanGeometry",
    "energy",
    "von_neumann",
    "spence",
    "box_barrier",
    "bregman_distance",
]

PI2_6 = math.pi**2 / 6.0

# Componentwise values closer to the boundary than this are treated as
# boundary points (gradient undefined).  The guard only has to keep 1/t and
# 1/t**2 finite; a larger margin would reject the tiny-but-positive dual
# iterates produced by multiplicative multiplier updates.
BOUNDARY_MARGIN = 1e-150

# Stacks of points are evaluated in blocks of rows of at most this many
# coordinates (a row is never split), 64 KiB per temporary array
BLOCK_COORDS = 8192

# Multiplicative multiplier updates can underflow to exact zero; orthant
# iterates are floored here, which must stay above BOUNDARY_MARGIN so the
# floored point is interior, and is far below every reporting tolerance.
INTERIOR_FLOOR = 1e-148


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
LN2 = math.log(2.0)


def _li2_series(u: np.ndarray) -> np.ndarray:
    """Li2(x) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)! in u = -ln(1 - x),
    for |u| <= ln 2 ('t Hooft and Veltman, Nucl. Phys. B 153, 1979)."""
    v = u * u
    poly = np.full_like(u, _LI2_COEFFS[0])
    for c in _LI2_COEFFS[1:]:  # Horner's rule in place
        np.multiply(poly, v, out=poly)
        np.add(poly, c, out=poly)
    return u - 0.25 * v + u * v * poly


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
    zero = a <= 0.0
    a = np.where(zero, b, a)  # a finite stand-in; the term at a = 0 is b
    r = (a - b) / b
    c = np.minimum(r, 1.0)  # r >= -1; the clip keeps the unselected series finite
    # b h(r) with h(r) = (1+r) log1p(r) - r = r^2/2 - r^3/6 + r^4/12 - ...
    series = c * c * (0.5 + c * (-1.0 / 6.0 + c / 12.0))
    # far from the cancellation zone the raw form is exact; log differences
    # keep it finite for denormal ratios
    raw = (a * (np.log(a) - np.log(b)) - a + b) / b
    return np.where(zero, b, b * np.where(np.abs(r) < 1e-4, series, raw))


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
    x = -exp(-|t|) stays in [-1, 0), where u = -ln(1 - x) = -softplus(-|t|).
    """
    t = np.asarray(t, dtype=float)
    li = _li2_series(-np.log1p(np.exp(-np.abs(t))))
    return np.where(t > 0.0, PI2_6 + 0.5 * t * t + li, -li)


def _as_vector(z, dim: int, stack: bool = False) -> np.ndarray:
    """z as a vector of length dim; with ``stack``, as points of shape (..., dim)."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z.reshape(1)
    if z.shape[-1] != dim or (z.ndim != 1 and not stack):
        raise DimensionError(f"expected vector of length {dim}, got shape {z.shape}")
    return z


def positive_dimension(d, what: str = "dimension") -> int:
    """d as an int; DimensionError unless it is a positive int (not a bool)."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise DimensionError(f"{what} must be a positive int, got {d!r}")
    return int(d)


def all_rows(mask: np.ndarray):
    """All of each row of a mask: a bool for one point, an array for a stack."""
    out = mask.all(axis=-1)
    return bool(out) if out.ndim == 0 else out


class LegendreFunction:
    """Base class for the catalog; subclasses fill in the scalar calculus.

    The public surface is ``grad``, ``conj_grad``, ``hess_diag``,
    ``distance``, ``start`` and the domain predicates.  ``grad`` maps the
    domain interior onto all of R^n and ``conj_grad`` is its inverse, so the
    conjugate's Hessian at grad(z) is 1 / hess_diag(z).
    """

    kind: str = "abstract"
    nonnegative: bool = False

    def __init__(self, dim: int):
        self.dim = positive_dimension(dim)

    # -- domain: points of shape (..., dim), one answer per row -------------
    def in_domain(self, z) -> bool:
        raise NotImplementedError

    def in_interior(self, z) -> bool:
        raise NotImplementedError

    def start(self) -> np.ndarray:
        """Default interior point: all-ones on the orthant, else zeros."""
        return np.ones(self.dim) if self.nonnegative else np.zeros(self.dim)

    # -- calculus -----------------------------------------------------------
    def grad(self, z) -> np.ndarray:
        raise NotImplementedError

    def conj_grad(self, t) -> np.ndarray:
        raise NotImplementedError

    def hess_diag(self, z) -> np.ndarray:
        raise NotImplementedError

    def distance(self, z1: np.ndarray, z2: np.ndarray):
        """Bregman distance per row of float arrays z1, z2 of one shape
        (..., dim), z1 in the domain and z2 in its interior.  Each geometry
        has its own cancellation-free form: the plain value difference loses
        all accuracy once z1 and z2 agree to ~8 digits."""
        raise NotImplementedError

    def _require_interior(self, z) -> np.ndarray:
        z = _as_vector(z, self.dim)
        if not self.in_interior(z):
            raise DomainError(f"{self.kind}: point not in the domain interior")
        return z

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Energy(LegendreFunction):
    """phi(z) = ||z||^2 / 2; the Euclidean geometry."""

    kind = "energy"

    def in_domain(self, z) -> bool:
        return True

    in_interior = in_domain

    def grad(self, z) -> np.ndarray:
        return _as_vector(z, self.dim).copy()

    def conj_grad(self, t) -> np.ndarray:
        return _as_vector(t, self.dim).copy()

    def hess_diag(self, z) -> np.ndarray:
        _as_vector(z, self.dim)
        return np.ones(self.dim)

    def distance(self, z1, z2):
        d = z1 - z2
        return 0.5 * np.vecdot(d, d)


class _Orthant(LegendreFunction):
    """dom phi is the nonnegative orthant (or its interior), so dual iterates
    start at all-ones and are floored at INTERIOR_FLOOR."""

    nonnegative = True

    def in_domain(self, z) -> bool:
        return all_rows(_as_vector(z, self.dim, True) >= 0.0)

    def in_interior(self, z) -> bool:
        return all_rows(_as_vector(z, self.dim, True) > BOUNDARY_MARGIN)


class VonNeumann(_Orthant):
    """phi(t) = t ln t - t on [0, inf); D_phi is the Kullback-Leibler divergence."""

    kind = "von_neumann"

    def grad(self, z) -> np.ndarray:
        return np.log(self._require_interior(z))

    def conj_grad(self, t) -> np.ndarray:
        return np.exp(_as_vector(t, self.dim))

    def hess_diag(self, z) -> np.ndarray:
        return 1.0 / self._require_interior(z)

    def distance(self, z1, z2):
        return np.sum(_kl_terms(z1, z2), axis=-1)


# 20-point Gauss-Legendre rule on [0, 1] for the near branch of the Spence
# distance: nodes (1 + x_i)/2 and weights w_i/2
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES = 0.5 * (1.0 + _GL_NODES)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS

# coordinates per chunk of rows in the Spence distance (a row is never split);
# the near branch's temporaries take 20 nodes per coordinate
_SPENCE_CHUNK = 1024


def _spence_q(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = 1 - exp(-t) and Li2(q) for t >= 0: the series in u = -ln(1 - q) = t
    up to ln 2, and above, Li2(q) = pi^2/6 + t ln q - Li2(exp(-t)) with
    ln q = -u for u = -log1p(-exp(-t)), the series variable of Li2(exp(-t))."""
    far = t > LN2
    if not far.any():  # the series in t alone
        return -np.expm1(-t), _li2_series(t)
    # the clip keeps the branch np.where drops finite
    u = np.where(far, -np.log1p(-np.exp(-np.maximum(t, LN2))), t)
    li = _li2_series(u)
    return -np.expm1(-t), np.where(far, PI2_6 - t * u - li, li)


def _spence_sums(a, b, d, near, count):
    """Per row of a, b (d = a - b) with ``count`` near coordinates each, the
    near-branch integrals and, unless every coordinate is near, the far-branch
    terms of the Spence distance (with none, they would add +0.0)."""
    rows, dim = a.shape
    dn, bn = d, b  # all near: no gathers
    if count < dim:
        dn, bn = d[near].reshape(rows, count), b[near].reshape(rows, count)
    s = dn[..., None] * _GL_NODES
    # -expm1(-s)/expm1(b) without overflow: -s <= b/2, and the clip only acts
    # where exp(-b) is already 0
    r = -np.expm1(np.minimum(-s, 700.0)) * (np.exp(-bn) / -np.expm1(-bn))[..., None]
    near_sums = np.vecdot(dn, np.log1p(r) @ _GL_WEIGHTS)
    if count == dim:
        return (near_sums,)
    af, bf = a[~near], b[~near]
    k = af.size
    q, li = _spence_q(np.concatenate([af, bf]))
    qa, qb = q[:k], q[k:]
    # a ln(q_a/q_b) -> 0 as a -> 0
    far = af * np.log(np.where(af > 0.0, qa, qb) / qb) + li[k:] - li[:k]
    return near_sums, np.sum(far.reshape(rows, dim - count), axis=-1)


class Spence(_Orthant):
    """phi(t) = integral of ln(exp(tau) - 1) on [0, t], with dom phi = [0, inf).

    The derivative pair is phi'(t) = ln(exp(t) - 1) and its inverse the
    softplus map t* -> ln(1 + exp(t*)).  With q = 1 - exp(-t), the distance's
    far branch reads Li2(q) as the Bernoulli series in its own variable
    -ln(1 - q) = t up to ln 2, and as pi^2/6 + t ln q - Li2(exp(-t)) above
    (`_spence_q`), never from a rounded q.

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

    A stack of rows is sorted by each row's count of near coordinates, so
    rows with equal counts form (rows, count) blocks whose sums run in the
    same order as a one-point call: a row's distance does not depend on the
    stack it came in.  An all-near block skips the gathers, the far sums and
    the dilogarithm, and `_spence_q` forms only the series when no argument
    exceeds ln 2, as the gradient forms one expression when every coordinate
    is below 30.
    """

    kind = "spence"

    def grad(self, z) -> np.ndarray:
        z = self._require_interior(z)
        small = z < 30.0
        if small.all():
            return np.log(np.expm1(z))
        out = np.empty_like(z)
        out[small] = np.log(np.expm1(z[small]))
        out[~small] = z[~small] + np.log1p(-np.exp(-z[~small]))
        return out

    def conj_grad(self, t) -> np.ndarray:
        return softplus(_as_vector(t, self.dim))

    def hess_diag(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return 1.0 / (-np.expm1(-z))

    def distance(self, z1, z2):
        shape = z1.shape[:-1]
        a, b = z1.reshape(-1, self.dim), z2.reshape(-1, self.dim)
        d = a - b
        total = 0.5 * np.vecdot(d, d)
        near = np.abs(d) <= 0.5 * b
        counts = near.sum(axis=1)
        if len(a) == 1:  # one row: the stack's sums without its grouping
            for sums in _spence_sums(a, b, d, near, int(counts[0])):
                total += sums
            return total.reshape(shape)
        order = np.argsort(counts, kind="stable")
        step = max(1, _SPENCE_CHUNK // self.dim)
        lo = 0
        for c, run in groupby(counts[order].tolist()):
            hi = lo + len(list(run))
            for r0 in range(lo, hi, step):
                rows = order[r0 : min(r0 + step, hi)]
                for sums in _spence_sums(a[rows], b[rows], d[rows], near[rows], c):
                    total[rows] += sums  # near, then far, as for one point
            lo = hi
        return total.reshape(shape)


class BoxBarrier(LegendreFunction):
    """phi(z) = ||z||^2/2 - sum ln(u - z) - sum ln(z - l) on the open box (l, u).

    Legendre and self-concordant with constant 1.  conj_grad solves phi'(x) = t
    in the nearer bound's variable: with h = (u - l)/2 and tau = t - (l + u)/2,
    x = u - h e if tau >= 0 and l + h e otherwise, where e in (0, 1] is the
    root of G(e) = h (1 - e) + 1/(h e) - 1/(h (2 - e)) - |tau|, convex and
    decreasing.  Dropping the far bound's (negative) term leaves the
    quadratic h e^2 + (|tau| - h) e - 1/h = 0, whose root, taken without
    cancellation and capped at 1, bounds e from above; so Newton's first step
    lands in (0, e] and later steps climb to e monotonically.  The start's
    relative error is at most 1/sqrt(2) (as h -> 0 with h |tau| = 1), from
    which six steps leave one below 1e-26 in exact arithmetic (five leave
    1e-13), so every coordinate takes the same six.  The steps are
    formed from e G and e^2 G', which stay finite where e underflows: a
    target far beyond the box's scale gives the bound itself.
    """

    kind = "box_barrier"
    sc_modulus = 1.0

    def __init__(self, lower, upper):
        lower = np.atleast_1d(np.array(lower, dtype=float))
        upper = np.atleast_1d(np.array(upper, dtype=float))
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
        z = _as_vector(z, self.dim, True)
        return all_rows((z > self.lower) & (z < self.upper))

    def in_interior(self, z) -> bool:
        z = _as_vector(z, self.dim, True)
        return all_rows((z - self.lower > BOUNDARY_MARGIN) & (self.upper - z > BOUNDARY_MARGIN))

    def start(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def grad(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return z + 1.0 / (self.upper - z) - 1.0 / (z - self.lower)

    def hess_diag(self, z) -> np.ndarray:
        z = self._require_interior(z)
        return 1.0 + 1.0 / (self.upper - z) ** 2 + 1.0 / (z - self.lower) ** 2

    def conj_grad(self, t) -> np.ndarray:
        t = _as_vector(t, self.dim)
        lo, hi = self.lower, self.upper
        h = 0.5 * (hi - lo)
        ih = 1.0 / h
        tau = t - 0.5 * (lo + hi)
        a = np.abs(tau)
        # the one-sided root is 1/(h w) for k > 0 and w/h otherwise: no cancellation
        k = 0.5 * (a - h)
        w = np.abs(k) + np.hypot(k, 1.0)
        e = np.where(k > 0.0, np.minimum(ih / w, 1.0), np.minimum(w, h) / h)
        for _ in range(6):
            q = e / (2.0 - e)
            eg = h * e * (1.0 - e) + ih - ih * q - a * e
            e = e + e * eg / (h * e * e + ih + ih * q * q)
        return np.where(tau >= 0.0, hi - h * e, lo + h * e)

    def distance(self, z1, z2):
        delta = z1 - z2
        upper_part = _excess_log(-delta / (self.upper - z2))
        lower_part = _excess_log(delta / (z2 - self.lower))
        return 0.5 * np.vecdot(delta, delta) + np.sum(upper_part + lower_part, axis=-1)


# the catalog's constructor names are the classes themselves
energy, von_neumann, spence = Energy, VonNeumann, Spence
box_barrier = BoxBarrier


def bregman_distance(fn: LegendreFunction, z1, z2):
    """D(z1, z2) = phi(z1) - phi(z2) - <grad phi(z2), z1 - z2>.

    Extended-real: +inf unless z1 is in the domain and z2 in its interior;
    always nonnegative, zero exactly when z1 == z2.  Stacks of points, of
    shapes (..., dim) that broadcast, give one distance per row, each equal
    to the one-point call on that row; one point gives a float.
    """
    z1 = _as_vector(z1, fn.dim, True)
    z2 = _as_vector(z2, fn.dim, True)
    valid = fn.in_domain(z1) & fn.in_interior(z2)
    live = valid & (z1 != z2).any(axis=-1)
    if live.ndim == 0:
        return max(float(fn.distance(z1, z2)), 0.0) if live else (0.0 if valid else math.inf)
    out = np.where(valid, 0.0, np.full(live.shape, math.inf))
    z1, z2 = (np.broadcast_to(z, live.shape + (fn.dim,)).reshape(-1, fn.dim) for z in (z1, z2))
    rows = np.flatnonzero(live)
    step = max(1, BLOCK_COORDS // fn.dim)
    for lo in range(0, rows.size, step):
        block = rows[lo : lo + step]
        out.flat[block] = np.maximum(fn.distance(z1[block], z2[block]), 0.0)
    return out


@dataclass(frozen=True)
class BregmanGeometry:
    """Primal/dual pair of Legendre functions over the decision and multiplier spaces."""

    primal: LegendreFunction
    dual: LegendreFunction
