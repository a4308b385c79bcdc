"""Seeded problem instances and certified reference solutions.

Everything here uses numpy and scipy only.  Nothing calls the solver, its KKT
residuals or its brute-force oracles, so a reference certifies an answer
independently of the code under test.  A reference is accepted only after it
passes `kkt_residual` at `CERTIFY_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.optimize import nnls

# residual a certified reference must reach; far below every solve tolerance
CERTIFY_TOL = 1e-10


@dataclass(frozen=True)
class Instance:
    """min x'Wx/2 + c'x  s.t.  Ax <= b (kind "ineq") or Ax = b, lo <= x <= hi
    (kind "box"), with a certified saddle point (x_ref, y_ref)."""

    kind: str
    seed: int
    W: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None
    x_ref: np.ndarray
    y_ref: np.ndarray


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return M.T @ M / n + np.eye(n) * (0.5 + rng.uniform(0.0, 0.5))


def kkt_residual(inst: Instance, x, y) -> float:
    """Largest natural-map KKT residual of (x, y), computed here from scratch.

    Stationarity is ||x - clip(x - (Wx + c + A'y), lo, hi)|| (no clip without a
    box), feasibility is ||max(Ax - b, 0)|| or ||Ax - b||, and for
    inequalities complementarity is |y'(Ax - b)| plus the most negative
    multiplier entry.  Every entry vanishes exactly at a saddle point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != inst.c.shape or y.shape != inst.b.shape:
        return np.inf
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return np.inf
    stat = inst.W @ x + inst.c + inst.A.T @ y
    r = inst.A @ x - inst.b
    if inst.kind == "box":
        if np.any(x < inst.lo) or np.any(x > inst.hi):
            return np.inf
        dual = np.linalg.norm(x - np.clip(x - stat, inst.lo, inst.hi))
        return float(max(dual, np.linalg.norm(r)))
    dual = np.linalg.norm(stat)
    primal = np.linalg.norm(np.maximum(r, 0.0))
    compl = abs(float(y @ r))
    sign = max(0.0, -float(np.min(y)))
    return float(max(dual, primal, compl, sign))


def reference_distance(inst: Instance, x) -> float:
    """||x - x_ref|| / (1 + ||x_ref||); the primal solution is unique since W
    is positive definite."""
    x = np.asarray(x, dtype=float)
    if x.shape != inst.x_ref.shape:
        return np.inf
    return float(np.linalg.norm(x - inst.x_ref) / (1.0 + np.linalg.norm(inst.x_ref)))


def _certified(inst: Instance) -> Instance:
    resid = kkt_residual(inst, inst.x_ref, inst.y_ref)
    if not resid <= CERTIFY_TOL:
        raise ValueError(f"{inst.kind} seed {inst.seed}: reference KKT residual {resid:.3e}")
    return inst


def _inequality_reference(W, c, A, b):
    """Exact solution through the dual problem as a nonnegative least-squares
    problem, which Lawson-Hanson NNLS solves exactly.

    With W = LL', G = L^{-1} A' and h = L^{-1} c the dual is
    min_{y >= 0} ||G y + h||^2 / 2 + b'y = ||G y + h + t||^2 / 2 + const with
    t = G (G'G)^{-1} b, and x = -W^{-1} (c + A'y).
    """
    factor = cho_factor(W, lower=True)
    L = np.tril(factor[0])
    G = solve_triangular(L, A.T, lower=True)  # L^{-1} A'
    h = solve_triangular(L, c, lower=True)  # L^{-1} c
    Q = G.T @ G
    shift = G @ np.linalg.solve(Q, b)
    y, _ = nnls(G, -(h + shift), maxiter=50 * A.shape[0])
    x = -cho_solve(factor, c + A.T @ y)
    return x, y


def inequality_instance(seed: int, n: int, m: int) -> Instance:
    """Dense inequality QP: random SPD W, Gaussian A, and b shifted so that
    some rows are active and some slack at the optimum."""
    rng = np.random.default_rng(seed)
    W = _random_spd(rng, n)
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x_free = np.linalg.solve(W, -c)
    b = A @ x_free - rng.uniform(-0.4, 0.6, size=m)
    x, y = _inequality_reference(W, c, A, b)
    return _certified(Instance("ineq", seed, W, c, A, b, None, None, x, y))


def _box_kkt_solve(W, c, A, b, lo, hi, at_lo, at_hi):
    """Equality-constrained KKT solve with the given bounds held active."""
    m = A.shape[0]
    fixed = at_lo | at_hi
    free = ~fixed
    x = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
    Wf = W[np.ix_(free, free)]
    Af = A[:, free]
    k = int(free.sum())
    K = np.zeros((k + m, k + m))
    K[:k, :k] = Wf
    K[:k, k:] = Af.T
    K[k:, :k] = Af
    rhs = np.concatenate([-(c[free] + W[np.ix_(free, fixed)] @ x[fixed]), b - A[:, fixed] @ x[fixed]])
    sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    x[free] = sol[:k]
    y = sol[k:]
    return x, y


def _box_reference(W, c, A, b, lo, hi):
    """Primal-dual active-set iteration on the bounds, started from all
    bounds free; each step is an exact equality-constrained KKT solve."""
    n = c.size
    at_lo = np.zeros(n, dtype=bool)
    at_hi = np.zeros(n, dtype=bool)
    for _ in range(10 * n):
        x, y = _box_kkt_solve(W, c, A, b, lo, hi, at_lo, at_hi)
        stat = W @ x + c + A.T @ y
        free = ~(at_lo | at_hi)
        below = free & (x < lo)
        above = free & (x > hi)
        if below.any() or above.any():
            # hold the worst violator only, so the active set changes slowly
            viol = np.where(below, lo - x, 0.0) + np.where(above, x - hi, 0.0)
            i = int(np.argmax(viol))
            at_lo[i], at_hi[i] = bool(below[i]), bool(above[i])
            continue
        wrong = (at_lo & (stat < 0.0)) | (at_hi & (stat > 0.0))
        if wrong.any():
            i = int(np.argmax(np.where(wrong, np.abs(stat), -1.0)))
            at_lo[i] = at_hi[i] = False
            continue
        return np.clip(x, lo, hi), y
    raise ValueError("box reference: active-set iteration did not settle")


def box_instance(seed: int, n: int, m: int) -> Instance:
    """Box-constrained QP with equality rows: random SPD W on [0, 1]^n, a
    Gaussian A with b = A x_feas for an interior x_feas, and a target partly
    outside the box so that some bounds are active."""
    rng = np.random.default_rng(seed)
    W = _random_spd(rng, n)
    lo, hi = np.zeros(n), np.ones(n)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.3, 0.7, size=n)
    c = -W @ rng.uniform(-0.6, 1.6, size=n)
    x, y = _box_reference(W, c, A, b, lo, hi)
    return _certified(Instance("box", seed, W, c, A, b, lo, hi, x, y))
