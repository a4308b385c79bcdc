"""Independent reference solvers and the golden problems.

Everything here exists to anchor tests: direct KKT solves, active-set and
bound-assignment enumeration, and a registry of golden problems with
hand-derived or enumeration-verified saddle points.  None of it is on the
solver path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import ScaleError, SingularSystemError
from .problem import (
    AffineMap,
    NonsmoothTerm,
    ProblemSpec,
    SmoothObjective,
    kkt_residuals,
)

__all__ = [
    "GoldenProblem",
    "solve_equality_qp",
    "solve_inequality_qp_bruteforce",
    "solve_box_qp_bruteforce",
    "golden_suite",
]

_KKT_TOL = 1e-10


def solve_equality_qp(W, c, A, b) -> tuple[np.ndarray, np.ndarray]:
    """Direct dense solve of the saddle system [W A'; A 0] (x, y) = (-c, b)."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n, m = c.size, b.size
    K = np.zeros((n + m, n + m))
    K[:n, :n] = W
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([-c, b])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("saddle KKT system is singular") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError("saddle KKT solve produced non-finite values")
    return sol[:n], sol[n:]


def solve_inequality_qp_bruteforce(W, c, A, b) -> tuple[np.ndarray, np.ndarray]:
    """Global solution of min x'Wx/2 + c'x s.t. Ax <= b by active-set
    enumeration; W must be positive definite and m moderate."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = b.size
    if m > 14:
        raise ScaleError(f"active-set enumeration limited to 14 rows, got {m}")
    tol = 1e-9
    for size in range(m + 1):
        for active in itertools.combinations(range(m), size):
            idx = list(active)
            try:
                x, y_act = solve_equality_qp(W, c, A[idx, :], b[idx])
            except SingularSystemError:
                continue
            if np.any(A @ x - b > tol) or np.any(y_act < -tol):
                continue
            y = np.zeros(m)
            y[idx] = np.maximum(y_act, 0.0)
            return x, y
    raise SingularSystemError("no KKT-consistent active set found")


def solve_box_qp_bruteforce(W, c, l, u, A, b) -> tuple[np.ndarray, np.ndarray]:
    """Global solution of min x'Wx/2 + c'x s.t. Ax = b, l <= x <= u.

    Enumerates bound assignments (free / at lower / at upper) per coordinate
    for n <= 12; a projected-gradient fallback covers unconstrained-in-A box
    problems up to n = 50.
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    l = np.atleast_1d(np.asarray(l, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float)) if np.size(A) else np.zeros((0, c.size))
    b = np.atleast_1d(np.asarray(b, dtype=float)) if np.size(b) else np.zeros(0)
    n, m = c.size, b.size

    if n > 12:
        if m == 0 and n <= 50:
            return _box_projected_gradient(W, c, l, u), np.zeros(0)
        raise ScaleError(f"box enumeration limited to 12 variables, got {n}")

    tol = 1e-9
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    choices_per_coord = [
        [("free", None)]
        + ([("lower", l[i])] if np.isfinite(l[i]) else [])
        + ([("upper", u[i])] if np.isfinite(u[i]) else [])
        for i in range(n)
    ]
    for assignment in itertools.product(*choices_per_coord):
        free = [i for i, (kind, _) in enumerate(assignment) if kind == "free"]
        fixed = [i for i in range(n) if i not in free]
        x = np.zeros(n)
        for i in fixed:
            x[i] = assignment[i][1]
        nf = len(free)
        if nf + m > 0:
            K = np.zeros((nf + m, nf + m))
            K[:nf, :nf] = W[np.ix_(free, free)]
            K[:nf, nf:] = A[:, free].T
            K[nf:, :nf] = A[:, free]
            rhs = np.concatenate(
                [
                    -c[free] - W[np.ix_(free, fixed)] @ x[fixed],
                    b - A[:, fixed] @ x[fixed],
                ]
            )
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            x[free] = sol[:nf]
            y = sol[nf:]
        else:
            y = np.zeros(m)
        if np.any(x < l - tol) or np.any(x > u + tol):
            continue
        if m and np.linalg.norm(A @ x - b) > tol:
            continue
        r = W @ x + c + A.T @ y
        ok = True
        for i in fixed:
            kind = assignment[i][0]
            if kind == "lower" and r[i] < -tol:
                ok = False
            if kind == "upper" and r[i] > tol:
                ok = False
        if not ok or np.any(np.abs(r[free]) > 1e-7):
            continue
        val = 0.5 * float(x @ (W @ x)) + float(c @ x)
        if best is None or val < best[0]:
            best = (val, x.copy(), y.copy())
    if best is None:
        raise SingularSystemError("no KKT-consistent bound assignment found")
    return best[1], best[2]


def _box_projected_gradient(W, c, l, u) -> np.ndarray:
    step = 1.0 / (np.linalg.norm(W, 2) + 1.0)
    x = np.clip(np.zeros(c.size), l, u)
    for it in range(1_000_000):
        g = W @ x + c
        x_new = np.clip(x - step * g, l, u)
        if it % 1000 == 0 and np.linalg.norm(x_new - x) <= 1e-14:
            return x_new
        x = x_new
    return x


@dataclass(frozen=True)
class GoldenProblem:
    """A problem with a verified saddle point and a solve-family tag."""

    name: str
    family: str  # eq | ineq | box | vecmax | one_norm
    problem: ProblemSpec
    x_star: np.ndarray
    y_star: np.ndarray
    note: str

    def __post_init__(self):
        resid = kkt_residuals(self.problem, self.x_star, self.y_star)
        if resid.max_residual() > _KKT_TOL:
            raise SingularSystemError(
                f"golden problem {self.name}: stored solution violates KKT "
                f"({resid.max_residual():.2e})"
            )


def _random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return M.T @ M / n + np.eye(n) * (0.5 + rng.uniform(0.0, 0.5))


def _equality_goldens() -> list[GoldenProblem]:
    rng = np.random.default_rng(20240)
    out = []
    for n, m in [(1, 1), (2, 1), (3, 2), (5, 3), (8, 4), (12, 6), (16, 8), (20, 10)]:
        W = _random_psd(rng, n)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        x, y = solve_equality_qp(W, c, A, b)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(W, c),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense(A, b),
        )
        out.append(
            GoldenProblem(
                name=f"eq_qp_n{n}_m{m}",
                family="eq",
                problem=ps,
                x_star=x,
                y_star=y,
                note="dense saddle KKT solve",
            )
        )
    return out


def _inequality_goldens() -> list[GoldenProblem]:
    rng = np.random.default_rng(77)
    out = []
    for n, m in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (5, 5), (6, 4), (10, 6)]:
        W = _random_psd(rng, n)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        # shift b so some constraints are active and some slack at the optimum
        x_free = np.linalg.solve(W, -c)
        slack = rng.uniform(-0.4, 0.6, size=m)
        b = A @ x_free - slack
        x, y = solve_inequality_qp_bruteforce(W, c, A, b)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(W, c),
            g=NonsmoothTerm.nonneg_orthant_indicator(),
            map=AffineMap.from_dense(A, b),
        )
        out.append(
            GoldenProblem(
                name=f"ineq_qp_n{n}_m{m}",
                family="ineq",
                problem=ps,
                x_star=x,
                y_star=y,
                note="active-set enumeration",
            )
        )
    return out


def _box_goldens() -> list[GoldenProblem]:
    out = []
    cases = [
        # (c_target, box, A, b): interior optimum
        (np.array([0.8, 0.3, 0.4]), (np.zeros(3), np.ones(3)), [[1.0, 1.0, 1.0]], [1.2]),
        # active bounds on two coordinates
        (np.array([1.5, 0.7, 0.1]), (np.zeros(3), np.ones(3)), [[1.0, 1.0, 1.0]], [1.5]),
        # 2-D, one active bound
        (np.array([1.4, 0.2]), (np.zeros(2), np.ones(2)), [[1.0, -1.0]], [0.6]),
        # 4-D interior
        (
            np.array([0.5, 0.4, 0.6, 0.3]),
            (np.zeros(4), np.ones(4)),
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
            [0.8, 0.7],
        ),
    ]
    for i, (target, (lo, hi), A, b) in enumerate(cases):
        n = target.size
        W = np.eye(n)
        c = -target
        x, y = solve_box_qp_bruteforce(W, c, lo, hi, A, b)
        ps = ProblemSpec(
            f=SmoothObjective.quadratic(W, c, box=(lo, hi)),
            g=NonsmoothTerm.zero_indicator(),
            map=AffineMap.from_dense(A, b),
        )
        out.append(
            GoldenProblem(
                name=f"box_qp_{i}_n{n}",
                family="box",
                problem=ps,
                x_star=x,
                y_star=y,
                note="bound-assignment enumeration",
            )
        )
    return out


def _vecmax_golden() -> GoldenProblem:
    # min ||x||^2/2 + max(Ax - b): the two rows tie at the optimum, so the
    # multiplier sits strictly inside the simplex
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([1.0, 0.0])
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(np.eye(2), np.zeros(2)),
        g=NonsmoothTerm("vecmax"),
        map=AffineMap.from_dense(A, b),
    )
    return GoldenProblem(
        name="vecmax_tied",
        family="vecmax",
        problem=ps,
        x_star=np.array([-0.6, -0.8]),
        y_star=np.array([0.6, 0.4]),
        note="hand KKT: tie between rows forces y = (3/5, 2/5)",
    )


def _one_norm_golden() -> GoldenProblem:
    # min ||x - (2, 0.3)||^2/2 + ||x||_1: soft threshold, one coordinate at
    # the kink with an interior multiplier
    ps = ProblemSpec(
        f=SmoothObjective.quadratic(np.eye(2), np.array([-2.0, -0.3])),
        g=NonsmoothTerm("one_norm"),
        map=AffineMap.from_dense(np.eye(2), np.zeros(2)),
    )
    return GoldenProblem(
        name="one_norm_soft_threshold",
        family="one_norm",
        problem=ps,
        x_star=np.array([1.0, 0.0]),
        y_star=np.array([1.0, 0.3]),
        note="hand KKT: shrink by 1, keep small coordinate at zero",
    )


def golden_suite() -> list[GoldenProblem]:
    """All golden problems; every stored solution is KKT-verified at load."""
    suite = _equality_goldens() + _inequality_goldens() + _box_goldens()
    suite.append(_vecmax_golden())
    suite.append(_one_norm_golden())
    return suite
