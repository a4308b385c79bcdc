"""Batch front end: problem files in, reports and trace CSVs out.

Problem files are JSON documents with three sections::

    {
      "objective":  {"quadratic": {"n": 2, "W": [[i, j, v], ...], "c": [...]}}
                    | {"named": {"name": "logistic", "n": 2}},
      "constraint": {"type": "eq|ineq|vecmax|l1", "m": 1,
                     "A": [[i, j, v], ...], "b": [...]},
      "bounds":     {"l": [...], "u": [...]},          # optional
      "solution":   {"x": [...], "y": [...]}           # optional golden pair
    }

Numbers must be finite; only bounds entries may also be the sentinels
"inf" / "-inf" (or JSON's Infinity / -Infinity).  Under the sc
regime bounds become the barrier box of the primal geometry; otherwise they
are appended to an inequality constraint block.  Unknown fields are rejected.

Numbers in documents written by this module carry 17 significant digits so
fixtures round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import diagnostics
from .exceptions import BpalmError, DimensionError, ParseError
from .legendre import BregmanGeometry, bregman_distance, box_barrier, energy, spence, von_neumann
from .newton import REGIMES
from .outer import RhoSchedule, SolveReport, SolveStatus, SolverConfig, run
from .penalty import penalty_for
from .problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective, canonicalize_triplets

__all__ = ["parse_problem", "write_problem_file", "main"]

_CONSTRAINT_TYPES = {"eq": "zero", "ineq": "orthant", "vecmax": "vecmax", "l1": "one_norm"}
_DEFAULT_DUAL = {"eq": "energy", "ineq": "von_neumann", "vecmax": "von_neumann", "l1": "energy"}
_DUAL_FACTORY = {"energy": energy, "von_neumann": von_neumann, "spence": spence}

# report timing can be pinned through this environment variable so that
# fixture comparisons are byte-stable
_WALL_TIME_ENV = "BPALM_WALL_TIME_MS"


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ParseError(f"{where}: missing fields {sorted(missing)}")


_INFINITIES = {"inf": math.inf, "+inf": math.inf, "-inf": -math.inf}


def _as_float(value, where: str, infinite: bool) -> float:
    """A finite number, or with ``infinite`` also +-inf."""
    if infinite and isinstance(value, str):
        value = _INFINITIES.get(value.strip().lower(), value)
    if isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the double range
            x = math.nan
        if not math.isnan(x) and (infinite or not math.isinf(x)):
            return x
    raise ParseError(f"{where}: bad number {value!r}")


def _vector(values, where: str, infinite: bool = False) -> np.ndarray:
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list")
    return np.array([_as_float(v, where, infinite) for v in values], dtype=float)


def _dimension(value, where: str) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: bad dimension {value!r}") from None
    if n < 1:
        raise DimensionError(f"{where}: dimension must be positive, got {n}")
    return n


def _parse_objective(doc: dict) -> SmoothObjective:
    _require_keys(doc, {"quadratic", "named"}, set(), "objective")
    if ("quadratic" in doc) == ("named" in doc):
        raise ParseError("objective: exactly one of 'quadratic' or 'named' required")
    if "quadratic" in doc:
        quad = doc["quadratic"]
        _require_keys(quad, {"n", "W", "c"}, {"n", "W", "c"}, "objective.quadratic")
        n = _dimension(quad["n"], "objective.quadratic.n")
        c = _vector(quad["c"], "objective.quadratic.c")
        if c.size != n:
            raise DimensionError(f"objective.quadratic: c has length {c.size}, expected {n}")
        W = canonicalize_triplets(quad["W"], n, n)
        return SmoothObjective.quadratic(W, c)
    named = doc["named"]
    _require_keys(named, {"name", "n"}, {"name", "n"}, "objective.named")
    n = _dimension(named["n"], "objective.named.n")
    return SmoothObjective.named(str(named["name"]), n)


def _parse_bounds(doc: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    _require_keys(doc, {"l", "u"}, {"l", "u"}, "bounds")
    lo = _vector(doc["l"], "bounds.l", infinite=True)
    hi = _vector(doc["u"], "bounds.u", infinite=True)
    if lo.size != n or hi.size != n:
        raise DimensionError(f"bounds: expected length {n} vectors")
    if np.any(lo >= hi):
        raise ParseError("bounds: l < u must hold componentwise")
    return lo, hi


def parse_problem(path: str, regime: str = "qsc"):
    """Parse a problem file into (ProblemSpec, golden solution or None).

    Box bounds are routed into the barrier geometry when the sc regime is
    selected; otherwise they are folded into the inequality block, which
    requires an 'ineq' constraint type.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc

    _require_keys(
        doc, {"objective", "constraint", "bounds", "solution"}, {"objective", "constraint"}, "document"
    )
    f = _parse_objective(doc["objective"])
    n = f.n

    cons = doc["constraint"]
    _require_keys(cons, {"type", "m", "A", "b"}, {"type", "m", "A", "b"}, "constraint")
    ctype = str(cons["type"])
    if ctype not in _CONSTRAINT_TYPES:
        raise ParseError(f"constraint.type must be one of {sorted(_CONSTRAINT_TYPES)}")
    m = _dimension(cons["m"], "constraint.m")
    b = _vector(cons["b"], "constraint.b")
    if b.size != m:
        raise DimensionError(f"constraint: b has length {b.size}, expected {m}")
    A = canonicalize_triplets(cons["A"], m, n)

    box = None
    if "bounds" in doc:
        lo, hi = _parse_bounds(doc["bounds"], n)
        if regime == "sc":
            if ctype != "eq":
                raise ParseError("bounds under the sc regime require an 'eq' constraint")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ParseError("the barrier box requires finite bounds on every variable")
            box = (lo, hi)
        elif ctype == "ineq":
            rows, rhs = [A], [b]
            finite_u = np.isfinite(hi)
            finite_l = np.isfinite(lo)
            if finite_u.any():
                rows.append(np.eye(n)[finite_u])
                rhs.append(hi[finite_u])
            if finite_l.any():
                rows.append(-np.eye(n)[finite_l])
                rhs.append(-lo[finite_l])
            A = np.vstack(rows)
            b = np.concatenate(rhs)
            m = b.size
        else:
            raise ParseError(
                "bounds are supported with 'ineq' constraints, or with 'eq' under "
                "--regime sc"
            )

    if box is not None:
        f = SmoothObjective.quadratic(f.W, f.c, box=box) if f.variant == "quadratic" else None
        if f is None:
            raise ParseError("the sc regime requires a quadratic objective")

    problem = ProblemSpec(
        f=f,
        g=NonsmoothTerm(_CONSTRAINT_TYPES[ctype]),
        map=AffineMap.from_dense(A, b),
    )

    golden = None
    if "solution" in doc:
        sol = doc["solution"]
        _require_keys(sol, {"x", "y"}, {"x", "y"}, "solution")
        gx = _vector(sol["x"], "solution.x")
        gy = _vector(sol["y"], "solution.y")
        if gx.size != problem.n or gy.size != problem.m:
            raise DimensionError("solution: dimensions do not match the problem")
        golden = (gx, gy)
    return problem, golden


def _fmt(x: float) -> float:
    return float(format(float(x), ".17g"))


def write_problem_file(path: str, *, objective: dict, constraint: dict, bounds=None, solution=None) -> None:
    """Serialize a problem document with round-trip-exact numbers."""

    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple, np.ndarray)):
            return [clean(v) for v in obj]
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            v = float(obj)
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return _fmt(v)
        return obj

    doc = {"objective": clean(objective), "constraint": clean(constraint)}
    if bounds is not None:
        doc["bounds"] = clean(bounds)
    if solution is not None:
        doc["solution"] = clean(solution)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _build_parser() -> _Parser:
    p = _Parser(prog="bpalm", description="Bregman proximal augmented Lagrangian solver")
    p.add_argument("--problem", required=True, help="path to a problem JSON document")
    p.add_argument("--primal", choices=["energy", "box_barrier"], default=None)
    p.add_argument("--dual", choices=["energy", "von_neumann", "spence"], default=None)
    p.add_argument("--regime", choices=sorted(REGIMES), default="qsc")
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--sigma-growth", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--rho-decay", type=float, default=None, help="geometric decay factor for rho")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-outer", type=int, default=200)
    p.add_argument("--newton-cap", type=int, default=50)
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.add_argument("--trace", default=None, help="write a per-iteration CSV here")
    p.add_argument("--diagnose", action="store_true",
                   help="run convergence diagnostics against the embedded solution")
    return p


_TRACE_COLUMNS = [
    "k", "sigma", "rho", "T_k_used", "T_k_predicted", "B_k", "grad_norm",
    "decrement", "dual_res", "primal_res", "D_to_solution",
]


def _write_trace(
    path: str, report: SolveReport, geometry: BregmanGeometry, golden, distances
) -> None:
    """``distances`` holds D(z*, z_k) per record when the diagnostics already
    computed it, else None."""
    records = report.trace.records
    if distances is None and golden is not None:
        distances = [
            bregman_distance(geometry.primal, golden[0], rec.x_next)
            + bregman_distance(geometry.dual, golden[1], rec.y_next)
            for rec in records
        ]
    lines = [",".join(_TRACE_COLUMNS)]
    for i, rec in enumerate(records):
        d_str = "" if distances is None else format(distances[i], ".17g")
        cells = [
            str(rec.k),
            format(rec.sigma, ".17g"),
            format(rec.rho, ".17g"),
            str(rec.newton.iterations_used),
            "" if rec.predicted_newton is None else str(rec.predicted_newton),
            format(rec.b_value, ".17g"),
            format(rec.grad_norm, ".17g"),
            format(rec.decrement, ".17g"),
            format(rec.residuals.dual_res, ".17g"),
            format(rec.residuals.primal_res, ".17g"),
            d_str,
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _wall_time_ms(report: SolveReport) -> int:
    pinned = os.environ.get(_WALL_TIME_ENV)
    if pinned is not None:
        return int(pinned)
    return int(round(report.wall_seconds * 1000.0))


def _diagnostics_payload(report, problem, geometry, golden) -> tuple[dict, list[float]]:
    """The diagnostics block, and D(z*, z_k) per record for the trace."""
    gx, gy = golden
    payload = {}
    fejer = diagnostics.fejer_check(report.trace, gx, gy, geometry)
    payload["fejer_monotone"] = fejer.monotone
    payload["fejer_violations"] = fejer.violations
    try:
        rate = diagnostics.rate_fit(report.trace, gx, gy, geometry)
        payload["superlinear"] = rate.superlinear
        payload["final_ratio"] = rate.ratios[-1] if rate.ratios else None
    except BpalmError:
        payload["superlinear"] = None
        payload["final_ratio"] = None
    gap = diagnostics.ergodic_gap_check(
        report.trace, problem, geometry, [(gx, gy)]
    )
    payload["ergodic_max_violation"] = gap.max_violation
    if problem.g.variant == "orthant":
        conic = diagnostics.conic_feasibility_check(
            report.trace, problem, geometry, gx, gy
        )
        payload["conic_max_excess"] = conic.max_excess
    return payload, fejer.distances[1:]


def _report_payload(report: SolveReport, diag: dict | None) -> dict:
    payload = {
        "status": report.status.value,
        "iterations": report.outer_iterations,
        "newton_steps_total": report.total_newton_steps,
        "dual_res": report.residuals.dual_res,
        "primal_res": report.residuals.primal_res,
        "compl_res": report.residuals.compl_res,
        "sigma_final": report.sigma_final,
        "wall_time_ms": _wall_time_ms(report),
        "x": [float(v) for v in report.x],
        "y": [float(v) for v in report.y],
    }
    if diag is not None:
        payload["diagnostics"] = diag
    return payload


def _print_report(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, indent=2))
        return
    for key in ("status", "iterations", "newton_steps_total", "dual_res",
                "primal_res", "compl_res", "sigma_final", "wall_time_ms"):
        print(f"{key}: {payload[key]}")
    print("x: " + " ".join(format(v, ".17g") for v in payload["x"]))
    print("y: " + " ".join(format(v, ".17g") for v in payload["y"]))
    if "diagnostics" in payload:
        for key, value in payload["diagnostics"].items():
            print(f"diagnostics.{key}: {value}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        problem, golden = parse_problem(args.problem, regime=args.regime)
    except BpalmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ctype = {v: k for k, v in _CONSTRAINT_TYPES.items()}[problem.g.variant]
    dual_kind = args.dual or _DEFAULT_DUAL[ctype]
    primal_kind = args.primal or ("box_barrier" if problem.f.box is not None else "energy")
    if primal_kind == "box_barrier" and problem.f.box is None:
        parser.error("--primal box_barrier requires bounds and --regime sc")
    if primal_kind == "energy" and problem.f.box is not None:
        parser.error("bounded problems under --regime sc need --primal box_barrier")

    if primal_kind == "box_barrier":
        primal = box_barrier(*problem.f.box)
    else:
        primal = energy(problem.n)
    geometry = BregmanGeometry(primal, _DUAL_FACTORY[dual_kind](problem.m))
    try:
        penalty_for(problem.g, geometry.dual)
    except BpalmError as exc:
        parser.error(str(exc))

    try:
        if args.rho_decay is not None:
            schedule = RhoSchedule.geometric(args.rho, args.rho_decay)
        else:
            schedule = RhoSchedule.constant(args.rho)
        cfg = SolverConfig(
            geometry=geometry,
            regime=args.regime,
            sigma0=args.sigma0,
            sigma_growth=args.sigma_growth,
            rho_schedule=schedule,
            tol_b=args.tol,
            tol_kkt=args.tol,
            max_outer=args.max_outer,
            newton_cap=args.newton_cap,
        )
        report = run(cfg, problem)
        diag = distances = None
        if args.diagnose:
            if golden is None:
                print("warning: --diagnose ignored, no solution embedded", file=sys.stderr)
            else:
                diag, distances = _diagnostics_payload(report, problem, geometry, golden)
        if args.trace:  # reads each record's decrement, which may factorize
            _write_trace(args.trace, report, geometry, golden, distances)
    except BpalmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_report(_report_payload(report, diag), args.report)
    if report.status == SolveStatus.OPTIMAL:
        return 0
    if report.status == SolveStatus.MAX_ITER:
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
