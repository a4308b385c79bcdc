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
"inf" / "-inf" (or JSON's Infinity / -Infinity).  W must be positive
semidefinite, and every dimension (n, m) at most 4096.  Under the sc
regime bounds become the barrier box of the primal geometry; otherwise they
are appended to an inequality constraint block.  Unknown fields are rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys

import numpy as np

from . import diagnostics
from .exceptions import BpalmError, DimensionError, InvalidRegimeError, ParseError, UnsupportedError
from .legendre import BregmanGeometry, box_barrier, energy, spence, von_neumann
from .legendre import bregman_distance  # noqa: F401 -- perfbench's tracer wraps this name
from .newton import REGIMES
from .outer import RhoSchedule, SolveReport, SolveStatus, SolverConfig, run
from .penalty import penalty_for
from .problem import AffineMap, NonsmoothTerm, ProblemSpec, SmoothObjective, canonicalize_triplets

__all__ = ["parse_problem", "main"]

_CONSTRAINT_TYPES = {"eq": "zero", "ineq": "orthant", "vecmax": "vecmax", "l1": "one_norm"}
# the default dual geometry of each NonsmoothTerm variant
_DEFAULT_DUAL = {"zero": "energy", "orthant": "von_neumann", "vecmax": "von_neumann",
                 "one_norm": "energy"}
_DUAL_FACTORY = {"energy": energy, "von_neumann": von_neumann, "spence": spence}

# Dense n x n and m x n arrays are allocated from the stated dimensions before
# any entry is read; at the cap each n x n matrix of a solve takes 128 MiB.
_MAX_DIMENSION = 4096

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
    """A finite number, never a boolean, or with ``infinite`` also +-inf."""
    if infinite and isinstance(value, str):
        value = _INFINITIES.get(value.strip().lower(), value)
    if type(value) in (int, float):
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
    if type(value) is not int:  # not a boolean, a string or a fraction
        raise ParseError(f"{where}: bad dimension {value!r}")
    if value < 1:
        raise DimensionError(f"{where}: dimension must be positive, got {value}")
    if value > _MAX_DIMENSION:
        raise DimensionError(f"{where}: dimension at most {_MAX_DIMENSION}, got {value}")
    return value


def _parse_objective(doc: dict):
    """The objective's dimension n, and the function building the objective
    from the sc regime's barrier box, or None, once the bounds are read."""
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
        return n, lambda box: SmoothObjective.quadratic(W, c, box=box)
    named = doc["named"]
    _require_keys(named, {"name", "n"}, {"name", "n"}, "objective.named")
    n = _dimension(named["n"], "objective.named.n")
    f = SmoothObjective.named(str(named["name"]), n)

    def unboxed(box):
        if box is not None:
            raise ParseError("the sc regime requires a quadratic objective")
        return f

    return n, unboxed


def _parse_bounds(doc: dict, n: int) -> tuple[np.ndarray, np.ndarray]:
    _require_keys(doc, {"l", "u"}, {"l", "u"}, "bounds")
    lo = _vector(doc["l"], "bounds.l", infinite=True)
    hi = _vector(doc["u"], "bounds.u", infinite=True)
    if lo.size != n or hi.size != n:
        raise DimensionError(f"bounds: expected length {n} vectors")
    if np.any(lo >= hi):
        raise ParseError("bounds: l < u must hold componentwise")
    return lo, hi


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring its state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse_problem(path: str, regime: str = "qsc"):
    """Parse a problem file into (ProblemSpec, golden solution or None).

    Box bounds are routed into the barrier geometry when the sc regime is
    selected; otherwise they are folded into the inequality block, which
    requires an 'ineq' constraint type.

    The decoded document is tens of thousands of acyclic triplet lists, which
    refcounting frees; the cyclic collector would walk them over and over, so
    it is paused until `_parse_document` has returned and the document is gone.
    """
    if regime not in REGIMES:
        raise InvalidRegimeError(f"unknown regime {regime!r}")
    with _gc_paused():
        return _parse_document(path, regime)


def _parse_document(path: str, regime: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc

    _require_keys(
        doc, {"objective", "constraint", "bounds", "solution"}, {"objective", "constraint"}, "document"
    )
    n, build_objective = _parse_objective(doc["objective"])

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
        if REGIMES[regime].barrier:
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

    problem = ProblemSpec(
        f=build_objective(box),
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


def _sentinel(v: float) -> str:
    """The sentinel string the JSON report writes for a non-finite v."""
    return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(64)


def _build_parser() -> _Parser:
    p = _Parser(prog="bpalm", description="Bregman proximal augmented Lagrangian solver")
    p.add_argument("--problem", required=True, help="path to a problem JSON document")
    p.add_argument("--dual", choices=list(_DUAL_FACTORY), default=None)
    p.add_argument("--regime", choices=sorted(REGIMES), default="qsc")
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--sigma-growth", type=float, default=2.0)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--rho-decay", type=float, default=1.0, help="geometric decay factor for rho")
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
    path: str, log: diagnostics.IterateLog, geometry: BregmanGeometry, golden, distances
) -> None:
    """``distances`` holds D(z*, z_k) per record when the diagnostics already
    computed it, else None."""
    records, iterates = log.records, log.iterates
    if distances is None and golden is not None:
        distances = diagnostics._distance_series(log, *golden, geometry)[1:]
    # read in sigma order: the spectral system keeps G for two sigmas only,
    # and sigma returns to earlier values along a run
    order = sorted(range(len(records)), key=lambda i: records[i].sigma)
    decrements = dict(zip(order, [iterates[i].decrement for i in order]))
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
            format(decrements[i], ".17g"),
            format(rec.residuals.dual_res, ".17g"),
            format(rec.residuals.primal_res, ".17g"),
            d_str,
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _pinned_wall_time_ms() -> int | None:
    """The report's wall time pinned by the environment, or None; read before a solve."""
    pinned = os.environ.get(_WALL_TIME_ENV)
    if pinned is None:
        return None
    if pinned.isascii() and pinned.isdigit() and len(pinned) <= 18:  # below 2^63
        return int(pinned)
    raise BpalmError(f"{_WALL_TIME_ENV} must be a non-negative integer, got {pinned[:40]!r}")


def _diagnostics_payload(log, problem, geometry, golden) -> tuple[dict, list[float]]:
    """The diagnostics block, and D(z*, z_k) per record for the trace."""
    gx, gy = golden
    payload = {}
    fejer = diagnostics.fejer_check(log, gx, gy, geometry)
    payload["fejer_monotone"] = fejer.monotone
    payload["fejer_violations"] = fejer.violations
    total, budget = diagnostics.summability_check(log, fejer.distances)
    payload["summability_sum"], payload["summability_budget"] = total, budget
    try:
        rate = diagnostics.rate_fit(fejer.distances)
        payload["superlinear"] = rate.superlinear
        payload["final_ratio"] = rate.ratios[-1] if rate.ratios else None
    except BpalmError:
        payload["superlinear"] = None
        payload["final_ratio"] = None
    payload["ergodic_max_violation"] = diagnostics.ergodic_gap_check(
        log, problem, geometry, [(gx, gy)]
    )
    with contextlib.suppress(UnsupportedError):  # the conic check covers the orthant only
        payload["conic_max_excess"] = diagnostics.conic_feasibility_check(
            log, problem, geometry, gx, gy
        )
    return payload, fejer.distances[1:]


def _report_payload(report: SolveReport, diag: dict | None, pinned_ms: int | None) -> dict:
    payload = {
        "status": report.status.value,
        "iterations": report.outer_iterations,
        "newton_steps_total": report.total_newton_steps,
        "dual_res": report.residuals.dual_res,
        "primal_res": report.residuals.primal_res,
        "compl_res": report.residuals.compl_res,
        "sigma_final": report.sigma_final,
        "wall_time_ms": round(report.wall_seconds * 1000.0) if pinned_ms is None else pinned_ms,
        "x": [float(v) for v in report.x],
        "y": [float(v) for v in report.y],
    }
    if diag is not None:
        payload["diagnostics"] = diag
    return payload


def _strict(obj):
    """The payload with each non-finite float as its sentinel string, so that
    the JSON report parses under strict parsers."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return _sentinel(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _print_report(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(_strict(payload), indent=2, allow_nan=False))
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
        pinned_ms = _pinned_wall_time_ms()
        problem, golden = parse_problem(args.problem, regime=args.regime)
    except BpalmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    dual_kind = args.dual or _DEFAULT_DUAL[problem.g.variant]
    # the box, present only for bounds under --regime sc, fixes the primal geometry
    primal = energy(problem.n) if problem.f.box is None else box_barrier(*problem.f.box)
    geometry = BregmanGeometry(primal, _DUAL_FACTORY[dual_kind](problem.m))
    try:
        penalty_for(problem.g, geometry.dual)
    except BpalmError as exc:
        parser.error(str(exc))

    try:
        cfg = SolverConfig(
            geometry=geometry,
            regime=args.regime,
            sigma0=args.sigma0,
            sigma_growth=args.sigma_growth,
            rho_schedule=RhoSchedule(args.rho, args.rho_decay),
            tol_b=args.tol,
            tol_kkt=args.tol,
            max_outer=args.max_outer,
            newton_cap=args.newton_cap,
        )
        # the trace and the diagnostics replay the iterates, which the run
        # hands to this log and keeps nowhere else
        log = None
        if args.trace or (args.diagnose and golden is not None):
            log = diagnostics.IterateLog()
        report = run(cfg, problem, on_iteration=log)
        diag = distances = None
        if args.diagnose:
            if golden is None:
                print("warning: --diagnose ignored, no solution embedded", file=sys.stderr)
            else:
                diag, distances = _diagnostics_payload(log, problem, geometry, golden)
        if args.trace:  # reads each iterate's decrement, which may factorize
            _write_trace(args.trace, log, geometry, golden, distances)
    except (BpalmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_report(_report_payload(report, diag, pinned_ms), args.report)
    if report.status == SolveStatus.OPTIMAL:
        return 0
    if report.status == SolveStatus.MAX_ITER:
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
