"""The benchmark's workloads: fixed instance lists, set-up, one op, counts.

An op is one public call into bpalm: ``bpalm.run`` for the library
workloads, ``bpalm.cli.main`` for `cli_verify`.  Set-up builds the op's
inputs through the public constructors and is timed apart from the op.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bpalm as bp
from bpalm import cli

from instances import Instance, box_instance, inequality_instance

# The solver's default step-size schedule (SolverConfig and the CLI agree);
# backtrack counts are recovered from the sigma sequence with it.
SIGMA0, SIGMA_GROWTH, SHRINK = 1.0, 2.0, 0.5
MAX_OUTER = 3000


@dataclass
class Outcome:
    """What one op returned, as the benchmark sees it."""

    x: np.ndarray | None
    y: np.ndarray | None
    status: str  # the solver's label, or "raised"
    counts: dict[str, int] = field(default_factory=dict)
    trace_bytes: int = 0
    report_bytes: int = 0


def sigma_counts(sigmas, used, predicted) -> dict[str, int]:
    """Outer counts recovered from the per-iteration sigma sequence and the
    used / predicted Newton steps of each outer iteration."""
    backtracks = clipped = violations = 0
    target = SIGMA0
    for sigma, t_used, t_pred in zip(sigmas, used, predicted):
        j = round(math.log(target / sigma) / math.log(1.0 / SHRINK))
        backtracks += j
        clipped += j > 0
        violations += t_pred is not None and t_used > t_pred
        target = sigma * SIGMA_GROWTH
    return {
        "outer.iterations": len(sigmas),
        "outer.sigma_clipped": clipped,
        "outer.backtracks": backtracks,
        "newton.steps": int(sum(used)),
        "newton.predicted_violations": violations,
    }


class LibraryWorkload:
    """`bpalm.run` on QPs built from seeded instances."""

    def __init__(self, name, kind, n, m, seeds, dual, regime, tol):
        self.name, self.kind, self.n, self.m = name, kind, n, m
        self.seeds, self.dual, self.regime, self.tol = seeds, dual, regime, tol

    root_span = "outer.run"

    def instance(self, seed: int) -> Instance:
        make = inequality_instance if self.kind == "ineq" else box_instance
        return make(seed, self.n, self.m)

    def instances(self, workdir: Path) -> list[Instance]:
        return [self.instance(s) for s in self.seeds]

    def build(self, inst: Instance):
        if inst.kind == "box":
            f = bp.SmoothObjective.quadratic(inst.W, inst.c, box=(inst.lo, inst.hi))
            g = bp.NonsmoothTerm.zero_indicator()
            primal = bp.box_barrier(inst.lo, inst.hi)
        else:
            f = bp.SmoothObjective.quadratic(inst.W, inst.c)
            g = bp.NonsmoothTerm.nonneg_orthant_indicator()
            primal = bp.energy(self.n)
        problem = bp.ProblemSpec(f=f, g=g, map=bp.AffineMap.from_dense(inst.A, inst.b))
        geometry = bp.BregmanGeometry(primal, getattr(bp, self.dual)(self.m))
        cfg = bp.SolverConfig(
            geometry=geometry,
            regime=self.regime,
            tol_b=self.tol,
            tol_kkt=self.tol,
            max_outer=MAX_OUTER,
        )
        return cfg, problem

    def op(self, inst: Instance, built) -> bp.SolveReport:
        return bp.run(*built)

    def outcome(self, inst: Instance, result) -> Outcome:
        if result is None:
            return Outcome(None, None, "raised")
        records = result.trace.records
        counts = sigma_counts(
            [r.sigma for r in records],
            [r.newton.iterations_used for r in records],
            [r.predicted_newton for r in records],
        )
        return Outcome(result.x, result.y, result.status.value, counts)


class CliWorkload:
    """In-process `bpalm.cli.main` on problem files with an embedded,
    certified solution block, with the trace CSV and the diagnostics on."""

    root_span = "cli.main"

    def __init__(self, name, n, m, seeds, dual):
        self.name, self.n, self.m, self.seeds, self.dual = name, n, m, seeds, dual
        self.tol = 1e-8  # the CLI's default --tol
        self.workdir = None

    def _problem_path(self, seed: int) -> Path:
        return self.workdir / f"{self.name}-{seed}.json"

    def _trace_path(self, seed: int) -> Path:
        return self.workdir / f"{self.name}-{seed}.csv"

    def instances(self, workdir: Path) -> list[Instance]:
        self.workdir = workdir
        out = []
        for seed in self.seeds:
            inst = inequality_instance(seed, self.n, self.m)
            write_problem_document(self._problem_path(inst.seed), inst)
            self._trace_path(inst.seed).unlink(missing_ok=True)
            out.append(inst)
        return out

    def build(self, inst: Instance):
        return cli.parse_problem(str(self._problem_path(inst.seed)))

    def argv(self, seed: int) -> list[str]:
        return [
            "--problem", str(self._problem_path(seed)),
            "--dual", self.dual,
            "--report", "json",
            "--trace", str(self._trace_path(seed)),
            "--diagnose",
            "--max-outer", str(MAX_OUTER),
        ]

    def op(self, inst: Instance, built) -> str:
        """main parses the file itself, so `built` is not passed in."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(self.argv(inst.seed))
        return stdout.getvalue()

    def outcome(self, inst: Instance, printed: str | None) -> Outcome:
        trace_path = self._trace_path(inst.seed)
        counts, trace_bytes = {}, 0
        if trace_path.exists():
            trace_bytes = trace_path.stat().st_size
            with open(trace_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            counts = sigma_counts(
                [float(r["sigma"]) for r in rows],
                [int(r["T_k_used"]) for r in rows],
                [int(r["T_k_predicted"]) if r["T_k_predicted"] else None for r in rows],
            )
            trace_path.unlink()
        if printed is None:
            return Outcome(None, None, "raised", counts, trace_bytes, 0)
        payload = json.loads(printed)
        return Outcome(
            np.asarray(payload["x"], dtype=float),
            np.asarray(payload["y"], dtype=float),
            payload["status"],
            counts,
            trace_bytes,
            len(printed.encode("utf-8")),
        )


def write_problem_document(path: Path, inst: Instance) -> None:
    """The CLI's problem format, written here rather than through the
    program: dense triplets for W and A, and the certified solution."""

    # tolist() yields Python floats, whose repr round-trips exactly
    n, m = inst.c.size, inst.b.size
    doc = {
        "objective": {
            "quadratic": {
                "n": n,
                "W": [[i, j, v] for i, row in enumerate(inst.W.tolist()) for j, v in enumerate(row)],
                "c": inst.c.tolist(),
            }
        },
        "constraint": {
            "type": "ineq",
            "m": m,
            "A": [[i, j, v] for i, row in enumerate(inst.A.tolist()) for j, v in enumerate(row)],
            "b": inst.b.tolist(),
        },
        "solution": {"x": inst.x_ref.tolist(), "y": inst.y_ref.tolist()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# Instance seed lists are fixed per workload; the run's --seed only orders
# them.  Every instance a list's generator yields is kept, whatever the
# solver does on it.
WORKLOADS = {
    "kl_ineq": LibraryWorkload(
        "kl_ineq", "ineq", 300, 150, list(range(8)), "von_neumann", "qsc", 1e-8
    ),
    "box_ip": LibraryWorkload(
        "box_ip", "box", 20, 10, list(range(6)), "energy", "sc", 1e-6
    ),
    "cli_verify": CliWorkload("cli_verify", 200, 100, list(range(4)), "spence"),
}
