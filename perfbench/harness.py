"""Timed passes, the traced pass, answer checks and the printed result."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import reference
from instances import kkt_residual, reference_distance
from tracer import Tracer, root_of, self_times
from workloads import WORKLOADS, CliWorkload, Outcome

# Residuals are recomputed in another operation order than the solver's, so
# an answer exactly at the tolerance may differ from it in the last digits.
ROUNDING_SLACK = 1e-6
# The primal answer must also lie within this multiple of the tolerance of
# the certified reference (relative distance).  W is positive definite, so
# the distance is bounded by the residual times a modest condition factor.
REFERENCE_FACTOR = 100.0
# Set-up is repeated over all instances at least SETUP_REPEATS times and for
# at least SETUP_SECONDS; setup_s is the median over instances of each
# instance's median build time, which no single slow build can move.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# The reference kernel (about 20 ms) is timed this often after every op and
# every set-up round, after PROBE_WARMUP untimed calls.
PROBES_PER_OP = 4
PROBE_WARMUP = 3

LAYER_SELF = [
    "outer.run",
    "outer.outer_iteration",
    "outer.select_sigma",
    "newton.solve_subproblem",
    "auglag.make_context",
    "auglag.hess",
    "auglag.grad",
    "auglag.acceptance_check",
    "penalty.value",
    "penalty.grad",
    "penalty.hess",
    "legendre.conj_grad",
    "legendre.grad",
    "legendre.hess_diag",
    "legendre.bregman_distance",
    "problem.kkt_residuals",
    "problem.f_grad",
    "cli.parse_problem",
    "diagnostics.fejer_check",
    "diagnostics.rate_fit",
    "diagnostics.ergodic_gap_check",
    "diagnostics.conic_feasibility_check",
]
CHOLESKY = ("newton.cho_factor", "newton.cho_solve")
DIAGNOSTICS = [n for n in LAYER_SELF if n.startswith("diagnostics.")]
STATUSES = ("optimal", "max_iter", "inner_failure", "diverged")
COUNTS = (
    "outer.iterations",
    "outer.sigma_clipped",
    "outer.backtracks",
    "newton.steps",
    "newton.predicted_violations",
)


@dataclass
class Sample:
    index: int  # position in the workload's instance list
    seconds: float
    outcome: Outcome
    ok: bool
    residual: float
    distance: float
    kernel_s: float = float("nan")  # reference kernel time around the op


def environment(loadavg: tuple[float, float, float]) -> dict:
    """What the numbers depend on besides the code."""
    blas = {}
    try:
        for dep in np.show_config(mode="dicts")["Build Dependencies"].values():
            if dep.get("name", "").endswith("blas"):
                blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if none is found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def judge(wl, inst, outcome: Outcome) -> tuple[bool, float, float]:
    """The benchmark's own verdict on an answer; the status label plays no
    part in it."""
    if outcome.x is None:
        return False, float("inf"), float("inf")
    resid = kkt_residual(inst, outcome.x, outcome.y)
    dist = reference_distance(inst, outcome.x)
    ok = resid <= wl.tol * (1.0 + ROUNDING_SLACK) and dist <= REFERENCE_FACTOR * wl.tol
    return ok, resid, dist


def one_op(wl, insts, built, i: int, tracer: Tracer | None = None) -> Sample:
    """Time one op; with a tracer, the op is one root span."""
    inst = insts[i]
    span = tracer.span(wl.root_span) if tracer is not None else contextlib.nullcontext()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with span:
            raw = wl.op(inst, built[i])
    except Exception as exc:  # a raising op is a failed op, not a dead run
        raw = None
        print(f"# op on {wl.name} seed {inst.seed} raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    outcome = wl.outcome(inst, raw)
    ok, resid, dist = judge(wl, inst, outcome)
    return Sample(i, seconds, outcome, ok, resid, dist)


def probe_block() -> list[float]:
    return [reference.probe() for _ in range(PROBES_PER_OP)]


def timed_passes(wl, insts, built, order, seconds: float) -> list[Sample]:
    """Whole passes over the instances, in the seed's order, for as long as
    another pass fits in `seconds` (at least one pass); every instance is
    timed equally often.  The reference kernel is timed before the first op
    and after every op; an op's kernel time is the median of the probes just
    before and just after it.  One untimed op comes first: the first op of a
    process ran up to 1.8 times as long as the same op later."""
    one_op(wl, insts, built, order[0])
    for _ in range(PROBE_WARMUP):
        reference.probe()
    samples = []
    before = probe_block()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i in order:
            sample = one_op(wl, insts, built, i)
            after = probe_block()
            sample.kernel_s = statistics.median(before + after)
            samples.append(sample)
            before = after
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return samples


def setup_times(wl, insts, order) -> tuple[list[list[float]], float]:
    """Build times per instance, each instance built repeatedly (see
    SETUP_REPEATS), after the timed passes so that writing the problem files
    has long finished; and the median kernel time of the probes timed after
    every round."""
    times = [[] for _ in insts]
    probes = []
    spent = 0.0
    while len(times[0]) < SETUP_REPEATS or spent < SETUP_SECONDS:
        for i in order:
            gc.collect()
            t0 = time.perf_counter()
            wl.build(insts[i])
            times[i].append(time.perf_counter() - t0)
            spent += times[i][-1]
        probes.extend(probe_block())
    return times, statistics.median(probes)


def traced_pass(wl, insts, built, order) -> tuple[list[Sample], Tracer]:
    """One set-up per instance and one op per instance, with spans."""
    tracer = Tracer()
    with tracer.installed():
        for i in order:
            with tracer.span("setup"):
                wl.build(insts[i])
        traced = [one_op(wl, insts, built, i, tracer) for i in order]
    return traced, tracer


def status_mismatch(s: Sample) -> bool:
    return (s.outcome.status == "optimal") != s.ok


def slowest_instance(samples: list[Sample], times: list[float]) -> float:
    """The tail: the largest of the instances' median times.  A run has at
    most about twenty ops, too few for a percentile above the median with
    ten samples beyond it; the slowest instance's median is what the worst
    input costs, and no single slow op can move it."""
    per_instance = {}
    for s, t in zip(samples, times):
        per_instance.setdefault(s.index, []).append(t)
    return max(statistics.median(v) for v in per_instance.values())


def peak_memory_mb(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("memprobe.py")), workload],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["peak_mb"]


def end_to_end(wl, samples, setup, setup_kernel_s) -> tuple[dict, list[str]]:
    """Times are scaled to the reference speed (see reference.py): each op by
    the kernel time around it, set-up by the kernel time during set-up.  The
    notes give the times as measured."""
    measured = [s.seconds for s in samples]
    scaled = [s.seconds * reference.NOMINAL_S / s.kernel_s for s in samples]
    setup_measured = statistics.median(statistics.median(t) for t in setup)
    ok = sum(s.ok for s in samples)
    metrics = {
        "solve_s.p50": (statistics.median(scaled), "s"),
        "solve_s.tail": (slowest_instance(samples, scaled), "s"),
        "ops_per_s": (ok / sum(scaled), "1/s"),
        "success_rate": (ok / len(samples), "ratio"),
        "setup_s": (setup_measured * reference.NOMINAL_S / setup_kernel_s, "s"),
        "peak_mem_mb": (peak_memory_mb(wl.name), "MB"),
    }
    kernel_s = statistics.median(s.kernel_s for s in samples)
    notes = [
        f"solve_s over {len(samples)} ops, {len(samples) // len(setup)} of each instance; "
        "tail is the slowest instance's median",
        f"fail_rate {1.0 - ok / len(samples):.4f} ({len(samples) - ok} of {len(samples)})",
        f"setup_s from {sum(map(len, setup))} builds of {len(setup)} instances",
        f"reference kernel: median {kernel_s * 1e3:.3f} ms around the ops, "
        f"{setup_kernel_s * 1e3:.3f} ms during set-up, nominal {reference.NOMINAL_S * 1e3:.0f} ms",
        f"as measured: solve_s.p50 {statistics.median(measured):.6g} s, "
        f"solve_s.tail {slowest_instance(samples, measured):.6g} s, "
        f"ops_per_s {ok / sum(measured):.6g} 1/s, setup_s {setup_measured:.6g} s",
    ]
    return metrics, notes


def per_layer(wl, untraced: list[Sample], traced: list[Sample], tracer: Tracer) -> dict:
    arrays = tracer.arrays()
    names = np.asarray(tracer.names)
    name_of = names[arrays["name_id"]]
    selfs = self_times(arrays)
    dur = arrays["end"] - arrays["start"]
    roots = root_of(arrays)
    is_setup_root = (arrays["parent"] < 0) & (name_of == "setup")
    in_setup = is_setup_root[roots]
    in_op = ~in_setup
    op_roots = np.flatnonzero((arrays["parent"] < 0) & ~is_setup_root)
    n_ops = len(traced)

    def per_op_self(name) -> float:
        return float(selfs[in_op & (name_of == name)].sum()) / n_ops

    def count(name, extra=None) -> int:
        mask = in_op & (name_of == name)
        if extra is not None:
            mask &= extra
        return int(mask.sum())

    m = {}
    for name in LAYER_SELF:
        m[f"{name}.self_s"] = (per_op_self(name), "s")
    m["newton.cholesky.self_s"] = (sum(per_op_self(n) for n in CHOLESKY), "s")
    op_traced = float(dur[op_roots].mean())
    listed = sum(v for v, _ in m.values())
    m["op.unlisted.self_s"] = (op_traced - listed, "s")
    m["op.traced_s"] = (op_traced, "s")
    m["trace.overhead_s"] = (op_traced - statistics.fmean(s.seconds for s in untraced), "s")

    # cli.output: main minus the parse, solve and diagnostics calls it makes
    main_children = np.isin(arrays["parent"], op_roots) & np.isin(
        name_of, ["cli.parse_problem", "outer.run"] + DIAGNOSTICS
    )
    cli_output = 0.0
    if isinstance(wl, CliWorkload):
        cli_output = float(dur[op_roots].sum() - dur[main_children].sum()) / n_ops
    m["cli.output.self_s"] = (cli_output, "s")

    builds = int(is_setup_root.sum())
    setup_self = selfs[in_setup & (name_of == "problem.setup")].sum()
    m["problem.setup.self_s"] = (float(setup_self) / builds, "s")

    factorizations = count("newton.cho_factor")
    hess_calls = count("auglag.hess")
    steps = sum(s.outcome.counts.get("newton.steps", 0) for s in traced)
    n, mm = wl.n, wl.m
    m["newton.factorizations"] = (factorizations, "count")
    m["newton.spd_lifts"] = (count("newton.cho_factor", arrays["raised"]), "count")
    m["newton.steps_per_factorization"] = (steps / max(factorizations, 1), "ratio")
    m["newton.cholesky.gflops_computed"] = (factorizations * n**3 / 3.0 / 1e9, "GFLOP")
    m["auglag.hess.calls"] = (hess_calls, "count")
    m["auglag.hess.gflops_computed"] = (
        hess_calls * (2.0 * mm * n * n + 2.0 * mm * mm * n) / 1e9,
        "GFLOP",
    )
    for key in COUNTS:
        m[key] = (sum(s.outcome.counts.get(key, 0) for s in traced), "count")
    for status in STATUSES:
        m[f"outer.status.{status}"] = (sum(s.outcome.status == status for s in traced), "count")
    m["op.raised"] = (sum(s.outcome.status == "raised" for s in traced), "count")
    m["outer.status_mismatch"] = (sum(status_mismatch(s) for s in traced), "count")
    m["cli.trace_bytes"] = (sum(s.outcome.trace_bytes for s in traced), "bytes")
    m["cli.report_bytes"] = (sum(s.outcome.report_bytes for s in traced), "bytes")
    return m


def same_answers(a: list[Sample], b: list[Sample]) -> bool:
    """Tracing must change no returned x, y, status or count."""
    for s, t in zip(sorted(a, key=lambda s: s.index), sorted(b, key=lambda s: s.index)):
        if s.outcome.status != t.outcome.status or s.outcome.counts != t.outcome.counts:
            return False
        for u, v in ((s.outcome.x, t.outcome.x), (s.outcome.y, t.outcome.y)):
            if (u is None) != (v is None) or (u is not None and not np.array_equal(u, v)):
                return False
    return len(a) == len(b)


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    if workload not in WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    loadavg = os.getloadavg()
    wl = WORKLOADS[workload]
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    insts = wl.instances(work)
    order = [int(i) for i in np.random.default_rng(seed).permutation(len(insts))]
    built = [wl.build(inst) for inst in insts]

    if trace:
        untraced = [one_op(wl, insts, built, i) for i in order]
        traced, tracer = traced_pass(wl, insts, built, order)
        tracer.write(out_dir / f"spans-{workload}-{seed}.npz")
        samples = traced
        metrics = per_layer(wl, untraced, traced, tracer)
        notes = [f"self times and counts over one traced pass of {len(traced)} ops"]
        correct = same_answers(untraced, traced)
        if not correct:
            notes.append("tracing changed an answer or a count")
    else:
        samples = timed_passes(wl, insts, built, order, seconds)
        metrics, notes = end_to_end(wl, samples, *setup_times(wl, insts, order))
        correct = True

    # a status of optimal on an answer the independent check rejects is a
    # wrong output; a pessimistic label is counted, not fatal
    lies = [s for s in samples if s.outcome.status == "optimal" and not s.ok]
    correct = correct and not lies
    env = environment(loadavg)
    report_table(wl, insts, samples, metrics, notes, env)
    result = {
        "correct": bool(correct),
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"result-{workload}-{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        ops = [[insts[s.index].seed, s.seconds, s.kernel_s] for s in samples]
        record = {"env": env, "notes": notes, **result, "ops": [] if trace else ops}
        json.dump(record, fh, indent=2)
    print(json.dumps(result))
    return 0


def report_table(wl, insts, samples, metrics, notes, env) -> None:
    print(f"# workload {wl.name}: {len(insts)} instances, seeds {wl.seeds}")
    seen = set()
    for s in samples:
        if s.index in seen:
            continue
        seen.add(s.index)
        print(
            f"#   seed {insts[s.index].seed}: {s.outcome.status:<13} "
            f"{'ok  ' if s.ok else 'FAIL'} kkt {s.residual:.2e} ref {s.distance:.1e} "
            f"{s.seconds:.3f} s {s.outcome.counts.get('outer.iterations', '-')} outer"
        )
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {value:>14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print("# env " + json.dumps(env))
