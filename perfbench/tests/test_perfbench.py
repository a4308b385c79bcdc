"""The benchmark's own checks: seeded inputs, the independent KKT check,
trace neutrality, failure accounting and the scaling of times to the
reference speed.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import bpalm as bp
from bpalm.oracle import golden_suite

import harness
import reference
from instances import (
    CERTIFY_TOL,
    Instance,
    _box_reference,
    _inequality_reference,
    box_instance,
    inequality_instance,
    kkt_residual,
)
from tracer import Tracer, self_times
from workloads import CliWorkload, LibraryWorkload, Outcome, sigma_counts


def _arrays(inst):
    return [inst.W, inst.c, inst.A, inst.b, inst.x_ref, inst.y_ref]


@pytest.mark.parametrize("make,n,m", [(inequality_instance, 30, 15), (box_instance, 12, 5)])
def test_seed_regenerates_the_same_instance(make, n, m):
    first, again, other = make(3, n, m), make(3, n, m), make(4, n, m)
    for u, v in zip(_arrays(first), _arrays(again)):
        assert np.array_equal(u, v)
    assert not np.array_equal(first.A, other.A)


def _golden_instance(g):
    W, c = np.asarray(g.problem.f.W), np.asarray(g.problem.f.c)
    A, b = np.asarray(g.problem.map.A), np.asarray(g.problem.map.b)
    lo, hi = g.problem.f.box if g.problem.f.box is not None else (None, None)
    return Instance(g.family, 0, W, c, A, b, lo, hi, g.x_star, g.y_star)


GOLDEN = [g for g in golden_suite() if g.family in ("ineq", "box")]


@pytest.mark.parametrize("g", GOLDEN, ids=[g.name for g in GOLDEN])
def test_independent_check_accepts_golden_solutions(g):
    inst = _golden_instance(g)
    assert kkt_residual(inst, g.x_star, g.y_star) <= 1e-8
    if g.family == "ineq":
        x, y = _inequality_reference(inst.W, inst.c, inst.A, inst.b)
    else:
        x, y = _box_reference(inst.W, inst.c, inst.A, inst.b, inst.lo, inst.hi)
    assert kkt_residual(inst, x, y) <= CERTIFY_TOL
    assert np.allclose(x, g.x_star, atol=1e-7)


@pytest.mark.parametrize("make,n,m", [(inequality_instance, 30, 15), (box_instance, 12, 5)])
def test_wrong_answers_count_as_failures(make, n, m):
    inst = make(5, n, m)
    wl = LibraryWorkload("t", inst.kind, n, m, [5], "energy", "qsc", 1e-8)
    assert harness.judge(wl, inst, Outcome(inst.x_ref, inst.y_ref, "optimal"))[0]
    shifted = inst.x_ref + 1e-3
    assert not harness.judge(wl, inst, Outcome(shifted, inst.y_ref, "optimal"))[0]
    assert not harness.judge(wl, inst, Outcome(inst.x_ref, inst.y_ref + 1e-3, "optimal"))[0]
    assert not harness.judge(wl, inst, Outcome(None, None, "raised"))[0]
    assert not harness.judge(wl, inst, Outcome(inst.x_ref[:-1], inst.y_ref, "optimal"))[0]


def test_negative_multiplier_fails_the_inequality_check():
    inst = inequality_instance(1, 20, 10)
    y = inst.y_ref.copy()
    y[np.argmin(y)] = -1e-6
    assert kkt_residual(inst, inst.x_ref, y) >= 1e-6


def _trace_pair(wl, tmp_path):
    insts = wl.instances(tmp_path)
    order = list(range(len(insts)))
    built = [wl.build(inst) for inst in insts]
    plain = [harness.one_op(wl, insts, built, i) for i in order]
    traced, tracer = harness.traced_pass(wl, insts, built, order)
    return plain, traced, tracer


@pytest.mark.parametrize(
    "wl",
    [
        LibraryWorkload("kl", "ineq", 16, 8, [0, 1], "von_neumann", "qsc", 1e-8),
        LibraryWorkload("box", "box", 8, 3, [0], "energy", "sc", 1e-6),
        CliWorkload("cli", 10, 5, [2], "spence"),
    ],
    ids=["kl", "box", "cli"],
)
def test_tracing_changes_no_answer_or_count(wl, tmp_path):
    plain, traced, tracer = _trace_pair(wl, tmp_path)
    assert harness.same_answers(plain, traced)
    assert all(s.outcome.counts["outer.iterations"] > 0 for s in traced)
    assert "newton.cho_factor" in tracer.names
    metrics = harness.per_layer(wl, plain, traced, tracer)
    assert metrics["newton.factorizations"][0] > 0
    # the self times account for the traced op time; only the CLI's own
    # work in main falls outside the listed layers
    unlisted = metrics["op.unlisted.self_s"][0]
    if isinstance(wl, LibraryWorkload):
        assert abs(unlisted) <= 1e-9
    else:
        assert 0.0 <= unlisted <= metrics["op.traced_s"][0]


def test_tracer_restores_the_program():
    before = (bp.outer.solve_subproblem, bp.auglag.SubproblemContext.hess, bp.AffineMap.from_dense)
    with Tracer().installed():
        assert bp.outer.solve_subproblem is not before[0]
    after = (bp.outer.solve_subproblem, bp.auglag.SubproblemContext.hess, bp.AffineMap.from_dense)
    assert before == after


def test_self_time_subtracts_children():
    arrays = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 1, 0]),
    }
    assert np.allclose(self_times(arrays), [6.0, 2.0, 1.0, 1.0])


def test_sigma_counts_recover_backtracks():
    # targets 1, 2, 1 -> sigmas 1 (no cut), 0.5 (two halvings), 1 (no cut)
    counts = sigma_counts([1.0, 0.5, 1.0], [1, 2, 0], [1, 1, None])
    assert counts["outer.backtracks"] == 2
    assert counts["outer.sigma_clipped"] == 1
    assert counts["newton.predicted_violations"] == 1
    assert counts["newton.steps"] == 3


def _sample(index, seconds, kernel_s):
    return harness.Sample(index, seconds, Outcome(None, None, "optimal"), True, 0.0, 0.0, kernel_s)


def test_tail_is_the_slowest_instance_median():
    runs = [(0, 1.0), (0, 9.0), (0, 2.0), (1, 3.0), (1, 3.0)]
    samples = [_sample(i, t, reference.NOMINAL_S) for i, t in runs]
    assert harness.slowest_instance(samples, [s.seconds for s in samples]) == 3.0


def test_times_scale_with_the_reference_kernel(monkeypatch):
    monkeypatch.setattr(harness, "peak_memory_mb", lambda name: 1.0)
    wl = LibraryWorkload("t", "ineq", 4, 2, [0, 1], "energy", "qsc", 1e-8)
    nominal = reference.NOMINAL_S
    fast = [_sample(0, 1.0, nominal), _sample(1, 2.0, nominal)]
    slow = [_sample(0, 2.0, 2 * nominal), _sample(1, 4.0, 2 * nominal)]
    m_fast, _ = harness.end_to_end(wl, fast, [[0.1], [0.1]], nominal)
    m_slow, _ = harness.end_to_end(wl, slow, [[0.2], [0.2]], 2 * nominal)
    assert m_fast["solve_s.p50"][0] == pytest.approx(1.5)
    assert m_fast["ops_per_s"][0] == pytest.approx(2 / 3.0)
    for key in ("solve_s.p50", "solve_s.tail", "ops_per_s", "setup_s"):
        assert m_slow[key][0] == pytest.approx(m_fast[key][0])
