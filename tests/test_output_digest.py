"""Digests that pin the outputs of two small runs bit for bit.

A change meant to keep every output bit, as most performance changes are,
proves it here.  The runs are a Spence CLI solve with ``--trace`` and
``--diagnose``, whose JSON report and trace CSV are hashed, a von_neumann
library solve, whose x, y, status, sigmas, B_k and Newton counts are hashed,
and the golden box QPs under the ``sc`` regime, whose x, y, status, sigmas,
B_k, Newton counts and per-step decrements are hashed.
The digests hold for the numpy, scipy and BLAS builds in RECORDED and the BLAS
kernels OpenBLAS picks for the CPU; elsewhere rounding may differ, so the
tests skip and name what differs.  A change that moves bits on purpose
records the new digests, which a failing test prints, and says so in
CHANGES.md.
"""

import ctypes
import glob
import hashlib
import os
import struct

import numpy as np
import pytest
import scipy

import bpalm
from bpalm.cli import main
from bpalm.oracle import golden_suite
from test_acceptance import family_config
from test_cli import write_document
from test_diagnostics import logged_run
from test_problem import _load_benchmark_instances

RECORDED = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas_kernels": "SkylakeX",
}
CLI_REPORT_SHA256 = "3da0551f21c9a3949c01b0d692470be77eb5ec4c22f4c4da690f6360a2d4ea59"
CLI_TRACE_SHA256 = "99715b927d0479dd1b14132f4a0660940324e3ec98196ee5c4162802e5406121"
LIBRARY_SHA256 = "e5baa77d14ef391cf1870d2001eeb7072bb829ef322b037d46d298bc4d765a65"
SC_BOX_SHA256 = "56ed5dbb90a109fe075ce35fd8df4528aa62bbff94f2b263a734cefaeead8eb0"


def _blas_kernels() -> str:
    """The kernel set OpenBLAS chose for this CPU, where the library says."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_kernels": _blas_kernels(),
    }


@pytest.fixture(scope="module", autouse=True)
def recorded_environment():
    running = _environment()
    if running != RECORDED:
        pytest.skip(f"digests recorded under {RECORDED}; running under {running}")


def benchmark_document(path, n: int, m: int, seed: int) -> None:
    """perfbench's inequality instance as a CLI problem document, with its
    certified solution."""
    inst = _load_benchmark_instances().inequality_instance(seed, n, m)

    def triplets(M):
        return [[i, j, v] for (i, j), v in np.ndenumerate(M)]

    write_document(
        str(path),
        objective={"quadratic": {"n": n, "W": triplets(inst.W), "c": inst.c}},
        constraint={"type": "ineq", "m": m, "A": triplets(inst.A), "b": inst.b},
        solution={"x": inst.x_ref, "y": inst.y_ref},
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_spence_cli_report_and_trace(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BPALM_WALL_TIME_MS", "0")
    problem, trace = tmp_path / "spence.json", tmp_path / "spence.csv"
    benchmark_document(problem, 20, 10, 0)
    argv = ["--problem", str(problem), "--dual", "spence", "--report", "json"]
    rc = main(argv + ["--trace", str(trace), "--diagnose"])
    report = capsys.readouterr().out.encode()
    assert rc == 0
    got = (_sha256(report), _sha256(trace.read_bytes()))
    assert got == (CLI_REPORT_SHA256, CLI_TRACE_SHA256), f"report and trace digests: {got}"


def test_von_neumann_library_run():
    inst = _load_benchmark_instances().inequality_instance(1, 20, 10)
    problem = bpalm.ProblemSpec(
        f=bpalm.SmoothObjective.quadratic(inst.W, inst.c),
        g=bpalm.NonsmoothTerm.nonneg_orthant_indicator(),
        map=bpalm.AffineMap.from_dense(inst.A, inst.b),
    )
    cfg = bpalm.SolverConfig(
        geometry=bpalm.BregmanGeometry(bpalm.energy(20), bpalm.von_neumann(10)),
        regime="qsc",
        tol_b=1e-8,
        tol_kkt=1e-8,
        max_outer=3000,
    )
    report = bpalm.run(cfg, problem)
    digest = hashlib.sha256()
    digest.update(report.x.tobytes() + report.y.tobytes() + report.status.value.encode())
    for r in report.trace.records:
        predicted = -1 if r.predicted_newton is None else r.predicted_newton
        digest.update(struct.pack("<ddqq", r.sigma, r.b_value, r.newton.iterations_used, predicted))
    assert report.trace.records
    assert digest.hexdigest() == LIBRARY_SHA256, f"library digest: {digest.hexdigest()}"


def test_sc_box_runs():
    digest = hashlib.sha256()
    boxes = [gp for gp in golden_suite() if gp.family == "box"]
    for gp in boxes:
        cfg = family_config(gp)
        assert cfg.regime == "sc"
        report, log = logged_run(cfg, gp.problem)
        digest.update(report.x.tobytes() + report.y.tobytes() + report.status.value.encode())
        for r, iterate in zip(log.records, log.iterates, strict=True):
            digest.update(struct.pack("<ddq", r.sigma, r.b_value, r.newton.iterations_used))
            for step in r.newton.steps[:-1]:
                digest.update(struct.pack("<d", step.decrement))
            digest.update(struct.pack("<d", iterate.decrement))  # the last point's
    assert boxes
    assert digest.hexdigest() == SC_BOX_SHA256, f"sc box digest: {digest.hexdigest()}"
