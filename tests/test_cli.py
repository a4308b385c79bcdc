"""Tests for the batch front end: parsing, reports, traces, exit codes."""

import contextlib
import gc
import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from bpalm import cli, newton, problem as problem_module
from bpalm.cli import main, parse_problem
from bpalm.exceptions import DimensionError, ParseError
from bpalm.legendre import BregmanGeometry, energy, spence
from bpalm.newton import REGIMES


def write_document(path, **sections):
    """A problem document holding ``sections``, with arrays as JSON lists."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, default=lambda v: v.tolist())


@pytest.fixture
def eq_doc(tmp_path):
    path = tmp_path / "eq.json"
    write_document(
        str(path),
        objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
        constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
        solution={"x": [1.0], "y": [-1.0]},
    )
    return str(path)


@pytest.fixture
def ineq_doc(tmp_path):
    path = tmp_path / "ineq.json"
    write_document(
        str(path),
        objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [-2.0]}},
        constraint={"type": "ineq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
        solution={"x": [1.0], "y": [1.0]},
    )
    return str(path)


class TestParseProblem:
    def test_minimal_document(self, eq_doc):
        ps, golden = parse_problem(eq_doc)
        assert ps.n == 1 and ps.m == 1
        assert ps.g.variant == "zero"
        np.testing.assert_allclose(golden[0], [1.0])

    def test_out_of_range_triplet(self, tmp_path):
        path = tmp_path / "bad.json"
        write_document(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 1, 1.0]], "c": [0.0]}},
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [0.0]},
        )
        with pytest.raises(DimensionError):
            parse_problem(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                {
                    "objective": {"quadratic": {"n": 1, "W": [], "c": [0.0]}},
                    "constraint": {"type": "eq", "m": 1, "A": [], "b": [0.0]},
                    "preconditioner": "ruiz",
                }
            )
        )
        with pytest.raises(ParseError):
            parse_problem(str(path))

    def test_ineq_bounds_appended(self, tmp_path):
        path = tmp_path / "b.json"
        write_document(
            str(path),
            objective={"quadratic": {"n": 2, "W": [[0, 0, 1.0], [1, 1, 1.0]], "c": [0.0, 0.0]}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, 1.0], [0, 1, 1.0]], "b": [1.0]},
            bounds={"l": [0.0, "-inf"], "u": [2.0, 3.0]},
        )
        ps, _ = parse_problem(str(path), regime="qsc")
        # one original row, two finite upper bounds, one finite lower bound
        assert ps.m == 4
        np.testing.assert_allclose(ps.map.A[1:], [[1, 0], [0, 1], [-1, 0]])
        np.testing.assert_allclose(ps.map.b[1:], [2.0, 3.0, 0.0])

    def test_eq_bounds_require_sc(self, tmp_path):
        path = tmp_path / "eqb.json"
        write_document(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [0.5]},
            bounds={"l": [0.0], "u": [1.0]},
        )
        with pytest.raises(ParseError):
            parse_problem(str(path), regime="qsc")
        ps, _ = parse_problem(str(path), regime="sc")
        assert ps.f.box is not None

    def test_sc_bounds_check_w_once(self, tmp_path, monkeypatch):
        # the boxed objective keeps the unboxed one's checks and moduli: one
        # symmetrization and eigenvalue pass over W per parse
        path = tmp_path / "box.json"
        W = [[0, 0, 2.0], [0, 1, 1.0], [1, 0, 1.0], [1, 1, 3.0]]
        write_document(
            str(path),
            objective={"quadratic": {"n": 2, "W": W, "c": [0.5, -1.0]}},
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0], [0, 1, 1.0]], "b": [0.5]},
            bounds={"l": [-1.0, 0.0], "u": [1.0, 2.0]},
        )
        calls = []
        eigvalsh = problem_module.eigvalsh
        monkeypatch.setattr(
            problem_module, "eigvalsh", lambda *a, **kw: calls.append(1) or eigvalsh(*a, **kw)
        )
        ps, _ = parse_problem(str(path), regime="sc")
        assert len(calls) == 1
        reference = problem_module.SmoothObjective.quadratic([[2.0, 1.0], [1.0, 3.0]], [0.5, -1.0])
        np.testing.assert_array_equal(ps.f.W, reference.W)
        np.testing.assert_array_equal(ps.f.c, reference.c)
        for name in ("qsc_modulus", "lipschitz_modulus", "sc_modulus"):
            assert getattr(ps.f, name) == getattr(reference, name)
        np.testing.assert_array_equal(ps.f.box[0], [-1.0, 0.0])
        np.testing.assert_array_equal(ps.f.box[1], [1.0, 2.0])

    def test_named_objective(self, tmp_path):
        path = tmp_path / "named.json"
        write_document(
            str(path),
            objective={"named": {"name": "logistic", "n": 1}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, -1.0]], "b": [-1.0]},
        )
        ps, golden = parse_problem(str(path))
        assert ps.f.W is None
        value, grad, hess, qsc, lipschitz = problem_module._NAMED["logistic"]
        x = np.array([0.75])
        assert ps.f.value(x) == value(x)
        np.testing.assert_array_equal(ps.f.grad(x), grad(x))
        np.testing.assert_array_equal(ps.f.hess(x), hess(x))
        assert (ps.f.qsc_modulus, ps.f.lipschitz_modulus) == (qsc, lipschitz)
        assert golden is None

    def test_named_objective_at_the_dimension_cap(self, tmp_path):
        # one row of n = 4,096 zeros: the operator-norm bound of the map
        # forms no n x n Gram matrix (128 MiB)
        doc = dict(_OVERSIZED_NAMED, objective={"named": {"name": "sumexp", "n": 4096}})
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            ps, _ = parse_problem(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (ps.n, ps.m) == (4096, 1)
        assert peak < 4 * 2**20

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_problem(str(path))

    def test_inf_sentinel_roundtrip(self, tmp_path):
        path = tmp_path / "inf.json"
        write_document(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
            bounds={"l": [-math.inf], "u": [5.0]},
        )
        ps, _ = parse_problem(str(path))
        assert ps.m == 2  # only the finite upper bound becomes a row

    def test_write_keeps_text_fields_and_sentinels(self, tmp_path):
        path = tmp_path / "text.json"
        write_document(
            str(path),
            objective={"named": {"name": "sumexp", "n": 2}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
            bounds={"l": ["-inf", 0.0], "u": [math.inf, "inf"]},
        )
        ps, _ = parse_problem(str(path))
        assert ps.m == 2  # the one finite bound, 0 <= x_1, adds a row


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _refuse_solve(*args, **kwargs):
    raise AssertionError("the solve ran")


class TestMain:
    def test_golden_eq_exit_zero(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--report", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "optimal"
        assert out["x"][0] == pytest.approx(1.0, abs=1e-6)

    def test_max_outer_zero_exit_one(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--max-outer", "0"])
        capsys.readouterr()
        assert rc == 1

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["--problem", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid JSON" in err

    def test_solution_outside_the_geometry_exit_two(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        doc = _ineq_document()
        doc["solution"] = {"x": [1.0], "y": [-1.0]}  # outside the KL dual's domain
        path.write_text(json.dumps(doc))
        rc = main(["--problem", str(path), "--diagnose"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "domain" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_hessian_exit_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_ineq_document(A=[[0, 0, 1e300]], type="eq")))
        rc = main(["--problem", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: subproblem Hessian or gradient is not finite" in err

    def test_trace_decrement_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        # the factorizations the trace's decrement column pays for come after
        # run returns; from there on every Cholesky fails
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(_ineq_document(c=[0.0], A=[], b=[0.0], type="eq")))
        assert main(["--problem", str(path)]) == 0

        def refuse(*args, **kwargs):
            raise LinAlgError("not positive definite")

        solve = cli.run

        def run_then_refuse(*args, **kwargs):
            report = solve(*args, **kwargs)
            monkeypatch.setattr(newton, "cho_factor", refuse)
            return report

        monkeypatch.setattr(cli, "run", run_then_refuse)
        rc = main(["--problem", str(path), "--trace", str(tmp_path / "trace.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: subproblem Hessian is not numerically SPD" in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_progress_gap_has_no_prediction(self, tmp_path, capsys):
        # the infeasible 0 = 3e154 makes the dual part of B overflow
        path = tmp_path / "far.json"
        doc = {
            "objective": {"named": {"name": "sumexp", "n": 1}},
            "constraint": {"type": "eq", "m": 1, "A": [], "b": [3e154]},
        }
        path.write_text(json.dumps(doc))
        trace = tmp_path / "trace.csv"
        main(["--problem", str(path), "--trace", str(trace), "--max-outer", "5"])
        capsys.readouterr()
        rows = trace.read_text().splitlines()[1:]
        assert rows and all(row.split(",")[4] == "" for row in rows)

    def test_usage_error_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "x.json", "--regime", "cubic"])
        assert exc.value.code == 64

    def test_missing_problem_flag_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_incompatible_pairing_exit_64(self, eq_doc, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", eq_doc, "--dual", "spence"])
        assert exc.value.code == 64

    def test_box_barrier_without_bounds_exit_64(self, eq_doc, capsys):
        # the bounds and the regime fix the primal geometry; no flag names it
        with pytest.raises(SystemExit) as exc:
            main(["--problem", eq_doc, "--primal=box_barrier"])
        assert exc.value.code == 64
        assert "unrecognized arguments: --primal" in capsys.readouterr().err

    def test_readme_lists_every_flag(self):
        # the README's "Flags:" paragraph, up to its blank line, names the
        # parser's long options exactly: a removed flag cannot linger there
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme[readme.index("\nFlags: "):].split("\n\n")[0]
        documented = set(re.findall(r"--[a-z][a-z0-9-]*", paragraph))
        parsed = {
            s for action in cli._build_parser()._actions for s in action.option_strings
        } - {"-h", "--help"}
        assert documented == parsed

    def test_report_schema(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--report", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        for key in (
            "status",
            "iterations",
            "newton_steps_total",
            "dual_res",
            "primal_res",
            "compl_res",
            "sigma_final",
            "wall_time_ms",
        ):
            assert key in out

    def test_byte_identical_reports(self, eq_doc, capsys, monkeypatch):
        monkeypatch.setenv("BPALM_WALL_TIME_MS", "0")
        main(["--problem", eq_doc, "--report", "json"])
        first = capsys.readouterr().out
        main(["--problem", eq_doc, "--report", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_reports_differ_only_in_timing_without_pin(self, eq_doc, capsys, monkeypatch):
        monkeypatch.delenv("BPALM_WALL_TIME_MS", raising=False)
        main(["--problem", eq_doc, "--report", "json"])
        a = json.loads(capsys.readouterr().out)
        main(["--problem", eq_doc, "--report", "json"])
        b = json.loads(capsys.readouterr().out)
        a.pop("wall_time_ms")
        b.pop("wall_time_ms")
        assert a == b

    def test_trace_columns(self, eq_doc, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        main(["--problem", eq_doc, "--trace", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines[0] == (
            "k,sigma,rho,T_k_used,T_k_predicted,B_k,grad_norm,decrement,"
            "dual_res,primal_res,D_to_solution"
        )
        first = lines[1].split(",")
        assert len(first) == 11
        assert first[0] == "0"
        assert first[10] != ""  # golden solution embedded -> distance recorded

    def test_trace_distance_empty_without_solution(self, tmp_path, capsys):
        path = tmp_path / "nosol.json"
        write_document(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
        )
        trace = tmp_path / "trace.csv"
        main(["--problem", str(path), "--trace", str(trace)])
        capsys.readouterr()
        assert trace.read_text().splitlines()[1].endswith(",")

    def test_diagnose_shares_the_trace_distances(self, ineq_doc, tmp_path, capsys, monkeypatch):
        import bpalm.cli as cli

        plain, diagnosed = tmp_path / "plain.csv", tmp_path / "diagnosed.csv"
        main(["--problem", ineq_doc, "--dual", "spence", "--trace", str(plain)])
        calls = []
        monkeypatch.setattr(cli, "bregman_distance", lambda *a: calls.append(a))
        main(["--problem", ineq_doc, "--dual", "spence", "--trace", str(diagnosed), "--diagnose"])
        capsys.readouterr()
        # the D_to_solution column comes from the Fejer check, bit for bit
        assert calls == []
        assert diagnosed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "doc, dual", [("eq_doc", "energy"), ("ineq_doc", "von_neumann"), ("ineq_doc", "spence")]
    )
    def test_distance_column_identical_with_and_without_diagnose(
        self, doc, dual, tmp_path, capsys, request
    ):
        problem = request.getfixturevalue(doc)
        columns = []
        for extra in ([], ["--diagnose"]):
            trace = tmp_path / f"trace{len(extra)}.csv"
            main(["--problem", problem, "--dual", dual, "--trace", str(trace), *extra])
            rows = [line.split(",") for line in trace.read_text().splitlines()]
            columns.append([row[rows[0].index("D_to_solution")] for row in rows[1:]])
        capsys.readouterr()
        assert columns[0] == columns[1]
        assert len(columns[0]) > 1 and all(cell for cell in columns[0])

    def test_diagnose_payload(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--report", "json", "--diagnose"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        diag = out["diagnostics"]
        assert diag["fejer_monotone"] is True
        assert diag["ergodic_max_violation"] <= 1e-8
        assert "conic_max_excess" not in diag  # the conic check covers the orthant only

    def test_diagnose_json_with_superlinear_verdict(self, tmp_path, capsys):
        # the rate fit reaches its final ratio test on this run, whose numpy
        # comparison once made the JSON report unserializable
        path = tmp_path / "ineq3.json"
        write_document(
            str(path),
            objective={
                "quadratic": {
                    "n": 3,
                    "W": [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0]],
                    "c": [0.19, -0.52, -0.41],
                }
            },
            constraint={
                "type": "ineq",
                "m": 2,
                "A": [[0, 0, -2.44], [0, 1, 1.8], [0, 2, 1.14],
                      [1, 0, -0.33], [1, 1, 0.77], [1, 2, 0.28]],
                "b": [-0.55, 0.98],
            },
            solution={
                "x": [0.37202874242387446, 0.10538863263850763, 0.14741280067090407],
                "y": [0.2303396485342244, 3.67423173026015e-114],
            },
        )
        rc = main(["--problem", str(path), "--dual", "spence", "--report", "json", "--diagnose"])
        assert rc == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["superlinear"] is True

    def test_rate_fit_reuses_the_fejer_distances(self, ineq_doc, capsys, monkeypatch):
        import bpalm.diagnostics as dg

        series, logs = [], []
        distance_series, iterate_log = dg._distance_series, dg.IterateLog
        monkeypatch.setattr(
            dg, "_distance_series", lambda *a: series.append(a) or distance_series(*a)
        )
        monkeypatch.setattr(dg, "IterateLog", lambda: logs.append(iterate_log()) or logs[-1])
        main(["--problem", ineq_doc, "--dual", "spence", "--report", "json", "--diagnose"])
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert len(series) == 1
        # the final ratio is the rate fit of the run's Fejer series
        [log] = logs
        _, (gx, gy) = parse_problem(ineq_doc)
        fejer = dg.fejer_check(log, gx, gy, BregmanGeometry(energy(1), spence(1)))
        assert diag["final_ratio"] == dg.rate_fit(fejer.distances).ratios[-1]

    def test_diagnose_reports_summability(self, ineq_doc, capsys):
        rc = main(["--problem", ineq_doc, "--report", "json", "--diagnose"])
        assert rc == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert 0.0 < diag["summability_sum"] <= diag["summability_budget"]

    def test_json_report_is_strict_json(self, ineq_doc, capsys):
        # no iteration leaves the ergodic and conic maxima over an empty set
        rc = main(["--problem", ineq_doc, "--max-outer", "0", "--report", "json", "--diagnose"])
        assert rc == 1
        out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        assert out["diagnostics"]["ergodic_max_violation"] == "-inf"
        assert out["diagnostics"]["conic_max_excess"] == "-inf"

    def test_diagnose_conic_on_inequality(self, ineq_doc, capsys):
        rc = main(["--problem", ineq_doc, "--report", "json", "--diagnose"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["diagnostics"]["conic_max_excess"] <= 1e-8

    def test_exponential_multiplier_default_for_ineq(self, ineq_doc, capsys):
        rc = main(["--problem", ineq_doc, "--report", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x"][0] == pytest.approx(1.0, abs=1e-6)
        assert out["y"][0] == pytest.approx(1.0, abs=1e-6)

    def test_sc_regime_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "box.json"
        write_document(
            str(path),
            objective={
                "quadratic": {
                    "n": 3,
                    "W": [[0, 0, 1.0], [1, 1, 1.0], [2, 2, 1.0]],
                    "c": [-0.8, -0.3, -0.4],
                }
            },
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0], [0, 1, 1.0], [0, 2, 1.0]], "b": [1.2]},
            bounds={"l": [0.0, 0.0, 0.0], "u": [1.0, 1.0, 1.0]},
            solution={"x": [0.7, 0.2, 0.3], "y": [0.1]},
        )
        rc = main(
            ["--problem", str(path), "--regime", "sc", "--report", "json",
             "--tol", "1e-8", "--max-outer", "400"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        np.testing.assert_allclose(out["x"], [0.7, 0.2, 0.3], atol=1e-5)

    def test_text_report_format(self, eq_doc, capsys):
        main(["--problem", eq_doc])
        out = capsys.readouterr().out
        assert out.startswith("status: optimal")
        assert "x: " in out and "y: " in out

    def test_vecmax_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "vecmax.json"
        write_document(
            str(path),
            objective={
                "quadratic": {"n": 2, "W": [[0, 0, 1.0], [1, 1, 1.0]], "c": [0.0, 0.0]}
            },
            constraint={
                "type": "vecmax",
                "m": 2,
                "A": [[0, 0, 1.0], [1, 1, 2.0]],
                "b": [1.0, 0.0],
            },
            solution={"x": [-0.6, -0.8], "y": [0.6, 0.4]},
        )
        rc = main(["--problem", str(path), "--report", "json", "--tol", "1e-9"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        np.testing.assert_allclose(out["x"], [-0.6, -0.8], atol=1e-6)
        np.testing.assert_allclose(out["y"], [0.6, 0.4], atol=1e-6)

    def test_l1_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "l1.json"
        write_document(
            str(path),
            objective={
                "quadratic": {"n": 2, "W": [[0, 0, 1.0], [1, 1, 1.0]], "c": [-2.0, -0.3]}
            },
            constraint={
                "type": "l1",
                "m": 2,
                "A": [[0, 0, 1.0], [1, 1, 1.0]],
                "b": [0.0, 0.0],
            },
        )
        rc = main(["--problem", str(path), "--report", "json", "--tol", "1e-9"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        np.testing.assert_allclose(out["x"], [1.0, 0.0], atol=1e-6)

    def test_rho_decay_flag(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--rho", "0.5", "--rho-decay", "0.5",
                   "--report", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["status"] == "optimal"

    def test_lipschitz_regime_with_spence(self, ineq_doc, capsys):
        rc = main(["--problem", ineq_doc, "--dual", "spence",
                   "--regime", "qsc_lipschitz", "--report", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["x"][0] == pytest.approx(1.0, abs=1e-6)


def _ineq_document(**overrides):
    """min (x - 2)^2 / 2 s.t. x <= 1, with some fields replaced."""
    objective = {"n": 1, "W": [[0, 0, 1.0]], "c": [-2.0]}
    constraint = {"type": "ineq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]}
    for key, value in overrides.items():
        (objective if key in objective else constraint)[key] = value
    return {"objective": {"quadratic": objective}, "constraint": constraint}


def _assert_one_error_line(doc, tmp_path, capsys, *options):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN, Infinity literals
    _assert_error_exit(capsys, "--problem", str(path), *options)


def _assert_error_exit(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.fixture
def gc_state():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """parse_problem pauses the cyclic collector while the decoded document
    is alive and leaves it as it found it, on success and on every error."""

    _CONTENTS = {
        "valid": json.dumps(_ineq_document()),
        "invalid_json": "{",
        "bad_triplet": json.dumps(_ineq_document(A=[[0, 0, "x"]])),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("content", sorted(_CONTENTS))
    def test_state_restored(self, content, enabled, tmp_path, gc_state):
        path = tmp_path / "doc.json"
        path.write_text(self._CONTENTS[content])
        (gc.enable if enabled else gc.disable)()
        if content == "valid":
            parse_problem(str(path))
        else:
            with pytest.raises(ParseError):
                parse_problem(str(path))
        assert gc.isenabled() is enabled

    def test_no_collection_while_parsing(self, tmp_path, gc_state):
        # 3,000 triplet lists would pass gen0's threshold several times over
        n = 60
        triplets = [[k % n, k % n, 1.0] for k in range(3000)]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_ineq_document(
            n=n, W=triplets, c=[0.0] * n, m=1, A=[[0, 0, 1.0]], b=[1.0])))
        gc.enable()
        gc.collect()  # so that no collection is due on entry
        generations = []

        def on_collection(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(on_collection)
        try:
            parse_problem(str(path))
        finally:
            gc.callbacks.remove(on_collection)
        assert generations == []


# n far beyond what any array in the document backs (a 29 TiB Hessian)
_OVERSIZED_NAMED = {
    "objective": {"named": {"name": "sumexp", "n": 2000000}},
    "constraint": {"type": "eq", "m": 1, "A": [], "b": [0.0]},
}
# one dimension past the cap each: at the parser's cap the n x n W of the
# first, or the m x n A of the second, would take 128 MiB before any entry is read
_PAST_THE_CAP = {
    "quadratic_n": {
        "objective": {"quadratic": {"n": 4097, "W": [], "c": [0.0] * 4097}},
        "constraint": {"type": "eq", "m": 1, "A": [], "b": [0.0]},
    },
    "constraint_m": {
        "objective": {"named": {"name": "sumexp", "n": 4096}},
        "constraint": {"type": "eq", "m": 4097, "A": [], "b": [0.0] * 4097},
    },
}
# min |x|^2/2 - 2 x_0 + x_1 s.t. x_0 + x_1 = 1: under the energy dual no
# step-size bound shrinks sigma
_EQUALITY_2D = {
    "objective": {"quadratic": {"n": 2, "W": [[0, 0, 1.0], [1, 1, 1.0]], "c": [-2.0, 1.0]}},
    "constraint": {"type": "eq", "m": 1, "A": [[0, 0, 1.0], [0, 1, 1.0]], "b": [1.0]},
}
# min -x_1^2/2 s.t. x_0 = 0 is unbounded, and its start is stationary
_INDEFINITE = {
    "objective": {"quadratic": {"n": 2, "W": [[0, 0, 1.0], [1, 1, -1.0]], "c": [0.0, 0.0]}},
    "constraint": {"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [0.0]},
}


class TestBadNumbers:
    """Malformed or non-finite numbers exit 2 with one error line."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"c": [math.nan]},
            {"A": [[0, 0, math.inf]]},
            {"n": "two"},
            {"A": [[0, 0, "x"]]},
            {"b": ["inf"]},
            {"n": True},
            {"m": 1.5},
            {"b": [True]},
            {"A": [[0.7, 0, 1.0]]},
            {"A": [["0", "0", "1.5"]]},
            {"A": [[0, 0, True]]},
        ],
        ids=[
            "nan_in_c", "infinity_in_A", "n_not_a_number", "string_triplet_value", "inf_in_b",
            "n_true", "fractional_m", "b_true", "fractional_index",
            "string_indices", "boolean_triplet_value",
        ],
    )
    def test_exit_two(self, overrides, tmp_path, capsys):
        _assert_one_error_line(_ineq_document(**overrides), tmp_path, capsys)

    @pytest.mark.parametrize(
        "doc", [_OVERSIZED_NAMED, _INDEFINITE], ids=["oversized_named", "indefinite_quadratic"]
    )
    def test_rejected_documents_exit_two(self, doc, tmp_path, capsys):
        _assert_one_error_line(doc, tmp_path, capsys)

    @pytest.mark.parametrize("doc", list(_PAST_THE_CAP.values()), ids=list(_PAST_THE_CAP))
    def test_dimensions_past_the_cap_exit_two(self, doc, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                parse_problem(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        _assert_one_error_line(doc, tmp_path, capsys)

    @pytest.mark.parametrize(
        "option",
        [
            "--sigma0=nan",
            "--sigma0=inf",
            "--sigma-growth=nan",
            "--tol=nan",
            "--tol=-1e-8",
            "--max-outer=-5",
            "--newton-cap=-1",
        ],
    )
    def test_bad_solver_options_exit_two(self, option, tmp_path, capsys):
        _assert_one_error_line(_ineq_document(), tmp_path, capsys, option)

    @pytest.mark.parametrize("option", ["--sigma0=1e200", "--sigma-growth=1e300"])
    def test_sigma_beyond_the_float_range_exits_two(self, option, tmp_path, capsys):
        # the energy acceptance test squares sigma, which overflows from ~1e154
        _assert_one_error_line(_EQUALITY_2D, tmp_path, capsys, option)

    @pytest.mark.parametrize(
        "pinned", ["1.5", "-1", "ten", "", pytest.param("9" * 5000, id="5000_digits")]
    )
    def test_bad_pinned_wall_time_exits_two(self, pinned, tmp_path, capsys, monkeypatch):
        # the pin is read before the solve, not when the report is printed
        monkeypatch.setenv("BPALM_WALL_TIME_MS", pinned)
        monkeypatch.setattr(cli, "run", _refuse_solve)
        _assert_one_error_line(_ineq_document(), tmp_path, capsys)

    def test_infinite_bounds_still_accepted(self, tmp_path):
        path = tmp_path / "bounds.json"
        doc = _ineq_document()
        doc["bounds"] = {"l": [-math.inf], "u": ["inf"]}
        path.write_text(json.dumps(doc))
        ps, _ = parse_problem(str(path))
        assert ps.m == 1  # no finite bound, no extra row


class TestBadFiles:
    """Files that cannot be decoded or written exit 2 with one error line."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00{", b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_too_deeply"],
    )
    def test_undecodable_files_exit_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        _assert_error_exit(capsys, "--problem", str(path))

    @pytest.mark.parametrize("trace", ["missing/trace.csv", "."], ids=["no_directory", "directory"])
    def test_unwritable_trace_exits_two(self, trace, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_ineq_document()))
        _assert_error_exit(capsys, "--problem", str(path), "--trace", str(tmp_path / trace))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, "inf", "-inf", "nan", "two", "", None]),
    st.booleans(),
)
# a dimension field is sometimes replaced; replacements stay small so that no
# draw allocates a large matrix
_BAD_DIMENSION = st.one_of(st.integers(-1, 4), st.floats(-1.0, 4.0), _BAD)


@st.composite
def _documents(draw):
    """Well-formed documents with any finite numbers (huge ones included);
    half of them also carry bad numbers, bad dimensions or bare numbers in
    place of triplets."""
    bad = draw(st.booleans())
    number = st.one_of(_FINITE, _BAD) if bad else _FINITE
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def dimension(k):
        return draw(st.one_of(st.just(k), _BAD_DIMENSION) if bad else st.just(k))

    def vector(k):
        return draw(st.lists(number, min_size=k, max_size=k))

    def triplets(rows, cols):
        entry = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), number)
        return draw(st.lists(st.one_of(entry, number) if bad else entry, max_size=rows * cols))

    if draw(st.booleans()):
        # each triplet mirrored, with |v| added at both of its diagonal ends,
        # so that W is symmetric and diagonally dominant: semidefinite unless
        # a number is bad or a sum overflows
        W = []
        for e in triplets(n, n):
            if isinstance(e, tuple) and isinstance(e[2], float):
                i, j, v = e
                W += [[i, j, v], [j, i, v], [i, i, abs(v)], [j, j, abs(v)]]
            else:
                W += [[e[0], e[1], e[2]], [e[1], e[0], e[2]]] if isinstance(e, tuple) else [e]
        objective = {"quadratic": {"n": dimension(n), "W": W, "c": vector(n)}}
    else:
        name = draw(st.sampled_from(["sumexp", "logsumexp", "logistic"]))
        objective = {"named": {"name": name, "n": dimension(n)}}
    ctype = draw(st.sampled_from(["eq", "ineq", "vecmax", "l1"]))
    doc = {
        "objective": objective,
        "constraint": {"type": ctype, "m": dimension(m), "A": triplets(m, n), "b": vector(m)},
    }
    if draw(st.booleans()):
        doc["bounds"] = {"l": vector(n), "u": vector(n)}
    if draw(st.booleans()):
        doc["solution"] = {"x": vector(n), "y": vector(m)}
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on huge entries
@settings(max_examples=200, deadline=None)
@given(doc=_documents(), regime=st.sampled_from(sorted(REGIMES)))
@example(doc=_OVERSIZED_NAMED, regime="qsc")
@example(doc=_INDEFINITE, regime="qsc")
def test_fuzzed_documents_never_raise(doc, regime):
    """Any document ends in exit 0, 1 or 2, or a usage error (64)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv = ["--problem", str(path), "--regime", regime, "--max-outer", "20",
                "--diagnose", "--trace", str(Path(tmp) / "trace.csv")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
                assert rc == 64, sink.getvalue()
    assert rc in (0, 1, 2, 64)
