"""Tests for the batch front end: parsing, reports, traces, exit codes."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpalm.cli import main, parse_problem, write_problem_file
from bpalm.exceptions import DimensionError, ParseError
from bpalm.newton import REGIMES


@pytest.fixture
def eq_doc(tmp_path):
    path = tmp_path / "eq.json"
    write_problem_file(
        str(path),
        objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
        constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
        solution={"x": [1.0], "y": [-1.0]},
    )
    return str(path)


@pytest.fixture
def ineq_doc(tmp_path):
    path = tmp_path / "ineq.json"
    write_problem_file(
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
        write_problem_file(
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
        write_problem_file(
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
        write_problem_file(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
            constraint={"type": "eq", "m": 1, "A": [[0, 0, 1.0]], "b": [0.5]},
            bounds={"l": [0.0], "u": [1.0]},
        )
        with pytest.raises(ParseError):
            parse_problem(str(path), regime="qsc")
        ps, _ = parse_problem(str(path), regime="sc")
        assert ps.f.box is not None

    def test_named_objective(self, tmp_path):
        path = tmp_path / "named.json"
        write_problem_file(
            str(path),
            objective={"named": {"name": "logistic", "n": 1}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, -1.0]], "b": [-1.0]},
        )
        ps, golden = parse_problem(str(path))
        assert ps.f.variant == "callback"
        assert golden is None

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_problem(str(path))

    def test_inf_sentinel_roundtrip(self, tmp_path):
        path = tmp_path / "inf.json"
        write_problem_file(
            str(path),
            objective={"quadratic": {"n": 1, "W": [[0, 0, 1.0]], "c": [0.0]}},
            constraint={"type": "ineq", "m": 1, "A": [[0, 0, 1.0]], "b": [1.0]},
            bounds={"l": [-math.inf], "u": [5.0]},
        )
        ps, _ = parse_problem(str(path))
        assert ps.m == 2  # only the finite upper bound becomes a row


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

    def test_trace_decrement_failure_exit_two(self, tmp_path, capsys):
        # the concave objective is stationary at the start, so the solve
        # factorizes nothing; the trace's decrement column needs H = -4
        path = tmp_path / "concave.json"
        path.write_text(json.dumps(_ineq_document(W=[[0, 0, -5.0]], c=[0.0], A=[], b=[0.0], type="eq")))
        assert main(["--problem", str(path)]) == 0
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
        with pytest.raises(SystemExit) as exc:
            main(["--problem", eq_doc, "--primal", "box_barrier"])
        assert exc.value.code == 64

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
        write_problem_file(
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

    def test_diagnose_payload(self, eq_doc, capsys):
        rc = main(["--problem", eq_doc, "--report", "json", "--diagnose"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        diag = out["diagnostics"]
        assert diag["fejer_monotone"] is True
        assert diag["ergodic_max_violation"] <= 1e-8

    def test_diagnose_json_with_superlinear_verdict(self, tmp_path, capsys):
        # the rate fit reaches its final ratio test on this run, whose numpy
        # comparison once made the JSON report unserializable
        path = tmp_path / "ineq3.json"
        write_problem_file(
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
        write_problem_file(
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
        write_problem_file(
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
        write_problem_file(
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
        ],
        ids=["nan_in_c", "infinity_in_A", "n_not_a_number", "string_triplet_value", "inf_in_b"],
    )
    def test_exit_two(self, overrides, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_ineq_document(**overrides)))  # NaN, Infinity literals
        rc = main(["--problem", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err

    def test_infinite_bounds_still_accepted(self, tmp_path):
        path = tmp_path / "bounds.json"
        doc = _ineq_document()
        doc["bounds"] = {"l": [-math.inf], "u": ["inf"]}
        path.write_text(json.dumps(doc))
        ps, _ = parse_problem(str(path))
        assert ps.m == 1  # no finite bound, no extra row


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
        W = []  # each triplet mirrored, so that W is symmetric
        for e in triplets(n, n):
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
