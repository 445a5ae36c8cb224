import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleweights
from cycleweights import geometry
from cycleweights.bounds import has_ratio
from cycleweights.checks import relative_residual
from cycleweights.cli import run
from cycleweights.cycles import enumerate_cycles, total_weight
from cycleweights.geometry import MAX_RATIONAL_TOKEN, format_points, random_config, regular_polygon

SQUARE_FILE = "points 4 dim 2 mode float\n0 0\n1 0\n1 1\n0 1\n"
PENT_FLOAT = str(Path(__file__).parent / "golden" / "inputs" / "pent_float.txt")
PENT_RATIONAL = str(Path(__file__).parent / "golden" / "inputs" / "pent_rational.txt")
QUAD_FLOAT = str(Path(__file__).parent / "golden" / "inputs" / "quad_float.txt")
QUAD_RATIONAL = str(Path(__file__).parent / "golden" / "inputs" / "quad_rational.txt")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_frozen_output(capsys):
    code, out, _ = invoke(capsys, "gen", "--seed", "1", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "points 4 dim 2 mode float"
    assert lines[1] == "0.5665615751722809 0.7457817572627011"


def test_gen_json(capsys):
    code, out, _ = invoke(capsys, "gen", "--seed", "2", "--n", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "points" and obj["n"] == 3 and obj["dim"] == 2
    assert len(obj["points"]) == 3
    assert obj["points"][0][0] == 0.5911897341980794


def test_gen_rational_json_strings(capsys):
    code, out, _ = invoke(capsys, "gen", "--seed", "2", "--n", "3", "--mode", "rational", "--json")
    obj = json.loads(out)
    assert code == 0
    assert "/" in obj["points"][0][0]


def test_gen_polygon_rejects_rational(capsys):
    code, _, err = invoke(capsys, "gen", "--polygon", "--mode", "rational")
    assert code == 2
    assert "error" in err


def test_gen_round_trips_through_verify(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    code, out, _ = invoke(capsys, "gen", "--seed", "3", "--n", "5", "--out", str(path))
    assert code == 0 and out == ""
    code, out, _ = invoke(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "summary checks=12 violations=0" in out


def test_verify_square_file(capsys, tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text(SQUARE_FILE)
    code, out, _ = invoke(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "cycle 0,1,2,3 w_cycle 4.0 ratio 0.5 verdict holds-with-equality" in out


def test_verify_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE_FILE))
    code, out, _ = invoke(capsys, "verify", "--in", "-")
    assert code == 0 and "holds-with-equality" in out


def test_identity_stdin_overflow_is_degenerate(capsys, monkeypatch):
    huge = "points 4 dim 2 mode float\n1e200 0\n0 1e200\n0 0\n1e200 1e200\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(huge))
    code, out, err = invoke(capsys, "identity", "--in", "-")
    assert code == 3 and out == ""
    assert "degenerate input:" in err and "Traceback" not in err


def test_verify_json_lines(capsys, tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text(SQUARE_FILE)
    code, out, _ = invoke(capsys, "verify", "--in", str(path), "--json")
    objs = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    rows, summary = objs[:-1], objs[-1]
    assert summary["kind"] == "summary"
    assert summary["checks"] == 3 and summary["violations"] == 0
    assert summary["equalities"] == 1
    assert all(
        set(row) == {"config_id", "cycle", "wE", "wD", "wK", "ratio", "verdict"}
        for row in rows
    )
    assert {row["verdict"] for row in rows} == {"holds", "holds-with-equality"}
    assert [row["wE"] + row["wD"] for row in rows] == [row["wK"] for row in rows]


def test_verify_degenerate_exit_code(capsys, tmp_path):
    path = tmp_path / "deg.txt"
    path.write_text("points 4 dim 2 mode float\n1 1\n1 1\n1 1\n1 1\n")
    code, out, _ = invoke(capsys, "verify", "--in", str(path))
    assert code == 3
    assert "degenerate=3" in out


def test_verify_duality(capsys, tmp_path):
    path = tmp_path / "p.txt"
    invoke(capsys, "gen", "--polygon", "--n", "5", "--out", str(path))
    code, out, _ = invoke(capsys, "verify", "--in", str(path), "--duality")
    assert code == 0
    assert "duality verdict holds" in out
    assert "complement 0,2,4,1,3" in out


def test_verify_duality_reads_tol(capsys):
    # at --tol 0.5 every ratio of the file is within tolerance of both ends
    code, out, _ = invoke(capsys, "verify", "--in", PENT_FLOAT, "--duality", "--tol", "0.5")
    rows = [line for line in out.splitlines() if line.startswith("duality cycle")]
    assert code == 0 and len(rows) == 12
    assert all(line.endswith(" lower True upper True") for line in rows)
    _, default, _ = invoke(capsys, "verify", "--in", PENT_FLOAT, "--duality")
    assert default.count(" lower False upper False") == 12


def test_verify_fuzz(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--fuzz", "40", "--n", "5", "--seed", "6", "--dim", "3"
    )
    assert code == 0
    assert "violations=0" in out


@pytest.mark.parametrize("command", [("verify", "--n", "4"), ("identity",)])
def test_bare_fuzz_runs_a_thousand_trials(capsys, command):
    bare = invoke(capsys, *command, "--fuzz")
    assert bare == invoke(capsys, *command, "--fuzz", "1000")
    assert bare[0] == 0 and "trials=1000" in bare[1]


def test_verify_duality_json(capsys, tmp_path):
    path = tmp_path / "p.txt"
    invoke(capsys, "gen", "--polygon", "--n", "5", "--out", str(path))
    code, out, _ = invoke(capsys, "verify", "--in", str(path), "--duality", "--json")
    objs = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    dual = [o for o in objs if o.get("kind") == "duality"]
    assert len(dual) == 12
    assert any(o["lower_attained"] for o in dual)
    assert any(o["upper_attained"] for o in dual)
    assert objs[-1]["duality_verdict"] == "holds"


def test_verify_usage_errors(capsys, tmp_path):
    assert invoke(capsys, "verify")[0] == 2  # neither --in nor --fuzz
    path = tmp_path / "sq.txt"
    path.write_text(SQUARE_FILE)
    assert invoke(capsys, "verify", "--in", str(path), "--fuzz", "5")[0] == 2
    assert invoke(capsys, "verify", "--fuzz", "5")[0] == 2  # missing --n
    assert invoke(capsys, "verify", "--in", str(path), "--n", "5")[0] == 2
    assert invoke(capsys, "verify", "--in", str(tmp_path / "missing.txt"))[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("points 2 dim 2 mode float\n0 0\n1 0\n")
    assert invoke(capsys, "verify", "--in", str(bad))[0] == 2  # n=2 has no cycle
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe points")
    assert invoke(capsys, "verify", "--in", str(binary))[0] == 2  # not UTF-8


def test_identity_file_report(capsys, tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text("points 4 dim 2 mode rational\n0 0\n2 0\n3 2\n1 3\n")
    code, out, _ = invoke(capsys, "identity", "--in", str(path))
    assert code == 0
    assert "pairing 0 verdict holds" in out
    assert "pairing 2 verdict holds" in out
    assert "residual 0" in out


def test_identity_single_pairing_json(capsys, tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text("points 4 dim 2 mode float\n0 0\n2 0\n3 2\n1 3\n")
    code, out, _ = invoke(capsys, "identity", "--in", str(path), "--pairing", "1", "--json")
    obj = json.loads(out)
    assert code == 0
    assert len(obj["rows"]) == 1 and obj["rows"][0]["pairing"] == 1
    assert obj["rows"][0]["four_r_sq"] == 29.0  # diagonal midpoints (1,0), (2,2.5)
    assert obj["violations"] == 0


def test_identity_fuzz(capsys):
    code, out, _ = invoke(capsys, "identity", "--fuzz", "100", "--seed", "3", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["checks"] == 300 and obj["violations"] == 0
    assert obj["max_rel_residual"] <= 1e-9


@pytest.mark.parametrize("seed, dim", [(0, 2), (9, 3)])
def test_identity_fuzz_violates_exactly_when_its_reported_residual_exceeds_tol(capsys, seed, dim):
    fuzz = ("identity", "--fuzz", "500", "--seed", str(seed), "--dim", str(dim), "--json")
    worst = json.loads(invoke(capsys, *fuzz)[1])["max_rel_residual"]
    assert worst > 0
    # the two tolerances straddle the run's maximum by one ulp
    for tol in (math.nextafter(worst, 0), worst):
        code, out, _ = invoke(capsys, *fuzz, "--tol", repr(tol))
        obj = json.loads(out)
        assert obj["max_rel_residual"] == worst
        assert (obj["violations"] > 0) == (worst > tol) == (code == 1)


def test_identity_file_violates_exactly_where_the_residual_exceeds_tol(capsys, tmp_path):
    path = tmp_path / "quad.txt"
    # every pairing of this draw has a nonzero float residual, each of another size
    path.write_text(format_points(random_config(6, 4, 2)))
    rows = json.loads(invoke(capsys, "identity", "--in", str(path), "--json")[1])["rows"]
    rel = [relative_residual(r["residual"], r["lhs"], r["rhs"]) for r in rows]
    assert 0 < min(rel) and len(set(rel)) == 3
    for tol in [t for r in rel for t in (math.nextafter(r, 0), r)]:
        code, out, _ = invoke(capsys, "identity", "--in", str(path), "--tol", repr(tol), "--json")
        obj = json.loads(out)
        assert [r["verdict"] == "violated" for r in obj["rows"]] == [r > tol for r in rel]
        assert (obj["violations"] > 0) == (max(rel) > tol) == (code == 1)


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_identity_file_builds_its_point_set_once(capsys, monkeypatch, json_flag):
    # every pairing weighs the parsed configuration: one columns build, no
    # Fraction points read back from it
    calls = dict.fromkeys(("columns", "exact_points"), 0)
    for name in calls:
        def counted(*args, _real=getattr(geometry, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(geometry, name, counted)
    code, out, _ = invoke(capsys, "identity", "--in", QUAD_RATIONAL, *json_flag)
    assert code == 0 and out.count("holds") == 3
    assert calls == {"columns": 1, "exact_points": 0}


def test_identity_usage_errors(capsys, tmp_path):
    assert invoke(capsys, "identity")[0] == 2
    path = tmp_path / "p5.txt"
    invoke(capsys, "gen", "--n", "5", "--out", str(path))
    assert invoke(capsys, "identity", "--in", str(path))[0] == 2  # needs 4 points


@pytest.mark.parametrize("big", ["1e200", "1e154"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_overflowing_quadrilateral_file_is_degenerate(capsys, tmp_path, json_flag, big):
    # at 1e154 some l_sq are finite, but both sides of the relation overflow
    path = tmp_path / "huge4.txt"
    path.write_text(f"points 4 dim 2 mode float\n{big} 0\n0 {big}\n0 0\n{big} {big}\n")
    code, out, err = invoke(capsys, "identity", "--in", str(path), *json_flag)
    assert code == 3 and out == ""
    assert "degenerate input:" in err and "Traceback" not in err
    assert invoke(capsys, "verify", "--in", str(path), *json_flag)[0] == 3


def test_iterate_polygon_csv(capsys):
    code, out, _ = invoke(capsys, "iterate", "--polygon", "--steps", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,d,e,resA,resB,resC"
    assert lines[1].startswith("1,18.090169943749473,6.9098300562505255,")
    assert len(lines) == 1 + 5 + 1  # header, levels 1..5, residual summary
    assert lines[-1].startswith("# max_rel_residual ")


def test_iterate_json(capsys):
    code, out, _ = invoke(capsys, "iterate", "--seed", "9", "--steps", "6", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["mode"] == "float" and len(obj["levels"]) == 7
    assert len(obj["res_a"]) == 6 and len(obj["res_c"]) == 5
    assert obj["max_rel_residual"] <= 1e-9


def test_iterate_rational_exact(capsys, tmp_path):
    path = tmp_path / "r5.txt"
    invoke(capsys, "gen", "--seed", "8", "--n", "5", "--mode", "rational", "--out", str(path))
    code, out, _ = invoke(capsys, "iterate", "--in", str(path), "--steps", "8", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["mode"] == "rational"
    assert all(r == "0" for r in obj["res_a"] + obj["res_b"] + obj["res_c"])


def test_iterate_pentagram_cycle(capsys):
    code, out, _ = invoke(
        capsys, "iterate", "--polygon", "--steps", "3", "--cycle", "0,2,4,1,3"
    )
    assert code == 0
    # with the pentagram as E-cycle, e_1 is the pentagram weight and
    # d_1 the (subtraction-computed) side-cycle weight
    assert out.splitlines()[1].startswith("1,6.909830056250527,18.090169943749473,")


def test_iterate_errors(capsys, tmp_path):
    assert invoke(capsys, "iterate")[0] == 2  # no source
    assert invoke(capsys, "iterate", "--polygon", "--steps", "0")[0] == 2
    assert invoke(capsys, "iterate", "--polygon", "--steps", "300")[0] == 2
    assert invoke(capsys, "iterate", "--polygon", "--cycle", "0,1,2")[0] == 2
    deg = tmp_path / "deg.txt"
    deg.write_text("points 5 dim 2 mode float\n1 1\n1 1\n1 1\n1 1\n1 1\n")
    assert invoke(capsys, "iterate", "--in", str(deg))[0] == 3


def test_sequence_table_rows(capsys):
    code, out, _ = invoke(capsys, "sequence", "--terms", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a,ratio,bound,bound_decimal"
    assert lines[1] == "0,0,,,"
    assert lines[3] == "2,3/4,0.75,8/3,2.6666666666666665"
    assert lines[4] == "3,1/2,0.6666666666666666,21/8,2.625"
    assert lines[5] == "4,21/64,0.65625,55/21,2.619047619047619"


def test_sequence_check(capsys):
    code, out, _ = invoke(capsys, "sequence", "--terms", "30", "--check")
    assert code == 0
    assert "# verdict holds" in out


def test_sequence_check_holds_at_the_largest_term_count(capsys):
    start = time.perf_counter()
    code, out, _ = invoke(capsys, "sequence", "--terms", "7000", "--check")
    assert time.perf_counter() - start < 60
    assert code == 0
    assert out.endswith("# verdict holds\n")


def test_sequence_json(capsys):
    code, out, _ = invoke(capsys, "sequence", "--terms", "6", "--check", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["terms"][2] == "3/4" and obj["terms"][4] == "21/64"
    assert obj["check"]["verdict"] == "holds"


def test_sequence_rows_build_no_fraction(capsys, monkeypatch):
    """The text rows and the check read the table's ints and reduced pairs alone."""
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr("cycleweights.sequences.Fraction", refuse)
    code, out, _ = invoke(capsys, "sequence", "--terms", "300", "--check")
    golden = Path(__file__).parent / "golden" / "sequence_terms300_check.out"
    assert code == 0
    assert out == golden.read_bytes().decode("utf-8")


def test_sequence_errors(capsys):
    assert invoke(capsys, "sequence", "--terms", "1")[0] == 2
    assert invoke(capsys, "sequence", "--terms", "2", "--check")[0] == 2


def test_optimize_json_contract(capsys):
    code, out, _ = invoke(
        capsys, "optimize", "--seed", "2", "--n", "4", "--objective", "minimize",
        "--restarts", "2", "--budget", "40", "--json",
    )
    obj = json.loads(out)
    assert code == 0
    assert set(obj) == {
        "n", "dim", "objective_kind", "value", "bound",
        "witness_points", "cycle", "restarts", "sweeps",
    }
    assert obj["n"] == 4 and obj["objective_kind"] == "minimize"
    assert len(obj["witness_points"]) == 4
    assert obj["cycle"] == "0,1,2,3"


def test_optimize_human_output(capsys):
    code, out, _ = invoke(
        capsys, "optimize", "--seed", "2", "--n", "5", "--restarts", "2", "--budget", "40"
    )
    assert code == 0
    assert "objective=maximize" in out
    assert "within_bounds True" in out
    assert "points 5 dim 2 mode float" in out


def test_optimize_conjecture(capsys):
    code, out, _ = invoke(
        capsys, "optimize", "--conjecture", "--seed", "3", "--n-min", "5", "--n-max", "6",
        "--restarts", "1", "--budget", "20", "--json",
    )
    obj = json.loads(out)
    assert code == 0
    assert [r["n"] for r in obj["rows"]] == [5, 6]
    assert all("status" not in row for row in obj["rows"])
    assert obj["rows"][1]["proven"] == [1 / 6, 2 / 3]


def test_optimize_errors(capsys):
    assert invoke(capsys, "optimize")[0] == 2  # no --n, no --conjecture
    assert invoke(capsys, "optimize", "--n", "3")[0] == 2
    assert invoke(capsys, "optimize", "--n", "5", "--objective", "explore")[0] == 2


def test_pentagon_check(capsys):
    code, out, _ = invoke(capsys, "pentagon", "--check")
    assert code == 0
    assert "lower observed" in out and "ok True" in out
    assert "upper observed" in out


def test_pentagon_other_sizes(capsys):
    code, out, _ = invoke(capsys, "pentagon", "--n", "4")
    assert code == 0
    assert "verdict holds-with-equality" in out
    code, out, _ = invoke(capsys, "pentagon", "--n", "6", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["cycles"] == 60
    assert 0 < obj["min_ratio"] < obj["max_ratio"] < 1


def test_pentagon_n10_builds_no_cycle(capsys):
    enumerate_cycles.cache_clear()
    code, out, _ = invoke(capsys, "pentagon", "--n", "10", "--json")
    assert code == 0 and json.loads(out)["cycles"] == 181440
    assert enumerate_cycles.cache_info().currsize == 0


def test_pentagon_n10_memory_is_not_per_cycle(capsys):
    # a list of the 181,440 cycle weights alone would take several MiB
    argv = ["pentagon", "--n", "10", "--json"]
    assert run(argv) == 0  # warm-up: imports and cached tables
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2**20


def test_pentagon_errors(capsys):
    assert invoke(capsys, "pentagon", "--n", "2")[0] == 2
    assert invoke(capsys, "pentagon", "--n", "4", "--check")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [(*n, *flag) for n in (("--n", "4"), ("--n", "5"), ("--n", "6"), ("--n", "10"))
     for flag in ((), ("--json",))] + [("--n", "5", "--check"), ("--check", "--json")],
)
def test_pentagon_underflowing_radius_is_degenerate(capsys, argv):
    # every squared distance of the 1e-200 polygon underflows to 0.0
    code, out, err = invoke(capsys, "pentagon", *argv, "--radius", "1e-200")
    assert code == 3 and out == ""
    assert "degenerate input:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("--n", str(n)) for n in range(3, 11)] + [("--check",), ("--n", "5", "--json")]
)
def test_pentagon_overflowing_radius_is_degenerate(capsys, argv):
    # every squared distance of the 1e160 polygon overflows to inf
    code, out, err = invoke(capsys, "pentagon", *argv, "--radius", "1e160")
    assert code == 3 and out == ""
    assert "degenerate input:" in err and "Traceback" not in err


def test_iterate_underflowing_radius_is_degenerate(capsys):
    # every squared distance of the 1e-165 pentagon underflows to 0.0
    code, out, err = invoke(capsys, "iterate", "--polygon", "--radius", "1e-165")
    assert code == 3 and out == ""
    assert err == "degenerate input: the total weight is zero, subnormal or not finite\n"


@pytest.mark.parametrize("radius", ["1e-160", "1e-162"])
@pytest.mark.parametrize("argv", [("--n", str(n)) for n in range(3, 11)] + [("--check",)])
def test_pentagon_subnormal_total_weight_is_degenerate(capsys, argv, radius):
    # w(K_n) = n^2 radius^2 is subnormal or 0: a float ratio has lost its bits
    code, out, err = invoke(capsys, "pentagon", *argv, "--radius", radius)
    assert code == 3 and out == ""
    assert err == f"degenerate input: squared distances under- or overflow at radius {radius}\n"


def test_iterate_subnormal_total_weight_is_degenerate(capsys):
    code, out, err = invoke(capsys, "iterate", "--polygon", "--radius", "1e-160")
    assert code == 3 and out == ""
    assert err == "degenerate input: the total weight is zero, subnormal or not finite\n"


TINY_FILE = ("points 5 dim 2 mode float\n1e-160 2e-160\n-3e-160 1.5e-160\n2.5e-160 -1e-160\n"
             "0 4e-160\n-1e-160 -2e-160\n")


def test_verify_subnormal_point_file_is_degenerate(capsys, tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_FILE)
    code, out, _ = invoke(capsys, "verify", "--in", str(path))
    assert code == 3
    assert out.count("verdict degenerate") == 12
    assert "summary checks=12 violations=0 degenerate=12 equalities=0" in out


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10), st.floats(-160.0, 160.0))
def test_pentagon_holds_wherever_the_total_weight_is_normal(n, exponent):
    radius = 10.0**exponent
    w_k = total_weight(regular_polygon(n, radius))
    argv = ["pentagon", "--n", str(n), "--radius", repr(radius), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code == (0 if has_ratio(w_k) else 3)
    if code == 0:
        assert json.loads(out.getvalue())["violations"] == 0


HUGE_FILE = ("points 5 dim 2 mode float\n1e160 2e160\n-3e160 1.5e160\n2.5e160 -1e160\n"
             "0 4e160\n-1e160 -2e160\n")


@pytest.mark.parametrize("argv", [("verify",), ("verify", "--json"), ("verify", "--duality"),
                                  ("iterate",), ("iterate", "--json")])
def test_overflowing_point_file_never_holds(capsys, tmp_path, argv):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_FILE)
    code, out, err = invoke(capsys, *argv, "--in", str(path))
    assert code == 3 and "holds" not in out
    assert "ratio nan" not in out and '"ratio": NaN' not in out
    assert "Traceback" not in err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [("verify", "--json"), ("verify", "--duality", "--json")])
def test_overflowing_point_file_prints_strict_json(capsys, tmp_path, argv):
    path = tmp_path / "huge.txt"
    path.write_text(HUGE_FILE)
    code, out, _ = invoke(capsys, *argv, "--in", str(path))
    assert code == 3
    rows = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    # the weights overflow: wK and wE are inf and wD is inf - inf
    assert all(r["wK"] is None and r["wD"] is None for r in rows if "wK" in r)


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "seq.csv"
    code, out, _ = invoke(capsys, "sequence", "--terms", "4", "--out", str(path))
    assert code == 0 and out == ""
    assert "2,3/4,0.75,8/3" in path.read_text()


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys)[0] == 2  # no subcommand
    assert invoke(capsys, "frobnicate")[0] == 2
    assert invoke(capsys, "gen", "--dim", "5")[0] == 2
    assert invoke(capsys, "gen", "--mode", "decimal")[0] == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("iterate", "--polygon", "--tol", "nan"),
        ("iterate", "--polygon", "--tol", "-1"),
        ("verify", "--n", "5", "--fuzz", "3", "--tol", "inf"),
        ("pentagon", "--check", "--tol", "nan"),
        ("iterate", "--polygon", "--cycle", "a,b"),
        ("gen", "--out", "/nonexistent-dir/x"),
        ("optimize", "--conjecture", "--n-min", "6", "--n-max", "5"),
        ("sequence", "--terms", "7144"),
        ("sequence", "--terms", "7001"),
        ("verify", "--n", "10000000", "--fuzz", "1"),
        ("verify", "--n", "11", "--fuzz", "1"),
        ("gen", "--n", "3", "--seed", "-1"),
        ("gen", "--n", "3", "--seed", "18446744073709551616"),
        ("gen", "--seed", "1.5"),
        ("verify", "--n", "5", "--fuzz", "3", "--seed", "-1"),
        ("identity", "--fuzz", "3", "--seed", "-7"),
        ("iterate", "--seed", "x"),
        ("optimize", "--n", "4", "--seed", "-1"),
        ("iterate", "--polygon", "--mode", "rational", "--steps", "2"),
        ("iterate", "--polygon", "--seed", "3"),
        ("iterate", "--in", PENT_FLOAT, "--seed", "3"),
        ("iterate", "--in", PENT_FLOAT, "--polygon"),
        ("gen", "--polygon", "--dim", "3"),
        ("iterate", "--polygon", "--dim", "3"),
        # an option that the chosen form ignores
        ("iterate", "--in", PENT_RATIONAL, "--mode", "float", "--steps", "2"),
        ("verify", "--in", PENT_RATIONAL, "--mode", "float"),
        ("verify", "--in", PENT_RATIONAL, "--dim", "3", "--seed", "5"),
        ("identity", "--in", QUAD_RATIONAL, "--seed", "4"),
        ("gen", "--polygon", "--seed", "5"),
        ("gen", "--polygon", "--mode", "float"),
        ("gen", "--radius", "2"),
        ("iterate", "--seed", "3", "--radius", "2", "--steps", "2"),
        ("identity", "--fuzz", "3", "--pairing", "1"),
        # --trials is no option: a trial count is typed after --fuzz, and it is at least 1
        ("verify", "--in", PENT_FLOAT, "--trials", "5"),
        ("identity", "--in", QUAD_FLOAT, "--trials", "5"),
        ("verify", "--n", "5", "--fuzz", "3", "--trials", "9"),
        ("verify", "--n", "5", "--fuzz", "-1"),
        ("identity", "--fuzz", "-1"),
        ("identity", "--fuzz", "-1", "--trials", "2"),
        ("optimize", "--conjecture", "--n", "5", "--restarts", "1", "--budget", "5"),
        ("optimize", "--conjecture", "--objective", "minimize", "--restarts", "1", "--budget", "5"),
        ("optimize", "--n", "5", "--n-max", "6", "--restarts", "1", "--budget", "5"),
        ("pentagon", "--tol", "0.5"),
        # rational mode decides exactly, with no tolerance
        ("verify", "--n", "5", "--fuzz", "10", "--mode", "rational", "--tol", "0.5"),
        ("verify", "--in", PENT_RATIONAL, "--tol", "0.5"),
        ("identity", "--fuzz", "10", "--mode", "rational", "--tol", "0.5"),
        ("iterate", "--in", PENT_RATIONAL, "--steps", "3", "--tol", "0.5"),
    ],
)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    # refused before any work: --n 10000000 must not draw or enumerate first
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 20
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [("gen", "--n", "4"), ("verify", "--n", "4", "--fuzz", "20")],
)
def test_a_draw_accepts_its_defaults_given_explicitly(capsys, argv):
    explicit = invoke(capsys, *argv, "--seed", "0", "--dim", "2", "--mode", "float")
    assert explicit == invoke(capsys, *argv)
    assert explicit[0] == 0 and explicit[1]


def test_seed_takes_every_u64(capsys):
    for seed in ("0", str(2**64 - 1)):
        assert invoke(capsys, "gen", "--n", "3", "--seed", seed)[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--seed", "5", "--n", "6", "--dim", "3"),
        ("verify", "--fuzz", "50", "--n", "5", "--seed", "9"),
        ("identity", "--fuzz", "50", "--seed", "9", "--dim", "3", "--json"),
        ("iterate", "--seed", "4", "--steps", "10"),
        ("sequence", "--terms", "12", "--check"),
        ("optimize", "--seed", "2", "--n", "4", "--objective", "minimize",
         "--restarts", "2", "--budget", "40", "--json"),
        ("pentagon", "--check", "--json"),
    ],
)
def test_repeat_invocations_byte_identical(capsys, argv):
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def _rational_quad(tmp_path, token):
    path = tmp_path / "quad.txt"
    path.write_text(f"points 4 dim 2 mode rational\n0 0\n{token} 0\n1 1\n0 {token}\n")
    return str(path)


def test_largest_rational_tokens_render(capsys, tmp_path):
    exponent = f"e-{MAX_RATIONAL_TOKEN}"
    decimal = "1." + "3" * (MAX_RATIONAL_TOKEN - 2 - len(exponent)) + exponent
    fraction = "7" * 31 + "/" + "9" * (MAX_RATIONAL_TOKEN - 32)
    for token in (decimal, fraction):
        assert len(token) == MAX_RATIONAL_TOKEN
        path = _rational_quad(tmp_path, token)
        code, out, _ = invoke(capsys, "verify", "--in", path)
        assert code == 0 and "summary checks=3 violations=0" in out
        code, out, _ = invoke(capsys, "verify", "--in", path, "--json")
        assert code == 0 and json.loads(out.splitlines()[-1])["checks"] == 3


@pytest.mark.parametrize(
    "token", ["1e-5000", "1e-1000000", "1e99999999999999999999", "1" * (MAX_RATIONAL_TOKEN + 1)]
)
def test_oversize_rational_tokens_are_usage_errors(capsys, tmp_path, token):
    path = _rational_quad(tmp_path, token)
    start = time.perf_counter()
    for extra in ((), ("--json",)):
        code, out, err = invoke(capsys, "verify", "--in", path, *extra)
        assert code == 2 and out == "" and "error:" in err
    assert time.perf_counter() - start < 1.0


# --- the exit-code contract over generated argument vectors ---------------

INPUTS = Path(__file__).parent / "golden" / "inputs"


def _value(*choices):
    return st.sampled_from(choices).map(lambda v: [str(v)])


def _count(lo, hi):
    return st.integers(lo, hi).map(lambda v: [str(v)])


BARE = st.just([])


def _opt(flag, values=BARE):
    return values.map(lambda v: [flag, *v])


def _cat(*parts):
    return st.tuples(*parts).map(lambda ps: [token for part in ps for token in part])


COMMON = {"--json": BARE, "--out": _value("", "", "/nonexistent-dir/out.txt")}
SEED = {"--seed": st.integers(-(2**70), 2**70).map(lambda v: [str(v)])}
SEEDED = {**SEED, "--mode": _value("float", "rational", "decimal")}
IN = _value(*sorted(str(f) for f in INPUTS.iterdir()), INPUTS / "missing.txt")
DIM = _count(1, 4)
TOL = _value("1e-9", "0.3", "1e-300", "0", "-1", "nan", "inf", "x")
RADIUS = _value("1", "2.5", "1e-9", "0", "-1", "nan", "inf")
FUZZ = st.one_of(BARE, _count(-1, 20))
RESTARTS, BUDGET = _count(-1, 2), _count(-1, 6)
# Optional flags, each drawn at most once, after the command's lead.  Counts
# stay small so the property costs seconds.
FLAGS = {
    "gen": {**SEEDED, "--n": _count(1, 11), "--dim": DIM, "--polygon": BARE, "--radius": RADIUS},
    "verify": {**SEEDED, "--in": IN, "--fuzz": FUZZ, "--n": _count(2, 7), "--dim": DIM,
               "--tol": TOL, "--duality": BARE},
    "identity": {**SEEDED, "--in": IN, "--fuzz": FUZZ, "--dim": DIM,
                 "--pairing": _value(0, 1, 2, 3, "all"), "--tol": TOL},
    "iterate": {**SEEDED, "--in": IN, "--polygon": BARE, "--radius": RADIUS, "--dim": DIM,
                "--cycle": _value("0,1,2,3,4", "0,2,4,1,3", "4,0,1,2,3", "0,1,2", "0,0,1,2,3",
                                  "a,b", ""),
                "--steps": _count(-1, 12), "--tol": TOL},
    "sequence": {"--terms": _count(-1, 40), "--check": BARE},
    "optimize": {**SEED, "--n": _count(2, 8), "--dim": DIM,
                 "--objective": _value("maximize", "minimize", "explore"),
                 "--conjecture": BARE, "--n-min": _count(2, 8), "--n-max": _count(2, 8),
                 "--restarts": RESTARTS, "--budget": BUDGET},
    "pentagon": {"--n": _value(1, 3, 4, 5, 6, 7, 8, 11), "--radius": RADIUS, "--check": BARE,
                 "--tol": TOL},
}
# A lead that gets most examples past the argument checks.  A fuzz run and
# optimize always take a tiny count: their defaults (1000 trials, 20 restarts
# x 500 sweeps) take seconds.
FUZZ_LEAD = _opt("--fuzz", _count(-1, 20))
LEAD = {
    "verify": st.one_of(_opt("--in", IN), _cat(FUZZ_LEAD, _opt("--n", _count(3, 7)))),
    "identity": st.one_of(_opt("--in", IN), FUZZ_LEAD),
    "iterate": st.one_of(_opt("--in", IN), _opt("--polygon"), _opt("--seed", _count(0, 99))),
    "optimize": _cat(st.one_of(_opt("--n", _count(4, 7)), _opt("--conjecture")),
                     _opt("--restarts", RESTARTS), _opt("--budget", BUDGET)),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**COMMON, **FLAGS[command]}
    argv = [command, *draw(LEAD.get(command, BARE))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv += [flag, *draw(flags[flag])]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_every_argument_vector_ends_in_a_contract_exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_module_entry_point_exit_codes():
    paths = [str(Path(cycleweights.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    # the console script adds only this mapping of run's result to the exit status
    def call(*argv):
        return subprocess.run([sys.executable, "-m", "cycleweights", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
    held = call("pentagon", "--check", "--json")
    assert held.returncode == 0
    assert json.loads(held.stdout)["check"]["lower_ok"] is True
    violated = call("verify", "--in", PENT_FLOAT, "--duality", "--tol", "1e-300")
    assert violated.returncode == 1 and "duality verdict violated" in violated.stdout
    usage = call("verify")
    assert usage.returncode == 2
    assert "error:" in usage.stderr and "Traceback" not in usage.stderr
    degenerate = call("verify", "--in", str(INPUTS / "coincident_rational.txt"))
    assert degenerate.returncode == 3 and "degenerate=12" in degenerate.stdout
    assert "Traceback" not in degenerate.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the two cost most of a call's start-up when the package's records are dataclasses
    paths = [str(Path(cycleweights.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = ("import sys, cycleweights.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
