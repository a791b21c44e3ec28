"""End-to-end command-line behavior, run in process."""

import functools
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

import boxprune
from boxprune import cli, compile_problem, search, solve
from boxprune.cli import main
from boxprune.decompose import MAX_DEPTH

from helpers import QUARTIC_UNIT, QUARTIC_WIDE, X_STAR, Y_STAR, broyden

INFEASIBLE = "var x in [0, 1]; var y in [-3, -1]; constraint y = x^2;\n"
POINT_SYSTEM = "var x in [0, 4]; constraint x^2 = 4;\n"


@pytest.fixture
def problem_file(tmp_path):
    def write(text, name="problem.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_solve_text_output(problem_file, capsys):
    code = main([problem_file(QUARTIC_WIDE)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("box 0") and lines[1].startswith("box 1")
    assert "x=[" in lines[0] and "y=[" in lines[0]
    assert lines[2].startswith("emitted 2 boxes, pruned ")
    assert ", contractor applications " in lines[2]


def test_solve_single_enclosure_path(problem_file, capsys):
    code = main([problem_file(QUARTIC_UNIT)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("box 1: {x=[0.78")
    assert "y=[0.61" in out


def test_json_output_round_trips_bit_exact(problem_file, capsys):
    code = main([problem_file(QUARTIC_WIDE), "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "enclosures"
    assert not obj["incomplete"]
    assert obj["stats"]["boxes_emitted"] == 2
    report = solve(compile_problem(QUARTIC_WIDE))
    for rendered, (box, path) in zip(obj["boxes"], report.atomic_boxes):
        assert rendered["path"] == path
        for name in ("x", "y"):
            lo, hi = rendered["bindings"][name]
            assert lo == box[name].lo and hi == box[name].hi
    assert obj["stats"]["boxes_pruned"] == report.pruned_count


def test_infeasible_exit_code_and_message(problem_file, capsys):
    code = main([problem_file(INFEASIBLE)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("infeasible (pruned ")
    assert "emitted 0 boxes" in out


def test_parse_error_goes_to_stderr(problem_file, capsys):
    code = main([problem_file("var x in [1, 0];")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: line 1, column 11:")


def test_missing_file(capsys):
    code = main(["/nonexistent/problem.txt"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read /nonexistent/problem.txt")


UNDECODABLE = b"var x in [0,1]; constraint x = 0.5; # caf\xe9"


def test_undecodable_file_is_a_read_error(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(UNDECODABLE)
    code = main([str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


def test_undecodable_stdin_is_a_read_error(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(UNDECODABLE), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code = main(["-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read -: 'utf-8' codec can't decode byte 0xe9")


def test_budget_exhaustion_keeps_partial_results(problem_file, capsys):
    code = main([problem_file(QUARTIC_WIDE), "--max-boxes", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert sum(1 for line in out.splitlines() if line.startswith("box ")) == 1
    assert "incomplete: atomic box budget exceeded" in out


def test_budget_exhaustion_json(problem_file, capsys):
    code = main([problem_file(QUARTIC_WIDE), "--max-boxes", "1", "--format", "json"])
    assert code == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["incomplete"] is True
    assert len(obj["boxes"]) == 1


def test_application_budget_exhaustion_exits_3(problem_file, capsys, monkeypatch):
    # 1 + a = 3 + a has no solution, but propagation walks a's lower bound
    # up only 2 at a time, so the search runs out of applications, here
    # cut to 1000
    monkeypatch.setattr(search, "_SEARCH_BUDGET", 1000)
    path = problem_file("var a in [4, 1e300]; constraint 1 + a = 3 + a;")
    assert main([path]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "incomplete: contractor application budget exceeded"
    assert lines[-1].startswith("emitted 0 boxes, pruned ")
    assert lines[-1].endswith(", contractor applications 1000")
    assert main([path, "--format", "json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["incomplete"] is True
    assert obj["stats"]["contractor_applications"] == 1000


@pytest.mark.parametrize(
    "text,root",
    [
        ("var x in [0,3]; constraint x^2 - 2*x + 1 = 0;", lambda: {"x": mpmath.mpf(1)}),
        (
            "var x in [-2, 2]; var y in [-2, 2]; constraint x^2 + y^2 = 1; constraint x + y = 1.4142135623730951;",
            lambda: {"x": mpmath.sqrt(2) / 2, "y": mpmath.sqrt(2) / 2},
        ),
    ],
    ids=["double-root", "tangent-circle"],
)
def test_double_roots_are_enclosed(problem_file, text, root):
    # propagation converges only linearly to a double root and Krawczyk
    # cannot narrow around it, so the search splits the stalled boxes until
    # they are atomic; the timeout turns a runaway search into a failure
    path = problem_file(text)
    env = dict(os.environ, PYTHONPATH=str(Path(boxprune.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "boxprune.cli", "--format", "json", path], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    obj = json.loads(done.stdout)
    assert not obj["incomplete"]
    with mpmath.workdps(40):
        point = root()
        assert any(
            all(mpmath.mpf(box["bindings"][v][0]) <= c <= mpmath.mpf(box["bindings"][v][1]) for v, c in point.items())
            for box in obj["boxes"]
        )


@pytest.mark.parametrize(
    "text,code",
    [
        ("var x in [0, 1e400]; constraint x = 1;", 0),
        ("var x in [-1e400, 0]; constraint x = -1;", 0),
        ("var x in [1e400, 1e401]; constraint x = 1;", 1),
    ],
    ids=["above", "below", "beyond"],
)
def test_declared_bounds_beyond_the_float_range(problem_file, capsys, text, code):
    # such a bound rounds to an infinity or the largest float, so x = 1 is
    # solved, or proved outside [1.7976931348623157e308, inf]
    assert main([problem_file(text)]) == code
    out = capsys.readouterr().out
    if code == 0:
        assert out.startswith("box : {x=[")
    else:
        assert out.startswith("infeasible")


@pytest.mark.parametrize("bound", ["[0, 1e59999999999999999999]", "[1e-59999999999999999999, 1]"], ids=["huge", "tiny"])
def test_a_bound_beyond_decimal_exponents_is_a_parse_error(problem_file, capsys, bound):
    # the literal has no Decimal, so it is rejected like the same literal in
    # an expression
    assert main([problem_file(f"var a in {bound}; constraint a = 1;")]) == 2
    assert "bad numeric literal" in capsys.readouterr().err


def test_propagate_only(problem_file, capsys):
    code = main([problem_file(QUARTIC_UNIT), "--propagate-only"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("fixpoint: {x=[")
    assert out.splitlines()[-1].startswith("contractor applications ")


def test_propagate_only_proved_empty(problem_file, capsys):
    code = main([problem_file(INFEASIBLE), "--propagate-only"])
    out = capsys.readouterr().out
    assert code == 1
    assert "infeasible (proved empty)" in out


# The plain fixpoints of the circle's two leaf nodes, which propagation
# alone reaches after about 500 applications each.  Under the default
# budget those nodes stall and end in Krawczyk steps inside these boxes.
PLAIN_CIRCLE_BOXES = {
    "00": {"x": (-0.7861513777574236, -0.7861513777574229), "y": (0.6180339887498943, 0.6180339887498953)},
    "11": {"x": (0.7861513777574229, 0.7861513777574236), "y": (0.6180339887498943, 0.6180339887498953)},
}
_BOX_LINE = re.compile(r"box (\d*): \{x=\[([^,]+),([^\]]+)\], y=\[([^,]+),([^\]]+)\]\}")


def test_propagate_only_prints_a_stalled_iterate(problem_file, capsys, monkeypatch):
    # a run cut short at its budget prints its iterate, which is sound but
    # not a fixpoint, and exits 3
    get_engine = cli.get_engine
    monkeypatch.setattr(cli, "get_engine", lambda spec: functools.partial(get_engine(spec), max_steps=5))
    path = problem_file(broyden(2))
    assert main([path, "--propagate-only"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("stalled after 5 applications: {x1=[")
    assert lines[1:] == ["contractor applications 5"]
    assert main([path, "--propagate-only", "--format", "json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "stalled"
    assert obj["stats"]["contractor_applications"] == 5
    assert set(obj["fixpoint"]) == {"x1", "x2"}


def test_propagate_only_trace(problem_file, capsys):
    path = problem_file(QUARTIC_WIDE)
    assert main([path, "--propagate-only", "--trace"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "c0 sq {x=[-2.0,2.0], y=[-2.0,2.0]} -> {x=[-1.4142135623730951,1.4142135623730951], y=[0.0,2.0]} changed",
        "c1 sq {_t0=[-inf,inf], y=[0.0,2.0]} -> {_t0=[0.0,4.0], y=[0.0,2.0]} changed",
        "c2 sum {_t0=[0.0,4.0], _t1=[-inf,inf], y=[0.0,2.0]} -> {_t0=[0.0,4.0], _t1=[0.0,6.0], y=[0.0,2.0]} changed",
        "c3 const {_t1=[0.0,6.0]} -> {_t1=[1.0,1.0]} changed",
        "c2 sum {_t0=[0.0,4.0], _t1=[1.0,1.0], y=[0.0,2.0]} -> {_t0=[0.0,1.0], _t1=[1.0,1.0], y=[0.0,1.0]} changed",
        "c0 sq {x=[-1.4142135623730951,1.4142135623730951], y=[0.0,1.0]} -> {x=[-1.0,1.0], y=[0.0,1.0]} changed",
        "c1 sq {_t0=[0.0,1.0], y=[0.0,1.0]} -> {_t0=[0.0,1.0], y=[0.0,1.0]} nochange",
        "fixpoint: {x=[-1.0,1.0], y=[0.0,1.0]}",
        "contractor applications 7",
    ]
    assert main([path, "--propagate-only", "--trace", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "feasible-unknown"
    assert obj["fixpoint"] == {"x": [-1.0, 1.0], "y": [0.0, 1.0]}
    assert obj["stats"] == {"contractor_applications": 7, "effective_applications": 6}
    steps = [(rec["cid"], rec["kind"], rec["changed"]) for rec in obj["trace"]]
    assert steps == [
        (0, "sq", True),
        (1, "sq", True),
        (2, "sum", True),
        (3, "const", True),
        (2, "sum", True),
        (0, "sq", True),
        (1, "sq", False),
    ]
    assert obj["trace"][0]["before"] == {"x": [-2.0, 2.0], "y": [-2.0, 2.0]}
    assert obj["trace"][-1]["after"] == {"_t0": [0.0, 1.0], "y": [0.0, 1.0]}


def test_json_stats_count_krawczyk_steps(problem_file, capsys):
    assert main([problem_file(QUARTIC_WIDE), "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    report = solve(compile_problem(QUARTIC_WIDE))
    assert stats["krawczyk_steps"] == report.stats.krawczyk_steps
    assert stats["krawczyk_narrowed"] == report.stats.krawczyk_narrowed
    assert stats["krawczyk_steps"] >= stats["krawczyk_narrowed"] >= 1


def test_json_stats_count_no_krawczyk_step_on_a_system_that_is_not_square(problem_file, capsys):
    # random_mix seed 1, draw 53: one equation in two variables
    path = problem_file("var a in [-1.0, 1.0]; var b in [-2.0, 4.0]; constraint a^2 + -a = 1;")
    assert main([path, "--eps", "1e-6", "--max-boxes", "256", "--format", "json"]) == 3
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["krawczyk_steps"] == stats["krawczyk_narrowed"] == 0


def test_json_stats_count_no_krawczyk_step_where_k_cannot_be_formed(problem_file, capsys):
    # random_mix seed 1, draw 143: square, but every midpoint Jacobian is
    # singular
    path = problem_file(
        "var a in [-1.0, 4.0]; var b in [-1.0, 4.0]; var c in [-2.0, 4.0]; "
        "constraint -0.5 * a = b; constraint a = b; constraint b - a * 3 - b = b * 1.5;"
    )
    assert main([path, "--eps", "1e-6", "--max-boxes", "256", "--format", "json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["boxes"]) == 256
    assert obj["stats"]["contractor_applications"] == 21_400
    assert obj["stats"]["krawczyk_steps"] == obj["stats"]["krawczyk_narrowed"] == 0


def test_order_flag_changes_work_but_not_answers(problem_file, capsys):
    # the orders may end an ulp apart after Krawczyk steps, but they take
    # the same paths, prune as many boxes, enclose both roots, and stay
    # inside the plain fixpoints
    path = problem_file(QUARTIC_WIDE)
    with mpmath.workdps(40):
        y = (mpmath.sqrt(5) - 1) / 2
        roots = {"00": (-mpmath.sqrt(y), y), "11": (mpmath.sqrt(y), y)}
    summaries = set()
    for order in ("worklist", "roundrobin", "random:7"):
        assert main([path, "--order", order]) == 0
        lines = capsys.readouterr().out.splitlines()
        boxes = {m[1]: ((float(m[2]), float(m[3])), (float(m[4]), float(m[5]))) for m in map(_BOX_LINE.fullmatch, lines[:-1])}
        assert sorted(boxes) == ["00", "11"]
        for where, (x, y) in boxes.items():
            plain = PLAIN_CIRCLE_BOXES[where]
            assert plain["x"][0] <= x[0] <= x[1] <= plain["x"][1]
            assert plain["y"][0] <= y[0] <= y[1] <= plain["y"][1]
            rx, ry = roots[where]
            assert x[0] <= rx <= x[1] and y[0] <= ry <= y[1]
        summaries.add(lines[-1].split(", contractor applications")[0])
    assert summaries == {"emitted 2 boxes, pruned 2"}


def test_readme_circle_output_and_counts_per_order(problem_file, capsys):
    path = problem_file(QUARTIC_WIDE)  # README's circle.txt
    boxes = (
        "box 00: {x=[-0.7861513777574235,-0.7861513777574232], y=[0.6180339887498946,0.6180339887498951]}\n"
        "box 11: {x=[0.7861513777574232,0.7861513777574235], y=[0.6180339887498946,0.6180339887498951]}\n"
    )
    for order, applications in (("worklist", 57), ("roundrobin", 74), ("random:7", 57)):
        assert main([path, "--order", order]) == 0
        assert capsys.readouterr().out == boxes + f"emitted 2 boxes, pruned 2, contractor applications {applications}\n"


def test_crash_exits_with_internal_error_code(problem_file, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "solve", crash)
    code = main([problem_file(QUARTIC_UNIT)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: internal error: RecursionError: ")
    assert captured.err.count("\n") == 1


DEPTH_PROBLEM = "var x in [0, 1]; constraint {} = 0;"


@pytest.mark.parametrize(
    "expression,column",
    [
        # MAX_DEPTH + 1 nested parentheses: the error points at the innermost
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), 29 + MAX_DEPTH),
        # a left-deep sum of MAX_DEPTH + 2 terms: the error points at its last '+'
        (" + ".join(["x"] * (MAX_DEPTH + 2)), 29 + 4 * MAX_DEPTH + 2),
        ("(" * 3000 + "x" + ")" * 3000, 29 + MAX_DEPTH),
        (" + ".join(["x"] * 3000), 29 + 4 * MAX_DEPTH + 2),
    ],
    ids=["parens-past-limit", "sum-past-limit", "parens-3000", "sum-3000"],
)
def test_too_deep_expression_is_a_parse_error(problem_file, capsys, expression, column):
    code = main([problem_file(DEPTH_PROBLEM.format(expression))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: line 1, column {column}: expression nests deeper than {MAX_DEPTH} levels\n"


@pytest.mark.parametrize(
    "expression",
    ["(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, " + ".join(["x"] * (MAX_DEPTH + 1))],
    ids=["parens-at-limit", "sum-at-limit"],
)
def test_expression_at_the_depth_limit_solves(problem_file, capsys, expression):
    path = problem_file(DEPTH_PROBLEM.format(expression))
    for extra in ([], ["--echo"], ["--check-grid", "5"]):
        assert main([path] + extra) == 0
    out = capsys.readouterr().out
    assert out.count("box : {x=[0.0,0.0]}\n") == 2
    assert "grid check: 1 candidate points, 1 enclosed (all enclosed)\n" in out


@pytest.mark.parametrize("exponent", [str(2**1000), "9" * 5000], ids=["2^1000", "5000-digits"])
def test_huge_exponent_is_a_parse_error(problem_file, capsys, exponent):
    code = main([problem_file(f"var x in [0, 2]; constraint x^{exponent} = 2;")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: line 1, column 31: exponent exceeds 2^64\n"


def test_trace_lines(problem_file, capsys):
    code = main([problem_file(QUARTIC_UNIT), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l.startswith("trace ")]
    assert trace_lines, out
    assert trace_lines[0].startswith("trace : c")  # root node has the empty path
    assert any(" -> " in l for l in trace_lines)
    assert any(l.endswith("changed") for l in trace_lines)


def test_trace_json_structure(problem_file, capsys):
    code = main([problem_file(QUARTIC_UNIT), "--trace", "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert "trace" in obj
    first = obj["trace"][0]
    assert first["path"] == ""
    record = first["records"][0]
    assert {"cid", "kind", "before", "after", "changed"} <= set(record)


def test_echo_prints_a_canonical_reparseable_problem(problem_file, capsys):
    text = "var x in [0.1, 0.3]; constraint x^2 = 0.25;"
    code = main([problem_file(text), "--echo"])
    out = capsys.readouterr().out
    assert code == 0
    assert compile_problem(out) == compile_problem(text)
    # echoing the echo is a fixpoint
    assert out.count("constraint") == 1


def test_show_aux_reveals_auxiliaries(problem_file, capsys):
    path = problem_file(QUARTIC_UNIT)
    main([path])
    plain = capsys.readouterr().out
    assert "_t0" not in plain
    main([path, "--show-aux"])
    with_aux = capsys.readouterr().out
    assert "_t0=[" in with_aux and "_t1=[" in with_aux


def test_check_grid_all_enclosed(problem_file, capsys):
    code = main([problem_file(POINT_SYSTEM), "--check-grid", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid check: 1 candidate points, 1 enclosed (all enclosed)" in out


def test_check_grid_with_no_candidates(problem_file, capsys):
    code = main([problem_file(QUARTIC_UNIT), "--check-grid", "101"])
    out = capsys.readouterr().out
    assert code == 0
    assert "grid check: 0 candidate points, 0 enclosed (all enclosed)" in out


def test_check_grid_ignores_an_overflowing_rhs(problem_file, capsys):
    # every grid point used to pass |lhs - rhs| <= tol (1 + |rhs|) once the
    # rhs overflowed, and the grid then disagreed with a proof of no root
    code = main([problem_file("var b in [-1, 0]; constraint b - 1e300 = 1e300^2;"), "--check-grid", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "grid check: 0 candidate points, 0 enclosed (all enclosed)" in out


def test_check_grid_keeps_numpy_quiet_where_the_grid_overflows(problem_file, capsys):
    # x*x overflows at the outer grid points, and inf - inf there is NaN;
    # such a point is no hit, and no warning reaches stderr
    path = problem_file("var x in [-1e300, 1e300]; var y in [-1e300, 1e300]; constraint x*x = y*y;")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([path, "--check-grid", "5", "--max-boxes", "4"])
    assert caught == []
    captured = capsys.readouterr()
    assert code == 3 and captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 7 and all(line.startswith("box ") for line in lines[:4])
    assert lines[4:] == [
        "incomplete: atomic box budget exceeded",
        "emitted 4 boxes, pruned 0, contractor applications 135",
        "grid check: 1 candidate points, 0 enclosed (DISAGREEMENT)",
    ]


def test_check_grid_json(problem_file, capsys):
    code = main([problem_file(POINT_SYSTEM), "--check-grid", "5", "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["boxes"][0]["bindings"]["x"] == [2.0, 2.0]
    assert obj["grid_check"] == {"points": 1, "enclosed": 1, "agreement": True}


def test_check_grid_needs_finite_declarations(problem_file, capsys):
    code = main([problem_file("var x; constraint x^2 = 4;"), "--check-grid", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "grid check failed" in captured.err


def test_stdout_is_deterministic(problem_file, capsys):
    path = problem_file(QUARTIC_WIDE)
    main([path, "--trace"])
    first = capsys.readouterr().out
    main([path, "--trace"])
    second = capsys.readouterr().out
    assert first == second


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(POINT_SYSTEM))
    code = main(["-"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("box ")
    assert "x=[2.0,2.0]" in out


def test_flag_validation_exits_with_usage_error(problem_file):
    path = problem_file(QUARTIC_UNIT)
    for argv in (
        [path, "--eps", "0"],
        [path, "--eps", "-1"],
        [path, "--max-boxes", "0"],
        [path, "--check-grid", "1"],
        [path, "--order", "random:x"],
        [path, "--order", "sideways"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_check_grid_under_propagate_only_is_a_usage_error(problem_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([problem_file(QUARTIC_UNIT), "--propagate-only", "--check-grid", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--propagate-only runs no search" in captured.err


def test_importing_the_cli_loads_no_heavy_module():
    # only --check-grid uses numpy, mpmath and hypothesis serve the tests,
    # and loading any of them would dominate start-up time
    env = dict(os.environ, PYTHONPATH=str(Path(boxprune.__file__).parents[1]))
    code = "import sys, boxprune.cli; print(*sorted({'numpy', 'mpmath', 'hypothesis'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "\n"


def test_infeasible_repeated_variable_is_proved_at_once(problem_file):
    # x + y = x forces y = 0, which [8, 9] misses, so one application
    # proves the box empty; the timeout turns a stall into a failure
    path = problem_file("var x in [-1e250, -1]; var y in [8, 9]; constraint x + y = x;\n")
    env = dict(os.environ, PYTHONPATH=str(Path(boxprune.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "boxprune.cli", path], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 1
    assert "contractor applications 1" in done.stdout
