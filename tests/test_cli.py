"""End-to-end command-line behavior, run in process."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxprune
from boxprune import cli, compile_problem, solve
from boxprune.cli import main
from boxprune.decompose import MAX_DEPTH

from helpers import QUARTIC_UNIT, QUARTIC_WIDE, X_STAR, Y_STAR

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


def test_order_flag_changes_work_but_not_answers(problem_file, capsys):
    path = problem_file(QUARTIC_WIDE)

    def box_lines(argv):
        code = main(argv)
        assert code == 0
        return [l for l in capsys.readouterr().out.splitlines() if l.startswith("box ")]

    reference = box_lines([path])
    assert box_lines([path, "--order", "roundrobin"]) == reference
    assert box_lines([path, "--order", "random:7"]) == reference


def test_readme_circle_output_and_counts_per_order(problem_file, capsys):
    path = problem_file(QUARTIC_WIDE)  # README's circle.txt
    boxes = (
        "box 00: {x=[-0.7861513777574236,-0.7861513777574229], y=[0.6180339887498943,0.6180339887498953]}\n"
        "box 11: {x=[0.7861513777574229,0.7861513777574236], y=[0.6180339887498943,0.6180339887498953]}\n"
    )
    for order, applications in (("worklist", 1026), ("roundrobin", 1372), ("random:7", 937)):
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


def test_importing_the_cli_does_not_load_numpy():
    # only --check-grid uses numpy, and loading it dominates start-up time
    env = dict(os.environ, PYTHONPATH=str(Path(boxprune.__file__).parents[1]))
    code = "import sys, boxprune.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
