"""Command-line driver: parse a problem file, solve it, print enclosures.

Exit codes: 0 = enclosures emitted, 1 = proved infeasible (a success mode:
the answer is "no solutions"), 2 = parse or usage error, 3 = the atomic
box budget or the search's application budget exceeded (partial results
are still printed, marked incomplete with the budget named), or under
--propagate-only, propagation stopped at its application budget short of
a fixpoint (the sound iterate is printed), 4 = internal error (any other
exception, reported as one line on stderr; nothing was proved).

Output is deterministic: identical input and flags give byte-identical
stdout. Timing is therefore never printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boxes import _bindings_obj, _bindings_text
from .decompose import Csp, ParseError, compile_problem, render_problem
from .oracle import GridSpec, grid_solutions
from .propagation import PropagationOutcome, Status, get_engine
from .search import BudgetExceeded, SolveReport, SolveStatus, solve

__all__ = ["run", "render_report", "main"]


def _engine_spec(text: str) -> str:
    try:
        get_engine(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boxprune",
        description="Enclose all solutions of a system of equations in tight boxes.",
    )
    p.add_argument("input", help="problem file, or '-' for stdin")
    p.add_argument("--eps", type=float, default=1e-10, help="atomic width threshold for user variables (default 1e-10)")
    p.add_argument("--max-boxes", type=int, default=4096, help="budget of atomic boxes before giving up (default 4096)")
    p.add_argument(
        "--order",
        type=_engine_spec,
        default="worklist",
        help="propagation order: roundrobin | worklist | random:<seed> (default worklist)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format (default text)")
    p.add_argument("--trace", action="store_true", help="log every contractor application")
    p.add_argument("--check-grid", type=int, default=None, metavar="N", help="after solving, sample an N-per-axis grid and report agreement")
    p.add_argument("--propagate-only", action="store_true", help="propagate the initial box to its fixpoint; no splitting")
    p.add_argument("--show-aux", action="store_true", help="include auxiliary variables in printed boxes")
    p.add_argument("--echo", action="store_true", help="print the canonical form of the parsed problem and exit")
    return p


def render_report(
    report: SolveReport,
    fmt: str,
    user_vars,
    *,
    grid_check: dict | None = None,
) -> str:
    """Render a solve report; `user_vars` lists the variables to display."""
    user_vars = sorted(user_vars)
    if fmt == "json":
        obj = {
            "status": report.status.value,
            "boxes": [
                {"path": path, "bindings": _bindings_obj(box, user_vars)}
                for box, path in report.atomic_boxes
            ],
            "stats": {
                "boxes_emitted": len(report.atomic_boxes),
                "boxes_pruned": report.pruned_count,
                "contractor_applications": report.stats.contractor_applications,
                "max_depth": report.stats.max_depth,
                "krawczyk_steps": report.stats.krawczyk_steps,
                "krawczyk_narrowed": report.stats.krawczyk_narrowed,
            },
            "incomplete": report.incomplete,
        }
        if report.traces is not None:
            obj["trace"] = [
                {"path": path, "records": [rec.to_json_obj() for rec in recs]}
                for path, recs in report.traces
            ]
        if grid_check is not None:
            obj["grid_check"] = grid_check
        return json.dumps(obj, indent=2)

    lines: list[str] = []
    if report.traces is not None:
        for path, recs in report.traces:
            for rec in recs:
                lines.append(f"trace {path}: {rec.to_text()}")
    if report.status is SolveStatus.INFEASIBLE:
        lines.append(f"infeasible (pruned {report.pruned_count} subboxes)")
    else:
        for box, path in report.atomic_boxes:
            lines.append(f"box {path}: {_bindings_text(box, user_vars)}")
    if report.incomplete:
        lines.append(f"incomplete: {report.exhausted} budget exceeded")
    lines.append(
        f"emitted {len(report.atomic_boxes)} boxes, pruned {report.pruned_count}, "
        f"contractor applications {report.stats.contractor_applications}"
    )
    if grid_check is not None:
        agreement = grid_check["agreement"]
        if agreement is None:
            outside = grid_check["points"] - grid_check["enclosed"]
            verdict = f"search incomplete, {outside} outside the emitted boxes"
        else:
            verdict = "all enclosed" if agreement else "DISAGREEMENT"
        lines.append(
            f"grid check: {grid_check['points']} candidate points, "
            f"{grid_check['enclosed']} enclosed ({verdict})"
        )
    return "\n".join(lines) + "\n"


def _render_fixpoint(outcome: PropagationOutcome, fmt: str, names) -> str:
    if fmt == "json":
        obj = {
            "status": outcome.status.value,
            "fixpoint": _bindings_obj(outcome.fixpoint, names),
            "stats": {
                "contractor_applications": outcome.steps,
                "effective_applications": outcome.effective_steps,
            },
        }
        if outcome.trace is not None:
            obj["trace"] = [rec.to_json_obj() for rec in outcome.trace]
        return json.dumps(obj, indent=2)
    lines = []
    if outcome.trace is not None:
        lines.extend(rec.to_text() for rec in outcome.trace)
    if outcome.status is Status.PROVED_EMPTY:
        lines.append("infeasible (proved empty)")
    elif outcome.status is Status.STALLED:
        lines.append(f"stalled after {outcome.steps} applications: {_bindings_text(outcome.fixpoint, names)}")
    else:
        lines.append(f"fixpoint: {_bindings_text(outcome.fixpoint, names)}")
    lines.append(f"contractor applications {outcome.steps}")
    return "\n".join(lines) + "\n"


def _run_grid_check(csp: Csp, report: SolveReport, n: int) -> dict:
    """Grid hits against the emitted boxes.  ``agreement`` is None when a
    hit lies outside them but the search stopped at a budget, since the
    hit may lie in the part of the box it never reached."""
    bounds = {}
    for name, iv in csp.declarations:
        bounds[name] = (iv.lo, iv.hi)
    points = grid_solutions(csp.source_equations, bounds, GridSpec(n=n))
    enclosed = 0
    for point in points:
        for box, _path in report.atomic_boxes:
            if all(box[v].lo <= point[v] <= box[v].hi for v in point):
                enclosed += 1
                break
    agreement: bool | None = enclosed == len(points)
    if not agreement and report.incomplete:
        agreement = None
    return {"points": len(points), "enclosed": enclosed, "agreement": agreement}


def run(args: argparse.Namespace) -> int:
    """Carry out one parsed command line; returns the exit code."""
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2

    try:
        csp = compile_problem(text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.echo:
        sys.stdout.write(render_problem(csp.declarations, csp.source_equations))
        return 0

    engine = get_engine(args.order)
    names = sorted(csp.variables if args.show_aux else csp.user_vars)

    if args.propagate_only:
        outcome = engine(csp, csp.initial_box, record_trace=args.trace)
        sys.stdout.write(_render_fixpoint(outcome, args.format, names))
        return {Status.PROVED_EMPTY: 1, Status.STALLED: 3}.get(outcome.status, 0)

    exit_code = 0
    try:
        report = solve(
            csp,
            eps=args.eps,
            max_boxes=args.max_boxes,
            engine=engine,
            record_trace=args.trace,
        )
    except BudgetExceeded as exc:
        report = exc.report
        exit_code = 3
    if exit_code == 0 and report.status is SolveStatus.INFEASIBLE:
        exit_code = 1

    grid_check = None
    if args.check_grid is not None:
        try:
            grid_check = _run_grid_check(csp, report, args.check_grid)
        except ValueError as exc:
            print(f"error: grid check failed: {exc}", file=sys.stderr)
            return 2

    sys.stdout.write(render_report(report, args.format, names, grid_check=grid_check))
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.eps > 0.0:
        parser.error(f"--eps must be positive, got {args.eps}")
    if args.max_boxes < 1:
        parser.error(f"--max-boxes must be at least 1, got {args.max_boxes}")
    if args.check_grid is not None and args.check_grid < 2:
        parser.error(f"--check-grid needs at least 2 samples per axis, got {args.check_grid}")
    if args.check_grid is not None and args.propagate_only:
        parser.error("--check-grid checks a search's boxes; --propagate-only runs no search")
    try:
        return run(args)
    except Exception as exc:
        # exit 1 would claim a proof of infeasibility, so a crash gets its own code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
