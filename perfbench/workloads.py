"""The four workloads: their cases, how one case is run, and how it is checked.

A case is one problem text.  In-process cases go through
``compile_problem`` + ``solve``; command-line cases run
``python -m boxprune.cli`` as a subprocess with the text on stdin, so they
pay interpreter start, imports and rendering like a user does.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from boxprune import BudgetExceeded, compile_problem, solve

import checks
import problems

ROOT = Path(__file__).resolve().parent.parent
RANDOM_MIX_SIZE = 150
# short enough that a run with one hung process still ends within 180 s
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Case:
    """One problem.  ``check`` takes (csp, report) in process and the
    captured stdout on the command line, and returns a reason or None."""

    id: str
    text: str
    check: Callable
    eps: float = 1e-10
    max_boxes: int = 4096
    argv: tuple[str, ...] = ()
    exit_code: int = 0
    # samples per pass; see _propagate_deep
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]
    cli: bool = False
    # random_mix keeps its drawn order so the pinned case always runs first
    shuffle: bool = True

    def pass_order(self, rng: random.Random) -> list[Case]:
        order = [case for case in self.cases for _ in range(case.repeat)]
        if self.shuffle:
            rng.shuffle(order)
        return order


def _broyden_case(n: int, repeat: int, repeated: bool = False) -> Case:
    eps = 1e-8
    return Case(
        id=f"broyden-{n}" + ("-repeated" if repeated else ""),
        text=problems.broyden(n, repeated),
        eps=eps,
        repeat=repeat,
        check=lambda csp, report: checks.check_broyden(
            n, checks.report_boxes(report), report.incomplete, eps
        ),
    )


def _propagate_deep(seed: int) -> Workload:
    # Samples per pass are weighted so that the median falls high inside one
    # case's samples (n = 4) and the tail, ten samples from the top, inside
    # the slowest case's (n = 8), never between two cases.  On a host whose
    # speed switches between two states, a high quantile of one case varies
    # least from run to run, and a boundary between cases varies most.
    # broyden-2-repeated (about 21k applications, twice the time of n = 4)
    # is the case that exercises constraints with a repeated variable.
    weights = ((2, 1), (4, 5), (6, 1), (8, 3))
    return Workload(
        "propagate_deep",
        "Broyden systems, 1.5k-44k contractor applications each: "
        "propagation, contractors and interval do the work",
        tuple(_broyden_case(n, repeat=repeat) for n, repeat in weights)
        + (_broyden_case(2, repeat=1, repeated=True),),
    )


def _roots_check(roots: list[dict], eps: float = 1e-10) -> Callable:
    return lambda csp, report: checks.check_roots(
        roots, checks.report_boxes(report), report.incomplete, eps
    )


def _search_wide(seed: int) -> Workload:
    return Workload(
        "search_wide",
        "thousands of nodes at 3-5 applications each: split, box copies and per-node engine setup dominate",
        (
            # three circles per pass: the median then falls high inside the
            # circle's samples and the tail inside the two wide searches
            Case("circle", problems.CIRCLE, _roots_check(checks.circle_roots()), repeat=3),
            Case("hyperbola", problems.HYPERBOLA, _roots_check(checks.hyperbola_roots())),
            Case(
                "diagonal",
                problems.DIAGONAL,
                lambda csp, report: checks.check_diagonal(checks.report_boxes(report), report.incomplete),
            ),
        ),
    )


def _random_check(csp, report) -> str | None:
    return checks.narrower_than(checks.report_boxes(report), csp.user_vars, 1e-6) or checks.check_grid_hits(
        csp, report
    )


def _random_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    draws = [problems.random_system(rng) for _ in range(RANDOM_MIX_SIZE)]
    cases = [Case("pinned-overrun", problems.PINNED_OVERRUN, _random_check, eps=1e-6, max_boxes=256)]
    cases += [
        Case(f"draw-{i:03d}", text, _random_check, eps=1e-6, max_boxes=256) for i, text in enumerate(draws)
    ]
    return Workload(
        "random_mix",
        "many short solves from the criterion-9 grammar: all four kinds, repeated variables, box budgets",
        tuple(cases),
        shuffle=False,
    )


def _cli_text_roots(roots: list[dict]) -> Callable:
    return lambda out: checks.check_roots(roots, checks.text_boxes(out), "incomplete:" in out, 1e-10)


def _cli_broyden(out: str) -> str | None:
    return checks.check_broyden(4, checks.text_boxes(out), "incomplete:" in out, 1e-8)


def _cli_chain(out: str) -> str | None:
    lines = [line for line in out.splitlines() if line.startswith("fixpoint: ")]
    if len(lines) != 1 or lines[0].count("=[") != 401:
        return "no fixpoint over all 401 chain variables"
    return None


def _cli(seed: int) -> Workload:
    circle_roots = checks.circle_roots()
    return Workload(
        "cli",
        "boxprune subprocesses: interpreter start and imports, parse/decompose at scale, render, trace, oracle",
        (
            # twice per pass, for an odd count of samples per pass (as in
            # propagate_deep); this is also the case set-up time dominates
            Case("circle-text", problems.CIRCLE, _cli_text_roots(circle_roots), repeat=2),
            Case(
                "circle-grid",
                problems.CIRCLE,
                lambda out: checks.check_cli_json_grid(out, circle_roots),
                argv=("--format", "json", "--check-grid", "513"),
            ),
            Case("circle-trace", problems.CIRCLE, _cli_text_roots(circle_roots), argv=("--trace",)),
            Case(
                "diagonal",
                problems.DIAGONAL,
                lambda out: checks.check_diagonal(checks.text_boxes(out), "incomplete:" in out),
                exit_code=3,
            ),
            Case("chain-400", problems.chain(400), _cli_chain, argv=("--propagate-only",)),
            Case("broyden-4-trace", problems.broyden(4), _cli_broyden, argv=("--eps", "1e-8", "--trace")),
        ),
        cli=True,
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "propagate_deep": _propagate_deep,
    "search_wide": _search_wide,
    "random_mix": _random_mix,
    "cli": _cli,
}


def solve_case(case: Case, **solve_kwargs):
    """Time problem text to finished report.  Returns (seconds, csp, report),
    or (seconds, exception, None) when anything but BudgetExceeded is raised."""
    t0 = time.perf_counter()
    try:
        csp = compile_problem(case.text)
        try:
            report = solve(csp, eps=case.eps, max_boxes=case.max_boxes, **solve_kwargs)
        except BudgetExceeded as exc:
            report = exc.report
    except Exception as exc:  # every other exception is a failed problem
        return time.perf_counter() - t0, exc, None
    return time.perf_counter() - t0, csp, report


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_case(case: Case, env: dict[str, str]):
    """Time one ``python -m boxprune.cli`` process.  Returns (seconds, exit
    code, stdout); the exit code is None if the process timed out."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "boxprune.cli", *case.argv, "-"],
            input=case.text.encode(),
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # the process is killed and reaped
        return time.perf_counter() - t0, None, b""
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def _failure(case: Case, error: str, exit_code: int | None, detail: str) -> dict:
    return {"problem": case.id, "error": error, "exit_code": exit_code, "detail": detail}


def _run_check(check: Callable, *args) -> str | None:
    try:
        return check(*args)
    except Exception as exc:  # an answer that cannot be verified is not correct
        return f"check raised {exc!r}"


class Checker:
    """Checks each answer in full the first time a case is seen, then
    requires every later answer to the same case to be identical."""

    def __init__(self):
        self._ref: dict[str, tuple[object, str | None]] = {}

    def solved(self, case: Case, csp, report) -> dict | None:
        if report is None:
            return _failure(case, type(csp).__name__, None, str(csp))
        if case.id not in self._ref:
            self._ref[case.id] = (report, _run_check(case.check, csp, report))
        ref, reason = self._ref[case.id]
        if report != ref:
            return _failure(case, "NonDeterministic", None, "report differs from an earlier run")
        return _failure(case, "WrongAnswer", None, reason) if reason else None

    def ran_cli(self, case: Case, code: int | None, stdout: bytes) -> dict | None:
        if code is None:
            return _failure(case, "TimeoutExpired", None, f"no exit within {CLI_TIMEOUT_S} s")
        if code != case.exit_code:
            return _failure(case, "WrongExitCode", code, f"expected exit code {case.exit_code}")
        if case.id not in self._ref:
            self._ref[case.id] = (stdout, _run_check(case.check, stdout.decode()))
        ref, reason = self._ref[case.id]
        if stdout != ref:
            return _failure(case, "NonDeterministic", code, "stdout differs from an earlier run")
        return _failure(case, "WrongAnswer", code, reason) if reason else None
