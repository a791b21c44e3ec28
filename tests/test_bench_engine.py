"""The benchmark's traced run (perfbench/tracing.py) counts contractor
applications through a wrapper around propagation.propagate_worklist.  A
solve given that engine must spend every application through it, or the
benchmark's per-layer counts fall short of the work done.  And the
benchmark's own checks (perfbench/checks.py) must accept the search's
answers."""

from pathlib import Path

import pytest

from boxprune import compile_problem, propagation, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name,eps,applications", [("circle", 1e-10, 57), ("broyden-4", 1e-8, 155)])
def test_the_wrapped_engine_sees_every_application(monkeypatch, name, eps, applications):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import problems
    import tracing

    csp = compile_problem(problems.CIRCLE if name == "circle" else problems.broyden(4))
    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements()):
        report = solve(csp, eps=eps, engine=propagation.propagate_worklist)
    assert report.stats.contractor_applications == applications
    assert tracer.engine["calls"] >= 1
    assert tracer.engine["applications"] == applications


@pytest.mark.parametrize("bounds,boxes", [("[-inf, inf]", 2), ("[-1e300, 1e300]", 4)], ids=["hyperbola", "hyperbola-1e300"])
def test_the_benchmark_accepts_the_hyperbola_answers(monkeypatch, bounds, boxes):
    # over [-1e300, 1e300] each root lies on a cut, so it shows in two
    # adjacent boxes, which the benchmark's root check must accept
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import problems

    report = solve(compile_problem(problems.HYPERBOLA.replace("[-inf, inf]", bounds)))
    assert len(report.atomic_boxes) == boxes
    assert checks.check_roots(checks.hyperbola_roots(), checks.report_boxes(report), report.incomplete, 1e-10) is None
