"""The traced run: per-layer numbers measured from outside the package.

For the length of one pass, wrappers replace public names in boxprune's
module namespaces and are restored afterwards; nothing under src/ changes.
Each wrapper records a span (problem id, layer, start, end, time covered by
child spans) in memory; a layer's self time is its span time minus its
children.  Contractor applications are the hot leaf, so they are counted
and timed per constraint kind instead of kept as spans.

A run has three parts:
  1. a counting pass that also wraps the interval operations called from
     boxprune.contractors, for exact call counts and operand pools;
  2. untraced and traced passes, alternated until --seconds of problems
     have run; the traced passes give the layer times and, against the
     untraced ones, the tracing overhead;
  3. a microbenchmark of the interval operations over the captured pools.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

from boxprune import cli, contractors, interval, propagation
from boxprune.interval import Interval

import checks
import workloads

# the package re-exports a function named decompose over its submodule
decompose = importlib.import_module("boxprune.decompose")

KINDS = ("sum", "mul", "sq", "const")
COUNTED_OPS = ("add", "sub", "mul", "square", "sqrt_outer", "div_down", "div_up", "extdiv")
POOL_SIZE = 1024


class Tracer:
    def __init__(self):
        self.problem = ""
        self.spans: list[tuple] = []
        self._child = 0.0
        self._solving = False
        self.kinds = {k: {"calls": 0, "seconds": 0.0, "changed": 0, "empty": 0} for k in KINDS}
        self.repeated_var_calls = 0
        self.entries_copied = 0
        self.engine = {"calls": 0, "nodes": 0, "applications": 0, "effective": 0, "trace_records": 0}
        self.search = {"max_depth": 0, "pruned": 0, "atomic": 0}
        self.decompose = {"constraints": 0, "aux_vars": 0}
        self.output_bytes = 0

    def span(self, layer: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            outer = self._child
            self._child = 0.0
            t0 = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                t1 = time.perf_counter()
                self.spans.append((self.problem, layer, t0, t1, self._child))
                self._child = outer + (t1 - t0)
                if on_result is not None:
                    on_result(result, exc)

        return wrapper

    def apply_lifted(self, fn):
        kinds = self.kinds

        def wrapper(con, box):
            t0 = time.perf_counter()
            after = fn(con, box)
            dt = time.perf_counter() - t0
            self._child += dt
            k = kinds[con.kind]
            k["calls"] += 1
            k["seconds"] += dt
            if after is not box:
                k["changed"] += 1
                self.entries_copied += len(box)
                if after.is_empty:
                    k["empty"] += 1
            if len(con.variables) != len(con.args):
                self.repeated_var_calls += 1
            return after

        return wrapper

    def _engine_done(self, outcome, exc) -> None:
        self.engine["calls"] += 1
        self.engine["nodes"] += self._solving
        if outcome is not None:
            self.engine["applications"] += outcome.steps
            self.engine["effective"] += outcome.effective_steps
            self.engine["trace_records"] += len(outcome.trace or ())

    def _solve_done(self, report, exc) -> None:
        self._solving = False
        if report is None:
            report = getattr(exc, "report", None)
        if report is not None:
            self.search["max_depth"] = max(self.search["max_depth"], report.stats.max_depth)
            self.search["pruned"] += report.pruned_count
            self.search["atomic"] += len(report.atomic_boxes)

    def _solve_span(self, fn):
        inner = self.span("search.solve", fn, self._solve_done)

        def wrapper(*args, **kwargs):
            self._solving = True
            return inner(*args, **kwargs)

        return wrapper

    def _decomposed(self, csp, exc) -> None:
        if csp is not None:
            self.decompose["constraints"] += len(csp.constraints)
            self.decompose["aux_vars"] += len(csp.variables) - len(csp.user_vars)

    def _rendered(self, text, exc) -> None:
        if text is not None:
            self.output_bytes += len(text.encode())

    def replacements(self) -> list[tuple[object, str, object]]:
        """(module, name, wrapper) for every layer boundary."""
        engine = self.span("propagation.engine", propagation.propagate_worklist, self._engine_done)
        grid = self.span("oracle.grid", checks.grid_solutions)
        return [
            (decompose, "parse_problem", self.span("decompose.parse", decompose.parse_problem)),
            (decompose, "decompose", self.span("decompose.decompose", decompose.decompose, self._decomposed)),
            (workloads, "solve", self._solve_span(workloads.solve)),
            (cli, "solve", self._solve_span(cli.solve)),
            (propagation, "propagate_worklist", engine),
            (propagation, "apply_lifted", self.apply_lifted(propagation.apply_lifted)),
            (cli, "grid_solutions", grid),
            (checks, "grid_solutions", grid),
            (cli, "render_report", self.span("cli.render", cli.render_report, self._rendered)),
            (cli, "_render_fixpoint", self.span("cli.render", cli._render_fixpoint, self._rendered)),
        ]

    def layer_seconds(self, layer: str) -> tuple[float, float]:
        """(total, self) seconds over this tracer's spans of one layer."""
        total = own = 0.0
        for _problem, name, t0, t1, child in self.spans:
            if name == layer:
                total += t1 - t0
                own += t1 - t0 - child
        return total, own


class OperandCounter:
    """Counts the interval operations boxprune.contractors calls, keeping a
    seeded reservoir sample of each one's operands."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.calls = {name: 0 for name in COUNTED_OPS}
        self.pools: dict[str, list[tuple]] = {name: [] for name in COUNTED_OPS}

    def wrap(self, name: str, fn):
        calls, pool, rng = self.calls, self.pools[name], self.rng

        def wrapper(*args):
            calls[name] += 1
            if len(pool) < POOL_SIZE:
                pool.append(args)
            else:
                j = rng.randrange(calls[name])
                if j < POOL_SIZE:
                    pool[j] = args
            return fn(*args)

        return wrapper

    def replacements(self) -> list[tuple[object, str, object]]:
        return [(contractors, name, self.wrap(name, getattr(contractors, name))) for name in COUNTED_OPS]


@contextlib.contextmanager
def patched(replacements):
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    for module, name, new in replacements:
        setattr(module, name, new)
    try:
        yield
    finally:
        for module, name, old in reversed(saved):
            setattr(module, name, old)


def _run_case(workload, case, checker, engine=None):
    """One problem; returns (seconds, failure or None).  Command-line cases
    run in this process through cli.main so the wrappers can see them."""
    if not workload.cli:
        kwargs = {} if engine is None else {"engine": engine}
        elapsed, csp, report = workloads.solve_case(case, **kwargs)
        return elapsed, checker.solved(case, csp, report)
    stdin, sys.stdin = sys.stdin, io.StringIO(case.text)
    out = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main([*case.argv, "-"])
        elapsed = time.perf_counter() - t0
    finally:
        sys.stdin = stdin
    return elapsed, checker.ran_cli(case, code, out.getvalue().encode())


def _order(workload, rng) -> list:
    """Each distinct case once, in seeded order."""
    cases = list(workload.cases)
    if workload.shuffle:
        rng.shuffle(cases)
    return cases


def _pass(workload, cases, checker, budget, pass_no, tracer=None, counter=None):
    """Run ``cases`` in order, stopping early once the pass has used
    ``budget`` seconds.  Returns {case id: seconds} and failures."""
    replacements = (tracer.replacements() if tracer else []) + (counter.replacements() if counter else [])
    times: dict[str, float] = {}
    failures = []
    with patched(replacements):
        engine = propagation.propagate_worklist if tracer else None
        for case in cases:
            if sum(times.values()) >= budget:
                break
            if tracer:
                tracer.problem = f"{case.id}#{pass_no}"
            elapsed, failure = _run_case(workload, case, checker, engine)
            times[case.id] = elapsed
            if failure:
                failures.append(failure)
    return times, failures


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    m: dict[str, float] = {}
    changed = 0
    for kind, k in tracer.kinds.items():
        m[f"contractors.{kind}.calls"] = k["calls"]
        m[f"contractors.{kind}.us_per_call"] = 1e6 * k["seconds"] / k["calls"] if k["calls"] else 0.0
        m[f"contractors.{kind}.changed_ratio"] = k["changed"] / k["calls"] if k["calls"] else 0.0
        m[f"contractors.{kind}.empty"] = k["empty"]
        changed += k["changed"]
    m["contractors.repeated_var_calls"] = tracer.repeated_var_calls
    m["boxes.width"] = tracer.entries_copied / changed if changed else 0.0
    m["boxes.entries_copied_computed"] = tracer.entries_copied
    e = tracer.engine
    engine_total, engine_self = tracer.layer_seconds("propagation.engine")
    m["propagation.calls"] = e["calls"]
    m["propagation.applications"] = e["applications"]
    m["propagation.apps_per_call"] = e["applications"] / e["calls"] if e["calls"] else 0.0
    m["propagation.effective_ratio"] = e["effective"] / e["applications"] if e["applications"] else 0.0
    m["propagation.trace_records"] = e["trace_records"]
    m["propagation.self_s"] = engine_self
    m["propagation.us_per_application"] = 1e6 * engine_total / e["applications"] if e["applications"] else 0.0
    solve_total, solve_self = tracer.layer_seconds("search.solve")
    m["search.nodes"] = e["nodes"]
    m["search.max_depth"] = tracer.search["max_depth"]
    m["search.pruned"] = tracer.search["pruned"]
    m["search.atomic"] = tracer.search["atomic"]
    m["search.nodes_per_s"] = e["nodes"] / solve_total if solve_total else 0.0
    m["search.self_s"] = solve_self
    m["decompose.parse_s"] = tracer.layer_seconds("decompose.parse")[0]
    m["decompose.decompose_s"] = tracer.layer_seconds("decompose.decompose")[0]
    m["decompose.constraints"] = tracer.decompose["constraints"]
    m["decompose.aux_vars"] = tracer.decompose["aux_vars"]
    m["oracle.grid_s"] = tracer.layer_seconds("oracle.grid")[0]
    m["cli.render_s"] = tracer.layer_seconds("cli.render")[0]
    m["cli.output_bytes"] = tracer.output_bytes
    return m


def _ns_per_op(fn, pool: list[tuple], reps: int = 31) -> float:
    per = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for args in pool:
            fn(*args)
        per.append((time.perf_counter_ns() - t0) / len(pool))
    return statistics.median(per)


def microbench(pools: dict[str, list[tuple]]) -> dict[str, float]:
    """ns per call of each interval operation over the operands captured in
    the counting pass; 0 for an operation the workload never called."""
    pairs = pools["add"] + pools["sub"] + pools["mul"]
    benches = {
        "add": (interval.add, pools["add"]),
        "sub": (interval.sub, pools["sub"]),
        "mul": (interval.mul, pools["mul"]),
        "square": (interval.square, pools["square"]),
        "sqrt_outer": (interval.sqrt_outer, pools["sqrt_outer"]),
        "extdiv": (contractors.extdiv, pools["extdiv"]),
        "intersect": (Interval.intersect, pairs[:POOL_SIZE]),
    }
    return {
        f"interval.ns_per_op.{name}": _ns_per_op(fn, pool) if pool else 0.0
        for name, (fn, pool) in benches.items()
    }


def traced_run(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    rng = random.Random(seed)
    checker = workloads.Checker()
    failures: list[dict] = []
    attempted = 0
    budget = seconds / 2

    counter = OperandCounter(seed)
    times, failed = _pass(workload, _order(workload, rng), checker, budget, 0, counter=counter)
    attempted += len(times)
    failures += failed

    untraced: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    per_pass: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    busy = 0.0
    pass_no = 1
    while busy < seconds or not per_pass:
        # the traced pass repeats the untraced pass's order, so the overhead
        # compares the same cases
        cases = _order(workload, rng)
        times, failed = _pass(workload, cases, checker, budget, pass_no)
        for cid, t in times.items():
            untraced.setdefault(cid, []).append(t)
        attempted += len(times)
        failures += failed
        busy += sum(times.values())

        tracer = Tracer()
        times, failed = _pass(workload, cases, checker, budget, pass_no, tracer=tracer)
        for cid, t in times.items():
            traced.setdefault(cid, []).append(t)
        attempted += len(times)
        failures += failed
        busy += sum(times.values())
        per_pass.append(_layer_metrics(tracer))
        tracers.append(tracer)
        pass_no += 1

    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    calls = counter.calls
    for name in ("add", "sub", "mul", "square", "sqrt_outer"):
        metrics[f"interval.calls.{name}"] = calls[name]
    metrics["interval.calls.div"] = calls["div_down"] + calls["div_up"]
    metrics.update(microbench(counter.pools))
    both = [cid for cid in traced if cid in untraced]
    metrics["tracing.overhead"] = (
        sum(statistics.median(traced[c]) for c in both) / sum(statistics.median(untraced[c]) for c in both) - 1.0
    )

    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")

    units = {
        "calls": "count", "us_per_call": "us", "changed_ratio": "ratio", "empty": "count",
        "repeated_var_calls": "count", "width": "count", "entries_copied_computed": "count",
        "applications": "count", "apps_per_call": "count", "effective_ratio": "ratio",
        "trace_records": "count", "self_s": "s", "us_per_application": "us", "nodes": "count",
        "max_depth": "count", "pruned": "count", "atomic": "count", "nodes_per_s": "1/s",
        "parse_s": "s", "decompose_s": "s", "constraints": "count", "aux_vars": "count",
        "grid_s": "s", "render_s": "s", "output_bytes": "bytes", "overhead": "ratio",
    }

    def unit(name: str) -> str:
        if name.startswith("interval.ns_per_op."):
            return "ns"
        if name.startswith("interval.calls."):
            return "count"
        return units[name.rsplit(".", 1)[1]]

    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: (value, unit(name)) for name, value in sorted(metrics.items())},
    }
