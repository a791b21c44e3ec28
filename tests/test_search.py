"""Branch-and-prune: splitting, atomic enclosures, pruning, budgets."""

import math
import sys
import time
from decimal import Decimal
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxprune import (
    Box,
    BudgetExceeded,
    Constraint,
    FULL,
    GridSpec,
    Interval,
    SolveStatus,
    Status,
    apply_lifted,
    compile_problem,
    get_engine,
    grid_solutions,
    krawczyk,
    pick_split_var,
    propagate_random,
    propagate_roundrobin,
    propagate_worklist,
    solve,
    split,
)
from boxprune import contractors, propagation, search
from boxprune.decompose import Add, ExprAst, Neg, Num, Pow, Sub, Var
from boxprune.interval import _midpoint
from boxprune.search import is_splittable

from helpers import (
    QUARTIC_UNIT,
    QUARTIC_WIDE,
    X_STAR,
    Y_STAR,
    box_bits,
    broyden,
    broyden_root,
    check_nodes_against_plain_fixpoints,
    holds_point,
    make_csp,
    solve_by_node,
)


# Splitting.


def test_split_standard_examples():
    box = Box({"x": Interval(0.0, 1.0), "y": Interval(-2.0, 3.0)})
    left, right = split(box, "x")
    assert left["x"] == Interval(0.0, 0.5)
    assert right["x"] == Interval(0.5, 1.0)
    # the other variable rides along unchanged
    assert left["y"] == right["y"] == Interval(-2.0, 3.0)

    left, right = split(box, "y")
    assert left["y"] == Interval(-2.0, 0.5)
    assert right["y"] == Interval(0.5, 3.0)


def test_split_symmetric_interval_cuts_at_zero():
    box = Box({"x": Interval(-1.0, 1.0)})
    left, right = split(box, "x")
    assert left["x"] == Interval(-1.0, 0.0)
    assert right["x"] == Interval(0.0, 1.0)


def test_split_at_a_negative_zero_midpoint_gives_canonical_halves():
    # -2 ulp + 1 ulp halves to -0.0 under round-to-nearest-even
    box = Box({"x": Interval(-1e-323, 5e-324)})
    left, right = split(box, "x")
    assert left["x"].hi.hex() == right["x"].lo.hex() == (0.0).hex()


# Where a split cuts: a range wider than 2^64 at 0 when it holds both
# signs, and otherwise at the power of two halfway between its bounds'
# exponents if that lies strictly inside; any other range at its midpoint.

INF = math.inf
MAX = sys.float_info.max
WIDE_CUTS = [
    ((-INF, INF), 0.0),
    ((-1e300, 1e300), 0.0),
    # exponents -1074 (for 0) and 1025 (for inf)
    ((0.0, INF), 2.0**-25),
    # exponents -9 and 1025
    ((-INF, -1e-3), -(2.0**508)),
    # exponents 1024 and 1025: 2^1024 overflows, and 2^1023 < 1e308
    ((1e308, INF), MAX),
    # one exponent, 101, whose power of two 2^101 lies above the range
    ((2.0**100, 2.0**100 + 2.0**66), 2.0**100 + 2.0**65),
]


@pytest.mark.parametrize("bounds,cut", WIDE_CUTS, ids=[str(bounds) for bounds, _ in WIDE_CUTS])
def test_a_range_wider_than_2_to_the_64_is_cut_between_its_exponents(bounds, cut):
    lo, hi = bounds
    left, right = split(Box({"x": Interval(lo, hi), "y": Interval(0.0, 1.0)}), "x")
    assert math.isfinite(cut) and lo < cut < hi
    assert left["x"] == Interval(lo, cut)
    assert right["x"] == Interval(cut, hi)
    assert left["y"] == right["y"] == Interval(0.0, 1.0)


@pytest.mark.parametrize(
    "lo,hi",
    [(0.0, 2.0**64), (-(2.0**63), 2.0**63), (2.0**100, 2.0**100 + 2.0**64), (-(2.0**70), -(2.0**70) + 2.0**64), (0.0, 2.0)],
)
def test_a_range_no_wider_than_2_to_the_64_is_cut_at_its_midpoint(lo, hi):
    left, right = split(Box({"x": Interval(lo, hi)}), "x")
    assert left["x"] == Interval(lo, _midpoint(lo, hi))
    assert right["x"] == Interval(_midpoint(lo, hi), hi)


_BOUNDS = st.floats(allow_nan=False) | st.sampled_from([0.0, 2.0**64, -(2.0**64), 2.0**63, 1e308, -1e308])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_BOUNDS, _BOUNDS)
def test_every_cut_is_finite_strictly_inside_and_shared_by_both_halves(a, b):
    lo, hi = sorted((a + 0.0, b + 0.0))
    assume(lo < _midpoint(lo, hi) < hi)
    left, right = split(Box({"x": Interval(lo, hi)}), "x")
    cut = left["x"].hi
    assert right["x"].lo == cut and left["x"].lo == lo and right["x"].hi == hi
    assert math.isfinite(cut) and lo < cut < hi
    if not hi - lo > 2.0**64:
        assert cut == _midpoint(lo, hi) + 0.0


_EDGE_BOUNDS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, 5e-324, -5e-324, 1.0, 2.0**64, -(2.0**64), 2.0**65, 2.0**100, -1e300, 1e300, MAX, -MAX, INF, -INF]
)


@st.composite
def _split_boxes(draw):
    """A box over a, b, c, d: ranges wider than 2^64, infinite bounds,
    ranges with no float strictly inside, and ranges tied in width."""
    names = draw(st.permutations("abcd"))
    ranges = []
    for _ in names:
        shape = draw(st.sampled_from(["any", "adjacent", "point", "tie"]))
        if shape == "tie" and ranges:
            lo, hi = ranges[-1]
        else:
            a, b = draw(_EDGE_BOUNDS) + 0.0, draw(_EDGE_BOUNDS) + 0.0
            if shape == "adjacent":
                # two bound floats and none between
                a = min(a, MAX)
                b = math.nextafter(a, INF)
            elif shape == "point":
                a = b = min(max(a, -MAX), MAX)
            lo, hi = min(a, b), max(a, b)
            lo, hi = (MAX if lo == INF else lo), (-MAX if hi == -INF else hi)
        ranges.append((lo, hi))
    return Box({name: Interval(lo, hi) for name, (lo, hi) in zip(names, ranges)}), names


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_split_boxes(), st.sampled_from([1e-300, 1.0, 2.0**64, INF]))
@example((Box({"a": Interval(MAX, INF), "b": Interval(-INF, -MAX)}), "ab"), 1.0)
@example((Box({"a": Interval(2.0**100, math.nextafter(2.0**100, INF)), "b": Interval(0.0, 1.0)}), "ba"), 1e-300)
@example((Box({"b": Interval(-INF, INF), "a": Interval(0.0, INF)}), "ba"), 1e-300)
def test_the_search_cuts_where_split_cuts_the_picked_variable(drawn, eps):
    box, order = drawn
    names = tuple(order)
    picked = search._pick(box._slot, box._lo, box._hi, tuple(sorted(names)), eps)
    var = pick_split_var(box, names, eps)
    assert (picked is None) == (var is None)
    for name in names:
        # a cut lies strictly inside exactly when the midpoint does
        lo, hi = box[name].lo, box[name].hi
        assert is_splittable(box[name]) == (lo < _midpoint(lo, hi) < hi)
    if var is None:
        return
    name, slot, cut = picked
    assert name == var and slot == box._slot[var] and is_splittable(box[var])
    # the search builds its halves from this cut as split does
    left, right = split(box, var)
    assert left._hi[slot] == cut == right._lo[slot]


def test_a_range_beside_the_largest_float_is_cut_without_overflow():
    # a fuzz draw: its search reaches a in [-inf, -2^1022], whose exponents
    # 1025 and 1023 would put the cut at -2^1024, which overflows
    csp = compile_problem("var a in [-inf, inf]; constraint -3 + a - 1e-300 = a;")
    with pytest.raises(BudgetExceeded) as exc:
        solve(csp, eps=1e-6, max_boxes=8)
    boxes = [box["a"] for box, _ in exc.value.report.atomic_boxes]
    assert boxes[0] == Interval(-INF, -MAX)
    assert len(boxes) == 8


def test_split_point_interval_raises():
    box = Box({"x": Interval(2.0, 2.0)})
    with pytest.raises(ValueError, match="cannot be split"):
        split(box, "x")


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:7"])
def test_split_halves_share_bounds_but_never_change_them(order):
    # a half shares one bound list with its parent, so every operation on
    # a half must leave the parent's and the other half's bounds alone
    csp = compile_problem("var x in [-2, 2]; var y in [-2, 2]; constraint y = x^2; constraint x^2 + y^2 = 1;")
    engine = get_engine(order)
    # a stalled iterate, which neither propagation nor Krawczyk leaves alone
    parent = engine(csp, csp.initial_box, max_steps=8).fixpoint
    left, right = split(parent, "x")
    assert left._lo is parent._lo and right._hi is parent._hi
    before = [box_bits(b) for b in (parent, left, right)]
    moved = 0
    for half in (left, right):
        fixpoint = engine(csp, half).fixpoint
        results = [fixpoint, krawczyk(csp, half), krawczyk(csp, fixpoint)]
        results += [apply_lifted(con, half) for con in csp.constraints]
        moved += sum(result is not half and result is not fixpoint for result in results[1:]) + (fixpoint != half)
        for result in results:
            # a box built from intervals equals an engine-built one
            rebuilt = Box(dict(result.items()))
            assert rebuilt == result and hash(rebuilt) == hash(result)
    assert moved
    assert [box_bits(b) for b in (parent, left, right)] == before


def test_is_splittable_edge_cases():
    assert not is_splittable(Interval(3.0, 3.0))
    assert not is_splittable(Interval(1.0, math.nextafter(1.0, 2.0)))
    assert is_splittable(Interval(0.0, 1.0))
    assert is_splittable(FULL)
    assert is_splittable(Interval(0.0, math.inf))
    from boxprune import EMPTY

    assert not is_splittable(EMPTY)


def test_pick_split_var_prefers_widest_user_variable():
    box = Box({"x": Interval(0, 1), "y": Interval(0, 2), "z": Interval(0, 9)})
    assert pick_split_var(box, ("x", "y"), 1e-10) == "y"
    assert pick_split_var(box, ("x", "y", "z"), 1e-10) == "z"


def test_pick_split_var_breaks_ties_lexicographically():
    box = Box({"b": Interval(0, 1), "a": Interval(0, 1)})
    assert pick_split_var(box, ("b", "a"), 1e-10) == "a"
    box = Box({"c": FULL, "a": Interval(0, math.inf), "b": Interval(0, 1), "d": FULL})
    assert pick_split_var(box, ("d", "b", "c", "a"), 1e-10) == "a"


def test_pick_split_var_none_when_atomic():
    box = Box({"x": Interval(0, 1), "y": Interval(0, 1)})
    assert pick_split_var(box, ("x", "y"), 1.0) is None  # width == eps is narrow enough
    assert pick_split_var(box, ("x", "y"), 2.0) is None


# Whole solves.


def test_unit_quartic_yields_one_enclosure():
    report = solve(compile_problem(QUARTIC_UNIT), eps=1e-10)
    assert report.status is SolveStatus.ENCLOSURES
    assert not report.incomplete
    assert len(report.atomic_boxes) == 1
    box, path = report.atomic_boxes[0]
    assert box["x"].contains(X_STAR)
    assert box["y"].contains(Y_STAR)
    assert box["x"].width <= 1e-10 and box["y"].width <= 1e-10
    assert set(path) <= {"0", "1"}


def test_wide_quartic_yields_mirror_pair():
    report = solve(compile_problem(QUARTIC_WIDE), eps=1e-10)
    assert report.status is SolveStatus.ENCLOSURES
    assert len(report.atomic_boxes) == 2
    neg, pos = report.atomic_boxes[0][0], report.atomic_boxes[1][0]
    assert neg["x"].hi <= 0.0 <= pos["x"].lo
    assert pos["x"].contains(X_STAR)
    assert neg["x"].contains(-X_STAR)
    # the system is even in x, and the arithmetic is sign-symmetric
    assert neg["x"].lo == -pos["x"].hi
    assert neg["x"].hi == -pos["x"].lo
    assert neg["y"] == pos["y"]
    assert pos["y"].contains(Y_STAR)
    assert report.pruned_count >= 1


def test_atomic_boxes_are_engine_fixpoints():
    csp = compile_problem(QUARTIC_WIDE)
    report = solve(csp, eps=1e-10)
    for box, _ in report.atomic_boxes:
        out = propagate_worklist(csp, box)
        assert out.fixpoint == box


def test_infeasible_problem_prunes_everything():
    csp = make_csp(
        [Constraint("sq", ("x", "y"), cid=0)],
        {"x": Interval(-2, 2), "y": Interval(-3, -1)},
    )
    report = solve(csp)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.atomic_boxes == ()
    assert report.pruned_count == 1


def test_already_atomic_root_is_emitted_at_the_root_path():
    csp = compile_problem("var x in [0.25, 0.25]; var y in [0, 1]; constraint y = x^2;")
    report = solve(csp)
    assert len(report.atomic_boxes) == 1
    box, path = report.atomic_boxes[0]
    assert path == ""
    assert box["y"] == Interval(0.0625, 0.0625)
    assert report.stats.max_depth == 0


def test_exact_dyadic_point_solution():
    report = solve(compile_problem("var x in [0, 1]; constraint x^2 = 0.25;"))
    (box, _), = report.atomic_boxes
    assert box["x"] == Interval(0.5, 0.5)


def test_curve_cover_is_complete():
    csp = compile_problem("var x in [0, 1]; var y in [0, 1]; constraint y = x^2;")
    report = solve(csp, eps=0.25, max_boxes=256, keep_pruned=True)
    assert report.status is SolveStatus.ENCLOSURES
    for k in range(17):
        t = k / 16.0  # dyadic, so t*t is the exact square
        hits = [
            box
            for box, _ in report.atomic_boxes
            if box["x"].contains(t) and box["y"].contains(t * t)
        ]
        assert hits, t
        for box, _ in report.pruned_boxes:
            assert not (box["x"].contains(t) and box["y"].contains(t * t))


def test_emission_order_is_depth_first_left_first():
    report = solve(compile_problem(QUARTIC_WIDE), eps=1e-10)
    paths = [path for _, path in report.atomic_boxes]
    assert paths == sorted(paths)
    for i, p in enumerate(paths):
        for q in paths[i + 1 :]:
            assert not q.startswith(p)


def test_unbounded_hyperbola_search_is_pinned():
    # each split of an unbounded or huge range halves its exponents, so
    # each root, x = y = -1 and x = y = 1, lies 31 splits below the root box
    report = solve(compile_problem("var x; var y; constraint x*y = 1; constraint x = y;"))
    assert report.stats.contractor_applications == 309
    assert report.stats.max_depth == 31
    assert report.pruned_count == 60
    assert [path for _, path in report.atomic_boxes] == ["00" + "1" * 29, "11" + "0" * 29]
    assert report.atomic_boxes[0][0]["x"].contains(-1.0)
    assert report.atomic_boxes[1][0]["x"].contains(1.0)


def test_a_root_on_a_cut_shows_in_both_adjacent_boxes():
    # x = 0 is cut first; each half propagates to +-[1e-300, 1e300], whose
    # exponents -996 and 997 put the next cut at +-1, on the roots
    report = solve(
        compile_problem("var x in [-1e300, 1e300]; var y in [-1e300, 1e300]; constraint x*y = 1; constraint x = y;")
    )
    assert report.stats.contractor_applications == 21
    assert report.stats.max_depth == 2
    assert report.pruned_count == 0
    minus, plus = Interval(-1.0, -1.0), Interval(1.0, 1.0)
    assert [(box["x"], box["y"], path) for box, path in report.atomic_boxes] == [
        (minus, minus, "00"),
        (minus, minus, "01"),
        (plus, plus, "10"),
        (plus, plus, "11"),
    ]


def test_repeated_variable_system_solves_in_a_few_applications():
    # a + a*a = a holds only at a = 0; the repeated-variable kernels prove it
    # in seven applications, with no split
    csp = compile_problem("var a in [-1.0, 4.0]; constraint a + a * a = a; constraint -a = -a;")
    report = solve(csp, eps=1e-6, max_boxes=256)
    assert [(box["a"], path) for box, path in report.atomic_boxes] == [(Interval(0.0, 0.0), "")]
    assert report.stats.contractor_applications == 7


# Re-propagating only what a split disturbed.


def test_every_child_of_the_diagonal_search_costs_one_application():
    # x = y is _t0 = 0 and x + _t0 = y.  A child re-applies only the sum,
    # whose shrink of the other variable re-queues no other constraint, and
    # the sum itself is at its fixpoint once applied
    csp = compile_problem("var x in [-2, 2]; var y in [-2, 2]; constraint x = y;")
    report, nodes = solve_by_node(csp, propagate_worklist)
    assert report.exhausted == "atomic box"
    assert [o.steps for o in nodes[0][1]] == [2]
    assert {tuple(o.steps for o in outcomes) for _, outcomes in nodes[1:]} == {(1,)}
    assert report.stats.contractor_applications == 8229 == len(nodes) + 1


def test_every_child_of_the_diagonal_search_makes_no_bound_call(monkeypatch):
    # x = y is _t0 = 0 and x + _t0 = y, and the sum kernel meets x with y
    # once _t0 is [0, 0], where a full pass makes two differences and a sum
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(contractors, "add_bounds", counted(contractors.add_bounds))
    monkeypatch.setattr(contractors, "sub_bounds", counted(contractors.sub_bounds))
    per_run = []

    def engine(csp_, box, **kwargs):
        before = calls[0]
        outcome = propagate_worklist(csp_, box, **kwargs)
        per_run.append(calls[0] - before)
        return outcome

    csp = compile_problem("var x in [-2, 2]; var y in [-2, 2]; constraint x = y;")
    with pytest.raises(BudgetExceeded) as info:
        solve(csp, engine=engine)
    report = info.value.report
    assert len(per_run) == 8228
    # the root's const run leaves _t0 at [0, 0] for its sum run
    assert set(per_run) == {0}
    assert report.stats.contractor_applications == 8229
    assert len(report.atomic_boxes) == 4096


def reference_solve(csp, eps, max_boxes, engine):
    """Branch-and-prune that propagates every node from all constraints.

    Returns the atomic boxes with their paths, the pruned count, the
    maximum depth, whether the box budget ran out, and the variable split
    to make each non-root node."""
    atomic, pruned, max_depth, split_var = [], 0, 0, {}
    stack = [("", csp.initial_box)]
    while stack:
        path, box = stack.pop()
        max_depth = max(max_depth, len(path))
        fixpoint = engine(csp, box).fixpoint
        if fixpoint.is_empty:
            pruned += 1
            continue
        var = pick_split_var(fixpoint, csp.user_vars, eps)
        if var is None:
            if len(atomic) >= max_boxes:
                return atomic, pruned, max_depth, True, split_var
            atomic.append((box_bits(fixpoint), path))
            continue
        left, right = split(fixpoint, var)
        split_var[path + "0"] = split_var[path + "1"] = var
        stack.append((path + "1", right))
        stack.append((path + "0", left))
    return atomic, pruned, max_depth, False, split_var


def _quartic_roots(signs):
    with mpmath.workdps(40):
        y = (mpmath.sqrt(5) - 1) / 2
        return [{"x": sign * mpmath.sqrt(y), "y": y} for sign in signs]


def _separable_roots():
    with mpmath.workdps(40):
        return [
            {"x": sx * mpmath.sqrt(2), "y": (sy * mpmath.sqrt(5) - 1) / 2} for sx in (-1, 1) for sy in (-1, 1)
        ]


# name, text, eps, max_boxes, and for a search with nodes that stall, the
# roots it must enclose
SEARCHES = [
    ("quartic-unit", QUARTIC_UNIT, 1e-10, 4096, lambda report: _quartic_roots([1])),
    ("circle", QUARTIC_WIDE, 1e-10, 4096, lambda report: _quartic_roots([-1, 1])),
    ("unit-circle-and-line", "var x in [-2, 2]; var y in [-2, 2]; constraint x^2 + y^2 = 1; constraint x = y;", 1e-10, 4096, None),
    ("hyperbola", "var x; var y; constraint x*y = 1; constraint x = y;", 1e-10, 4096, None),
    (
        "broyden-2-repeated",
        broyden(2, repeated=True),
        1e-8,
        4096,
        lambda report: [broyden_root(2, box) for box, _ in report.atomic_boxes],
    ),
    (
        "separable",
        "var x in [-2, 2]; var y in [-2, 2]; constraint x^2 = 2; constraint y^2 + y = 1;",
        1e-10,
        4096,
        lambda report: _separable_roots(),
    ),
    ("diagonal", "var x in [-2, 2]; var y in [-2, 2]; constraint x = y;", 1e-10, 64, None),
]
# Krawczyk finishes this root without the splits that propagation alone
# needs; roundrobin stalls once at a box Krawczyk cannot narrow and splits it
KRAWCZYK_PATHS = {"broyden-2-repeated": {"worklist": [""], "roundrobin": ["0"], "random:7": [""]}}


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:7"])
@pytest.mark.parametrize("name,text,eps,max_boxes,roots", SEARCHES, ids=[s[0] for s in SEARCHES])
def test_solve_matches_a_search_that_propagates_every_node_from_all_constraints(name, text, eps, max_boxes, roots, order):
    csp = compile_problem(text)
    engine = get_engine(order)
    report, nodes = solve_by_node(csp, engine, eps=eps, max_boxes=max_boxes, record_trace=True)
    atomic, pruned, max_depth, incomplete, split_var = reference_solve(csp, eps, max_boxes, engine)
    if roots is None:
        # no node stalls, so every node reaches the reference's very bits
        assert [(box_bits(box), path) for box, path in report.atomic_boxes] == atomic
        assert report.pruned_count == pruned
        assert report.stats.max_depth == max_depth
        assert report.stats.krawczyk_steps == 0
    else:
        # a node that stalls ends in a subset of the reference's fixpoint
        # for its box, or is split where it stalled, which may change a
        # path below it
        assert check_nodes_against_plain_fixpoints(csp, engine, nodes) >= 1
        paths = [path for _, path in report.atomic_boxes]
        if name in KRAWCZYK_PATHS:
            assert paths == KRAWCZYK_PATHS[name][order]
        else:
            assert paths == [path for _, path in atomic]
            assert report.pruned_count == pruned
            assert report.stats.max_depth == max_depth
        for root in roots(report):
            assert any(holds_point(box, root) for box, _ in report.atomic_boxes), root
    assert report.incomplete == incomplete
    # one trace entry per node, holding the records of all its runs.  A
    # child of a node that reached its fixpoint starts its schedule from
    # the constraints watching the variable its parent split, and leaves
    # them only once one of them has changed the box; a child of a node
    # that stalled starts from all constraints
    assert len(report.traces) == len(nodes)
    for (_, trace), (_, outcomes) in zip(report.traces, nodes):
        assert len(trace) == sum(out.steps for out in outcomes)
    stalled = {path for (path, _), (_, outcomes) in zip(report.traces, nodes) if outcomes[-1].status is Status.STALLED}
    slot = {v: i for i, v in enumerate(csp.names)}
    for path, trace in report.traces[1:]:
        assert trace, path
        if path[:-1] in stalled:
            continue
        watchers = csp.watchers[slot[split_var[path]]]
        for record in trace:
            assert record.cid in watchers, path
            if record.changed:
                break


def test_budget_exceeded_carries_partial_report():
    csp = compile_problem(QUARTIC_WIDE)
    full = solve(csp, eps=1e-10)
    with pytest.raises(BudgetExceeded) as exc:
        solve(csp, eps=1e-10, max_boxes=1)
    err = exc.value
    assert str(err).startswith("atomic box budget of 1 exceeded")
    assert err.report.incomplete and err.report.exhausted == "atomic box"
    assert len(err.report.atomic_boxes) == 1
    # the partial run is a prefix of the full run
    assert err.report.atomic_boxes == full.atomic_boxes[:1]


def test_solve_is_deterministic():
    csp = compile_problem(QUARTIC_WIDE)
    a = solve(csp, eps=1e-10, keep_pruned=True)
    b = solve(csp, eps=1e-10, keep_pruned=True)
    assert a == b  # wall clock time is excluded from equality


def test_engine_choice_does_not_change_the_enclosures():
    # the orders stall at different iterates, so Krawczyk steps may leave
    # their enclosures an ulp apart, but the search tree is the same, each
    # box holds its root, and each node ends inside its plain fixpoint
    csp = compile_problem(QUARTIC_WIDE)
    reports = []
    for engine in (propagate_worklist, propagate_roundrobin):
        report, nodes = solve_by_node(csp, engine, eps=1e-10)
        check_nodes_against_plain_fixpoints(csp, engine, nodes)
        assert len(report.atomic_boxes) == 2
        for (box, _), root in zip(report.atomic_boxes, _quartic_roots([-1, 1])):
            assert holds_point(box, root)
        reports.append(report)
    with_worklist, with_roundrobin = reports
    assert [p for _, p in with_worklist.atomic_boxes] == [p for _, p in with_roundrobin.atomic_boxes]
    assert with_worklist.pruned_count == with_roundrobin.pruned_count


# random_mix (perfbench) seed-1 draws 46, 51, 90, 108 and 136.  Each
# prunes nodes and has nodes that stall; on 136 Krawczyk steps narrow a
# stalled node, which then runs again
PRUNING_STALLING_DRAWS = [
    "var a in [-2.0, 1.0]; var b in [-2.0, 2.0]; var c in [-1.0, 2.0]; constraint a + a + b = a; "
    "constraint a - a * 2 - 0.25 = b; constraint -0 + 1.5 * a = c^2;",
    "var a in [-1.0, 2.0]; var b in [-1.0, 2.0]; constraint a = a; constraint -b = a; constraint a^2 - 0^2 = b;",
    "var a in [-1.0, 4.0]; constraint a^2 = 2 * a; constraint a - a * a + a = a;",
    "var a in [0.0, 4.0]; var b in [0.0, 1.0]; constraint b^2 - a^2 = b; constraint -0 * 1 * b = a; "
    "constraint a^2 = 3 - 3;",
    "var a in [-1.0, 4.0]; var b in [0.0, 2.0]; var c in [-1.0, 2.0]; constraint -b * b - 0.25 = c; "
    "constraint a - 0.5 = c * b; constraint b = c^2;",
]
NODE_RUNS = [
    ("circle", QUARTIC_WIDE, 1e-10, 4096),
    ("hyperbola", "var x; var y; constraint x*y = 1; constraint x = y;", 1e-10, 4096),
    ("broyden-4", broyden(4), 1e-8, 4096),
    ("double-root", "var x in [0, 3]; constraint x^2 - 2*x + 1 = 0;", 1e-6, 64),
] + [(f"draw-{i}", text, 1e-6, 256) for i, text in zip((46, 51, 90, 108, 136), PRUNING_STALLING_DRAWS)]


def report_bits(report):
    """A report's boxes, kept pruned boxes and trace records with float.hex
    bounds, and its other fields but the wall time."""
    stats = report.stats
    return (
        [(path, box_bits(box)) for box, path in report.atomic_boxes],
        [(path, box_bits(box)) for box, path in report.pruned_boxes or ()],
        [
            (path, [(r.cid, r.kind, box_bits(r.before), box_bits(r.after), r.changed) for r in records])
            for path, records in report.traces or ()
        ],
        (report.pruned_count, report.status, report.exhausted, stats.contractor_applications, stats.max_depth),
        (stats.krawczyk_steps, stats.krawczyk_narrowed),
    )


def _solve_to_the_end(csp, **kwargs):
    try:
        return solve(csp, **kwargs)
    except BudgetExceeded as exc:
        return exc.report


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:7"])
@pytest.mark.parametrize("name,text,eps,max_boxes", NODE_RUNS, ids=[case[0] for case in NODE_RUNS])
def test_a_built_in_order_runs_as_an_opaque_engine_around_it_does(monkeypatch, name, text, eps, max_boxes, order):
    # a plain solve runs a built-in order in place on the node's bound
    # lists, and any other solve or engine calls the engine once per run
    # with a Box; both give every bit
    csp = compile_problem(text)
    engine = get_engine(order)
    stalled = []

    def opaque(csp_, box, **kwargs):
        outcome = engine(csp_, box, **kwargs)
        stalled.append(outcome.status is Status.STALLED)
        return outcome

    plain = dict(eps=eps, max_boxes=max_boxes)
    evidence = dict(plain, keep_pruned=True, record_trace=True)
    expected_plain = report_bits(_solve_to_the_end(csp, engine=opaque, **plain))
    expected = report_bits(_solve_to_the_end(csp, engine=opaque, **evidence))
    assert expected_plain[0] == expected[0] and expected_plain[3:] == expected[3:]
    with monkeypatch.context() as patch:
        # on a plain solve the built-in order makes no engine call
        patch.setattr(propagation._Order, "__call__", None)
        assert report_bits(_solve_to_the_end(csp, engine=engine, **plain)) == expected_plain
    assert report_bits(_solve_to_the_end(csp, engine=engine, **evidence)) == expected
    if order == "random:7":
        # a partial is not a built-in order: solve calls it once per run
        random7 = partial(propagate_random, seed=7)
        assert report_bits(_solve_to_the_end(csp, engine=random7, **plain)) == expected_plain
        assert report_bits(_solve_to_the_end(csp, engine=random7, **evidence)) == expected
    if name.startswith("draw-"):
        assert expected[3][0] > 0 and any(stalled)


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:7"])
@pytest.mark.parametrize("name,text,eps,max_boxes", NODE_RUNS, ids=[case[0] for case in NODE_RUNS])
def test_in_place_runs_never_change_a_box_the_caller_or_the_report_holds(name, text, eps, max_boxes, order):
    # a plain solve runs in place; one that keeps pruned boxes calls the engine
    csp = compile_problem(text)
    initial = box_bits(csp.initial_box)
    plain = dict(eps=eps, engine=get_engine(order))
    kept = dict(plain, keep_pruned=True)
    full = report_bits(_solve_to_the_end(csp, max_boxes=max_boxes, **plain))
    assert box_bits(csp.initial_box) == initial
    assert report_bits(_solve_to_the_end(csp, max_boxes=max_boxes, **plain)) == full
    pruned = report_bits(_solve_to_the_end(csp, max_boxes=max_boxes, **kept))[1]
    assert box_bits(csp.initial_box) == initial
    # a search cut short at k boxes stops right after keeping its k-th, so
    # a box that the longer search changed after keeping it would differ
    atomic = full[0]
    for k in sorted({k for k in (1, len(atomic) // 2, len(atomic) - 1) if k > 0}):
        assert report_bits(_solve_to_the_end(csp, max_boxes=k, **plain))[0] == atomic[:k]
        cut = report_bits(_solve_to_the_end(csp, max_boxes=k, **kept))[1]
        assert cut == pruned[: len(cut)]


def test_optional_report_fields_default_to_none():
    report = solve(compile_problem(QUARTIC_UNIT))
    assert report.pruned_boxes is None
    assert report.traces is None


def test_keep_pruned_stores_the_unpropagated_nodes():
    csp = compile_problem(QUARTIC_WIDE)
    report = solve(csp, eps=1e-10, keep_pruned=True)
    assert report.pruned_boxes is not None
    assert len(report.pruned_boxes) == report.pruned_count
    for box, path in report.pruned_boxes:
        assert not box.is_empty  # pruning evidence is the pre-propagation box
        assert set(path) <= {"0", "1"}
        out = propagate_worklist(csp, box)
        assert out.fixpoint.is_empty


# Broyden n = 4 propagates its root again after a Krawczyk stage narrows it
@pytest.mark.parametrize("text,eps", [(QUARTIC_UNIT, 1e-10), (broyden(4), 1e-8)], ids=["quartic", "broyden-4"])
def test_record_trace_collects_per_node_traces(text, eps):
    csp = compile_problem(text)
    report = solve(csp, eps=eps, record_trace=True)
    assert report.traces is not None
    assert report.traces[0][0] == ""  # root node first
    # one entry per node: a restarted node's runs share it
    paths = [path for path, _ in report.traces]
    assert len(set(paths)) == len(paths)
    assert sum(len(t) for _, t in report.traces) == report.stats.contractor_applications
    for path, trace in report.traces:
        assert set(path) <= {"0", "1"}
        for record in trace:
            assert record.kind in {"sum", "mul", "sq", "const"}


DIAGONAL = "var x in [-2, 2]; var y in [-2, 2]; constraint x = y;"


# the run budget of Broyden n = 4 is 4 * 29 = 116 applications: its root
# stalls, a Krawczyk stage narrows it, and the budget stops the rerun
@pytest.mark.parametrize(
    "text,eps,budget,order,expected,krawczyk_steps",
    [
        (broyden(4), 1e-8, 116, "worklist", [("", 116)], 7),
        (DIAGONAL, 1e-10, 1, "worklist", [("", 1)], 0),
        (DIAGONAL, 1e-10, 3, "worklist", [("", 2), ("0", 1)], 0),
        (DIAGONAL, 1e-10, 3, "roundrobin", [("", 3)], 0),
    ],
    ids=["broyden-4", "diagonal-1", "diagonal-3", "diagonal-3-roundrobin"],
)
def test_a_trace_keeps_every_run_up_to_a_budget_stop(monkeypatch, text, eps, budget, order, expected, krawczyk_steps):
    monkeypatch.setattr(search, "_SEARCH_BUDGET", budget)
    csp = compile_problem(text)
    engine = get_engine(order)

    def opaque(csp_, box, **kwargs):
        return engine(csp_, box, **kwargs)

    reports = []
    for used in (engine, opaque):
        with pytest.raises(BudgetExceeded) as info:
            solve(csp, eps=eps, engine=used, record_trace=True)
        report = info.value.report
        assert report.exhausted == "contractor application"
        assert report.stats.contractor_applications == budget
        assert report.stats.krawczyk_steps == krawczyk_steps
        assert [(path, len(records)) for path, records in report.traces] == expected
        reports.append(report_bits(report))
    assert reports[0] == reports[1]


def test_stats_accumulate():
    report = solve(compile_problem(QUARTIC_WIDE), eps=1e-10)
    assert report.stats.contractor_applications > 0
    assert report.stats.max_depth >= 1
    assert report.stats.wall_clock_seconds >= 0.0


def test_parameter_validation():
    csp = compile_problem(QUARTIC_UNIT)
    with pytest.raises(ValueError, match="eps"):
        solve(csp, eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        solve(csp, eps=-1e-3)
    with pytest.raises(ValueError, match="max_boxes"):
        solve(csp, max_boxes=0)


# Fuzzing the whole pipeline over the problem grammar of acceptance
# criterion 9, widened to infinite and 1e+-300 bounds and literals.

_LOWER = st.sampled_from(["-inf", "-1e300", "-4", "-2", "-1", "0", "1e-300", "1", "4"])
_UPPER = st.sampled_from(["-4", "-1", "0", "1e-300", "1", "2", "4", "1e300", "inf"])
_LITERALS = ("0", "1", "2", "3", "0.5", "0.25", "1.5", "1e-300", "1e300")


@st.composite
def _systems(draw) -> str:
    names = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    decls = []
    for name in sorted(names):
        lo, hi = sorted((draw(_LOWER), draw(_UPPER)), key=float)
        decls.append(f"var {name} in [{lo}, {hi}];")
    atom = st.sampled_from(names) | st.sampled_from(_LITERALS)

    def expr(depth: int) -> str:
        op = draw(st.integers(0, 5)) if depth else 5
        if op < 3:
            return f"{expr(depth - 1)} {'+-*'[op]} {expr(depth - 1)}"
        if op == 3:
            return f"{draw(atom)}^2"
        if op == 4:
            return f"-{draw(atom)}"
        return draw(atom)

    count = draw(st.integers(1, 3))
    equations = [f"constraint {expr(draw(st.integers(1, 3)))} = {expr(draw(st.integers(0, 1)))};" for _ in range(count)]
    return " ".join(decls + equations)


def _exact(node: ExprAst, point: dict[str, float]) -> Fraction:
    """The expression's real value at a point of floats."""
    if isinstance(node, Var):
        return Fraction(point[node.name])
    if isinstance(node, Num):
        return Fraction(Decimal(node.text))
    if isinstance(node, Neg):
        return -_exact(node.operand, point)
    if isinstance(node, Pow):
        return _exact(node.base, point) ** node.exponent
    a, b = _exact(node.lhs, point), _exact(node.rhs, point)
    return a + b if isinstance(node, Add) else a - b if isinstance(node, Sub) else a * b


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_systems())
# each of these ran its node past 1,000,000 applications, or for more
# than 10 s, when a node had a budget of its own
@example("var a in [-1e300, 0]; var b in [-1e300, -4]; var c in [-inf, -4]; constraint c + b + 0 + a = b;")
@example("var a in [-inf, inf]; constraint -3 + a - 1e-300 = a;")
@example("var a in [-1, 0]; var b in [-1e300, -4]; constraint b * a + b = 1;")
@example("var a in [4, 1e300]; constraint 1 + a = 3 + a;")
def test_fuzzed_systems_solve_or_run_out_of_budget(text):
    # with the application budget cut to 2,000, every search ends fast:
    # it finishes, or stops at one of its budgets with an incomplete report
    started = time.perf_counter()
    csp = compile_problem(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_SEARCH_BUDGET", 2000)
        try:
            report = solve(csp, eps=1e-6, max_boxes=64)
        except BudgetExceeded as exc:
            report = exc.report
            assert report.exhausted in ("atomic box", "contractor application")
        else:
            assert not report.incomplete
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    assert report.stats.contractor_applications <= 2000
    assert len(report.atomic_boxes) <= 64
    # a finished search over a finite box emits every solution on a grid;
    # a grid hit outside every box must be a near miss, not a solution.  An
    # overflowing side makes every point a hit, so the grids stay coarse
    bounds = {name: (iv.lo, iv.hi) for name, iv in csp.declarations}
    if report.incomplete or not all(map(math.isfinite, sum(bounds.values(), ()))):
        return
    spec = GridSpec(n={1: 1025, 2: 65}.get(len(bounds), 17), tol=1e-12)
    with np.errstate(all="ignore"):
        hits = grid_solutions(csp.source_equations, bounds, spec)
    boxes = [{v: (box[v].lo, box[v].hi) for v in bounds} for box, _path in report.atomic_boxes]
    for point in hits:
        if not any(all(b[v][0] <= x <= b[v][1] for v, x in point.items()) for b in boxes):
            assert any(_exact(lhs, point) != _exact(rhs, point) for lhs, rhs in csp.source_equations), point
