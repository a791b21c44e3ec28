"""Fixpoint engines: scheduling, termination, traces, and confluence."""

import hashlib
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxprune import (
    Box,
    Constraint,
    Interval,
    PropagationOutcome,
    Status,
    apply_lifted,
    big_gamma,
    compile_problem,
    empty_box,
    get_engine,
    propagate_random,
    propagate_roundrobin,
    propagate_worklist,
    split,
)
from boxprune.search import is_splittable

from helpers import (
    X_STAR,
    X_STAR_DOWN,
    Y_STAR,
    box_bits,
    broyden,
    broyden_root,
    check_nodes_against_plain_fixpoints,
    holds_point,
    left_half_box,
    make_csp,
    quartic_csp_xyzu,
    random_system_text,
    right_half_box,
    solve_by_node,
)

ENGINES = [
    ("roundrobin", propagate_roundrobin),
    ("worklist", propagate_worklist),
    ("random:42", lambda csp, box, **kw: propagate_random(csp, box, 42, **kw)),
]

PLATEAU = Box(
    {
        "x": Interval(0.0, 1.0),
        "y": Interval(0.0, 1.0),
        "z": Interval(0.0, 1.0),
        "u": Interval(1.0, 1.0),
    }
)


@pytest.mark.parametrize("name,engine", ENGINES)
def test_initial_quartic_box_contracts_to_plateau(name, engine):
    csp = quartic_csp_xyzu()
    out = engine(csp, csp.initial_box)
    assert out.fixpoint == PLATEAU
    assert out.status is Status.FEASIBLE_UNKNOWN
    assert out.effective_steps == 2  # const on u, then the sum pulling z down
    assert out.effective_steps <= out.steps


def test_roundrobin_step_count_is_two_sweeps():
    csp = quartic_csp_xyzu()
    out = propagate_roundrobin(csp, csp.initial_box)
    assert out.steps == 8


@pytest.mark.parametrize("name,engine", ENGINES)
def test_plateau_is_a_fixpoint(name, engine):
    csp = quartic_csp_xyzu()
    out = engine(csp, PLATEAU)
    assert out.fixpoint == PLATEAU
    assert out.effective_steps == 0


def test_restarting_roundrobin_costs_one_sweep():
    csp = quartic_csp_xyzu()
    out = propagate_roundrobin(csp, PLATEAU)
    assert out.steps == len(csp.constraints)


@pytest.mark.parametrize("name,engine", ENGINES)
def test_no_constraints_means_no_steps(name, engine):
    csp = make_csp([], {"x": Interval(0.0, 1.0)})
    box = Box({"x": Interval(0.25, 0.75)})
    out = engine(csp, box)
    assert out == PropagationOutcome(box, Status.FEASIBLE_UNKNOWN, 0, 0, None)


@pytest.mark.parametrize("name,engine", ENGINES)
def test_empty_input_box_is_returned_untouched(name, engine):
    csp = quartic_csp_xyzu()
    box = empty_box(("x", "y", "z", "u"))
    out = engine(csp, box, record_trace=True)
    assert out.status is Status.PROVED_EMPTY
    assert out.steps == 0
    assert out.trace == ()


@pytest.mark.parametrize("name,engine", ENGINES)
def test_scope_mismatch_raises(name, engine):
    csp = quartic_csp_xyzu()
    with pytest.raises(ValueError, match="missing \\['u'\\]"):
        engine(csp, Box({"x": Interval(0, 1), "y": Interval(0, 1), "z": Interval(0, 1)}))
    bigger = csp.initial_box.cylinder(frozenset(csp.variables) | {"w"})
    with pytest.raises(ValueError, match="extra \\['w'\\]"):
        engine(csp, bigger)


@pytest.mark.parametrize("name,engine", ENGINES)
def test_left_half_is_proved_empty(name, engine):
    csp = quartic_csp_xyzu()
    out = engine(csp, left_half_box())
    assert out.status is Status.PROVED_EMPTY
    assert out.fixpoint.is_empty
    assert out.fixpoint == empty_box(("u", "x", "y", "z"))
    assert out.effective_steps >= 1
    # the run ends at the application that empties the box, its last record
    traced = engine(csp, left_half_box(), record_trace=True)
    assert len(traced.trace) == traced.steps
    assert traced.trace[-1].after.is_empty and traced.trace[-1].changed
    assert replace(traced, trace=None) == out


def test_right_half_contracts_to_a_sliver():
    csp = quartic_csp_xyzu()
    out = propagate_worklist(csp, right_half_box())
    assert out.status is Status.FEASIBLE_UNKNOWN
    x = out.fixpoint["x"]
    y = out.fixpoint["y"]
    z = out.fixpoint["z"]
    assert x.width <= 1e-12
    assert x.contains(X_STAR) and x.contains(X_STAR_DOWN)
    assert y.contains(Y_STAR)
    assert y.width <= 1e-12
    assert z.width <= 1e-12
    assert z.is_subset(Interval(0.38, 0.3825))
    assert out.fixpoint["u"] == Interval(1.0, 1.0)


def test_trace_is_off_by_default():
    csp = quartic_csp_xyzu()
    out = propagate_worklist(csp, csp.initial_box)
    assert out.trace is None


@pytest.mark.parametrize("name,engine", ENGINES)
def test_trace_records_every_application(name, engine):
    csp = quartic_csp_xyzu()
    out = engine(csp, csp.initial_box, record_trace=True)
    assert out.trace is not None and len(out.trace) == out.steps
    assert sum(1 for r in out.trace if r.changed) == out.effective_steps
    for record in out.trace:
        con = csp.constraints[record.cid]
        assert record.kind == con.kind
        assert record.before.scope == frozenset(con.variables)
        assert con.cid == record.cid


def test_roundrobin_trace_starts_in_id_order():
    csp = quartic_csp_xyzu()
    out = propagate_roundrobin(csp, csp.initial_box, record_trace=True)
    assert [r.cid for r in out.trace[:4]] == [0, 1, 2, 3]


@pytest.mark.parametrize("name,engine", ENGINES)
def test_fixpoint_certificate(name, engine):
    """Every contractor leaves the reported fixpoint alone."""
    csp = quartic_csp_xyzu()
    for start in (csp.initial_box, right_half_box()):
        out = engine(csp, start)
        assert out.status is Status.FEASIBLE_UNKNOWN
        for con in csp.constraints:
            assert apply_lifted(con, out.fixpoint) == out.fixpoint


@pytest.mark.parametrize("name,engine", ENGINES)
def test_status_reflects_emptiness(name, engine):
    csp = quartic_csp_xyzu()
    for start in (csp.initial_box, left_half_box(), right_half_box()):
        out = engine(csp, start)
        assert (out.status is Status.PROVED_EMPTY) == out.fixpoint.is_empty


def test_budget_overrun_returns_the_stalled_iterate():
    # every iterate is sound: it lies between the start box and the fixpoint
    csp = quartic_csp_xyzu()
    for engine in (propagate_roundrobin, propagate_worklist, lambda *a, **kw: propagate_random(*a, 7, **kw)):
        fixpoint = engine(csp, csp.initial_box).fixpoint
        out = engine(csp, csp.initial_box, max_steps=3)
        assert out.status is Status.STALLED
        assert out.steps == 3
        assert csp.initial_box.encloses(out.fixpoint)
        assert out.fixpoint.encloses(fixpoint)
        # the application the budget stops is neither made nor recorded
        traced = engine(csp, csp.initial_box, max_steps=3, record_trace=True)
        assert len(traced.trace) == 3
        assert replace(traced, trace=None) == out


@pytest.mark.parametrize("name,engine", ENGINES)
def test_outcomes_are_frozen_and_equal_to_publicly_built_ones(name, engine):
    csp = quartic_csp_xyzu()
    outcomes = [
        engine(csp, csp.initial_box),
        engine(csp, csp.initial_box, record_trace=True),
        engine(csp, csp.initial_box, max_steps=3),
        engine(csp, left_half_box()),
        engine(csp, empty_box(csp.variables)),
    ]
    assert [o.status for o in outcomes] == [Status.FEASIBLE_UNKNOWN] * 2 + [
        Status.STALLED,
        Status.PROVED_EMPTY,
        Status.PROVED_EMPTY,
    ]
    for out in outcomes:
        with pytest.raises(FrozenInstanceError):
            out.steps = 0
        assert replace(out, steps=out.steps + 1).steps == out.steps + 1
        public = PropagationOutcome(out.fixpoint, out.status, out.steps, out.effective_steps, out.trace)
        assert out == public and hash(out) == hash(public)
        assert repr(out) == repr(public)


# The simultaneous one-round operator.


def test_big_gamma_is_one_simultaneous_round():
    cons = [Constraint("sum", ("x", "y", "z"), cid=0)]
    csp = make_csp(cons, {"x": Interval(0, 2), "y": Interval(0, 2), "z": Interval(3, 5)})
    assert big_gamma(csp, csp.initial_box) == Box({"x": Interval(1, 2), "y": Interval(1, 2), "z": Interval(3, 4)})


def test_gamma_powers_descend_and_enclose_the_fixpoint():
    csp = quartic_csp_xyzu()
    fixpoint = propagate_worklist(csp, right_half_box()).fixpoint
    current = right_half_box()
    for _ in range(20):
        nxt = big_gamma(csp, current)
        assert current.encloses(nxt)
        assert nxt.encloses(fixpoint)
        current = nxt


# Confluence: all schedules land on the same box.


CONFLUENCE_PROBLEMS = [
    "var x in [0, 1]; var y in [0, 1]; constraint y = x^2; constraint x^2 + y^2 = 1;",
    "var x in [-2, 2]; constraint x^4 + x^2 = 1;",
    "var a in [-2, 2]; var b in [-2, 2]; constraint a*b - b = 2; constraint b = a^2;",
    "var p in [0, 4]; var q in [-4, 0]; constraint p + q = 1;",
]


@pytest.mark.parametrize("text", CONFLUENCE_PROBLEMS)
def test_engines_agree_bit_for_bit(text):
    csp = compile_problem(text)
    outs = [
        propagate_roundrobin(csp, csp.initial_box),
        propagate_worklist(csp, csp.initial_box),
        propagate_random(csp, csp.initial_box, 0),
        propagate_random(csp, csp.initial_box, 1),
        propagate_random(csp, csp.initial_box, 17),
    ]
    for out in outs[1:]:
        assert out.fixpoint == outs[0].fixpoint
        assert out.status is outs[0].status


def test_engines_agree_on_proved_empty():
    csp = quartic_csp_xyzu()
    boxes = [
        propagate_roundrobin(csp, left_half_box()).fixpoint,
        propagate_worklist(csp, left_half_box()).fixpoint,
        propagate_random(csp, left_half_box(), 5).fixpoint,
    ]
    assert boxes[0] == boxes[1] == boxes[2]
    assert boxes[0].is_empty


@pytest.mark.parametrize(
    "text,paths",
    [
        (broyden(2), ["", "", "", ""]),
        # where an order stalls at a box Krawczyk cannot narrow, the search
        # splits it, and the root lies in the left half; for n = 4 only
        # roundrobin does
        (broyden(4), ["0", "", "", ""]),
        (broyden(2, repeated=True), ["0", "", "", ""]),
    ],
    ids=["n2", "n4", "n2-repeated"],
)
def test_engines_agree_bit_for_bit_on_broyden(text, paths):
    # Propagation on Broyden ends in a long tail of steps a few ulps wide,
    # so the orders meet on the same bits only if every contractor is
    # monotone at ulp scale
    csp = compile_problem(text)
    engines = [get_engine(order) for order in ("roundrobin", "worklist", "random:0", "random:7")]
    outs = [engine(csp, csp.initial_box) for engine in engines]
    for out in outs[1:]:
        assert out.fixpoint == outs[0].fixpoint
        assert out.status is outs[0].status
    # The search hands those tails to Krawczyk steps, or splits a stalled
    # box Krawczyk cannot narrow, both of which depend on where each order
    # stalled, so the orders' enclosures may differ by an ulp and their
    # paths by a split.  Each order emits one box, which holds the root,
    # and each node that reached its fixpoint or was emptied ends inside
    # its plain fixpoint.
    n = len(csp.user_vars)
    for engine, path in zip(engines, paths):
        report, nodes = solve_by_node(csp, engine, eps=1e-8)
        assert [p for _, p in report.atomic_boxes] == [path]
        assert report.pruned_count == len(path)
        for box, _ in report.atomic_boxes:
            assert holds_point(box, broyden_root(n, box))
        check_nodes_against_plain_fixpoints(csp, engine, nodes)


# Starting from a subset of the constraints.


@pytest.mark.parametrize("name,engine", ENGINES)
def test_empty_start_applies_nothing(name, engine):
    csp = quartic_csp_xyzu()
    out = engine(csp, csp.initial_box, start=(), record_trace=True)
    assert out == PropagationOutcome(csp.initial_box, Status.FEASIBLE_UNKNOWN, 0, 0, ())
    # and a start set that repeats an id schedules it once
    for box in (csp.initial_box, PLATEAU):
        once = engine(csp, box, start=(0,), record_trace=True)
        assert engine(csp, box, start=(0, 0), record_trace=True) == once
        assert engine(csp, box, start=(3, 1, 3), record_trace=True) == engine(csp, box, start=(1, 3), record_trace=True)


def test_worklist_queues_the_start_set_in_id_order():
    csp = quartic_csp_xyzu()
    out = propagate_worklist(csp, PLATEAU, start=(3, 1), record_trace=True)
    assert [r.cid for r in out.trace] == [1, 3]


def test_roundrobin_stops_after_a_start_sweep_that_changed_nothing():
    csp = quartic_csp_xyzu()
    out = propagate_roundrobin(csp, PLATEAU, start=(3, 1), record_trace=True)
    assert [r.cid for r in out.trace] == [1, 3]


def test_roundrobin_goes_on_with_full_sweeps_after_a_start_sweep_that_changed():
    # the const constraint on u changes the box, so full sweeps follow
    csp = quartic_csp_xyzu()
    out = propagate_roundrobin(csp, csp.initial_box, start=(1,), record_trace=True)
    assert out.fixpoint == PLATEAU
    assert [r.cid for r in out.trace] == [1, 0, 1, 2, 3, 0, 1, 2, 3]


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:3"])
def test_split_child_from_the_split_variables_watchers_reaches_the_same_fixpoint(order):
    # The parent's fixpoint is a fixpoint of every constraint that does not
    # watch the split variable, so a schedule started from that variable's
    # watchers must land on the very bits of a schedule started from all
    engine = get_engine(order)
    rng = random.Random(7)
    halves = 0
    for seed in range(400):
        csp = compile_problem(random_system_text(random.Random(seed)))
        if not csp.constraints:
            continue
        box = engine(csp, csp.initial_box).fixpoint
        # follow one random path a few splits down
        for _ in range(4):
            slots = [s for s, name in enumerate(csp.names) if not box.is_empty and is_splittable(box[name])]
            if not slots:
                break
            slot = rng.choice(slots)
            children = []
            for half in split(box, csp.names[slot]):
                seeded = engine(csp, half, start=csp.watchers[slot])
                full = engine(csp, half)
                assert box_bits(seeded.fixpoint) == box_bits(full.fixpoint), (seed, csp.names[slot])
                assert seeded.status is full.status
                children.append(seeded.fixpoint)
                halves += 1
            box = rng.choice(children)
    assert halves >= 500, halves


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_worklist_reapplies_a_constraint_only_after_another_changed_it(seed):
    # every kernel leaves its constraint at a fixpoint, so its own shrink
    # gives no reason to apply it again
    csp = compile_problem(random_system_text(random.Random(seed)))
    assume(csp.constraints and len(csp.variables) <= 6 and len(csp.constraints) <= 10)
    traced = propagate_worklist(csp, csp.initial_box, record_trace=True)
    # per constraint, whether another application changed one of its
    # variables since it was last applied
    disturbed = {}
    for rec in traced.trace:
        assert disturbed.get(rec.cid, True), (seed, rec.cid)
        disturbed[rec.cid] = False
        changed = {v for v in rec.before.names if rec.after.is_empty or rec.after[v] != rec.before[v]}
        for con in csp.constraints:
            if con.cid != rec.cid and changed & set(con.variables):
                disturbed[con.cid] = True
    reference = propagate_roundrobin(csp, csp.initial_box)
    assert traced.fixpoint == reference.fixpoint
    assert traced.status is reference.status


# Application counts and traces, pinned per schedule.  Any change to a
# schedule, a contractor or the lift shows up here even when the fixpoint
# stays the same.

PINNED = [
    ("xyzu-right", "worklist", 499, 497, "da239b405046e50b7afa0a25d5ccf66d36dba97517fdb68b65d6a0037faee1cf"),
    ("xyzu-right", "roundrobin", 668, 497, "398179af38311426dbeca0491c49296cd6e90e9fdefc6f42f5a251d28a41ff80"),
    ("xyzu-right", "random:7", 460, 457, "ced80dd856b5e3a3e72c382d8b62922a021d00871dfcb6771c9c95f811088fdc"),
    ("broyden-2", "worklist", 750, 737, "875ce1786e6f59276a0add4256b4a397436474fc4f3e4cbff878878af6c37167"),
    ("broyden-2", "roundrobin", 2280, 1398, "9b956af682cf50525cbf523b15ceb7965aea87537a520e8ed122ff2877bafdf7"),
    ("broyden-2", "random:7", 923, 897, "6022845df8b125167b684d47b09d485722991d821c3e1b7f7f098196c02931e6"),
    ("broyden-2-repeated", "worklist", 11194, 11163, "98d9c56291c56c30621fc999ec77e22e41cd8c7170d7369fde960ae393497f02"),
    ("broyden-2-repeated", "roundrobin", 18774, 13047, "15314eb32758d22ce57275e4ab4db3ab55a603731654c392a5f467660c5f4107"),
    ("broyden-2-repeated", "random:7", 7389, 7358, "385e951ae29b5775ea28a21de71e811665533465ac9810038e3c6003c37da612"),
]


@pytest.mark.parametrize("problem,order,steps,effective,trace_sha256", PINNED)
def test_counts_and_trace_are_pinned(problem, order, steps, effective, trace_sha256):
    if problem == "xyzu-right":
        csp, box = quartic_csp_xyzu(), right_half_box()
    else:
        csp = compile_problem(broyden(2, repeated=problem == "broyden-2-repeated"))
        box = csp.initial_box
    engine = get_engine(order)
    traced = engine(csp, box, record_trace=True)
    assert (traced.steps, traced.effective_steps) == (steps, effective)
    text = "\n".join(rec.to_text() for rec in traced.trace)
    assert hashlib.sha256(text.encode()).hexdigest() == trace_sha256
    assert engine(csp, box) == PropagationOutcome(traced.fixpoint, traced.status, steps, effective)


# Engine lookup.


def test_get_engine_names():
    csp = quartic_csp_xyzu()
    for spec, direct in (("roundrobin", propagate_roundrobin), ("worklist", propagate_worklist)):
        assert get_engine(spec) is direct
    seeded = get_engine("random:17")
    assert seeded(csp, csp.initial_box) == propagate_random(csp, csp.initial_box, 17)


def test_get_engine_rejects_bad_specs():
    with pytest.raises(ValueError, match="bad random seed"):
        get_engine("random:x")
    with pytest.raises(ValueError, match="bad random seed"):
        get_engine("random:")
    with pytest.raises(ValueError, match="unknown propagation order"):
        get_engine("alphabetical")
