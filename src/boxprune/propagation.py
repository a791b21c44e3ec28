"""Fixpoint propagation: drive the per-constraint contractors to a common fixpoint.

One loop applies one lifted contractor at a time and stops when no
application can change the box any more; because every contractor only ever
shrinks intervals and float bounds form finite chains, termination needs no
damping or epsilon cutoffs.  The three engines differ only in their
schedule, the order in which the loop visits constraints, and they land on
the same box: each contractor is shrinking, order-preserving, and
idempotent, which makes the common fixpoint unique for a given start box.

Every engine raises RuntimeError once it has spent ``max_steps``
applications short of the fixpoint.  A correct system can hit that budget:
near a double root propagation converges only linearly.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .boxes import Box
from .contractors import Constraint, TraceRecord, apply_lifted, big_gamma
from .decompose import Csp

__all__ = [
    "Status",
    "PropagationOutcome",
    "propagate_roundrobin",
    "propagate_worklist",
    "propagate_random",
    "gamma_power",
    "get_engine",
    "Engine",
]


class Status(Enum):
    FEASIBLE_UNKNOWN = "feasible-unknown"
    PROVED_EMPTY = "proved-empty"


@dataclass(frozen=True, slots=True)
class PropagationOutcome:
    """Result of running a propagation engine to quiescence.

    ``steps`` counts contractor applications, ``effective_steps`` the ones
    that changed at least one interval.  ``trace`` is None unless recording
    was requested.
    """

    fixpoint: Box
    status: Status
    steps: int
    effective_steps: int
    trace: tuple[TraceRecord, ...] | None = None


Engine = Callable[..., PropagationOutcome]

# A schedule yields the next constraint to apply, is sent the variables
# that application shrank (in the constraint's own variable order), and
# returns once every constraint is known to be at its fixpoint.  Schedules
# track constraints by id, which Csp guarantees is the position in
# csp.constraints.
Schedule = Generator[Constraint, tuple[str, ...], None]

_DEFAULT_MAX_STEPS = 1_000_000


def _sweeps(csp: Csp) -> Schedule:
    changed = True
    while changed:
        changed = False
        for con in csp.constraints:
            if (yield con):
                changed = True


def _fifo(csp: Csp) -> Schedule:
    constraints, watchers = csp.constraints, csp.watchers
    queue = deque(range(len(constraints)))
    queued = set(queue)
    while queue:
        cid = queue.popleft()
        queued.discard(cid)
        for v in (yield constraints[cid]):
            for watcher in watchers[v]:
                if watcher not in queued:
                    queue.append(watcher)
                    queued.add(watcher)


def _uniform(csp: Csp, seed: int) -> Schedule:
    rng = random.Random(seed)
    constraints, watchers = csp.constraints, csp.watchers
    unstable = set(range(len(constraints)))
    while unstable:
        pool = sorted(unstable)
        cid = pool[rng.randrange(len(pool))]
        for v in (yield constraints[cid]):
            unstable.update(watchers[v])
        # either way the applied constraint sits at its own fixpoint now
        unstable.discard(cid)


# A traced run builds one record per application, and the frozen
# dataclass's generated __init__ pays a checked __setattr__ per field, so
# records are filled through their slot descriptors instead.  The loops
# below avoid comprehensions, which cost a call each on these tiny scopes.
_new = object.__new__
_adopt = Box._from_sorted
_set_cid, _set_kind, _set_before, _set_after, _set_changed = (
    getattr(TraceRecord, f).__set__ for f in ("cid", "kind", "before", "after", "changed")
)


def _record(con, before: Box, after: Box) -> TraceRecord:
    bivs, aivs = before._ivs, after._ivs
    pre_ivs: dict = {}
    post_ivs: dict = {}
    for v in sorted(con.variables):
        pre_ivs[v] = bivs[v]
        post_ivs[v] = aivs[v]
    pre = _adopt(pre_ivs)
    post = pre if after is before else _adopt(post_ivs)
    rec = _new(TraceRecord)
    _set_cid(rec, con.cid)
    _set_kind(rec, con.kind)
    _set_before(rec, pre)
    _set_after(rec, post)
    _set_changed(rec, post is not pre)
    return rec


def _propagate(csp: Csp, box: Box, schedule: Schedule, record_trace: bool, max_steps: int) -> PropagationOutcome:
    if box.scope != csp.variables:
        missing = sorted(csp.variables - box.scope)
        extra = sorted(box.scope - csp.variables)
        raise ValueError(f"box scope does not match the CSP's variables (missing {missing}, extra {extra})")
    trace: list[TraceRecord] = []
    steps = effective = 0
    if not box.is_empty and csp.constraints:
        shrunk: tuple[str, ...] | None = None
        while True:
            try:
                con = schedule.send(shrunk)
            except StopIteration:
                break
            if steps >= max_steps:
                raise RuntimeError(f"propagation exceeded its budget of {max_steps} contractor applications")
            after = apply_lifted(con, box)
            steps += 1
            if record_trace:
                trace.append(_record(con, box, after))
            # apply_lifted returns the input box object itself exactly when
            # nothing shrank, and a shrunk box keeps the objects of its
            # untouched components, so identity decides change
            if after is box:
                shrunk = ()
            else:
                effective += 1
                aivs, bivs = after._ivs, box._ivs
                changed = []
                for v in con.variables:
                    if aivs[v] is not bivs[v]:
                        changed.append(v)
                shrunk = tuple(changed)
                box = after
                if box.is_empty:
                    break
    return PropagationOutcome(
        fixpoint=box,
        status=Status.PROVED_EMPTY if box.is_empty else Status.FEASIBLE_UNKNOWN,
        steps=steps,
        effective_steps=effective,
        trace=tuple(trace) if record_trace else None,
    )


def propagate_roundrobin(
    csp: Csp, box: Box, *, record_trace: bool = False, max_steps: int = _DEFAULT_MAX_STEPS
) -> PropagationOutcome:
    """Sweep constraints in id order until one full sweep changes nothing."""
    return _propagate(csp, box, _sweeps(csp), record_trace, max_steps)


def propagate_worklist(
    csp: Csp, box: Box, *, record_trace: bool = False, max_steps: int = _DEFAULT_MAX_STEPS
) -> PropagationOutcome:
    """FIFO worklist: a changed variable requeues every constraint on it.

    The queue starts holding all constraints in id order and never holds a
    constraint twice.  When an application changes some variables, every
    constraint whose scope mentions one of them (the applied one included)
    is appended again unless already queued.
    """
    return _propagate(csp, box, _fifo(csp), record_trace, max_steps)


def propagate_random(
    csp: Csp, box: Box, seed: int, *, record_trace: bool = False, max_steps: int = _DEFAULT_MAX_STEPS
) -> PropagationOutcome:
    """Apply uniformly random constraints until all are simultaneously stable.

    Keeps the set of constraints known to be at fixpoint for the current
    box; an effective application invalidates every constraint sharing a
    changed variable.  Deterministic for a given seed.
    """
    return _propagate(csp, box, _uniform(csp, seed), record_trace, max_steps)


def gamma_power(csp: Csp, box: Box, k: int) -> Box:
    """k rounds of the simultaneous all-constraints operator."""
    for _ in range(k):
        box = big_gamma(csp, box)
    return box


def get_engine(spec: str) -> Engine:
    """Engine by name: 'roundrobin', 'worklist', or 'random:<seed>'."""
    if spec == "roundrobin":
        return propagate_roundrobin
    if spec == "worklist":
        return propagate_worklist
    if spec.startswith("random:"):
        tail = spec.split(":", 1)[1]
        try:
            seed = int(tail)
        except ValueError:
            raise ValueError(f"bad random seed {tail!r} in engine spec {spec!r}") from None
        def engine(csp: Csp, box: Box, **kwargs) -> PropagationOutcome:
            return propagate_random(csp, box, seed, **kwargs)
        return engine
    raise ValueError(f"unknown propagation order {spec!r}")
