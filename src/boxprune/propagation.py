"""Fixpoint propagation: drive the per-constraint contractors to a common fixpoint.

One loop applies one lifted contractor at a time and stops when no
application can change the box any more; because every contractor only ever
shrinks intervals and float bounds form finite chains, termination needs no
damping or epsilon cutoffs.  The three engines differ only in their
schedule, the order in which the loop visits constraints, and they land on
the same box: each contractor is shrinking, order-preserving, and
idempotent, which makes the common fixpoint unique for a given start box.

Every engine takes an optional ``start``, the ids of the constraints the
schedule begins from; None means all of them.  Any fair schedule reaches
the same fixpoint, so a schedule may leave out a constraint the start box
already satisfies as a fixpoint: the search passes only the constraints
watching the variable it just split, since the parent's fixpoint is still a
fixpoint of every other one.  The caller vouches for the constraints left
out; the engine does not check them.

The loop (_run) works on the system as compiled by Csp: it applies each
constraint's float-level kernel in place to two bound lists, the lower and
upper bounds of every variable in slot order, and tells the schedule which
slots shrank.  A built-in order (_Order) holds its schedule; calling it runs
the loop on copies of its box's lists, which the fixpoint Box adopts.  A
search that records no trace and keeps no pruned box runs the schedule on
lists of its own; any other search calls the order.  A traced run hands
the loop kernels wrapped to record each application.

An engine that has spent ``max_steps`` applications short of the fixpoint
stops and returns its current iterate with Status.STALLED.  Every
contractor only removes points that are not solutions, so every iterate of
the chaotic iteration is a sound enclosure, but a stalled one is a fixpoint
of nothing in particular.  A correct system can stall: near a double root,
and in the tails of systems like Broyden's, propagation converges only
linearly.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Generator, Iterable
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

from .boxes import Box
# apply_lifted is not called here; it stays a name of this module because
# perfbench/tracing.py hooks it
from .contractors import Constraint, Lifted, TraceRecord, apply_lifted  # noqa: F401
from .decompose import Csp

__all__ = [
    "Status",
    "PropagationOutcome",
    "propagate_roundrobin",
    "propagate_worklist",
    "propagate_random",
    "get_engine",
    "Engine",
]


class Status(Enum):
    FEASIBLE_UNKNOWN = "feasible-unknown"
    PROVED_EMPTY = "proved-empty"
    STALLED = "stalled"


@dataclass(frozen=True, slots=True)
class PropagationOutcome:
    """Result of running a propagation engine to quiescence.

    ``steps`` counts contractor applications, ``effective_steps`` the ones
    that changed at least one interval.  ``trace`` is None unless recording
    was requested.  When ``status`` is STALLED, ``fixpoint`` holds the
    iterate the run stopped at: a sound enclosure, but not a fixpoint.
    """

    fixpoint: Box
    status: Status
    steps: int
    effective_steps: int
    trace: tuple[TraceRecord, ...] | None = None


Engine = Callable[..., PropagationOutcome]

# module constants, which the propagation loop reads without an attribute lookup
_FEASIBLE_UNKNOWN = Status.FEASIBLE_UNKNOWN
_PROVED_EMPTY = Status.PROVED_EMPTY
_STALLED = Status.STALLED

# A schedule yields the id of the next constraint to apply, is sent the
# slots that application shrank (in the order of the compiled constraint's
# arguments), and returns once every constraint is known to be at its
# fixpoint.  Csp guarantees that an id is the constraint's position.  A
# schedule starts from the constraints in ``start``, or from all of them
# when it is None.
Schedule = Generator[int, tuple[int, ...], None]

_DEFAULT_MAX_STEPS = 1_000_000


def _sweeps(csp: Csp, start: Iterable[int] | None) -> Schedule:
    """Sweep constraints in id order until one full sweep changes nothing.

    With ``start``, the first sweep visits only those constraints, and the
    run ends there if that sweep changed nothing.
    """
    every = range(len(csp.constraints))
    sweep = every if start is None else sorted(set(start))
    changed = True
    while changed:
        changed = False
        for cid in sweep:
            if (yield cid):
                changed = True
        sweep = every


def _fifo(csp: Csp, start: Iterable[int] | None) -> Schedule:
    """FIFO worklist: a changed variable requeues every constraint on it.

    The queue starts holding all constraints in id order, or the ids in
    ``start`` in ascending order, and never holds a constraint twice.  When
    an application changes some variables, every other constraint whose
    scope mentions one of them is appended again unless already queued.
    The applied one is not: its kernel runs to a local fixpoint, so its
    own shrink leaves it stable, and only another constraint's shrink can
    make it worth applying again.
    """
    watchers = csp.watchers
    queued = set(range(len(csp.constraints)) if start is None else start)
    queue = deque(sorted(queued))
    while queue:
        cid = queue.popleft()
        # cid stays marked queued while its watchers are, so its own shrink
        # does not re-queue it: a kernel leaves its constraint at a fixpoint
        for v in (yield cid):
            for watcher in watchers[v]:
                if watcher not in queued:
                    queue.append(watcher)
                    queued.add(watcher)
        queued.discard(cid)


def _uniform(csp: Csp, start: Iterable[int] | None, seed: int) -> Schedule:
    rng = random.Random(seed)
    watchers = csp.watchers
    # the unstable ids, kept sorted so that a pick of the k-th smallest
    # needs no sort, and as a set for membership
    unstable = set(range(len(csp.constraints)) if start is None else start)
    pool = sorted(unstable)
    while pool:
        cid = pool[rng.randrange(len(pool))]
        for v in (yield cid):
            for watcher in watchers[v]:
                if watcher not in unstable:
                    unstable.add(watcher)
                    insort(pool, watcher)
        # either way the applied constraint sits at its own fixpoint now
        unstable.discard(cid)
        del pool[bisect_left(pool, cid)]


def _traced(csp: Csp, trace: list[TraceRecord]) -> list[Lifted]:
    """``csp.lifted`` with each kernel wrapped to append to ``trace`` a
    record of its constraint's slice before and after the call."""

    def wrap(con: Constraint, lifted: Lifted) -> Lifted:
        kernel = lifted.kernel
        # slots follow name order, and so do a slice's variables
        slots = sorted(lifted.args)
        where = {csp.names[s]: p for p, s in enumerate(slots)}

        def read(lo: list[float], hi: list[float]) -> Box:
            return Box._adopt(where, [lo[s] for s in slots], [hi[s] for s in slots])

        def traced(lo: list[float], hi: list[float], args: tuple[int, ...], value) -> int:
            before = read(lo, hi)
            m = kernel(lo, hi, args, value)
            after = before._emptied() if m < 0 else read(lo, hi) if m else before
            trace.append(TraceRecord(con.cid, con.kind, before, after, m != 0))
            return m

        return lifted._replace(kernel=traced)

    return [wrap(con, lifted) for con, lifted in zip(csp.constraints, csp.lifted)]


def _run(lifted: list[Lifted], lo: list[float], hi: list[float], schedule: Schedule, max_steps: int) -> tuple[Status, int, int]:
    """Apply ``lifted`` in ``schedule``'s order to the bounds lo, hi of a
    nonempty box, in place; the status, applications and effective ones.
    Lists proved empty are left in no particular state."""
    steps = effective = 0
    send = schedule.send
    shrunk: tuple[int, ...] | None = None
    while True:
        try:
            cid = send(shrunk)
        except StopIteration:
            return _FEASIBLE_UNKNOWN, steps, effective
        if steps >= max_steps:
            return _STALLED, steps, effective
        steps += 1
        kernel, args, value, shrinks = lifted[cid]
        m = kernel(lo, hi, args, value)
        if m == 0:
            shrunk = ()
            continue
        effective += 1
        if m < 0:
            return _PROVED_EMPTY, steps, effective
        shrunk = shrinks[m]


class _Order:
    """An engine that runs the loop under ``schedule(csp, start)``."""

    __slots__ = ("schedule",)

    def __init__(self, schedule: Callable[[Csp, Iterable[int] | None], Schedule]):
        self.schedule = schedule

    def __call__(
        self,
        csp: Csp,
        box: Box,
        *,
        record_trace: bool = False,
        max_steps: int = _DEFAULT_MAX_STEPS,
        start: Iterable[int] | None = None,
    ) -> PropagationOutcome:
        # the boxes of one system share the initial box's name -> slot map
        slot = box._slot
        if slot is not csp.initial_box._slot and box.names != csp.names:
            missing = sorted(csp.variables - box.scope)
            extra = sorted(box.scope - csp.variables)
            raise ValueError(f"box scope does not match the CSP's variables (missing {missing}, extra {extra})")
        trace: list[TraceRecord] | None = [] if record_trace else None
        if box.is_empty:
            return PropagationOutcome(box, _PROVED_EMPTY, 0, 0, None if trace is None else ())
        # copies, which the fixpoint adopts
        lo, hi = box._lo[:], box._hi[:]
        status, steps, effective = _run(_traced(csp, trace) if record_trace else csp.lifted, lo, hi, self.schedule(csp, start), max_steps)
        if status is _PROVED_EMPTY:
            box = box._emptied()
        elif effective:
            box = Box._adopt(slot, lo, hi)
        return PropagationOutcome(box, status, steps, effective, None if trace is None else tuple(trace))


propagate_roundrobin = _Order(_sweeps)
propagate_worklist = _Order(_fifo)


def propagate_random(
    csp: Csp,
    box: Box,
    seed: int,
    *,
    record_trace: bool = False,
    max_steps: int = _DEFAULT_MAX_STEPS,
    start: Iterable[int] | None = None,
) -> PropagationOutcome:
    """Apply uniformly random constraints until all are simultaneously stable.

    Keeps the set of constraints not yet known to be at fixpoint for the
    current box, all of them or those in ``start`` at first; an effective
    application adds every constraint sharing a changed variable.
    Deterministic for a given seed.
    """
    return _Order(partial(_uniform, seed=seed))(csp, box, record_trace=record_trace, max_steps=max_steps, start=start)


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
        return _Order(partial(_uniform, seed=seed))
    raise ValueError(f"unknown propagation order {spec!r}")

