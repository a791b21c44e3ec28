"""Branch-and-prune: alternate propagation with bisection over a box tree.

Depth-first, left half before right half.  Each node is propagated to its
fixpoint; empty fixpoints are pruned (that subtree provably holds no
solution), boxes whose user variables are all narrower than eps are emitted
as atomic enclosures, and anything else is split at the widest splittable
user variable.  Soundness of the contractors makes the emitted list
complete: every solution of the system inside the initial box lies in some
emitted atomic box.

A split halves what is still unknown about the variable.  A range no wider
than 2^64 is cut at its midpoint.  A wider one is cut at 0 if it holds both
signs, and otherwise at the power of two halfway between its bounds'
exponents.  So a split of an unbounded range removes half of its 2,100
binary exponents, where a cut at the midpoint removes one.  A variable is
splittable when its cut lies strictly inside.  The search picks the
variable and its cut in one pass over the user variables and builds the
halves from that cut; ``pick_split_var``, ``split`` and ``is_splittable``
apply the same rule one step at a time.

The root is propagated from all constraints.  A child differs from its
parent's fixpoint only in the split variable, so it is still a fixpoint of
every constraint that does not watch that variable, and its schedule starts
from the split variable's watchers alone.  The greatest fixpoint below a
box is unique, so this changes application counts and traces, and on a
node that does not stall (below), never its fixpoint.

Each run of the engine gets four applications per constraint.
Propagation converges only linearly near many roots, so a run may stall;
its iterate is still a sound box.  It then goes to the Krawczyk stage
(boxprune.newton), which converges quadratically near a regular root; its
steps repeat for as long as each halves the widest user variable, and it
takes none where K cannot be formed, as on a system that is not square.
An empty result prunes the node.  A narrowed box is propagated again as
the same node, from all constraints, since a stalled iterate is a fixpoint
of none of them.  A box Krawczyk cannot narrow is undecided like any
other: it is emitted if atomic and split otherwise, and both halves start
from all constraints.  A node that reaches its fixpoint within its first
run is propagated exactly as without Krawczyk.  Where a node stalls
depends on the order and the start set, so orders may split such a node
differently or end an ulp apart; each order's boxes hold every root.

The whole search shares one budget of 1,000,000 applications; each run
gets at most what is left of it.

A node owns two bound lists, as the propagation loop reads them: the
root's are copies of the initial box's, and each half of a split copies
the list it changes and takes over its parent's other one.  A solve with a
built-in order (propagate_roundrobin, propagate_worklist, or what
get_engine returns) primes the order's schedule once and runs every node
in place on those lists under it, building a Box only for a Krawczyk
stage, an emitted box or a kept pruned one, which copies the node's lists
before the run.  A traced solve wraps the kernels once, and moves each
run's records from one buffer into the node's trace.  Any other engine, a
wrapper or a functools.partial of propagate_random too, is called once per
run with a Box, through the Engine protocol, which returns the run's
trace; no engine changes a box's lists, so that Box is what a kept pruned
node shows.  Both give the same report.

Split halves share their cut point, so a solution sitting exactly on a cut
can legitimately surface in two adjacent enclosures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

from .boxes import Box
from .contractors import TraceRecord
from .decompose import Csp
from .interval import Interval, _midpoint
from .newton import _stage
from .propagation import _PROVED_EMPTY, _STALLED, Engine, _Order, _run, _traced, propagate_worklist

__all__ = [
    "SolveStatus",
    "SolveStats",
    "SolveReport",
    "BudgetExceeded",
    "split",
    "is_splittable",
    "pick_split_var",
    "solve",
]

# the applications of every run of the engine in one search
_SEARCH_BUDGET = 1_000_000
# split cuts a range wider than this between its bound exponents
_WIDE = 2.0**64


class SolveStatus(Enum):
    ENCLOSURES = "enclosures"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class SolveStats:
    """``krawczyk_steps`` counts the Krawczyk steps on stalled nodes that
    formed K, and ``krawczyk_narrowed`` those that narrowed the box or
    emptied it; neither counts where K cannot be formed (boxprune.newton)."""

    contractor_applications: int
    max_depth: int
    # timing is informational; it never participates in report equality
    wall_clock_seconds: float = field(compare=False)
    krawczyk_steps: int = 0
    krawczyk_narrowed: int = 0


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome of a branch-and-prune run.

    ``atomic_boxes`` lists (box, path) pairs in the order found, which for
    depth-first left-first search is lexicographic in path ('0' = left
    half, '1' = right half, root = '').  ``exhausted`` names the budget
    that stopped the search, "atomic box" or "contractor application",
    and is None when the search finished.  ``pruned_boxes`` is populated
    only when pruning was asked to keep its evidence (the box the node's
    last run started from); ``traces`` only when per-node propagation
    traces were recorded.
    """

    atomic_boxes: tuple[tuple[Box, str], ...]
    pruned_count: int
    status: SolveStatus
    stats: SolveStats
    exhausted: str | None = None
    pruned_boxes: tuple[tuple[Box, str], ...] | None = None
    traces: tuple[tuple[str, tuple[TraceRecord, ...]], ...] | None = None

    @property
    def incomplete(self) -> bool:
        """Whether a budget ran out before the search finished."""
        return self.exhausted is not None


class BudgetExceeded(RuntimeError):
    """Raised when one more atomic box would overflow max_boxes, or when
    the search has spent its contractor applications.

    Carries the partial report (everything found so far, flagged
    incomplete, with ``exhausted`` naming the budget) so callers can still
    use it.
    """

    def __init__(self, limit: int, report: SolveReport):
        super().__init__(f"{report.exhausted} budget of {limit} exceeded; partial results kept")
        self.report = report


def is_splittable(iv: Interval) -> bool:
    """True when ``split`` can cut the interval: when the cut the module
    docstring names lies strictly between its bounds, which is when some
    float does ([MAX, inf] holds none)."""
    return not iv.is_empty and iv.lo < _cut(iv.lo, iv.hi) < iv.hi


def split(box: Box, var: str) -> tuple[Box, Box]:
    """Halve one variable's range where the module docstring says; the
    halves share that endpoint."""
    s = box._slot[var]
    lo, hi = box._lo[s], box._hi[s]
    cut = _cut(lo, hi)
    if not lo < cut < hi:
        raise ValueError(f"{var} = {box[var]} cannot be split")
    # a cut strictly inside is finite, so both halves are canonical; each
    # half copies the list it changes and shares the other
    left_hi, right_lo = box._hi[:], box._lo[:]
    left_hi[s] = right_lo[s] = cut
    return Box._adopt(box._slot, box._lo, left_hi), Box._adopt(box._slot, right_lo, box._hi)


def _cut(lo: float, hi: float) -> float:
    """Where ``split`` cuts [lo, hi]: its midpoint, unless it is wider than
    2^64.  Then 0 if it holds both signs, and otherwise the power of two
    halfway between its bounds' exponents if that lies strictly inside."""
    if not hi - lo > _WIDE:
        # halving a sum of -1 ulp rounds to -0.0, which bounds never hold
        return _midpoint(lo, hi) + 0.0
    if lo < 0.0 < hi:
        return 0.0
    # the magnitudes a <= b of the bounds, and the sign of the range
    a, b, sign = (lo, hi, 1.0) if lo >= 0.0 else (-hi, -lo, -1.0)
    # 2^1024 overflows
    cut = sign * math.ldexp(1.0, min((_exponent(a) + _exponent(b)) // 2, 1023))
    return cut if lo < cut < hi else _midpoint(lo, hi)


def _exponent(x: float) -> int:
    """frexp's exponent e of a magnitude, 2^(e-1) <= x < 2^e, which runs
    from -1073 to 1024 on the positive floats; one beyond either end, 0
    counts as -1074 and inf as 1025."""
    if x == 0.0:
        return -1074
    if x == math.inf:
        return 1025
    return math.frexp(x)[1]


def pick_split_var(box: Box, user_vars: tuple[str, ...], eps: float) -> str | None:
    """Widest splittable user variable with width > eps; ties go to the
    lexicographically first name, whatever the order of ``user_vars``;
    None when the box is atomic."""
    picked = _pick(box._slot, box._lo, box._hi, user_vars, eps)
    return None if picked is None else picked[0]


def _pick(slot: dict, lo: list[float], hi: list[float], names: tuple[str, ...], eps: float) -> tuple[str, int, float] | None:
    """``pick_split_var``'s variable of the box with bounds lo, hi by
    ``slot``, with its slot and the cut ``split`` makes there, from one
    ``_cut`` per variable that is the widest so far."""
    best: tuple[str, int, float] | None = None
    best_width = eps
    for name in names:
        s = slot[name]
        a, b = lo[s], hi[s]
        # b - a is the width: +inf when a bound is infinite, negative for
        # the empty interval, so a wider one than eps is nonempty
        width = b - a
        if width > best_width or (width == best_width and best is not None and name < best[0]):
            cut = _cut(a, b)
            if a < cut < b:
                best = (name, s, cut)
                best_width = width
    return best


def solve(
    csp: Csp,
    eps: float = 1e-10,
    max_boxes: int = 4096,
    *,
    engine: Engine = propagate_worklist,
    keep_pruned: bool = False,
    record_trace: bool = False,
) -> SolveReport:
    """Depth-first branch-and-prune from the CSP's initial box.

    A built-in order runs one schedule in place on the node's bound lists
    (see the module docstring).  Any other ``engine`` is called as
    ``engine(csp, box, record_trace=..., start=..., max_steps=...)``.
    Either runs once per node and again after each Krawczyk stage that
    narrowed its box.  ``start`` is the split variable's watchers for a
    child of a node that reached its fixpoint, and None at the root, after
    a Krawczyk stage and for a child of a node that stalled (see the
    propagation engines).  A node's trace concatenates the traces of its
    runs, and a kept pruned box is the box its last run started from.  Raises
    BudgetExceeded, carrying the partial report, rather than emitting an
    atomic box beyond max_boxes or running the engine once the search has
    spent 1,000,000 applications.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if max_boxes < 1:
        raise ValueError(f"max_boxes must be at least 1, got {max_boxes}")
    started = time.monotonic()
    atomic: list[tuple[Box, str]] = []
    pruned: list[tuple[Box, str]] = []
    pruned_count = 0
    applications = 0
    max_depth = 0
    newton_steps = newton_narrowed = 0
    traces: list[tuple[str, tuple[TraceRecord, ...]]] = []

    def report(exhausted: str | None = None) -> SolveReport:
        return SolveReport(
            atomic_boxes=tuple(atomic),
            pruned_count=pruned_count,
            status=SolveStatus.INFEASIBLE if not atomic else SolveStatus.ENCLOSURES,
            stats=SolveStats(
                contractor_applications=applications,
                max_depth=max_depth,
                wall_clock_seconds=time.monotonic() - started,
                krawczyk_steps=newton_steps,
                krawczyk_narrowed=newton_narrowed,
            ),
            exhausted=exhausted,
            pruned_boxes=tuple(pruned) if keep_pruned else None,
            traces=tuple(traces) if record_trace else None,
        )

    by_name = tuple(sorted(csp.user_vars))
    initial = csp.initial_box
    slot = initial._slot  # shared by every box of the search
    watchers = csp.watchers
    budget = _SEARCH_BUDGET
    run_budget = 4 * len(csp.constraints)
    send = None
    # a built-in order runs in place under one schedule for the whole
    # search, unless the box is empty: the engine tests that
    if type(engine) is _Order and not initial.is_empty:
        schedule = engine.schedule(csp)
        next(schedule)
        send = schedule.send
        # a traced run's kernels append to one buffer, emptied after each run
        buffer: list[TraceRecord] = []
        lifted = _traced(csp, buffer) if record_trace else csp.lifted
    # a node's path is its depth and the integer whose low `depth` bits
    # spell the path; the string is built only for nodes the report keeps
    stack: list[tuple] = [(0, 0, initial._lo[:], initial._hi[:], None)]
    while stack:
        depth, bits, lo, hi, start = stack.pop()
        remaining = budget - applications
        if remaining <= 0:
            raise BudgetExceeded(budget, report("contractor application"))
        if depth > max_depth:
            max_depth = depth
        max_steps = run_budget if run_budget < remaining else remaining
        if send is None:
            # a kept pruned box is the box of the node's last run
            box = Box._adopt(slot, lo, hi)
            outcome = engine(csp, box, record_trace=record_trace, start=start, max_steps=max_steps)
            fixpoint, steps, trace = outcome.fixpoint, outcome.steps, outcome.trace
            lo, hi, status = fixpoint._lo, fixpoint._hi, _PROVED_EMPTY if fixpoint.is_empty else outcome.status
        else:
            if keep_pruned:
                # copies, since the run narrows the node's lists
                box = Box._adopt(slot, lo[:], hi[:])
            status, steps, _ = _run(lifted, lo, hi, send, start, max_steps)
            if record_trace:
                trace = tuple(buffer)
                buffer.clear()
        if record_trace:
            path = _path(depth, bits)
            if traces and traces[-1][0] == path:
                # a restart, popped right after the run it continues
                traces[-1] = (path, traces[-1][1] + trace)
            else:
                traces.append((path, trace))
        applications += steps
        if status is _STALLED:
            fixpoint = narrowed = Box._adopt(slot, lo, hi)
            for step in _stage(csp, fixpoint):
                newton_steps += 1
                # a last step that returns its box narrows nothing
                newton_narrowed += step is not narrowed
                narrowed = step
            if narrowed.is_empty:
                status = _PROVED_EMPTY
            elif narrowed is not fixpoint:
                # the same node again, from all constraints
                stack.append((depth, bits, narrowed._lo, narrowed._hi, None))
                continue
        if status is _PROVED_EMPTY:
            pruned_count += 1
            if keep_pruned:
                pruned.append((box, _path(depth, bits)))
            continue
        picked = _pick(slot, lo, hi, by_name, eps)
        if picked is None:
            if len(atomic) >= max_boxes:
                raise BudgetExceeded(max_boxes, report("atomic box"))
            atomic.append((Box._adopt(slot, lo, hi), _path(depth, bits)))
            continue
        # the halves, as split builds them
        _, s, cut = picked
        left_hi, right_lo = hi[:], lo[:]
        left_hi[s] = right_lo[s] = cut
        # a stalled iterate is a fixpoint of no constraint
        start = None if status is _STALLED else watchers[s]
        stack.append((depth + 1, bits << 1 | 1, right_lo, hi, start))
        stack.append((depth + 1, bits << 1, lo, left_hi, start))
    return report()


def _path(depth: int, bits: int) -> str:
    # the leading 1 keeps the path's leading zeros in the binary spelling
    return bin(1 << depth | bits)[3:]
