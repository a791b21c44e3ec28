"""Contraction operators for the primitive relations sum, mul, sq, const.

Each ``contract_*`` function narrows its argument intervals to a box
enclosing exactly the tuples of the relation that lie inside the input box,
discarding no solution (correctness) and never growing an interval
(contraction).  The narrowing rules are iterated to a local fixpoint inside
one call, which makes every contractor idempotent bit for bit under
directed rounding, not just in exact arithmetic.

``apply_lifted`` runs a contractor on a full box through the constraint's
argument variables.  A variable repeated across argument positions is
narrowed per occurrence and the occurrences intersected, iterating until
stable, so e.g. sq(x, x) narrows x toward the hull of {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .boxes import Box, empty_box
from .interval import (
    EMPTY,
    FULL,
    Interval,
    _mk,
    add,
    div_down,
    div_up,
    mul,
    sqrt_outer,
    square,
    sub,
)

__all__ = [
    "Constraint",
    "TraceRecord",
    "contract_sum",
    "contract_mul",
    "contract_sq",
    "contract_const",
    "extdiv",
    "apply_lifted",
    "big_gamma",
]

_ARITY = {"sum": 3, "mul": 3, "sq": 2, "const": 1}


@dataclass(frozen=True, slots=True)
class Constraint:
    """One primitive constraint over named variables.

    kind "sum":   args (x, y, z) meaning x + y = z
    kind "mul":   args (x, y, z) meaning x * y = z
    kind "sq":    args (x, y) meaning x^2 = y
    kind "const": args (x,) meaning x = value (value finite)

    ``cid`` is a small integer, unique within one constraint system.
    ``variables`` holds the argument variables in first-occurrence order
    with duplicates removed; it is computed once at construction.
    """

    kind: str
    args: tuple[str, ...]
    cid: int
    value: float | None = None
    variables: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise ValueError(f"unknown constraint kind: {self.kind!r}")
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} arguments, got {len(self.args)}")
        if self.kind == "const":
            if self.value is None or not math.isfinite(self.value):
                raise ValueError("const requires a finite value")
        elif self.value is not None:
            raise ValueError(f"{self.kind} does not take a value")
        seen: dict[str, None] = {}
        for a in self.args:
            seen.setdefault(a)
        object.__setattr__(self, "variables", tuple(seen))


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One contractor application: the constraint and its before/after slices."""

    cid: int
    kind: str
    before: Box
    after: Box
    changed: bool

    def to_text(self) -> str:
        tag = "changed" if self.changed else "nochange"
        return f"c{self.cid} {self.kind} {self.before} -> {self.after} {tag}"

    def to_json_obj(self) -> dict:
        return {
            "cid": self.cid,
            "kind": self.kind,
            "before": self.before.to_json_obj(),
            "after": self.after.to_json_obj(),
            "changed": self.changed,
        }


_EMPTY3 = (EMPTY, EMPTY, EMPTY)
_EMPTY2 = (EMPTY, EMPTY)


def contract_sum(x: Interval, y: Interval, z: Interval) -> tuple[Interval, Interval, Interval]:
    """Narrow (x, y, z) around { (a, b, c) in x*y*z : a + b = c }."""
    while True:
        x1 = x.intersect(sub(z, y))
        y1 = y.intersect(sub(z, x1))
        z1 = z.intersect(add(x1, y1))
        if x1.lo > x1.hi or y1.lo > y1.hi or z1.lo > z1.hi:
            return _EMPTY3
        # intersect returns its receiver when stable, so identity detects
        # the fixpoint.  With y and z stable, x1 already lies inside z - y,
        # so another pass would return these same objects.
        if y1 is y and z1 is z:
            return x1, y1, z1
        x, y, z = x1, y1, z1


def contract_sq(x: Interval, y: Interval) -> tuple[Interval, Interval]:
    """Narrow (x, y) around { (a, b) in x*y : a^2 = b }."""
    # Narrowing twice by the same root or square changes nothing, so a pass
    # that leaves x alone is at the fixpoint, and so is a later pass that
    # leaves y alone, since the pass before narrowed x by the root of y.
    settled = False
    while True:
        y1 = y.intersect(square(x))
        if settled and y1 is y:
            return x, y
        root = sqrt_outer(y1)
        rlo = root.lo
        if rlo > root.hi:
            return _EMPTY2
        # x meets the positive root branch, the negative one, or both; a
        # branch x misses intersects to EMPTY, which the hull would drop
        if x.lo > -rlo:
            x1 = x.intersect(root)
        elif x.hi < rlo:
            x1 = x.intersect(_mk(-root.hi, -rlo))
        else:
            x1 = x.intersect(root).hull(x.intersect(_mk(-root.hi, -rlo)))
        if x1.lo > x1.hi:
            return _EMPTY2
        if x1.lo == x.lo and x1.hi == x.hi:
            # the hull can rebuild an equal interval; return the old object
            # so that identity keeps meaning "no change" for callers
            return x, y1
        x, y = x1, y1
        settled = True


def contract_mul(x: Interval, y: Interval, z: Interval) -> tuple[Interval, Interval, Interval]:
    """Narrow (x, y, z) around { (a, b, c) in x*y*z : a * b = c }."""
    while True:
        z1 = z.intersect(mul(x, y))
        x1 = x.intersect(extdiv(z1, y))
        y1 = y.intersect(extdiv(z1, x1))
        if x1.lo > x1.hi or y1.lo > y1.hi or z1.lo > z1.hi:
            return _EMPTY3
        # with x and y stable, z1 already lies inside x * y
        if x1 is x and y1 is y:
            return x1, y1, z1
        x, y, z = x1, y1, z1


def contract_const(c: float, x: Interval) -> Interval:
    return x.intersect(Interval(c, c))


def extdiv(n: Interval, d: Interval) -> Interval:
    """Interval hull of { a / b : a in n, b in d, b != 0 }.

    When the divisor strictly straddles zero the exact preimage is a union
    of two rays whose hull is the whole line; this returns that hull.  A
    divisor touching zero on one side yields a single ray.
    """
    if n.lo > n.hi or d.lo > d.hi:
        return EMPTY
    if d.lo == 0.0 == d.hi:
        return FULL if n.contains(0.0) else EMPTY
    if d.lo < 0.0 < d.hi:
        return FULL
    if d.lo == 0.0:
        if n.lo <= 0.0 <= n.hi:
            return FULL
        if n.lo > 0.0:
            return _mk(div_down(n.lo, d.hi), math.inf)
        return _mk(-math.inf, div_up(n.hi, d.hi))
    if d.hi == 0.0:
        if n.lo <= 0.0 <= n.hi:
            return FULL
        if n.lo > 0.0:
            return _mk(-math.inf, div_up(n.lo, d.lo))
        return _mk(div_down(n.hi, d.lo), math.inf)
    if d.lo > 0.0:
        lo = div_down(n.lo, d.hi) if n.lo >= 0.0 else div_down(n.lo, d.lo)
        hi = div_up(n.hi, d.lo) if n.hi >= 0.0 else div_up(n.hi, d.hi)
    else:
        lo = div_down(n.hi, d.hi) if n.hi > 0.0 else div_down(n.hi, d.lo)
        hi = div_up(n.lo, d.hi) if n.lo < 0.0 else div_up(n.lo, d.lo)
    return _mk(lo, hi)


def _contract(con: Constraint, ivs: tuple[Interval, ...]) -> tuple[Interval, ...]:
    if con.kind == "sum":
        return contract_sum(*ivs)
    if con.kind == "mul":
        return contract_mul(*ivs)
    if con.kind == "sq":
        return contract_sq(*ivs)
    return (contract_const(con.value, ivs[0]),)


def apply_lifted(con: Constraint, box: Box) -> Box:
    """Contract `box` through `con`, leaving variables outside `con` untouched.

    The result has the same scope as the input and is the empty box over
    that scope whenever the constraint is infeasible inside the input.
    """
    bivs = box._ivs
    args = con.args
    try:
        ivs = tuple(map(bivs.__getitem__, args))
    except KeyError as missing:
        raise ValueError(f"constraint variable {missing.args[0]!r} outside box scope") from None
    # an empty box has every component empty, so one slot tells
    if ivs[0].lo > ivs[0].hi:
        return box
    # Distinct argument variables need one pass: every contractor is
    # idempotent bit for bit and returns the input object for a slot that
    # did not shrink.  A repeated variable couples argument slots, so its
    # occurrences are intersected and the contractor re-run until stable.
    repeated = len(con.variables) != len(args)
    nivs = bivs
    while True:
        stepped = False
        for a, new in zip(args, _contract(con, ivs)):
            old = nivs[a]
            if repeated:
                new = old.intersect(new)
            if new is not old:
                if new.lo > new.hi:
                    return empty_box(box.names)
                if nivs is bivs:
                    nivs = dict(bivs)
                nivs[a] = new
                stepped = True
        if not (repeated and stepped):
            return box if nivs is bivs else Box._from_sorted(nivs)
        ivs = tuple(map(nivs.__getitem__, args))


def big_gamma(csp, box: Box) -> Box:
    """Intersection of all constraints' lifted contractions applied to `box`.

    Every constraint sees the same input box (simultaneous application);
    the results are intersected componentwise.  Reference operator for the
    propagation engines, which reach its limit by fair iteration.
    """
    result = box
    for con in csp.constraints:
        result = result.join(apply_lifted(con, box))
    return result
