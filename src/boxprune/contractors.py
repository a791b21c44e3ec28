"""Contraction operators for the primitive relations sum, mul, sq, const.

Each ``contract_*`` function narrows its argument intervals to the
smallest box holding the tuples of the relation that lie inside the input
box, discarding no solution (correctness) and never growing an interval
(contraction).

The rules live in one float-level kernel per relation, which narrows bounds
in place on two float lists indexed by variable slot; ``lift`` compiles a
constraint against a slot numbering for the propagation loop.  The
``contract_*`` functions are thin wrappers that move Interval bounds into
and out of those lists, and ``apply_lifted`` (a contractor on a full box)
runs the kernel on copies of the box's own bound lists.
A constraint that repeats a variable denotes another relation over its
distinct variables, such as x^2 = z for x * x = z, and ``lift`` compiles
it to that relation's kernel, so each application runs one kernel once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .boxes import Box
# add, sub, mul, square and sqrt_outer are not called here; they stay names
# of this module because perfbench/tracing.py counts calls through them
from .interval import (  # noqa: F401
    EMPTY,
    Interval,
    _raw,
    add,
    add_bounds,
    div_down,
    div_up,
    mul,
    mul_bounds,
    sqrt_bounds,
    sqrt_outer,
    square,
    square_bounds,
    sub,
    sub_bounds,
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
_INF = math.inf


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
        object.__setattr__(self, "variables", tuple(dict.fromkeys(self.args)))


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


# Float-level kernels.
#
# One kernel per relation narrows it in place on two float lists holding
# the lower and upper bounds of every variable, at the distinct argument
# slots `s`.  It returns -1 when the relation has no point inside the
# bounds, and the caller then discards the lists; otherwise it returns a
# mask whose bit i says that argument i shrank.  The narrowing rules run to
# a local fixpoint inside one call, which makes every kernel idempotent bit
# for bit under directed rounding, not just in exact arithmetic.
# Intersection is inline: a candidate bound replaces the current one only
# when it is strictly tighter.


def _sum(lo: list[float], hi: list[float], s: tuple[int, ...], _value) -> int:
    """x + y = z over the slots s = (x, y, z).

    One pass is the fixpoint: (a) narrows x to x' by z - y, (b) y to y' by
    z - x' and (c) z to z' by x' + y'.  Another pass would raise x'.lo to
    (z'.lo - y'.hi) rounded down, which is at most x'.lo: if (c) moved
    z.lo, then z'.lo <= x'.lo + y'.lo <= x'.lo + y'.hi; if (b) moved y.hi,
    then y'.hi >= z.hi - x'.lo >= z'.lo - x'.lo; and if neither moved, (a)
    met that bound with the same operands.  Likewise it would raise y'.lo
    to (z'.lo - x'.hi) rounded down, at most y'.lo by z'.lo <= x'.lo +
    y'.lo or by (b).  The upper bounds mirror these, and then (c) sees the
    same operands.  So a second pass changes nothing, bit for bit.

    An addend that is the point [0, 0], as in decompose's x + _t0 = y for
    x = y, makes the pass a meet of the other addend with z, with no bound
    call.  Bounds never hold -0.0, so z - 0 and x' + 0 are exact and return
    their operand: (a) meets x with z, and (c) meets z with x' = x ∩ z,
    which gives x'.  And (b) leaves the zero alone, since z - x' holds 0
    once x' ⊆ z: z.lo - x'.hi <= 0 <= z.hi - x'.lo, and rounding outward
    keeps those signs.  A zero x mirrors this; there (a) may already find
    0 outside z - y, but only when y ∩ z, which (b) would form, is empty.
    """
    i, j, k = s
    xl, xh, yl, yh, zl, zh = lo[i], hi[i], lo[j], hi[j], lo[k], hi[k]
    if yl == 0.0 and yh == 0.0:
        return _meet(lo, hi, i, k, xl, xh, zl, zh, 1)
    if xl == 0.0 and xh == 0.0:
        return _meet(lo, hi, j, k, yl, yh, zl, zh, 2)
    a, b = sub_bounds(zl, zh, yl, yh)
    if a > xl:
        xl = a
    if b < xh:
        xh = b
    if xl > xh:
        return -1
    a, b = sub_bounds(zl, zh, xl, xh)
    if a > yl:
        yl = a
    if b < yh:
        yh = b
    if yl > yh:
        return -1
    a, b = add_bounds(xl, xh, yl, yh)
    if a > zl:
        zl = a
    if b < zh:
        zh = b
    if zl > zh:
        return -1
    return _store3(lo, hi, i, j, k, xl, xh, yl, yh, zl, zh)


def _mul(lo: list[float], hi: list[float], s: tuple[int, ...], _value) -> int:
    """x * y = z over the slots s = (x, y, z)."""
    i, j, k = s
    xl, xh, yl, yh, zl, zh = lo[i], hi[i], lo[j], hi[j], lo[k], hi[k]
    while True:
        a, b = mul_bounds(xl, xh, yl, yh)
        if a > zl:
            zl = a
        if b < zh:
            zh = b
        if zl > zh:
            return -1
        stable = True
        a, b = extdiv_bounds(zl, zh, yl, yh)
        if a > xl:
            xl = a
            stable = False
        if b < xh:
            xh = b
            stable = False
        if xl > xh:
            return -1
        a, b = extdiv_bounds(zl, zh, xl, xh)
        if a > yl:
            yl = a
            stable = False
        if b < yh:
            yh = b
            stable = False
        if yl > yh:
            return -1
        # with x and y stable, z already lies inside x * y
        if stable:
            return _store3(lo, hi, i, j, k, xl, xh, yl, yh, zl, zh)


def _meet(lo, hi, i, k, xl, xh, zl, zh, bit) -> int:
    # _sum's pass when the addend other than slot i is zero: slots i and k
    # both become their meet; `bit` is slot i's bit in the mask
    ml = xl if xl >= zl else zl
    mh = xh if xh <= zh else zh
    if ml > mh:
        return -1
    m = 0
    if ml != xl or mh != xh:
        lo[i] = ml
        hi[i] = mh
        m = bit
    if ml != zl or mh != zh:
        lo[k] = ml
        hi[k] = mh
        m |= 4
    return m


def _store3(lo, hi, i, j, k, xl, xh, yl, yh, zl, zh) -> int:
    # write back the bounds that moved and return the mask naming them
    m = 0
    if xl != lo[i] or xh != hi[i]:
        lo[i] = xl
        hi[i] = xh
        m = 1
    if yl != lo[j] or yh != hi[j]:
        lo[j] = yl
        hi[j] = yh
        m |= 2
    if zl != lo[k] or zh != hi[k]:
        lo[k] = zl
        hi[k] = zh
        m |= 4
    return m


def _sq(lo: list[float], hi: list[float], s: tuple[int, ...], _value) -> int:
    """x^2 = y over the slots s = (x, y)."""
    i, j = s
    xl, xh, yl, yh = lo[i], hi[i], lo[j], hi[j]
    # Narrowing twice by the same root or square changes nothing, so a pass
    # that leaves x alone is at the fixpoint, and so is a later pass that
    # leaves y alone, since the pass before narrowed x by the root of y.
    settled = False
    while True:
        stable = True
        a, b = square_bounds(xl, xh)
        if a > yl:
            yl = a
            stable = False
        if b < yh:
            yh = b
            stable = False
        if yl > yh:
            return -1
        if settled and stable:
            break
        # 0 <= yl <= yh here, so rl <= rh
        rl, rh = sqrt_bounds(yl, yh)
        # x meets the positive root branch, the negative one, or both; the
        # hull drops a branch that x misses
        pl = xl if xl >= rl else rl
        ph = xh if xh <= rh else rh
        if xl <= -rl:
            nl = -rh + 0.0
            nh = -rl + 0.0
            if xl > nl:
                nl = xl
            if xh < nh:
                nh = xh
            if xh < rl or pl > ph:
                pl, ph = nl, nh
            elif nl <= nh:
                # nl <= nh <= 0 <= rl <= pl <= ph
                pl = nl
        if pl > ph:
            return -1
        if pl == xl and ph == xh:
            break
        xl, xh = pl, ph
        settled = True
    return _store2(lo, hi, i, j, xl, xh, yl, yh)


def _store2(lo, hi, i, j, xl, xh, yl, yh) -> int:
    # _store3 for two slots
    m = 0
    if xl != lo[i] or xh != hi[i]:
        lo[i] = xl
        hi[i] = xh
        m = 1
    if yl != lo[j] or yh != hi[j]:
        lo[j] = yl
        hi[j] = yh
        m |= 2
    return m


def _twice(lo: list[float], hi: list[float], s: tuple[int, ...], _value) -> int:
    """x + x = z over the slots s = (x, z).  Doubling and halving are exact
    except on overflow and on halving a subnormal, where mul_bounds rounds
    outward; 2 * (z / 2) covers z either way, so one pass is the fixpoint."""
    i, k = s
    xl, xh, zl, zh = lo[i], hi[i], lo[k], hi[k]
    a, b = mul_bounds(xl, xh, 2.0, 2.0)
    if a > zl:
        zl = a
    if b < zh:
        zh = b
    if zl > zh:
        return -1
    a, b = mul_bounds(zl, zh, 0.5, 0.5)
    if a > xl:
        xl = a
    if b < xh:
        xh = b
    if xl > xh:
        return -1
    return _store2(lo, hi, i, k, xl, xh, zl, zh)


def _either(lo: list[float], hi: list[float], s: tuple[int, ...], _value) -> int:
    """x = 0 or y = 1 over the slots s = (x, y), the relation x * y = x;
    the hull of the two lines inside the box is the box if both meet it."""
    i, j = s
    zero = lo[i] <= 0.0 <= hi[i]
    if zero == (lo[j] <= 1.0 <= hi[j]):
        return 0 if zero else -1
    return _const(lo, hi, (i,), (0.0,)) if zero else _const(lo, hi, (j,), (1.0,)) << 1


def _const(lo: list[float], hi: list[float], s: tuple[int, ...], value: tuple[float, ...]) -> int:
    """x in value over the slot s = (x,); value holds ascending finite
    floats, and like the bounds no -0.0, so the hull is the first and last."""
    (i,) = s
    inside = [c for c in value if lo[i] <= c <= hi[i]]
    if not inside:
        return -1
    if inside[0] == lo[i] and inside[-1] == hi[i]:
        return 0
    lo[i], hi[i] = inside[0], inside[-1]
    return 1


_KERNELS = {"sum": _sum, "mul": _mul, "sq": _sq, "const": _const}


class Lifted(NamedTuple):
    """A constraint compiled against integer variable slots.

    ``kernel(lo, hi, args, value)`` narrows the constraint in place on the
    bound lists and returns -1 (infeasible) or a change mask whose bit b
    says that slot ``args[b]`` shrank; ``args`` are distinct (see ``lift``),
    and ``value`` is the tuple of points a ``_const`` kernel allows.
    ``shrunk[mask]`` lists the slots that mask names.
    """

    kernel: Callable[[list[float], list[float], tuple[int, ...], tuple[float, ...] | None], int]
    args: tuple[int, ...]
    value: tuple[float, ...] | None
    shrunk: tuple[tuple[int, ...], ...]


def lift(con: Constraint, slot: Mapping[str, int]) -> Lifted:
    """Compile `con` against the slot numbering `slot` (variable -> index).

    A constraint that repeats a variable compiles to the kernel of the
    relation it denotes over its distinct variables.
    """
    args = tuple(map(slot.__getitem__, con.args))
    kernel = _KERNELS[con.kind]
    # Interval(c, c) is how the constant enters the relation: a float with
    # -0.0 normalized
    value = None if con.value is None else (float(con.value) + 0.0,)
    if len(con.variables) < len(args):
        x, y, z = args + args[:1] if con.kind == "sq" else args
        if x == y == z:
            # x^2 = x and x * x = x hold at 0 and 1, x + x = x only at 0
            kernel, args, value = _const, (x,), (0.0,) if con.kind == "sum" else (0.0, 1.0)
        elif x == y:
            # x + x = z is z = 2x, and x * x = z is x^2 = z
            kernel, args = (_twice if con.kind == "sum" else _sq), (x, z)
        elif con.kind == "sum":
            # x + y = x is y = 0, and x + y = y is x = 0
            kernel, args, value = _const, (y if z == x else x,), (0.0,)
        else:
            # x * y = x is x = 0 or y = 1, and x * y = y is y = 0 or x = 1
            kernel, args = _either, ((x, y) if z == x else (y, x))
    # bit b of a mask stands for args[b]
    shrunk = [()]
    for v in args:
        shrunk += [t + (v,) for t in shrunk]
    return Lifted(kernel, args, value, tuple(shrunk))


def _contract(kernel, ivs: tuple[Interval, ...], value=None) -> tuple[Interval, ...]:
    # any empty argument empties every argument
    for iv in ivs:
        if iv.lo > iv.hi:
            return (EMPTY,) * len(ivs)
    lo = [iv.lo for iv in ivs]
    hi = [iv.hi for iv in ivs]
    m = kernel(lo, hi, tuple(range(len(ivs))), value)
    if m < 0:
        return (EMPTY,) * len(ivs)
    # an argument that did not shrink is returned as the same object
    return tuple(_raw(lo[p], hi[p]) if m >> p & 1 else iv for p, iv in enumerate(ivs))


def contract_sum(x: Interval, y: Interval, z: Interval) -> tuple[Interval, Interval, Interval]:
    """Narrow (x, y, z) around { (a, b, c) in x*y*z : a + b = c }."""
    return _contract(_sum, (x, y, z))


def contract_sq(x: Interval, y: Interval) -> tuple[Interval, Interval]:
    """Narrow (x, y) around { (a, b) in x*y : a^2 = b }."""
    return _contract(_sq, (x, y))


def contract_mul(x: Interval, y: Interval, z: Interval) -> tuple[Interval, Interval, Interval]:
    """Narrow (x, y, z) around { (a, b, c) in x*y*z : a * b = c }."""
    return _contract(_mul, (x, y, z))


def contract_const(c: float, x: Interval) -> Interval:
    return _contract(_const, (x,), (Interval(c, c).lo,))[0]


def extdiv_bounds(nl: float, nh: float, dl: float, dh: float) -> tuple[float, float]:
    """Bounds of extdiv over nonempty operands; (inf, -inf) when empty."""
    if dl == 0.0 == dh:
        return (-_INF, _INF) if nl <= 0.0 <= nh else (_INF, -_INF)
    if dl < 0.0 < dh:
        return -_INF, _INF
    if dh <= 0.0:
        # n / d = -n / -d, and negation is exact
        nl, nh, dl, dh = -nh, -nl, -dh, -dl
    if dl == 0.0:
        if nl <= 0.0 <= nh:
            return -_INF, _INF
        if nl > 0.0:
            return div_down(nl, dh) + 0.0, _INF
        return -_INF, div_up(nh, dh) + 0.0
    lo = div_down(nl, dh) if nl >= 0.0 else div_down(nl, dl)
    hi = div_up(nh, dl) if nh >= 0.0 else div_up(nh, dh)
    return lo + 0.0, hi + 0.0


def extdiv(n: Interval, d: Interval) -> Interval:
    """Interval hull of { a / b : a in n, b in d, b != 0 }.

    When the divisor strictly straddles zero the exact preimage is a union
    of two rays whose hull is the whole line; this returns that hull.  A
    divisor touching zero on one side yields a single ray.
    """
    if n.lo > n.hi or d.lo > d.hi:
        return EMPTY
    lo, hi = extdiv_bounds(n.lo, n.hi, d.lo, d.hi)
    return EMPTY if lo > hi else _raw(lo, hi)


def apply_lifted(con: Constraint, box: Box) -> Box:
    """Contract `box` through `con`, leaving variables outside `con` untouched.

    The result has the same scope as the input and is the empty box over
    that scope whenever the constraint is infeasible inside the input.  A
    constraint that repeats a variable is contracted as the relation it
    denotes (see ``lift``), so e.g. sq(x, x) narrows x to the hull of the
    points of {0, 1} inside the box.
    """
    try:
        lifted = lift(con, box._slot)
    except KeyError as missing:
        raise ValueError(f"constraint variable {missing.args[0]!r} outside box scope") from None
    if box.is_empty:
        return box
    lo, hi = box._lo[:], box._hi[:]
    m = lifted.kernel(lo, hi, lifted.args, lifted.value)
    if m == 0:
        return box
    if m < 0:
        return box._emptied()
    return Box._adopt(box._slot, lo, hi)


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
