"""Closed intervals over the extended reals with outward-rounded arithmetic.

Every arithmetic operation returns an interval that encloses the exact
real image of its operands.  Bounds are computed in round-to-nearest and
then stepped one ulp outward, but only when the float operation was
inexact; exactly representable results keep their bit pattern.  Inexactness
is detected with error-free transforms (TwoSum) or exact integer-ratio
comparisons, so the widening is true directed rounding, not a blanket slop.

Infinite bounds are open: ``contains([0, inf], inf)`` is false.  An interval
whose lower bound would exceed its upper bound is the empty set, represented
by the module constant ``EMPTY``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

_INF = math.inf
_MAX = sys.float_info.max

__all__ = [
    "Interval",
    "EMPTY",
    "FULL",
    "add",
    "sub",
    "mul",
    "square",
    "sqrt_outer",
]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [lo, hi], or the empty set (see ``EMPTY``).

    Invariants for non-empty intervals: ``lo <= hi``, no NaN bound,
    ``lo < +inf`` and ``hi > -inf``.  Negative zero bounds are normalized
    to +0.0 so equality coincides with bit equality.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo) + 0.0
        hi = float(self.hi) + 0.0
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bounds must not be NaN")
        if lo > hi:
            raise ValueError(f"inverted interval bounds: lo={lo!r} > hi={hi!r}")
        if lo == _INF or hi == -_INF:
            raise ValueError("a non-empty interval cannot attain an open infinity")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def width(self) -> float:
        """hi - lo; +inf if either bound is infinite, 0 for the empty set."""
        if self.is_empty:
            return 0.0
        if math.isinf(self.lo) or math.isinf(self.hi):
            return _INF
        return self.hi - self.lo

    def midpoint(self) -> float:
        """A finite number strictly inside, whenever more than one float fits.

        Half-infinite intervals yield a large finite magnitude (half the
        float range, pushed further out if the finite bound is itself huge).
        Calling this on the empty interval is a contract violation.
        """
        if self.is_empty:
            raise ValueError("midpoint of the empty interval")
        lo, hi = self.lo, self.hi
        if lo == -_INF and hi == _INF:
            return 0.0
        if lo == -_INF:
            cand = -0.5 * _MAX
            if cand >= hi:
                cand = max(hi * 2.0, -_MAX)
            return min(cand, hi)
        if hi == _INF:
            cand = 0.5 * _MAX
            if cand <= lo:
                cand = min(lo * 2.0, _MAX)
            return max(cand, lo)
        mid = 0.5 * (lo + hi)
        if math.isinf(mid):
            mid = 0.5 * lo + 0.5 * hi
        if mid < lo:
            mid = lo
        elif mid > hi:
            mid = hi
        return mid

    def contains(self, x: float) -> bool:
        """Membership for a real given as a float; infinities are never members."""
        return (not self.is_empty) and math.isfinite(x) and self.lo <= x <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def intersect(self, other: "Interval") -> "Interval":
        # hot path: operands are canonical, so max/min of their bounds is
        # too.  Returns self unchanged when the result equals self, which
        # lets callers detect stability by identity, and otherwise reuses
        # other when the result equals it.
        slo = self.lo
        shi = self.hi
        olo = other.lo
        ohi = other.hi
        if slo > shi or olo > ohi:
            return EMPTY
        lo = slo if slo >= olo else olo
        hi = shi if shi <= ohi else ohi
        if lo > hi:
            return EMPTY
        if lo == slo and hi == shi:
            return self
        if lo == olo and hi == ohi:
            return other
        return _raw(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        if self.lo > self.hi:
            return other
        if other.lo > other.hi:
            return self
        lo = self.lo if self.lo <= other.lo else other.lo
        hi = self.hi if self.hi >= other.hi else other.hi
        if lo == self.lo and hi == self.hi:
            return self
        return _raw(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        return f"[{_fmt_bound(self.lo)},{_fmt_bound(self.hi)}]"


def _fmt_bound(x: float) -> str:
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    return repr(x)


# slot descriptors store a bound without the frozen dataclass's __setattr__
_new = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _raw(lo: float, hi: float) -> Interval:
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


def _mk(lo: float, hi: float) -> Interval:
    """Fast constructor for directed-rounding results.

    An outward-rounded enclosure of a nonempty set of reals can never have
    inverted bounds, a NaN bound (the endpoint helpers resolve infinities
    before doing arithmetic), or lo = hi = +-inf, so only the -0.0
    normalization from the validating constructor is needed: nextafter
    toward +inf lands on -0.0 when applied to the smallest negative float.
    """
    if lo == 0.0:
        lo = 0.0
    if hi == 0.0:
        hi = 0.0
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


EMPTY = _raw(_INF, -_INF)
FULL = Interval(-_INF, _INF)


# Bound-level directed rounding.
#
# Each helper computes one endpoint: *_down yields a float <= the exact
# result, *_up a float >= it.  Indeterminate infinity combinations resolve
# to the enclosing infinity for the direction being computed (-inf for a
# lower bound, +inf for an upper bound), and 0 * inf is 0, the convention
# interval multiplication needs.


_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _mul_is_exact(x: float, y: float, r: float) -> bool:
    # r is the round-to-nearest product of x and y.  Inside a comfortable
    # exponent window Dekker's two-product recovers the rounding error
    # x * y - r exactly (nothing can over- or underflow there), so the
    # error is zero iff the product was exact.  Outside the window fall
    # back to exact rational arithmetic.
    if 1e-250 < abs(x) < 1e250 and 1e-250 < abs(y) < 1e250 and 1e-290 < abs(r) < 1e300:
        cx = _SPLIT * x
        hx = cx - (cx - x)
        lx = x - hx
        cy = _SPLIT * y
        hy = cy - (cy - y)
        ly = y - hy
        return ((hx * hy - r) + hx * ly + lx * hy) + lx * ly == 0.0
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    nr, dr = r.as_integer_ratio()
    return nx * ny * dr == nr * dx * dy


def add_down(x: float, y: float) -> float:
    r = x + y
    if -_INF < r < _INF:
        # both operands finite; the TwoSum error term is zero iff r equals
        # x + y exactly
        t = r - x
        return r if (x - (r - t)) + (y - t) == 0.0 else math.nextafter(r, -_INF)
    if x == -_INF or y == -_INF:
        return -_INF
    if x == _INF or y == _INF:
        return _INF
    return _MAX if r == _INF else -_INF


def add_up(x: float, y: float) -> float:
    r = x + y
    if -_INF < r < _INF:
        t = r - x
        return r if (x - (r - t)) + (y - t) == 0.0 else math.nextafter(r, _INF)
    if x == _INF or y == _INF:
        return _INF
    if x == -_INF or y == -_INF:
        return -_INF
    return -_MAX if r == -_INF else _INF


def sub_down(x: float, y: float) -> float:
    return add_down(x, -y)


def sub_up(x: float, y: float) -> float:
    return add_up(x, -y)


def mul_down(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return -_INF if (x < 0.0) != (y < 0.0) else _INF
    r = x * y
    if r == _INF:
        return _MAX
    if r == -_INF:
        return -_INF
    return r if _mul_is_exact(x, y, r) else math.nextafter(r, -_INF)


def mul_up(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0
    if math.isinf(x) or math.isinf(y):
        return -_INF if (x < 0.0) != (y < 0.0) else _INF
    r = x * y
    if r == -_INF:
        return -_MAX
    if r == _INF:
        return _INF
    return r if _mul_is_exact(x, y, r) else math.nextafter(r, _INF)


def _sq_down(x: float) -> float:
    # mul_down(x, x).  A square inside the exponent window implies an
    # operand inside it too, so Dekker's test applies with one split.
    r = x * x
    if 1e-290 < r < 1e300:
        c = _SPLIT * x
        h = c - (c - x)
        lo = x - h
        return r if ((h * h - r) + h * lo + lo * h) + lo * lo == 0.0 else math.nextafter(r, -_INF)
    return mul_down(x, x)


def _sq_up(x: float) -> float:
    # mul_up(x, x), as _sq_down
    r = x * x
    if 1e-290 < r < 1e300:
        c = _SPLIT * x
        h = c - (c - x)
        lo = x - h
        return r if ((h * h - r) + h * lo + lo * h) + lo * lo == 0.0 else math.nextafter(r, _INF)
    return mul_up(x, x)


def _div_is_exact(n: float, d: float, r: float) -> bool:
    # r == n/d exactly iff r*d == n in exact rational arithmetic
    nr, dr = r.as_integer_ratio()
    nd, dd = d.as_integer_ratio()
    nn, dn = n.as_integer_ratio()
    return nr * nd * dn == nn * dr * dd


def div_down(n: float, d: float) -> float:
    """Lower bound for n/d at a corner of extended division; requires d != 0.

    An infinite denominator yields 0, which is sound exactly at the corners
    the sign-split division table selects (the quotient limit approaches 0
    from the side on which 0 bounds it).
    """
    if n == 0.0 or math.isinf(d):
        return 0.0
    if math.isinf(n):
        return -_INF if (n < 0.0) != (d < 0.0) else _INF
    r = n / d
    if r == _INF:
        return _MAX
    if r == -_INF:
        return -_INF
    return r if _div_is_exact(n, d, r) else math.nextafter(r, -_INF)


def div_up(n: float, d: float) -> float:
    if n == 0.0 or math.isinf(d):
        return 0.0
    if math.isinf(n):
        return -_INF if (n < 0.0) != (d < 0.0) else _INF
    r = n / d
    if r == -_INF:
        return -_MAX
    if r == _INF:
        return _INF
    return r if _div_is_exact(n, d, r) else math.nextafter(r, _INF)


def _sqrt_cmp(r: float, x: float) -> int:
    # sign of r*r - x in exact arithmetic (finite nonneg operands).  When
    # the rounded product already differs from x the float comparison gives
    # the true sign, since rounding to nearest moves r*r by less than the
    # gap separating two floats.  In a tie x is the rounded product, so
    # Dekker's error term (see _mul_is_exact) has the sign of r*r - x.
    t = r * r
    if t > x:
        return 1
    if t < x:
        return -1
    if 1e-250 < r < 1e250 and 1e-290 < x < 1e300:
        c = _SPLIT * r
        h = c - (c - r)
        lo = r - h
        err = ((h * h - x) + h * lo + lo * h) + lo * lo
        return (err > 0.0) - (err < 0.0)
    nr, dr = r.as_integer_ratio()
    nx, dx = x.as_integer_ratio()
    lhs = nr * nr * dx
    rhs = nx * dr * dr
    return (lhs > rhs) - (lhs < rhs)


def sqrt_down(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x == _INF:
        return _INF
    r = math.sqrt(x)
    return r if _sqrt_cmp(r, x) <= 0 else math.nextafter(r, -_INF)


def sqrt_up(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x == _INF:
        return _INF
    r = math.sqrt(x)
    return r if _sqrt_cmp(r, x) >= 0 else math.nextafter(r, _INF)


# Interval arithmetic.


def add(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    return _mk(add_down(a.lo, b.lo), add_up(a.hi, b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    return _mk(add_down(a.lo, -b.hi), add_up(a.hi, -b.lo))


def mul(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    lo = min(mul_down(a.lo, b.lo), mul_down(a.lo, b.hi), mul_down(a.hi, b.lo), mul_down(a.hi, b.hi))
    hi = max(mul_up(a.lo, b.lo), mul_up(a.lo, b.hi), mul_up(a.hi, b.lo), mul_up(a.hi, b.hi))
    return _mk(lo, hi)


def square(a: Interval) -> Interval:
    lo = a.lo
    hi = a.hi
    if lo > hi:
        return EMPTY
    if lo >= 0.0:
        return _mk(_sq_down(lo), _sq_up(hi))
    if hi <= 0.0:
        return _mk(_sq_down(hi), _sq_up(lo))
    return _mk(0.0, _sq_up(hi if hi > -lo else -lo))


def sqrt_outer(a: Interval) -> Interval:
    """Enclosure of { sqrt(x) : x in a, x >= 0 }; empty if a is negative."""
    if a.lo > a.hi or a.hi < 0.0:
        return EMPTY
    lo = max(a.lo, 0.0)
    return _mk(sqrt_down(lo), sqrt_up(a.hi))
