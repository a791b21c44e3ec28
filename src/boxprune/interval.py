"""Closed intervals over the extended reals with outward-rounded arithmetic.

Every arithmetic operation returns an interval that encloses the exact
real image of its operands.  Each bound is the nearest float on its side
of the exact value: the round-to-nearest result when the exact value lies
on its inward side, and its neighbour one ulp outward otherwise.  The
sign of the rounding error comes from error-free transforms (TwoSum,
Dekker's two-product, with operands scaled by powers of two into the
exponent window where it is exact) or, where TwoSum overflows next to the
largest float, from integer-ratio comparisons.  Exactly representable results
therefore keep their bit pattern, and since correct rounding is monotone,
so is every operation.

Rounding to nearest commutes with negation, so each directed rule is
written once and its mirror is derived by exact negation: the upward
helpers, extended division by a nonpositive divisor, and the midpoint of
a lower-unbounded range.  The one exception is an exact zero sum, which
IEEE makes +0.0 in both directions, so ``add_up`` takes its sign from x + y.

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
_next = math.nextafter
_frexp = math.frexp
_ldexp = math.ldexp

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
        """hi - lo; +inf if a bound is infinite or hi - lo overflows, 0 for the empty set."""
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    def midpoint(self) -> float:
        """A finite number strictly inside, whenever more than one float fits.

        Half-infinite intervals yield a large finite magnitude (half the
        float range, pushed further out if the finite bound is itself huge).
        Calling this on the empty interval is a contract violation.
        """
        if self.is_empty:
            raise ValueError("midpoint of the empty interval")
        return _midpoint(self.lo, self.hi)

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
        """Largest interval inside both operands."""
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if slo > shi or olo > ohi:
            return EMPTY
        # operands are canonical, so max/min of their bounds is too
        lo = slo if slo >= olo else olo
        hi = shi if shi <= ohi else ohi
        return EMPTY if lo > hi else _raw(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        if self.lo > self.hi:
            return other
        if other.lo > other.hi:
            return self
        lo = self.lo if self.lo <= other.lo else other.lo
        hi = self.hi if self.hi >= other.hi else other.hi
        return _raw(lo, hi)

    def __str__(self) -> str:
        return _fmt(self.lo, self.hi)


def _fmt(lo: float, hi: float) -> str:
    """Interval.__str__ on bounds."""
    return "empty" if lo > hi else f"[{_fmt_bound(lo)},{_fmt_bound(hi)}]"


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
    """Fast constructor for bounds already known to be canonical.

    The *_bounds functions below return such bounds: an outward-rounded
    enclosure of a nonempty set of reals can never have inverted bounds, a
    NaN bound (the endpoint helpers resolve infinities before doing
    arithmetic), a -0.0 bound (they normalize it) or lo = hi = +-inf.
    """
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


def _midpoint(lo: float, hi: float) -> float:
    """Interval.midpoint on the bounds of a nonempty interval."""
    if lo == -_INF and hi == _INF:
        return 0.0
    if lo == -_INF:
        return -_midpoint(-hi, _INF)
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


EMPTY = _raw(_INF, -_INF)
FULL = Interval(-_INF, _INF)


# Bound-level directed rounding.
#
# Each helper computes one endpoint, correctly rounded: *_down yields the
# greatest float <= the exact result, *_up the least float >= it.  Rounding
# to nearest gives a float r within half an ulp of the exact value, so r is
# one of the two and its neighbour outward is the other; the sign of the
# exact error (exact - r) picks which.  Indeterminate infinity combinations
# resolve to the enclosing infinity for the direction being computed (-inf
# for a lower bound, +inf for an upper bound), and 0 * inf is 0, the
# convention interval multiplication needs.  Correct rounding is monotone,
# so every operation built on these helpers is monotone in its operands.


_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _sum_sign(x: float, y: float, r: float) -> int:
    """Sign of the exact x + y - r, for finite x, y and r = x + y rounded."""
    # TwoSum recovers that error exactly; its r - x overflows (and the
    # error reads NaN) only when |y| is within an ulp of the largest float
    t = r - x
    err = (x - (r - t)) + (y - t)
    if err == err:
        return (err > 0.0) - (err < 0.0)
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    nr, dr = r.as_integer_ratio()
    lhs = (nx * dy + ny * dx) * dr
    rhs = nr * dx * dy
    return (lhs > rhs) - (lhs < rhs)


def add_down(x: float, y: float) -> float:
    r = x + y
    if -_INF < r < _INF:
        # both operands finite
        return _next(r, -_INF) if _sum_sign(x, y, r) < 0 else r
    if x == -_INF or y == -_INF:
        return -_INF
    if x == _INF or y == _INF:
        return _INF
    return _MAX if r == _INF else -_INF


def add_up(x: float, y: float) -> float:
    # an exact zero sum is +0.0 in both directions, so a zero takes x + y's sign
    r = -add_down(-x, -y)
    return r if r != 0.0 else x + y


def sub_down(x: float, y: float) -> float:
    return add_down(x, -y)


def sub_up(x: float, y: float) -> float:
    return add_up(x, -y)


def _prod_sign(x: float, y: float, z: float) -> int:
    """Sign of the exact x*y - z, for finite x, y and z.

    Rounding to nearest is monotone, so a rounded product p that differs
    from z lies on the same side of z as the exact product.  When p == z the
    sign is that of the rounding error x*y - p.  Dekker's two-product holds
    that error exactly when nothing over- or underflows, which the window
    |x|, |y| < 1e150 and |p| > 1e-50 ensures: the splits stay below 1e159,
    the partial products below 1.1e300, and the lowest bit of each partial
    product is at least ulp(x) * ulp(y) >= |x*y| * 2**-106 > 1e-82.
    Outside the window the operands are scaled into it by powers of two:
    with x = mx * 2**ex and y = my * 2**ey, where 1/2 <= |mx|, |my| < 1,
    x*y - z is 2**(ex+ey) * (mx*my - z * 2**-(ex+ey)).  Since z rounds
    x*y, the scaled z is near mx*my, so scaling it is exact (it can only
    leave the subnormal range, or stay zero), and the scaled triple lies
    inside the window.
    """
    p = x * y
    if p != z:
        return 1 if p > z else -1
    if not (1e-100 < p * p and x * x + y * y < 1e300):
        if x == 0.0 or y == 0.0:
            # z == p is zero as well
            return 0
        x, ex = _frexp(x)
        y, ey = _frexp(y)
        z = _ldexp(z, -(ex + ey))
        p = x * y
        if p != z:
            return 1 if p > z else -1
    cx = _SPLIT * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLIT * y
    hy = cy - (cy - y)
    ly = y - hy
    err = ((hx * hy - p) + hx * ly + lx * hy) + lx * ly
    return (err > 0.0) - (err < 0.0)


def mul_down(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0
    r = x * y
    if -_INF < r < _INF:
        return _next(r, -_INF) if _prod_sign(x, y, r) < 0 else r
    if x == _INF or x == -_INF or y == _INF or y == -_INF:
        return r
    # finite operands whose product overflowed
    return _MAX if r == _INF else -_INF


def mul_up(x: float, y: float) -> float:
    if x == 0.0 or y == 0.0:
        return 0.0
    return -mul_down(-x, y)


def _sq_down(x: float) -> float:
    # mul_down(x, x).  A square inside Dekker's window implies an operand
    # inside it too, so the error term needs only one split.
    r = x * x
    if 1e-50 < r < 1e300:
        c = _SPLIT * x
        h = c - (c - x)
        lo = x - h
        return _next(r, -_INF) if ((h * h - r) + h * lo + lo * h) + lo * lo < 0.0 else r
    return mul_down(x, x)


def _sq_up(x: float) -> float:
    # mul_up(x, x), as _sq_down
    r = x * x
    if 1e-50 < r < 1e300:
        c = _SPLIT * x
        h = c - (c - x)
        lo = x - h
        return _next(r, _INF) if ((h * h - r) + h * lo + lo * h) + lo * lo > 0.0 else r
    return mul_up(x, x)


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
    # r - n/d has the sign of (r*d - n) * d.  A rounded r*d that differs
    # from n already tells the sign of r*d - n (see _prod_sign); one equal
    # to n leaves the rounding error's, which Dekker's two-product holds
    # exactly inside _prod_sign's window
    p = r * d
    if p != n:
        s = 1.0 if p > n else -1.0
    elif 1e-100 < p * p and r * r + d * d < 1e300:
        c = _SPLIT * r
        hr = c - (c - r)
        lr = r - hr
        c = _SPLIT * d
        hd = c - (c - d)
        ld = d - hd
        s = ((hr * hd - p) + hr * ld + lr * hd) + lr * ld
    else:
        s = _prod_sign(r, d, n)
    return _next(r, -_INF) if (s > 0.0 if d > 0.0 else s < 0.0) else r


def div_up(n: float, d: float) -> float:
    if n == 0.0 or math.isinf(d):
        return 0.0
    return -div_down(-n, d)


def sqrt_down(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x == _INF:
        return _INF
    r = math.sqrt(x)
    return _next(r, -_INF) if _prod_sign(r, r, x) > 0 else r


def sqrt_up(x: float) -> float:
    if x == 0.0:
        return 0.0
    if x == _INF:
        return _INF
    r = math.sqrt(x)
    return _next(r, _INF) if _prod_sign(r, r, x) < 0 else r


# Interval arithmetic on bounds.
#
# Each *_bounds function takes the bounds of nonempty operands and returns
# the (lo, hi) bounds of the outward-rounded result; the Interval
# operations below wrap them, and the contractors' float-level kernels call
# them directly.  An empty result is (inf, -inf), the bounds of EMPTY.
# Adding 0.0 turns a -0.0 bound into +0.0 and leaves every other float
# as it is (nextafter toward +inf lands on -0.0 from the smallest negative
# float), so equal bounds are also equal bit for bit.


def add_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    # add_down(al, bl), add_up(ah, bh), with TwoSum inline for finite sums;
    # a NaN error term (see _sum_sign) goes the long way
    lo = al + bl
    if -_INF < lo < _INF:
        t = lo - al
        err = (al - (lo - t)) + (bl - t)
        if err < 0.0:
            lo = _next(lo, -_INF)
        elif err != err:
            lo = add_down(al, bl)
    else:
        lo = add_down(al, bl)
    hi = ah + bh
    if -_INF < hi < _INF:
        t = hi - ah
        err = (ah - (hi - t)) + (bh - t)
        if err > 0.0:
            hi = _next(hi, _INF)
        elif err != err:
            hi = add_up(ah, bh)
    else:
        hi = add_up(ah, bh)
    return lo + 0.0, hi + 0.0


def sub_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    # sub_down(al, bh), sub_up(ah, bl), as add_bounds: TwoSum of a and -b,
    # whose last term -b - t is -(b + t) exactly
    lo = al - bh
    if -_INF < lo < _INF:
        t = lo - al
        err = (al - (lo - t)) - (bh + t)
        if err < 0.0:
            lo = _next(lo, -_INF)
        elif err != err:
            lo = add_down(al, -bh)
    else:
        lo = add_down(al, -bh)
    hi = ah - bl
    if -_INF < hi < _INF:
        t = hi - ah
        err = (ah - (hi - t)) - (bl + t)
        if err > 0.0:
            hi = _next(hi, _INF)
        elif err != err:
            hi = add_up(ah, -bl)
    else:
        hi = add_up(ah, -bl)
    return lo + 0.0, hi + 0.0


def mul_bounds(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    # The operand signs say which corner products are extreme (the nine-case
    # table), so each bound rounds one product x * y down and one u * v up;
    # only two intervals that both straddle zero compare two candidates per
    # bound.  A zero-width [0, 0] operand takes the nonnegative row.
    if al >= 0.0:
        if bl >= 0.0:
            x, y, u, v = al, bl, ah, bh
        elif bh <= 0.0:
            x, y, u, v = ah, bl, al, bh
        else:
            x, y, u, v = ah, bl, ah, bh
    elif ah <= 0.0:
        if bl >= 0.0:
            x, y, u, v = al, bh, ah, bl
        elif bh <= 0.0:
            x, y, u, v = ah, bh, al, bl
        else:
            x, y, u, v = al, bh, al, bl
    elif bl >= 0.0:
        x, y, u, v = al, bh, ah, bh
    elif bh <= 0.0:
        x, y, u, v = ah, bl, al, bl
    else:
        lo = mul_down(al, bh)
        t = mul_down(ah, bl)
        if t < lo:
            lo = t
        hi = mul_up(al, bl)
        t = mul_up(ah, bh)
        if t > hi:
            hi = t
        return lo + 0.0, hi + 0.0
    # mul_down(x, y) and mul_up(u, v), with Dekker's two-product inline
    # inside _prod_sign's window, where its error term is exact
    lo = x * y
    if 1e-100 < lo * lo and x * x + y * y < 1e300:
        c = _SPLIT * x
        hx = c - (c - x)
        lx = x - hx
        c = _SPLIT * y
        hy = c - (c - y)
        ly = y - hy
        if ((hx * hy - lo) + hx * ly + lx * hy) + lx * ly < 0.0:
            lo = _next(lo, -_INF)
    else:
        lo = mul_down(x, y)
    hi = u * v
    if 1e-100 < hi * hi and u * u + v * v < 1e300:
        c = _SPLIT * u
        hu = c - (c - u)
        lu = u - hu
        c = _SPLIT * v
        hv = c - (c - v)
        lv = v - hv
        if ((hu * hv - hi) + hu * lv + lu * hv) + lu * lv > 0.0:
            hi = _next(hi, _INF)
    else:
        hi = mul_up(u, v)
    return lo + 0.0, hi + 0.0


def square_bounds(lo: float, hi: float) -> tuple[float, float]:
    if lo >= 0.0:
        return _sq_down(lo) + 0.0, _sq_up(hi) + 0.0
    if hi <= 0.0:
        return _sq_down(hi) + 0.0, _sq_up(lo) + 0.0
    return 0.0, _sq_up(hi if hi > -lo else -lo) + 0.0


def sqrt_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Bounds of { sqrt(x) : x in [lo, hi], x >= 0 }; empty if hi < 0."""
    if hi < 0.0:
        return _INF, -_INF
    return sqrt_down(lo if lo > 0.0 else 0.0) + 0.0, sqrt_up(hi) + 0.0


# Interval arithmetic.


def add(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    return _raw(*add_bounds(a.lo, a.hi, b.lo, b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    return _raw(*sub_bounds(a.lo, a.hi, b.lo, b.hi))


def mul(a: Interval, b: Interval) -> Interval:
    if a.lo > a.hi or b.lo > b.hi:
        return EMPTY
    return _raw(*mul_bounds(a.lo, a.hi, b.lo, b.hi))


def square(a: Interval) -> Interval:
    if a.lo > a.hi:
        return EMPTY
    return _raw(*square_bounds(a.lo, a.hi))


def sqrt_outer(a: Interval) -> Interval:
    """Enclosure of { sqrt(x) : x in a, x >= 0 }; empty if a is negative."""
    if a.lo > a.hi or a.hi < 0.0:
        return EMPTY
    return _raw(*sqrt_bounds(a.lo, a.hi))
