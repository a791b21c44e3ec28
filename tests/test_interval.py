"""Interval construction, set operations, and outward-rounded arithmetic."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprune import EMPTY, FULL, Interval
from boxprune.interval import (
    _div_is_exact,
    add,
    add_down,
    add_up,
    div_down,
    div_up,
    mul,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_outer,
    sqrt_up,
    square,
    sub,
    sub_down,
    sub_up,
)

INF = math.inf
MAX = sys.float_info.max


# Construction and invariants.


def test_nan_bounds_rejected():
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.nan)


def test_inverted_bounds_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 0.5)
    with pytest.raises(ValueError):
        Interval(INF, -INF)


def test_open_infinity_cannot_be_attained():
    # a bound of +inf is only legal as an upper (open) endpoint
    with pytest.raises(ValueError):
        Interval(INF, INF)
    with pytest.raises(ValueError):
        Interval(-INF, -INF)
    assert not Interval(0.0, INF).is_empty
    assert not Interval(-INF, 0.0).is_empty


def test_negative_zero_normalized():
    iv = Interval(-0.0, 0.0)
    assert math.copysign(1.0, iv.lo) == 1.0
    assert Interval(-0.0, -0.0) == Interval(0.0, 0.0)


def test_integer_bounds_coerced_to_float():
    iv = Interval(0, 1)
    assert isinstance(iv.lo, float) and isinstance(iv.hi, float)


def test_empty_is_canonical():
    assert EMPTY.is_empty
    assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)) == EMPTY
    assert not FULL.is_empty


def test_point_constructor():
    assert Interval.point(2.5) == Interval(2.5, 2.5)


# width / midpoint / contains.


def test_width():
    assert Interval(1.0, 4.0).width == 3.0
    assert EMPTY.width == 0.0
    assert FULL.width == INF
    assert Interval(1.0, INF).width == INF


def test_midpoint_basics():
    assert Interval(0.0, 1.0).midpoint() == 0.5
    assert FULL.midpoint() == 0.0
    assert Interval.point(3.0).midpoint() == 3.0
    with pytest.raises(ValueError):
        EMPTY.midpoint()


def test_midpoint_half_infinite_is_finite_and_inside():
    for iv in (
        Interval(-INF, 0.0),
        Interval(0.0, INF),
        Interval(-INF, -0.75 * MAX),
        Interval(0.75 * MAX, INF),
        Interval(-INF, 5.0),
    ):
        mid = iv.midpoint()
        assert math.isfinite(mid)
        assert iv.lo < mid < iv.hi


def test_midpoint_huge_finite_does_not_overflow():
    iv = Interval(0.9 * MAX, MAX)
    mid = iv.midpoint()
    assert math.isfinite(mid)
    assert iv.lo <= mid <= iv.hi
    assert Interval(-MAX, MAX).midpoint() == 0.0


def test_contains_excludes_infinities():
    assert not Interval(0.0, INF).contains(INF)
    assert not FULL.contains(-INF)
    assert not FULL.contains(math.nan)
    assert Interval(0.0, 1.0).contains(0.5)
    assert Interval(0.0, 1.0).contains(0.0)
    assert not EMPTY.contains(0.0)


# Set operations.


def test_intersect_examples():
    assert Interval(0.0, 2.0).intersect(Interval(1.0, 5.0)) == Interval(1.0, 2.0)
    assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)) == EMPTY
    assert FULL.intersect(Interval(-3.0, 7.0)) == Interval(-3.0, 7.0)


def test_intersect_laws():
    rng = random.Random(7)
    samples = [EMPTY, FULL] + [
        Interval(min(a, b), max(a, b))
        for a, b in ((rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(20))
    ]
    for a in samples:
        assert a.intersect(a) == a
        for b in samples:
            assert a.intersect(b) == b.intersect(a)
            for c in samples:
                assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


def test_hull_examples():
    assert Interval(0.0, 1.0).hull(Interval(3.0, 4.0)) == Interval(0.0, 4.0)
    assert EMPTY.hull(Interval(2.0, 3.0)) == Interval(2.0, 3.0)
    assert Interval(-1.0, 0.0).hull(Interval(0.0, 5.0)) == Interval(-1.0, 5.0)


def test_hull_is_least_upper_bound():
    a, b = Interval(0.0, 1.0), Interval(3.0, 4.0)
    h = a.hull(b)
    assert a.is_subset(h) and b.is_subset(h)
    assert h == Interval(a.lo, b.hi)


def test_is_subset():
    assert EMPTY.is_subset(EMPTY)
    assert EMPTY.is_subset(Interval(0.0, 1.0))
    assert not Interval(0.0, 1.0).is_subset(EMPTY)
    assert Interval(1.0, 2.0).is_subset(Interval(0.0, 3.0))
    assert not Interval(0.0, 3.0).is_subset(Interval(1.0, 2.0))
    assert FULL.is_subset(FULL)


def test_str_rendering():
    assert str(Interval(0.5, 1.0)) == "[0.5,1.0]"
    assert str(EMPTY) == "empty"
    assert str(FULL) == "[-inf,inf]"
    assert str(Interval(0.0, INF)) == "[0.0,inf]"


# Directed bound arithmetic: exact results keep their bits, inexact ones
# are widened strictly outward, overflow saturates to the largest finite
# float on the inward side.


def test_exact_results_not_widened():
    assert add_down(0.5, 0.25) == 0.75
    assert add_up(0.5, 0.25) == 0.75
    assert sub_down(3.0, 2.0) == 1.0
    assert mul_down(1.5, 2.0) == 3.0
    assert mul_up(1.5, 2.0) == 3.0
    assert div_down(1.0, 4.0) == 0.25
    assert div_up(1.0, 4.0) == 0.25
    assert sqrt_down(4.0) == 2.0
    assert sqrt_up(0.25) == 0.5


def test_inexact_results_strictly_bracket():
    tenth_sum = Fraction(1, 10) + Fraction(1, 5)
    lo, hi = add_down(0.1, 0.2), add_up(0.1, 0.2)
    assert Fraction(lo) < tenth_sum < Fraction(hi)
    assert hi == math.nextafter(lo, INF) or hi == math.nextafter(math.nextafter(lo, INF), INF)

    third = Fraction(1, 3)
    assert Fraction(div_down(1.0, 3.0)) < third < Fraction(div_up(1.0, 3.0))

    two = Fraction(2)
    assert Fraction(sqrt_down(2.0)) ** 2 < two < Fraction(sqrt_up(2.0)) ** 2
    # and the bracket is tight: one ulp apart
    assert sqrt_up(2.0) == math.nextafter(sqrt_down(2.0), INF)


def test_overflow_saturates():
    assert add_down(MAX, MAX) == MAX
    assert add_up(MAX, MAX) == INF
    assert add_up(-MAX, -MAX) == -MAX
    assert add_down(-MAX, -MAX) == -INF
    assert mul_down(MAX, 2.0) == MAX
    assert mul_up(-MAX, 2.0) == -MAX


def test_infinity_conventions():
    # indeterminate combinations resolve to the enclosing infinity
    assert add_down(INF, -INF) == -INF
    assert add_up(INF, -INF) == INF
    assert sub_down(INF, INF) == -INF
    assert sub_up(INF, INF) == INF
    # zero times anything, infinity included, is zero at the bound level
    assert mul_down(0.0, INF) == 0.0
    assert mul_up(0.0, -INF) == 0.0
    assert mul_down(INF, INF) == INF
    assert mul_down(-INF, INF) == -INF
    # an infinite denominator pins the quotient bound at zero
    assert div_down(1.0, INF) == 0.0
    assert div_up(-3.0, -INF) == 0.0
    assert div_down(INF, 2.0) == INF
    assert div_down(INF, -2.0) == -INF
    assert sqrt_down(INF) == INF



def _exactness_operand(rng: random.Random) -> float:
    """A finite float from the edges of _div_is_exact's float-only window,
    the subnormals, or the ordinary range, with short or full mantissas."""
    kind = rng.randrange(5)
    if kind == 0:
        mag = rng.choice([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-290, 1e-250, 1e250, 1e300, MAX])
        mag *= rng.choice([0.5, 1.0, 1.0, 2.0, 3.0, 1.0 + 2.0**-52])
    elif kind == 1:
        mag = math.ldexp(rng.random(), rng.randint(-1074, 1024))
    elif kind == 2:
        mag = math.ldexp(rng.randint(1, 2**12), rng.randint(-1080, 1010))
    elif kind == 3:
        mag = math.ldexp(rng.random(), rng.randint(-900, -800) if rng.random() < 0.5 else rng.randint(800, 1000))
    else:
        mag = rng.uniform(0.0, 16.0)
    if math.isinf(mag):
        mag = MAX
    return mag if rng.random() < 0.5 else -mag


def test_division_exactness_matches_rational_arithmetic():
    # _div_is_exact decides r == n/d from floats inside Dekker's window and
    # from integer ratios outside it; the rational test is the reference
    rng = random.Random(20260418)
    outcomes = set()
    checked = 0
    while checked < 20000:
        n = _exactness_operand(rng)
        d = _exactness_operand(rng)
        if rng.random() < 0.25:
            # a product with a short mantissa makes n/d exact more often
            r = float(rng.randint(-2**20, 2**20)) * 2.0 ** rng.randint(-60, 60)
            n = r * d
        if d == 0.0 or not math.isfinite(n):
            continue
        r = n / d
        if not math.isfinite(r):
            continue
        want = Fraction(r) * Fraction(d) == Fraction(n)
        assert _div_is_exact(n, d, r) == want, (n.hex(), d.hex())
        outcomes.add(want)
        checked += 1
    assert outcomes == {True, False}


# Interval arithmetic.


def test_add_example():
    assert add(Interval(0.0, 2.0), Interval(0.0, 2.0)) == Interval(0.0, 4.0)


def test_mul_example():
    assert mul(Interval(1.0, 2.0), Interval(1.0, 2.0)) == Interval(1.0, 4.0)


def test_sub_example():
    assert sub(Interval(3.0, 5.0), Interval(0.0, 2.0)) == Interval(1.0, 5.0)


def test_square_examples():
    assert square(Interval(0.0, 0.5)) == Interval(0.0, 0.25)
    assert square(Interval(-2.0, 1.0)) == Interval(0.0, 4.0)
    assert square(Interval(0.5, 1.0)) == Interval(0.25, 1.0)
    assert square(Interval(-3.0, -2.0)) == Interval(4.0, 9.0)


def test_square_spanning_zero_has_exact_zero_floor():
    got = square(Interval(-0.1, 0.3))
    assert got.lo == 0.0
    assert Fraction(got.hi) >= Fraction(3, 10) ** 2


def test_sqrt_outer_examples():
    assert sqrt_outer(Interval(0.25, 1.0)) == Interval(0.5, 1.0)
    assert sqrt_outer(Interval(-3.0, -1.0)).is_empty
    assert sqrt_outer(Interval(-1.0, 4.0)) == Interval(0.0, 2.0)
    got = sqrt_outer(Interval(0.0625, 0.75))
    assert got.lo == 0.25
    assert got.hi == sqrt_up(0.75)
    assert abs(got.hi - 0.8660254037844386) <= 1e-15


def test_empty_operands_propagate():
    x = Interval(0.0, 1.0)
    assert add(EMPTY, x).is_empty
    assert sub(x, EMPTY).is_empty
    assert mul(EMPTY, EMPTY).is_empty
    assert square(EMPTY).is_empty
    assert sqrt_outer(EMPTY).is_empty


def test_full_operands():
    assert add(FULL, Interval(1.0, 2.0)) == FULL
    assert mul(FULL, Interval(0.0, 0.0)) == Interval(0.0, 0.0)
    assert square(FULL) == Interval(0.0, INF)


def _enclosing(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


def test_randomized_soundness_and_monotonicity():
    """10^4 random operand pairs: real results stay inside, and widening
    the operands can only widen the result."""
    rng = random.Random(20260819)
    for _ in range(10_000):
        x0, x1 = sorted(rng.uniform(-50.0, 50.0) for _ in range(2))
        y0, y1 = sorted(rng.uniform(-50.0, 50.0) for _ in range(2))
        ix, iy = Interval(x0, x1), Interval(y0, y1)
        px = rng.uniform(x0, x1)
        py = rng.uniform(y0, y1)
        px = min(max(px, x0), x1)
        py = min(max(py, y0), y1)
        fx, fy = Fraction(px), Fraction(py)

        s = add(ix, iy)
        assert Fraction(s.lo) <= fx + fy <= Fraction(s.hi)
        d = sub(ix, iy)
        assert Fraction(d.lo) <= fx - fy <= Fraction(d.hi)
        p = mul(ix, iy)
        assert Fraction(p.lo) <= fx * fy <= Fraction(p.hi)
        q = square(ix)
        assert Fraction(q.lo) <= fx * fx <= Fraction(q.hi)

        wx = Interval(x0 - 1.0, x1 + 1.0)
        wy = Interval(y0 - 1.0, y1 + 1.0)
        assert s.is_subset(add(wx, wy))
        assert d.is_subset(sub(wx, wy))
        assert p.is_subset(mul(wx, wy))
        assert q.is_subset(square(wx))


_finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_finite, _finite, _finite, _finite)
def test_hypothesis_add_encloses_real_sum(a, b, c, d):
    ix, iy = _enclosing(a, b), _enclosing(c, d)
    for px in (ix.lo, ix.hi, ix.midpoint()):
        for py in (iy.lo, iy.hi, iy.midpoint()):
            got = add(ix, iy)
            assert Fraction(got.lo) <= Fraction(px) + Fraction(py) <= Fraction(got.hi)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_finite, _finite, _finite, _finite)
def test_hypothesis_mul_encloses_real_product(a, b, c, d):
    ix, iy = _enclosing(a, b), _enclosing(c, d)
    got = mul(ix, iy)
    for px in (ix.lo, ix.hi):
        for py in (iy.lo, iy.hi):
            assert Fraction(got.lo) <= Fraction(px) * Fraction(py) <= Fraction(got.hi)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_finite, _finite)
def test_hypothesis_square_encloses_real_square(a, b):
    ix = _enclosing(a, b)
    got = square(ix)
    for px in (ix.lo, ix.midpoint(), ix.hi):
        assert Fraction(got.lo) <= Fraction(px) ** 2 <= Fraction(got.hi)


def test_no_operation_produces_nan_or_inverted_bounds():
    specials = [EMPTY, FULL, Interval(0.0, 0.0), Interval(-INF, 3.0), Interval(2.0, INF), Interval(-1.5, 2.25)]
    for a in specials:
        for b in specials:
            for got in (add(a, b), sub(a, b), mul(a, b)):
                if not got.is_empty:
                    assert not math.isnan(got.lo) and not math.isnan(got.hi)
                    assert got.lo <= got.hi
        for got in (square(a), sqrt_outer(a)):
            if not got.is_empty:
                assert not math.isnan(got.lo) and not math.isnan(got.hi)
                assert got.lo <= got.hi
