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
    _sq_down,
    _sq_up,
    add,
    add_bounds,
    add_down,
    add_up,
    div_down,
    div_up,
    mul,
    mul_bounds,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_outer,
    sqrt_up,
    square,
    sub,
    sub_bounds,
    sub_down,
    sub_up,
)

from helpers import div_down_reference, div_up_reference, mul_bounds_reference

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
    assert Interval(-INF, 1.0).width == INF
    assert Interval(-MAX, MAX).width == INF


def test_midpoint_basics():
    assert Interval(0.0, 1.0).midpoint() == 0.5
    assert FULL.midpoint() == 0.0
    assert Interval.point(3.0).midpoint() == 3.0
    with pytest.raises(ValueError):
        EMPTY.midpoint()


def test_midpoint_half_infinite_is_finite_and_inside():
    for iv, expected in (
        (Interval(-INF, 0.0), -0.5 * MAX),
        (Interval(0.0, INF), 0.5 * MAX),
        (Interval(-INF, -0.75 * MAX), -MAX),
        (Interval(0.75 * MAX, INF), MAX),
        (Interval(-INF, 5.0), -0.5 * MAX),
    ):
        mid = iv.midpoint()
        assert math.isfinite(mid)
        assert iv.lo < mid < iv.hi
        assert mid == expected
        if iv.lo == -INF:
            assert mid == -Interval(-iv.hi, INF).midpoint()


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


# Directed bound arithmetic: every bound is the nearest float on its side of
# the exact result, so exact results keep their bits, inexact ones lie one
# ulp apart, and overflow saturates to the largest finite float on the
# inward side.


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
    assert hi == math.nextafter(lo, INF)

    third = Fraction(1, 3)
    assert Fraction(div_down(1.0, 3.0)) < third < Fraction(div_up(1.0, 3.0))
    assert div_up(1.0, 3.0) == math.nextafter(div_down(1.0, 3.0), INF)

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


def test_twosum_falls_back_to_the_helpers_when_its_error_term_is_nan():
    # x - MAX is finite, but TwoSum's error term overflows on the way to a
    # NaN, so each bound of add_bounds and sub_bounds goes the long way.  The
    # nearest sum rounds away from zero there, so it is one of the two
    # bounds: both signs are needed to tell every fallback from none
    for x, m in ((4.580425364127553e306, MAX), (-4.580425364127553e306, -MAX)):
        lo, hi = add_down(x, -m), add_up(x, -m)
        assert lo < hi
        assert add_bounds(x, x, -m, -m) == (lo, hi)
        assert sub_bounds(x, x, m, m) == (sub_down(x, m), sub_up(x, m)) == (lo, hi)


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


def test_upward_helpers_keep_the_sign_of_zero_results():
    # each upward helper is its downward partner under negation; a bare
    # negation, or one ending in + 0.0, gets one of these zeros wrong.  An
    # exact zero sum is +0.0 in both directions, and a zero factor or
    # dividend or an infinite divisor gives +0.0 by convention
    assert add_up(0.0, -0.0).hex() == "0x0.0p+0"
    assert add_up(1.5, -1.5).hex() == "0x0.0p+0"
    assert add_up(-0.0, -0.0).hex() == "-0x0.0p+0"
    assert add_up(INF, -INF) == INF
    assert mul_up(-0.0, 5.0).hex() == "0x0.0p+0"
    assert mul_up(5e-324, -0.5).hex() == "-0x0.0p+0"
    assert div_up(0.0, -3.0).hex() == "0x0.0p+0"
    assert div_up(-3.0, -INF).hex() == "0x0.0p+0"
    # a negative quotient that underflows rounds up to -0.0, not +0.0
    assert div_up(5e-324, -1e150).hex() == "-0x0.0p+0"



def _exactness_operand(rng: random.Random) -> float:
    """A finite float from the edges of Dekker's exponent window, the
    subnormals, or the ordinary range, with short or full mantissas."""
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


def _signed(rng: random.Random, mag: float) -> float:
    return mag if rng.random() < 0.5 else -mag


def _is_rounded_down(got: float, exact: Fraction) -> bool:
    """got is the greatest float <= exact (-inf below the float range)."""
    if got == -INF:
        return exact < -Fraction(MAX)
    above = math.nextafter(got, INF)
    return Fraction(got) <= exact and (above == INF or exact < Fraction(above))


def _is_rounded_up(got: float, exact: Fraction) -> bool:
    """got is the least float >= exact (+inf above the float range)."""
    return _is_rounded_down(-got, -exact)


def test_bounds_are_correctly_rounded():
    # every *_down/*_up helper against exact rational arithmetic, over
    # zeros, subnormals, the edges of Dekker's window, float max, overflow
    # and short mantissas (which make many results exact)
    rng = random.Random(20260418)
    exact_seen = inexact_seen = checked = 0
    while checked < 20000:
        x = _exactness_operand(rng)
        y = _exactness_operand(rng)
        if rng.random() < 0.25:
            # a short-mantissa multiple of y makes x / y exact more often
            x = float(rng.randint(-2**20, 2**20)) * 2.0 ** rng.randint(-60, 60) * y
            if math.isinf(x):
                continue
        checked += 1
        fx, fy = Fraction(x), Fraction(y)
        rows = [("add", add_down(x, y), add_up(x, y), fx + fy),
                ("sub", sub_down(x, y), sub_up(x, y), fx - fy),
                ("mul", mul_down(x, y), mul_up(x, y), fx * fy),
                ("sq", _sq_down(x), _sq_up(x), fx * fx)]
        if y != 0.0:
            rows.append(("div", div_down(x, y), div_up(x, y), fx / fy))
        # a product and a quotient whose operands leave Dekker's window and
        # are scaled back into it: one operand near 2**1000 or 2**-1000
        # against an ordinary one, or two small ones with a subnormal product
        eu, ew = rng.choice(((1000, 0), (-1000, 0), (-1000, -50), (0, 1000)))
        u = _signed(rng, math.ldexp(rng.random() + 0.5, eu + rng.randint(-10, 10)))
        w = _signed(rng, math.ldexp(rng.random() + 0.5, ew + rng.randint(-30, 10)))
        fu, fw = Fraction(u), Fraction(w)
        rows.append(("mul", mul_down(u, w), mul_up(u, w), fu * fw))
        rows.append(("div", div_down(u, w), div_up(u, w), fu / fw))
        for name, lo, hi, exact in rows:
            assert _is_rounded_down(lo, exact), (name, "down", x.hex(), y.hex())
            assert _is_rounded_up(hi, exact), (name, "up", x.hex(), y.hex())
            if lo == hi:
                exact_seen += 1
            else:
                inexact_seen += 1
        # sqrt_down(a) is the greatest float whose square is <= a, and
        # sqrt_up(a) the least one whose square is >= a
        a = abs(fx)
        lo, hi = sqrt_down(abs(x)), sqrt_up(abs(x))
        assert Fraction(lo) ** 2 <= a < Fraction(math.nextafter(lo, INF)) ** 2, ("sqrt", x.hex())
        below = Fraction(math.nextafter(hi, -INF))
        assert a <= Fraction(hi) ** 2 and (hi == 0.0 or below**2 < a), ("sqrt", x.hex())
    assert exact_seen > 10000 and inexact_seen > 10000


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
    # the float 0.3 lies below 3/10; hi is the least float >= its square
    exact = Fraction(0.3) ** 2
    assert Fraction(math.nextafter(got.hi, -INF)) < exact <= Fraction(got.hi)


def test_subtraction_is_monotone_at_ulp_scale():
    # a < b one ulp apart: [3, 3] - [a, b] must enclose [3, 3] - [b, b].
    # Stepping every inexact result one ulp outward breaks this: 3 - a is
    # exact, while 3 - b rounds to nearest up onto the same float and is
    # then stepped up once more, past 3 - a.
    a = float.fromhex("-0x1.d02b0f8aebfa0p-1")
    b = float.fromhex("-0x1.d02b0f8aebf9fp-1")
    three = Interval(3.0, 3.0)
    assert sub(three, Interval(b, b)).is_subset(sub(three, Interval(a, b)))


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
    the operands, by 1.0 or by one ulp, can only widen the result."""
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

        # widened by 1.0, and one operand by one ulp, where rounding alone
        # decides the outcome
        ux = Interval(math.nextafter(x0, -INF), math.nextafter(x1, INF))
        uy = Interval(math.nextafter(y0, -INF), math.nextafter(y1, INF))
        for wx, wy in ((Interval(x0 - 1.0, x1 + 1.0), Interval(y0 - 1.0, y1 + 1.0)), (ux, iy), (ix, uy)):
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


# Operands for the kernel identity test: magnitudes about 1, at the edges
# of the two-product's window (|x|, |y| near 1e150 = 2**498.3, and |x*y|
# near 1e-50 = 2**-166.1 from two factors near 2**-83, or one near 1 or
# 1e150), subnormals, the largest floats, signed zeros and infinities.
_EDGE_EXPONENTS = st.sampled_from(
    [-1074, -1050, -1022, -670, -665, -170, -166, -163, -86, -83, -80, 0, 1, 495, 498, 499, 502, 1020, 1024]
)
_EDGE_FLOATS = st.one_of(
    st.builds(
        lambda m, e, k: math.ldexp(m, min(e + k, 1024)),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
        _EDGE_EXPONENTS,
        st.integers(-2, 2),
    ),
    st.builds(
        lambda x, k: x * (1 + k * 2.0**-52),
        st.sampled_from([1e150, -1e150, 1e-50, -1e-50, 1e-25, -1e-25]),
        st.integers(-3, 3),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, MAX, -MAX, INF, -INF]),
)


@st.composite
def _edge_bounds(draw, partner=None):
    """A nonempty interval's bounds; with ``partner``, each bound is by
    turns 1e-50 over one of the partner's bounds, nudged by a few ulps."""
    a, b = draw(_EDGE_FLOATS), draw(_EDGE_FLOATS)
    ends = [x for x in partner or () if x != 0.0]
    if ends and draw(st.booleans()):
        t = draw(st.sampled_from([1e-50, -1e-50]))
        a, b = (t / draw(st.sampled_from(ends)) * (1 + draw(st.integers(-4, 4)) * 2.0**-52) for _ in "ab")
    shape = draw(st.sampled_from(["any", "straddle", "point"]))
    if shape == "straddle":
        a, b = -abs(a), abs(b)
    elif shape == "point":
        b = a
    lo, hi = min(a, b), max(a, b)
    return (MAX if lo == INF else lo), (-MAX if hi == -INF else hi)


@st.composite
def _factor_pairs(draw):
    a = draw(_edge_bounds())
    return a, draw(_edge_bounds(partner=a))


def _hex(*xs):
    return tuple(x.hex() for x in xs)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_factor_pairs())
def test_kernels_match_the_composed_reference_bit_for_bit(pair):
    # mul_bounds with the two-product inline, and div_down/div_up with
    # the sign read first from r*d and then from the two-product inline,
    # against the composition of mul_down, mul_up and _prod_sign that they
    # replace
    (al, ah), (bl, bh) = pair
    assert _hex(*mul_bounds(al, ah, bl, bh)) == _hex(*mul_bounds_reference(al, ah, bl, bh))
    assert _hex(*mul_bounds(bl, bh, al, ah)) == _hex(*mul_bounds_reference(bl, bh, al, ah))
    for n in (al, ah):
        for d in (bl, bh):
            if d != 0.0:
                assert _hex(div_down(n, d), div_up(n, d)) == _hex(div_down_reference(n, d), div_up_reference(n, d))


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
