"""Primitive contractors: optimality examples, laws, lifting, traces."""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxprune import (
    EMPTY,
    FULL,
    Box,
    Constraint,
    Interval,
    TraceRecord,
    apply_lifted,
    big_gamma,
    contract_const,
    contract_mul,
    contract_sq,
    contract_sum,
    extdiv,
)
from boxprune.contractors import _sum
from boxprune.interval import add_bounds, sqrt_up

from helpers import (
    REPEATED_PATTERNS,
    check_contractor_laws,
    check_repeated_laws,
    make_csp,
    quartic_csp_xyzu,
    right_half_box,
    sum_reference,
)

INF = math.inf
MAX = sys.float_info.max


def iv(lo, hi):
    return Interval(float(lo), float(hi))


# Constraint construction.


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint("nand", ("x", "y"), cid=0)
    with pytest.raises(ValueError):
        Constraint("sum", ("x", "y"), cid=0)  # wrong arity
    with pytest.raises(ValueError):
        Constraint("sq", ("x", "y", "z"), cid=0)
    with pytest.raises(ValueError):
        Constraint("const", ("x",), cid=0)  # missing value
    with pytest.raises(ValueError):
        Constraint("const", ("x",), cid=0, value=INF)
    with pytest.raises(ValueError):
        Constraint("sum", ("x", "y", "z"), cid=0, value=1.0)  # stray value


def test_constraint_variables_deduplicated():
    assert Constraint("sum", ("x", "y", "z"), cid=0).variables == ("x", "y", "z")
    assert Constraint("sum", ("y", "x", "y"), cid=1).variables == ("y", "x")
    assert Constraint("sq", ("x", "x"), cid=2).variables == ("x",)


# contract_sum.


def test_sum_worked_example_is_exact():
    assert contract_sum(iv(0, 2), iv(0, 2), iv(3, 5)) == (iv(1, 2), iv(1, 2), iv(3, 4))


def test_sum_fixpoint_example():
    got = contract_sum(iv(0, 1), iv(0, 1), iv(1, 1))
    assert got == (iv(0, 1), iv(0, 1), iv(1, 1))


def test_sum_forward_inference():
    assert contract_sum(iv(0, 2), iv(0, 2), FULL) == (iv(0, 2), iv(0, 2), iv(0, 4))


def test_sum_infeasible_empties_all_components():
    got = contract_sum(iv(0, 1), iv(0, 1), iv(5, 6))
    assert all(c.is_empty for c in got)


def test_sum_optimal_on_integer_bounds():
    """Against a brute-force hull: with integer bounds the minimal box is
    attained on the integer grid, so exhaustive enumeration is exact."""
    rng = random.Random(99)
    grid = range(-6, 7)
    for _ in range(150):
        bounds = [sorted(rng.choice(list(grid)) for _ in range(2)) for _ in range(3)]
        x, y, z = (iv(lo, hi) for lo, hi in bounds)
        feas_a, feas_b, feas_c = [], [], []
        for a in grid:
            if not x.contains(a):
                continue
            for b in grid:
                if not y.contains(b):
                    continue
                c = a + b
                if z.contains(c):
                    feas_a.append(a)
                    feas_b.append(b)
                    feas_c.append(c)
        got = contract_sum(x, y, z)
        if not feas_a:
            assert all(c.is_empty for c in got)
        else:
            assert got[0] == iv(min(feas_a), max(feas_a))
            assert got[1] == iv(min(feas_b), max(feas_b))
            assert got[2] == iv(min(feas_c), max(feas_c))


# The one-pass sum kernel against the kernel that repeated its pass until
# y and z held still.  Bounds: any float (subnormals, the largest floats and
# infinities among them), small integers, and signed zeros, in intervals
# that may be points or [0, 0].  Half the time z is a few ulps around x + y,
# which is where y and z both move and the old kernel ran a second pass.

_SUM_BOUNDS = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-8, 8).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX, INF, -INF]),
)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, INF if ulps > 0 else -INF)
    return x


@st.composite
def _sum_boxes(draw):
    bounds = []
    for _ in range(3):
        a, b = draw(_SUM_BOUNDS), draw(_SUM_BOUNDS)
        shape = draw(st.sampled_from(["any", "point", "zero"]))
        if shape == "point":
            b = a
        elif shape == "zero":
            a = b = 0.0
        lo, hi = min(a, b) + 0.0, max(a, b) + 0.0
        bounds.append((MAX if lo == INF else lo, -MAX if hi == -INF else hi))
    if draw(st.booleans()):
        lo, hi = add_bounds(*bounds[0], *bounds[1])
        lo, hi = _nudge(lo, draw(st.integers(-3, 3))) + 0.0, _nudge(hi, draw(st.integers(-3, 3))) + 0.0
        if lo <= hi and lo < INF and hi > -INF:
            bounds[2] = (lo, hi)
    return bounds


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_sum_boxes())
# y and then z move, so the old kernel passed twice
@example([(0.0, 10.0), (5.0, 10.0), (0.0, 8.0)])
# only z moves
@example([(0.0, 1.0), (0.0, 1.0), (-INF, INF)])
@example([(-INF, 0.0), (0.0, 0.0), (5e-324, INF)])
@example([(MAX, INF), (MAX, MAX), (-INF, INF)])
# a zero addend, a meet: slot y under (0, 1, 2) and slot z under (2, 0, 1)
@example([(-INF, 5.0), (0.0, 0.0), (-1.0, INF)])
@example([(-INF, -MAX), (0.0, 0.0), (-INF, INF)])
# slot x under (0, 1, 2) and slot y under (2, 0, 1)
@example([(0.0, 0.0), (-INF, INF), (-3.0, INF)])
@example([(0.0, 0.0), (5e-324, 1.0), (-5e-324, 1e-320)])
@example([(0.0, 0.0), (-5e-324, 5e-324), (0.0, 5e-324)])
# the meet is empty
@example([(0.0, 0.0), (1.0, 2.0), (-3.0, -1.0)])
@example([(-INF, -1.0), (0.0, 0.0), (5e-324, INF)])
def test_sum_kernel_matches_the_two_pass_reference_bit_for_bit(bounds):
    for s in ((0, 1, 2), (2, 0, 1)):
        lo = [b[0] for b in bounds]
        hi = [b[1] for b in bounds]
        ref_lo, ref_hi = lo[:], hi[:]
        assert _sum(lo, hi, s, None) == sum_reference(ref_lo, ref_hi, s)
        assert [x.hex() for x in lo + hi] == [x.hex() for x in ref_lo + ref_hi]


# contract_sq.


def test_sq_forward_example():
    assert contract_sq(iv(0.5, 1), iv(0, 1)) == (iv(0.5, 1), iv(0.25, 1))


def test_sq_backward_tightens_both_sides():
    y, z = contract_sq(iv(0.25, 1), iv(0.0625, 0.75))
    assert z == iv(0.0625, 0.75)
    assert y.lo == 0.25
    assert y.hi == sqrt_up(0.75)
    assert abs(y.hi - 0.8660254037844386) <= 1e-15


def test_sq_on_full_planes():
    assert contract_sq(FULL, FULL) == (FULL, Interval(0.0, INF))


def test_sq_negative_branch():
    x, y = contract_sq(iv(-2, -1), iv(0, 9))
    assert x == iv(-2, -1)
    assert y == iv(1, 4)


def test_sq_straddling_keeps_both_branches():
    x, y = contract_sq(iv(-2, 3), iv(1, 4))
    # preimage is [-2,-1] u [1,2]; the interval hull spans them
    assert x == iv(-2, 2)
    assert y == iv(1, 4)


def test_sq_infeasible():
    got = contract_sq(iv(0, 1), iv(4, 9))
    assert all(c.is_empty for c in got)


# contract_mul.


def test_mul_forward():
    assert contract_mul(iv(1, 2), iv(1, 2), FULL) == (iv(1, 2), iv(1, 2), iv(1, 4))


def test_mul_infeasible():
    got = contract_mul(iv(-1, 1), iv(-1, 1), iv(4, 5))
    assert all(c.is_empty for c in got)


def test_mul_zero_annihilator_constrains_nothing():
    got = contract_mul(iv(0, 0), FULL, iv(0, 0))
    assert got == (iv(0, 0), FULL, iv(0, 0))


def test_mul_backward_division():
    x, y, z = contract_mul(iv(1, 10), iv(2, 4), iv(8, 8))
    assert x == iv(2, 4)  # 8/[2,4]
    assert y == iv(2, 4)  # and 8/[2,4] again after x narrowed
    assert z == iv(8, 8)


# contract_const.


def test_const_examples():
    assert contract_const(1.0, FULL) == iv(1, 1)
    assert contract_const(1.0, iv(0, 0.3125)).is_empty
    assert contract_const(1.0, iv(1, 1)) == iv(1, 1)


# extdiv case table.


def test_extdiv_empty_inputs():
    assert extdiv(EMPTY, iv(1, 2)).is_empty
    assert extdiv(iv(1, 2), EMPTY).is_empty


def test_extdiv_zero_divisor():
    assert extdiv(iv(-1, 1), iv(0, 0)) == FULL
    assert extdiv(iv(1, 2), iv(0, 0)).is_empty


def test_extdiv_straddling_divisor_is_full():
    assert extdiv(iv(1, 2), iv(-1, 2)) == FULL


def test_extdiv_divisor_touching_zero_gives_rays():
    assert extdiv(iv(1, 2), iv(0, 2)) == Interval(0.5, INF)
    assert extdiv(iv(-2, -1), iv(0, 2)) == Interval(-INF, -0.5)
    assert extdiv(iv(-1, 1), iv(0, 2)) == FULL
    assert extdiv(iv(1, 2), iv(-2, 0)) == Interval(-INF, -0.5)
    assert extdiv(iv(-4, -2), iv(-2, 0)) == Interval(1.0, INF)
    assert extdiv(iv(-1, 1), iv(-2, 0)) == FULL
    assert extdiv(iv(1, 1), iv(-3, 0)) == Interval(-INF, -0.3333333333333333)
    assert extdiv(iv(-1, -1), iv(-3, 0)) == Interval(0.3333333333333333, INF)


def test_extdiv_sign_definite_divisors():
    assert extdiv(iv(2, 6), iv(1, 2)) == iv(1, 6)
    assert extdiv(iv(-4, 6), iv(1, 2)) == iv(-4, 6)
    assert extdiv(iv(-6, -2), iv(1, 2)) == iv(-6, -1)
    assert extdiv(iv(2, 6), iv(-2, -1)) == iv(-6, -1)
    assert extdiv(iv(-6, -2), iv(-2, -1)) == iv(1, 6)
    assert extdiv(iv(-2, 6), iv(-2, -1)) == iv(-6, 2)
    # inexact quotients: -1/3 rounds to nearest above itself, so only a
    # lower bound at -1/3 steps out an ulp
    assert extdiv(iv(1, 2), iv(-3, -1)) == iv(-2.0, -0.3333333333333333)
    assert extdiv(iv(1, 1), iv(-3, -3)) == iv(-0.33333333333333337, -0.3333333333333333)


def test_extdiv_encloses_sampled_quotients():
    rng = random.Random(4)
    for _ in range(300):
        n0, n1 = sorted(rng.uniform(-8, 8) for _ in range(2))
        d0, d1 = sorted(rng.uniform(-8, 8) for _ in range(2))
        n, d = iv(n0, n1), iv(d0, d1)
        got = extdiv(n, d)
        for _ in range(20):
            a = rng.uniform(n0, n1)
            b = rng.uniform(d0, d1)
            if b == 0.0:
                continue
            q = a / b
            assert got.contains(q) or not math.isfinite(q)


# apply_lifted.


def test_apply_lifted_narrows_only_its_variables():
    con = Constraint("sq", ("x", "y"), cid=0)
    got = apply_lifted(con, right_half_box())
    assert got == right_half_box().with_intervals({"y": iv(0.25, 1)})


def test_apply_lifted_on_empty_box_passes_through():
    con = Constraint("sum", ("x", "y", "z"), cid=0)
    box = Box({"x": EMPTY, "y": iv(0, 1), "z": iv(0, 1)})
    assert apply_lifted(con, box) == box


def test_apply_lifted_scope_violation():
    con = Constraint("sq", ("x", "q"), cid=0)
    with pytest.raises(ValueError):
        apply_lifted(con, Box({"x": iv(0, 1)}))


def test_apply_lifted_repeated_variable_diagonal():
    # x^2 = x forces x into {0, 1}, and the hull is exactly [0, 1]
    con = Constraint("sq", ("x", "x"), cid=0)
    assert apply_lifted(con, Box({"x": iv(-5, 5)}))["x"] == iv(0, 1)
    assert apply_lifted(con, Box({"x": iv(0.5, 5)}))["x"] == iv(1, 1)
    assert apply_lifted(con, Box({"x": iv(0.25, 0.5)})).is_empty


def test_apply_lifted_repeated_variable_in_sum():
    # x + x = x only holds at 0
    con = Constraint("sum", ("x", "x", "x"), cid=0)
    assert apply_lifted(con, Box({"x": iv(-2, 2)}))["x"] == iv(0, 0)


def test_repeated_argument_in_the_result_slot():
    # x + y = x forces y = 0, whatever x is
    got = apply_lifted(Constraint("sum", ("x", "y", "x"), cid=0), Box({"x": iv(-1, 4), "y": iv(0, 16)}))
    assert got == Box({"x": iv(-1, 4), "y": iv(0, 0)})
    got = apply_lifted(Constraint("sum", ("x", "y", "y"), cid=0), Box({"x": iv(-1, 4), "y": iv(0, 16)}))
    assert got == Box({"x": iv(0, 0), "y": iv(0, 16)})
    # x * y = x means x = 0 or y = 1; x = [1, 2] misses 0, so y = 1
    got = apply_lifted(Constraint("mul", ("x", "y", "x"), cid=0), Box({"x": iv(1, 2), "y": iv(0, 16)}))
    assert got == Box({"x": iv(1, 2), "y": iv(1, 1)})
    got = apply_lifted(Constraint("mul", ("x", "y", "y"), cid=0), Box({"x": iv(2, 3), "y": iv(-1, 16)}))
    assert got == Box({"x": iv(2, 3), "y": iv(0, 0)})


def test_repeated_factor_is_a_square():
    got = apply_lifted(Constraint("mul", ("x", "x", "z"), cid=0), Box({"x": iv(-1, 2), "z": FULL}))
    assert got == Box({"x": iv(-1, 2), "z": iv(0, 4)})


def test_repeated_addend_is_a_doubling():
    got = apply_lifted(Constraint("sum", ("x", "x", "z"), cid=0), Box({"x": iv(-3, 3), "z": iv(-1, 10)}))
    assert got == Box({"x": iv(-0.5, 3), "z": iv(-1, 6)})


def test_doubling_rounds_outward_on_overflow_and_on_halving_a_subnormal():
    con = Constraint("sum", ("x", "x", "z"), cid=0)
    big = Box({"x": iv(1e308, 1.5e308), "z": FULL})
    assert apply_lifted(con, big) == big.with_intervals({"z": Interval(sys.float_info.max, INF)})
    # 2x >= 2e308 exceeds every float
    assert apply_lifted(con, big.with_intervals({"z": Interval(-INF, sys.float_info.max)})).is_empty
    # x = 2.5e-324 is no float, so its enclosure is the two floats around it
    tiny = Box({"x": FULL, "z": Interval(5e-324, 5e-324)})
    assert apply_lifted(con, tiny) == tiny.with_intervals({"x": Interval(0.0, 5e-324)})


@pytest.mark.parametrize("kind,args", REPEATED_PATTERNS, ids=[f"{k}{a}" for k, a in REPEATED_PATTERNS])
def test_repeated_pattern_laws(kind, args):
    rng = random.Random(repr((kind, args)))
    assert check_repeated_laws(rng, kind, args, instances=150) > 0


def test_apply_lifted_infeasible_returns_empty_over_scope():
    con = Constraint("const", ("u",), cid=0, value=1.0)
    box = Box({"u": iv(0, 0.3125), "w": iv(7, 8)})
    got = apply_lifted(con, box)
    assert got.is_empty
    assert got.scope == box.scope


# big_gamma.


def test_big_gamma_single_sum_premise():
    csp = make_csp(
        [Constraint("sum", ("x", "y", "z"), cid=0)],
        {"x": iv(0, 2), "y": iv(0, 2), "z": iv(3, 5)},
    )
    got = big_gamma(csp, csp.initial_box)
    assert got == Box({"x": iv(1, 2), "y": iv(1, 2), "z": iv(3, 4)})


def test_big_gamma_on_empty_box():
    csp = quartic_csp_xyzu()
    empty = Box({v: EMPTY for v in csp.variables})
    assert big_gamma(csp, empty).is_empty


def test_big_gamma_strictly_shrinks_right_half_and_is_not_idempotent():
    csp = quartic_csp_xyzu()
    p = right_half_box()
    g1 = big_gamma(csp, p)
    g2 = big_gamma(csp, g1)
    assert p.encloses(g1) and g1 != p
    assert g1["y"].is_subset(iv(0.25, 1))
    # one simultaneous round is not enough: a second round still narrows
    assert g2 != g1
    assert g1.encloses(g2)


def test_big_gamma_monotonic_and_contracting_randomized():
    rng = random.Random(21)
    csp = quartic_csp_xyzu()
    names = sorted(csp.variables)
    for _ in range(40):
        small = {}
        big = {}
        for v in names:
            lo, hi = sorted(rng.uniform(-2, 2) for _ in range(2))
            small[v] = iv(lo, hi)
            big[v] = iv(lo - rng.uniform(0, 1), hi + rng.uniform(0, 1))
        s, b = Box(small), Box(big)
        gs, gb = big_gamma(csp, s), big_gamma(csp, b)
        assert s.encloses(gs)
        assert b.encloses(gb)
        assert gb.encloses(gs)


# Trace records.


def test_trace_record_rendering():
    rec = TraceRecord(
        cid=3,
        kind="sq",
        before=Box({"y": iv(0.25, 1), "z": iv(0, 0.75)}),
        after=Box({"y": iv(0.25, 0.75), "z": iv(0.0625, 0.75)}),
        changed=True,
    )
    text = rec.to_text()
    assert text.startswith("c3 sq {")
    assert text.endswith("changed")
    assert "->" in text
    obj = rec.to_json_obj()
    assert obj["cid"] == 3 and obj["kind"] == "sq" and obj["changed"] is True
    assert obj["before"] == {"y": [0.25, 1.0], "z": [0.0, 0.75]}


def test_trace_record_nochange_tag():
    rec = TraceRecord(cid=0, kind="const", before=Box({"u": iv(1, 1)}), after=Box({"u": iv(1, 1)}), changed=False)
    assert rec.to_text().endswith("nochange")


# Law spot-checks; the acceptance suite runs these at full scale.


@pytest.mark.parametrize("kind", ["sum", "mul", "sq", "const"])
def test_contractor_laws_sampled(kind):
    rng = random.Random(1 + ["sum", "mul", "sq", "const"].index(kind))
    points = check_contractor_laws(rng, kind, instances=60, point_tries=10)
    assert points > 0
