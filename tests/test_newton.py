"""The Krawczyk operator, and the search that hands it stalled propagations."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprune import (
    Box,
    Interval,
    Status,
    compile_problem,
    empty_box,
    get_engine,
    krawczyk,
    propagate_worklist,
    solve,
)
from boxprune import newton, search
from boxprune.decompose import Add, Neg, Num, Pow, Sub, Var
from boxprune.newton import _inverse, _operator, _rows, _run, _split

from helpers import (
    QUARTIC_UNIT,
    QUARTIC_WIDE,
    broyden,
    broyden_root,
    check_nodes_against_plain_fixpoints,
    holds_point,
    quartic_csp_xyzu,
    random_system_text,
    solve_by_node,
    sweep_reference,
)
from test_acceptance import _linear_system, _parabola_system


def _around(csp, point: dict, below: float, above: float) -> Box:
    """The initial box with every user variable cut to [p - below, p + above]
    around the point's coordinate p, inside its declared bounds, or the
    empty box when that misses the declared bounds."""
    cut = dict(csp.initial_box.items())
    for name, p in point.items():
        iv = cut[name]
        lo, hi = max(iv.lo, p - below), min(iv.hi, p + above)
        if lo > hi:
            return empty_box(cut)
        cut[name] = Interval(lo, hi)
    return Box(cut)


def _origin_system(rng: random.Random):
    # roots (0, 0) and (-1/a, 1/a): boxes around the origin can be
    # subnormally narrow
    a = rng.choice([0.5, 1.0, 2.0, 4.0])
    text = f"var x in [-2, 2]; var y in [-2, 2]; constraint y = {a!r}*x^2; constraint x + y = 0;"
    return text, sorted([(0.0, 0.0), (-1.0 / a, 1.0 / a)])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([_linear_system, _parabola_system, _origin_system]),
    st.integers(-40, 1) | st.integers(-1074, -1000),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.0, 0.5, -1.5, 3.0]),
)
def test_krawczyk_never_drops_an_exact_root(seed, build, scale, skew, shift):
    # the criterion-10 systems put every root on a dyadic grid point, so
    # membership is exact.  Boxes from a few ulps to the whole domain wide
    # sit around a root or, shifted, next to it, which reaches the
    # narrowing and the pruning cases; around the origin, subnormal widths
    # reach the underflow terms of K's radius.
    text, roots = build(random.Random(seed))
    csp = compile_problem(text)
    width = math.ldexp(1.0, scale)
    x0, y0 = random.Random(seed).choice(roots)
    centre = {"x": x0 + shift * width, "y": y0 - shift * width}
    box = _around(csp, centre, width * skew, width * (1.0 - skew) + min(width, 2.0**-50))
    for _ in range(4):
        if box.is_empty:
            break
        narrowed = krawczyk(csp, box)
        assert box.encloses(narrowed)
        for x, y in roots:
            if holds_point(box, {"x": x, "y": y}):
                assert holds_point(narrowed, {"x": x, "y": y}), (text, box, narrowed)
        if narrowed is box:
            break
        box = narrowed


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_krawczyk_never_grows_the_box(seed, n):
    csp = compile_problem(broyden(n))
    rng = random.Random(seed)
    ivs = {}
    for name, iv in csp.initial_box.items():
        if name in csp.user_vars:
            a, b = sorted(rng.uniform(-1.0, 1.0) for _ in range(2))
            if rng.random() < 0.5:
                # shrink toward the interval's centre for a small box
                mid, half = 0.5 * (a + b), 0.5 * (b - a) * 2.0 ** -rng.randint(0, 40)
                a, b = mid - half, mid + half
            iv = Interval(a, b)
        ivs[name] = iv
    box = Box(ivs)
    narrowed = krawczyk(csp, box)
    assert box.encloses(narrowed)
    # variables outside the equations keep their intervals
    for name in csp.variables - set(csp.user_vars):
        assert narrowed.is_empty or narrowed[name] == box[name]


def _float(scale):
    # floats of about 1, near 1e+-300, and subnormal
    return st.builds(math.ldexp, st.floats(-1.0, 1.0), scale)


_FLOATS = _float(st.integers(-3, 3)) | _float(st.integers(990, 1000)) | _float(st.integers(-1074, -990))


@st.composite
def _bounds(draw):
    # points and intervals centred on 0 leave the rounding of the float
    # products nothing else to hide behind
    x = draw(_FLOATS)
    shape = draw(st.sampled_from(["point", "centred", "general"]))
    if shape == "point":
        return x, x
    if shape == "centred":
        return -abs(x), abs(x)
    return x, max(x, x + abs(draw(_FLOATS)))


@st.composite
def _row_inputs(draw):
    n = draw(st.integers(1, 3))
    y = [[draw(_FLOATS) for _ in range(n)] for _ in range(n)]
    fc = [draw(_bounds()) for _ in range(n)]
    jac = [{j: draw(_bounds()) for j in range(n) if draw(st.booleans())} for _ in range(n)]
    box = [draw(_bounds()) for _ in range(n)]
    c = [draw(st.floats(lo, hi)) for lo, hi in box]
    return y, fc, jac, c, [lo for lo, _ in box], [hi for _, hi in box]


def _exact_row(i, y, fc, jac, c, lo, hi):
    """Row i of c - Y f(c) + (I - Y J(X)) (X - c) in exact interval arithmetic."""

    def mul(a, b):
        products = [p * q for p in a for q in b]
        return min(products), max(products)

    k_lo = k_hi = Fraction(c[i])
    for yik, f in zip(y[i], fc):
        p = mul((Fraction(yik),) * 2, map(Fraction, f))
        k_lo, k_hi = k_lo - p[1], k_hi - p[0]
    for j in range(len(y)):
        m_lo = m_hi = Fraction(i == j)
        for yik, row in zip(y[i], jac):
            if j in row:
                p = mul((Fraction(yik),) * 2, map(Fraction, row[j]))
                m_lo, m_hi = m_lo - p[1], m_hi - p[0]
        p = mul((m_lo, m_hi), (Fraction(lo[j]) - Fraction(c[j]), Fraction(hi[j]) - Fraction(c[j])))
        k_lo, k_hi = k_lo + p[0], k_hi + p[1]
    return k_lo, k_hi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_row_inputs())
def test_each_row_of_k_encloses_its_exact_interval_row(inputs):
    # the midpoint-radius row against the interval formula it replaces,
    # evaluated without rounding
    y, fc, jac, c, lo, hi = inputs
    for i, (k_lo, k_hi) in enumerate(_rows(y, *_split(fc, jac), c, lo, hi)):
        assert not (math.isnan(k_lo) or math.isnan(k_hi))
        exact_lo, exact_hi = _exact_row(i, *inputs)
        # plain flags keep pytest from printing the exact rationals
        below = k_lo == -math.inf or Fraction(k_lo) <= exact_lo
        above = k_hi == math.inf or exact_hi <= Fraction(k_hi)
        assert below and above, (i, k_lo, k_hi)


@pytest.mark.parametrize(
    "text",
    [
        # f(c) = c^2 - 1 overflows at c = 5e159
        "var x in [1e155, 1e160]; constraint x^2 = 1;",
        # f(c) = -1, but J(X) = 3x^2 overflows
        "var x in [-1e160, 1e160]; constraint x^3 = 1;",
    ],
    ids=["f-overflows", "jacobian-overflows"],
)
def test_an_overflow_narrows_nothing(text):
    csp = compile_problem(text)
    box = csp.initial_box
    narrowed = krawczyk(csp, box)
    assert narrowed == box
    assert not any(math.isnan(b) for _, iv in narrowed.items() for b in (iv.lo, iv.hi))


def test_krawczyk_keeps_sqrt2_in_a_box_one_ulp_wide():
    csp = compile_problem("var x in [1, 2]; constraint x^2 = 2;")
    r = math.sqrt(2.0)
    lo, hi = (r, math.nextafter(r, 2.0)) if Fraction(r) ** 2 < 2 else (math.nextafter(r, 1.0), r)
    box = _around(csp, {"x": lo}, 0.0, hi - lo)
    assert (box["x"].lo, box["x"].hi) == (lo, hi)
    narrowed = krawczyk(csp, box)
    with mpmath.workdps(40):
        assert holds_point(narrowed, {"x": mpmath.sqrt(2)})


@pytest.mark.parametrize(
    "text",
    [
        # one equation in two variables
        "var x in [-2, 2]; var y in [-2, 2]; constraint x = y;",
        # three equations in two variables
        "var x in [0, 2]; var y in [0, 2]; constraint x = y; constraint x*y = 1; constraint x - y = 0;",
        # square, but unbounded
        "var x; var y; constraint x*y = 1; constraint x = y;",
        "var x in [0, inf]; var y in [0, 1]; constraint x*y = 1; constraint x = y;",
    ],
    ids=["one-equation", "three-equations", "unbounded", "half-bounded"],
)
def test_krawczyk_leaves_non_square_and_unbounded_systems_alone(text):
    csp = compile_problem(text)
    assert krawczyk(csp, csp.initial_box) is csp.initial_box
    fixpoint = propagate_worklist(csp, csp.initial_box).fixpoint
    assert krawczyk(csp, fixpoint) is fixpoint


DOUBLE_ROOT = "var x in [0, 3]; constraint x^2 - 2*x + 1 = 0;"
# random_mix seed 1, draw 53: one equation in two variables
DRAW_53 = "var a in [-1.0, 1.0]; var b in [-2.0, 4.0]; constraint a^2 + -a = 1;"
# random_mix seed 1, draw 143: square, but a = b = -a/2 makes every midpoint
# Jacobian singular
DRAW_143 = (
    "var a in [-1.0, 4.0]; var b in [-1.0, 4.0]; var c in [-2.0, 4.0]; "
    "constraint -0.5 * a = b; constraint a = b; constraint b - a * 3 - b = b * 1.5;"
)


def test_krawczyk_leaves_a_singular_midpoint_jacobian_alone():
    # x^2 - 2x + 1 has the double root 1, and the derivative 2x - 2 over
    # [0, 2] has the midpoint 0
    csp = compile_problem("var x in [0, 2]; constraint x^2 - 2*x + 1 = 0;")
    assert krawczyk(csp, csp.initial_box) is csp.initial_box


def test_krawczyk_returns_an_empty_box_unchanged():
    csp = compile_problem("var x in [1, 2]; constraint x^2 = 2;")
    box = empty_box(csp.initial_box.names)
    assert krawczyk(csp, box) is box


def test_a_midpoint_jacobian_whose_inverse_overflows_has_no_float_y():
    # 1 / 1e-310 overflows: the pivot is finite and nonzero, the inverse not
    assert _inverse([[1e-310]]) is None
    csp = compile_problem("var x in [-1, 1]; constraint 1e-310 * x = 0;")
    box = csp.initial_box
    assert _operator(csp, [-1.0], [1.0]) is None
    assert krawczyk(csp, box) is box


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_the_inverse_is_an_inverse(seed, n):
    # diagonally dominant, so pivots swap rows only by chance
    rng = random.Random(seed)
    a = [[rng.uniform(-1.0, 1.0) + (n if i == j else 0.0) for j in range(n)] for i in range(n)]
    rng.shuffle(a)
    y = _inverse(a)
    for i in range(n):
        for j in range(n):
            exact = sum(Fraction(y[i][k]) * Fraction(a[k][j]) for k in range(n))
            assert abs(exact - (i == j)) < 1e-13, (i, j)


def test_krawczyk_narrows_to_a_regular_root_quadratically():
    csp = compile_problem("var x in [1, 2]; constraint x^2 = 2;")
    box = csp.initial_box
    widths = []
    while True:
        narrowed = krawczyk(csp, box)
        if narrowed is box:
            break
        assert narrowed["x"].contains(math.sqrt(2.0))
        widths.append(narrowed["x"].width)
        box = narrowed
    assert widths[-1] <= 4 * math.ulp(math.sqrt(2.0))
    assert len(widths) <= 8


def test_krawczyk_proves_a_box_without_a_root_empty():
    csp = compile_problem("var x in [1.5, 1.6]; constraint x^2 = 2;")
    assert krawczyk(csp, csp.initial_box).is_empty


def test_krawczyk_encloses_an_inexact_literal_as_written():
    # 0.1 is not a float; the root sqrt(0.1) must survive with the literal
    # enclosed, not rounded
    csp = compile_problem("var x in [0.25, 0.5]; constraint x^2 = 0.1;")
    box = propagate_worklist(csp, csp.initial_box).fixpoint
    narrowed = krawczyk(csp, box)
    with mpmath.workdps(40):
        assert holds_point(narrowed, {"x": mpmath.sqrt(mpmath.mpf(1) / 10)})


def _exact_value(node, point: dict) -> Fraction:
    """The exact value of an expression at a point of Fractions, with each
    literal at its decimal value."""
    if isinstance(node, Var):
        return point[node.name]
    if isinstance(node, Num):
        return Fraction(Decimal(node.text))
    if isinstance(node, Neg):
        return -_exact_value(node.operand, point)
    if isinstance(node, Pow):
        return _exact_value(node.base, point) ** node.exponent
    a, b = _exact_value(node.lhs, point), _exact_value(node.rhs, point)
    return a + b if isinstance(node, Add) else a - b if isinstance(node, Sub) else a * b


def _names(node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Num):
        return set()
    if isinstance(node, (Neg, Pow)):
        return _names(node.operand if isinstance(node, Neg) else node.base)
    return _names(node.lhs) | _names(node.rhs)


@pytest.mark.parametrize(
    "text",
    [
        # flattening names the second x^2 y; f_2 still depends on x
        QUARTIC_WIDE,
        # and here it names the second x*y z
        "var x in [-2, 2]; var y in [-2, 2]; var z in [-4, 4]; constraint z = x*y; constraint z = x*y + 1;",
        "var x in [-1, 1]; constraint 0.1 = 0.1;",
        "var x in [0, 1]; var y in [-1, 1]; constraint x^2 = 0.1 - y; constraint 0.3*x = -y;",
    ],
    ids=["circle", "aliased-product", "equal-literals", "inexact-literal"],
)
def test_the_program_is_each_equation_as_written(text):
    csp = compile_problem(text)
    assert len(csp.outputs) == len(csp.source_equations)
    index = {name: j for j, name in enumerate(csp.user_vars)}
    rng = random.Random(0)
    for _ in range(20):
        # dyadic points, so the program's inputs are exact
        point = [rng.randint(-64, 64) / 32 for _ in csp.user_vars]
        values, derivs = _run(csp, point, point, point)
        exact_point = {name: Fraction(p) for name, p in zip(csp.user_vars, point)}
        for (lhs, rhs), r in zip(csp.source_equations, csp.outputs):
            assert set(derivs[r]) == {index[name] for name in _names(lhs) | _names(rhs)}
            residual = _exact_value(lhs, exact_point) - _exact_value(rhs, exact_point)
            lo, hi = values[r]
            assert Fraction(lo) <= residual <= Fraction(hi), (lhs, rhs, point)


@pytest.mark.parametrize(
    "text",
    [
        QUARTIC_WIDE,
        broyden(4),
        broyden(2, repeated=True),
        "var x in [0, 1]; var y in [-1, 1]; constraint x^2 = 0.1 - y; constraint 0.3*x = -y;",
    ],
    ids=["circle", "broyden-4", "broyden-2-repeated", "inexact-literal"],
)
def test_the_sweep_bounds_the_point_and_the_box_apart(text):
    # one sweep serves f(c) and J(X): the derivatives must not see c, nor
    # the bounds at c the box
    csp = compile_problem(text)
    rng = random.Random(1)

    def draw():
        return [rng.uniform(-2.0, 2.0) for _ in csp.user_vars]

    for _ in range(20):
        c, other_c = draw(), draw()
        lo, hi = map(list, zip(*(sorted(pair) for pair in zip(draw(), draw()))))
        other_lo, other_hi = map(list, zip(*(sorted(pair) for pair in zip(draw(), draw()))))
        points, derivs = _run(csp, c, lo, hi)
        assert _run(csp, other_c, lo, hi)[1] == derivs
        assert _run(csp, c, other_lo, other_hi)[0] == points


def _bits(bounds):
    return tuple(x.hex() for x in bounds)


def test_the_sweep_matches_one_that_bounds_every_register():
    # skipping the bounds over the box that nothing reads, and the products
    # with a unit derivative, leaves f(c) and every derivative bit for bit
    # as a sweep that forms all of them; boxes with zero and integer bounds
    # give the signed zeros a chance to show
    rng = random.Random(5)
    texts = [
        broyden(4),
        broyden(2, repeated=True),
        QUARTIC_WIDE,
        # a sum and a difference under a product and a square: their
        # bounds over the box feed a derivative
        "var x in [-2, 2]; var y in [-1, 3]; constraint (x + y) * x = 1; constraint (x - y)^2 = 2;",
        "var x in [-2, 2]; var y in [-1, 3]; constraint (x + y)^2 = 1; constraint x * (y - x) = 2;",
    ] + [random_system_text(rng) for _ in range(150)]
    for text in texts:
        csp = compile_problem(text)
        for _ in range(4):
            ends = [sorted(rng.choice((0.0, 1.0, -2.0, rng.uniform(-3, 3))) for _ in "ab") for _ in csp.user_vars]
            lo, hi = [l for l, _ in ends], [h for _, h in ends]
            c = [rng.choice((l, h, 0.5 * l + 0.5 * h)) for l, h in ends]
            points, derivs = _run(csp, c, lo, hi)
            ref_points, ref_derivs = sweep_reference(csp.program, c, lo, hi)
            assert [_bits(p) for p in points] == [_bits(p) for p in ref_points], text
            assert [{j: _bits(d) for j, d in row.items()} for row in derivs] == [
                {j: _bits(d) for j, d in row.items()} for row in ref_derivs
            ], text


def test_krawczyk_leaves_a_hand_built_csp_alone():
    # a Csp built from constraints has no program: no equation to step on
    csp = quartic_csp_xyzu()
    assert csp.outputs == ()
    assert krawczyk(csp, csp.initial_box) is csp.initial_box


# The search with Krawczyk steps.


@pytest.mark.parametrize("n", [*range(2, 9), 16, 32])
def test_mpmath_roots_of_broyden_lie_in_the_solve_boxes(n):
    csp = compile_problem(broyden(n))
    for order in ("worklist", "random:7"):
        report = solve(csp, eps=1e-8, engine=get_engine(order))
        assert not report.incomplete and report.atomic_boxes
        assert report.stats.krawczyk_narrowed >= 1
        for box, _ in report.atomic_boxes:
            assert holds_point(box, broyden_root(n, box)), (n, order, box)
            for v in csp.user_vars:
                assert box[v].width <= 1e-8


STALLING = [
    ("quartic-unit", QUARTIC_UNIT, 1e-10),
    ("circle", QUARTIC_WIDE, 1e-10),
    ("separable", "var x in [-2, 2]; var y in [-2, 2]; constraint x^2 = 2; constraint y^2 + y = 1;", 1e-10),
    ("broyden-2", broyden(2), 1e-8),
    ("broyden-4", broyden(4), 1e-8),
    ("broyden-2-repeated", broyden(2, repeated=True), 1e-8),
    ("parabola", _parabola_system(random.Random(3))[0], 1e-10),
]


@pytest.mark.parametrize("order", ["worklist", "roundrobin", "random:7"])
@pytest.mark.parametrize("text,eps", [s[1:] for s in STALLING], ids=[s[0] for s in STALLING])
def test_every_stalled_node_ends_inside_its_plain_fixpoint(text, eps, order):
    # Krawczyk keeps every root, so the fixpoint below its box is a subset
    # of the fixpoint below the node's box; a node that did not stall is
    # propagated exactly as without Krawczyk
    csp = compile_problem(text)
    engine = get_engine(order)
    report, nodes = solve_by_node(csp, engine, eps=eps)
    assert check_nodes_against_plain_fixpoints(csp, engine, nodes) >= 1
    assert report.stats.krawczyk_steps >= report.stats.krawczyk_narrowed >= 1
    assert report.stats.contractor_applications == sum(o.steps for _, outcomes in nodes for o in outcomes)


@pytest.mark.parametrize(
    "text,eps,applications,steps,narrowed,paths",
    [
        (broyden(4), 1e-8, 155, 7, 7, [""]),
        (broyden(8), 1e-8, 535, 8, 7, [""]),
        (broyden(2, repeated=True), 1e-8, 94, 7, 7, [""]),
        (QUARTIC_WIDE, 1e-10, 57, 12, 10, ["00", "11"]),
    ],
    ids=["broyden-4", "broyden-8", "broyden-2-repeated", "circle"],
)
def test_worklist_solve_counts_are_pinned(text, eps, applications, steps, narrowed, paths):
    # any change to the budget policy, the operator or the handling of a
    # stall shows up here even when the enclosures stay the same
    report = solve(compile_problem(text), eps=eps)
    stats = report.stats
    assert (stats.contractor_applications, stats.krawczyk_steps, stats.krawczyk_narrowed) == (applications, steps, narrowed)
    assert [path for _, path in report.atomic_boxes] == paths


def test_a_node_that_does_not_stall_never_meets_krawczyk():
    # the diagonal is not square, and the hyperbola's nodes all reach their
    # fixpoints within the first budget
    for text in ("var x in [-2, 2]; var y in [-2, 2]; constraint x = y;", "var x; var y; constraint x*y = 1; constraint x = y;"):
        report, nodes = solve_by_node(compile_problem(text), propagate_worklist, max_boxes=64)
        assert report.stats.krawczyk_steps == 0
        assert all(len(outcomes) == 1 for _, outcomes in nodes)


def test_the_search_tries_no_krawczyk_step_on_a_system_that_is_not_square(monkeypatch):
    # one equation in two variables: propagation stalls near a's roots, but
    # K cannot be formed, so no step is tried or counted
    def no_step(*args):
        raise AssertionError("a Krawczyk step tried on a system that is not square")

    monkeypatch.setattr(newton, "_run", no_step)
    stalls = []

    def engine(csp_, box, **kwargs):
        out = propagate_worklist(csp_, box, **kwargs)
        stalls.append(out.status is Status.STALLED)
        return out

    with pytest.raises(search.BudgetExceeded) as exc:
        solve(compile_problem(DRAW_53), eps=1e-6, max_boxes=256, engine=engine)
    stats = exc.value.report.stats
    assert any(stalls)
    assert (stats.krawczyk_steps, stats.krawczyk_narrowed) == (0, 0)


def test_the_search_counts_no_krawczyk_step_where_k_cannot_be_formed():
    # draw 143 is square and stalls, but no box has a float Y: no step is
    # counted, and the search is the same as before
    with pytest.raises(search.BudgetExceeded) as exc:
        solve(compile_problem(DRAW_143), eps=1e-6, max_boxes=256)
    report = exc.value.report
    stats = report.stats
    assert (stats.contractor_applications, stats.krawczyk_steps, stats.krawczyk_narrowed) == (21_400, 0, 0)
    assert len(report.atomic_boxes) == 256 and report.exhausted == "atomic box"


def test_a_stalled_node_krawczyk_cannot_narrow_is_split():
    # at a double root propagation stalls, and Krawczyk cannot narrow a box
    # around the root, so the stalled iterate is split, and both halves
    # start from all constraints, each with the same budget of four
    # applications per constraint
    csp = compile_problem(DOUBLE_ROOT)
    runs = []

    def engine(csp_, box, **kwargs):
        out = propagate_worklist(csp_, box, **kwargs)
        runs.append((box, kwargs, out))
        return out

    report = solve(csp, engine=engine)
    m = len(csp.constraints)
    assert all(kwargs["max_steps"] == 4 * m for _, kwargs, _ in runs)
    undecided = [
        i
        for i, (_, _, out) in enumerate(runs)
        if out.status is Status.STALLED and krawczyk(csp, out.fixpoint) is out.fixpoint
    ]
    assert undecided
    i = undecided[0]
    iterate = runs[i][2].fixpoint
    left, right = search.split(iterate, search.pick_split_var(iterate, csp.user_vars, 1e-10))
    # depth first: the left half runs next, the right half once the left
    # subtree is done
    assert runs[i + 1][0] == left and runs[i + 1][1]["start"] is None
    later = [kwargs for box, kwargs, _ in runs[i + 2 :] if box == right]
    assert len(later) == 1 and later[0]["start"] is None
    assert any(holds_point(box, {"x": 1.0}) for box, _ in report.atomic_boxes)


def test_the_search_shares_one_application_budget(monkeypatch):
    # 1 + a = 3 + a has no solution, but propagation only walks a's lower
    # bound up by 2 per pair of applications, so the search spends its
    # whole budget, here cut to 1000 applications, on splits and raises
    monkeypatch.setattr(search, "_SEARCH_BUDGET", 1000)
    csp = compile_problem("var a in [4, 1e300]; constraint 1 + a = 3 + a;")
    spent = []

    def engine(csp_, box, **kwargs):
        out = propagate_worklist(csp_, box, **kwargs)
        spent.append(out.steps)
        return out

    with pytest.raises(search.BudgetExceeded, match="contractor application budget of 1000") as exc:
        solve(csp, engine=engine)
    report = exc.value.report
    assert report.incomplete and report.exhausted == "contractor application"
    assert sum(spent) == report.stats.contractor_applications == 1000
    assert len(spent) > 1


def test_stalled_status_is_returned_with_the_iterate():
    csp = compile_problem(broyden(2))
    out = propagate_worklist(csp, csp.initial_box, max_steps=10)
    assert out.status is Status.STALLED
    assert out.steps == 10
    assert csp.initial_box.encloses(out.fixpoint)
    assert out.fixpoint.encloses(propagate_worklist(csp, csp.initial_box).fixpoint)
