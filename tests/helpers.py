"""Shared builders and frozen reference constants for the test suite.

The numeric constants were produced by the brute-force oracle (bisection at
1e-15 tolerance, cross-checked against mpmath) and then frozen here;
test_oracle re-derives them so any drift in the oracle would be caught.
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction

from boxprune import (
    Box,
    BudgetExceeded,
    Constraint,
    Csp,
    FULL,
    Interval,
    Status,
    apply_lifted,
    contract_const,
    contract_mul,
    contract_sq,
    contract_sum,
    empty_box,
    solve,
)
from boxprune import newton, search
from boxprune.decompose import Add, ExprAst, Mul, Neg, Num, ParseError, Pow, Sub, Var
from boxprune.interval import _prod_sign, add_bounds, mul_bounds, mul_down, mul_up, square_bounds, sub_bounds

# Positive root of x^4 + x^2 = 1, i.e. x = sqrt((sqrt(5) - 1) / 2).
# Frozen from bisect_root; the correctly rounded root is X_STAR_DOWN,
# one ulp below, and every enclosure must contain both.
X_STAR = 0.7861513777574234
X_STAR_DOWN = 0.7861513777574233
# (sqrt(5) - 1) / 2
Y_STAR = 0.6180339887498949
# sqrt(3) / 2: the y upper bound once z has been capped at 3/4
SQRT3_HALF = 0.8660254037844386

QUARTIC_UNIT = """\
var x in [0, 1];
var y in [0, 1];
constraint y = x^2;
constraint x^2 + y^2 = 1;
"""

QUARTIC_WIDE = """\
var x in [-2, 2];
var y in [-2, 2];
constraint y = x^2;
constraint x^2 + y^2 = 1;
"""


def box_bits(box: Box) -> tuple[tuple[str, str, str], ...]:
    """A box's bounds as ``float.hex`` strings, for bit-for-bit comparisons."""
    return tuple((name, iv.lo.hex(), iv.hi.hex()) for name, iv in box.items())


def make_csp(constraints, bindings) -> Csp:
    """Wrap hand-built constraints plus an initial box into a Csp."""
    box = bindings if isinstance(bindings, Box) else Box(bindings)
    return Csp(
        constraints=tuple(constraints),
        initial_box=box,
        source_equations=(),
        declarations=tuple(box.items()),
        aux_defs=(),
    )


def quartic_csp_xyzu() -> Csp:
    """y = x^2, z = y^2, y + z = u, u = 1 over explicitly named variables.

    Constraint ids follow the order a narration-friendly trace applies
    them: sq(x,y) first, then the constant, the sum, and finally sq(y,z),
    so that z's upper bound narrows (via the sum) before its lower bound
    does (via sq(y,z)).  Trace-shape tests rely on this id order.
    """
    cons = (
        Constraint("sq", ("x", "y"), cid=0),
        Constraint("const", ("u",), cid=1, value=1.0),
        Constraint("sum", ("y", "z", "u"), cid=2),
        Constraint("sq", ("y", "z"), cid=3),
    )
    box = Box(
        {
            "x": Interval(0.0, 1.0),
            "y": Interval(0.0, 1.0),
            "z": FULL,
            "u": FULL,
        }
    )
    return make_csp(cons, box)


def left_half_box() -> Box:
    return Box(
        {
            "x": Interval(0.0, 0.5),
            "y": Interval(0.0, 1.0),
            "z": Interval(0.0, 1.0),
            "u": Interval(1.0, 1.0),
        }
    )


def right_half_box() -> Box:
    return Box(
        {
            "x": Interval(0.5, 1.0),
            "y": Interval(0.0, 1.0),
            "z": Interval(0.0, 1.0),
            "u": Interval(1.0, 1.0),
        }
    )


# Randomized contractor-law machinery, shared by the unit tests (small
# scale) and the acceptance suite (full scale).  All sampled values are
# dyadic (k/8 in [-4, 4]) so sums, products, and squares are exact in
# double precision and relation membership can be decided without
# tolerances.

_GRID = [k / 8.0 for k in range(-32, 33)]


def random_interval(rng: random.Random) -> Interval:
    r = rng.random()
    if r < 0.05:
        return FULL
    lo = rng.choice(_GRID)
    hi = rng.choice(_GRID)
    if lo > hi:
        lo, hi = hi, lo
    if r < 0.10:
        return Interval(float("-inf"), hi)
    if r < 0.15:
        return Interval(lo, float("inf"))
    if r < 0.17:
        return Interval(lo, lo)
    return Interval(lo, hi)


def grid_points_in(iv: Interval) -> list[float]:
    return [g for g in _GRID if iv.contains(g)]


def widen_interval(rng: random.Random, iv: Interval) -> Interval:
    """A random superset of iv with dyadic slack."""
    if iv.is_empty:
        return random_interval(rng)
    lo = iv.lo if iv.lo == float("-inf") else iv.lo - rng.choice((0.0, 0.125, 0.5, 1.0))
    hi = iv.hi if iv.hi == float("inf") else iv.hi + rng.choice((0.0, 0.125, 0.5, 1.0))
    return Interval(lo, hi)


def nudge_inward(iv: Interval) -> Interval:
    """iv with each bound moved one ulp inward, so that iv is its one-ulp
    outward widening; a point or empty interval is returned as is."""
    if iv.is_empty:
        return iv
    lo, hi = math.nextafter(iv.lo, math.inf), math.nextafter(iv.hi, -math.inf)
    return Interval(lo, hi) if lo <= hi else iv


def random_instance(rng: random.Random, kind: str):
    if kind == "sum" or kind == "mul":
        return (random_interval(rng), random_interval(rng), random_interval(rng))
    if kind == "sq":
        return (random_interval(rng), random_interval(rng))
    if kind == "const":
        return (rng.choice(_GRID), random_interval(rng))
    raise ValueError(kind)


def contract(kind: str, ivs):
    if kind == "sum":
        return contract_sum(*ivs)
    if kind == "mul":
        return contract_mul(*ivs)
    if kind == "sq":
        return contract_sq(*ivs)
    if kind == "const":
        return (contract_const(ivs[0], ivs[1]),)
    raise ValueError(kind)


def sample_relation_points(rng: random.Random, kind: str, ivs, tries: int):
    """Exact relation members inside the instance box, found by sampling."""
    points = []
    if kind == "const":
        value, x = ivs
        if x.contains(value):
            points.append((value,))
        return points
    if kind == "sq":
        x, y = ivs
        xs = grid_points_in(x)
        if not xs:
            return points
        for _ in range(tries):
            a = rng.choice(xs)
            b = a * a
            if y.contains(b):
                points.append((a, b))
        return points
    x, y, z = ivs
    xs, ys = grid_points_in(x), grid_points_in(y)
    if not xs or not ys:
        return points
    for _ in range(tries):
        a, b = rng.choice(xs), rng.choice(ys)
        c = a + b if kind == "sum" else a * b
        if z.contains(c):
            points.append((a, b, c))
    return points


def check_contractor_laws(rng: random.Random, kind: str, instances: int, point_tries: int) -> int:
    """Idempotence, contraction, monotonicity (by dyadic slack and by one
    ulp), correctness on random boxes.

    Returns the number of exact relation points whose membership in the
    contracted box was verified.
    """
    iv_count = 1 if kind == "const" else (2 if kind == "sq" else 3)
    points_checked = 0
    for _ in range(instances):
        inst = random_instance(rng, kind)
        once = contract(kind, inst)
        twice = contract(kind, once if kind != "const" else (inst[0], once[0]))
        assert once == twice, f"{kind} not idempotent on {inst}"

        ins = inst[1:] if kind == "const" else inst
        assert all(o.is_subset(i) for o, i in zip(once, ins)), f"{kind} grew an interval on {inst}"

        if kind == "const":
            wide = (inst[0], widen_interval(rng, inst[1]))
        else:
            wide = tuple(widen_interval(rng, iv) for iv in inst)
        bigger = contract(kind, wide)
        assert all(
            small.is_subset(big) for small, big in zip(once, bigger)
        ), f"{kind} not monotonic on {inst} vs {wide}"
        # monotone at ulp scale too: the instance is a one-ulp widening of
        # the instance with one argument nudged inward, so contracting the
        # nudged instance gives a subset of `once`.  The dyadic instances
        # make most bounds exact, and the nudged ones inexact, so rounding
        # alone decides this comparison.
        for k, iv in enumerate(ins):
            nudged = list(ins)
            nudged[k] = nudge_inward(iv)
            smaller = contract(kind, (inst[0], *nudged) if kind == "const" else tuple(nudged))
            assert all(
                small.is_subset(big) for small, big in zip(smaller, once)
            ), f"{kind} not monotonic at ulp scale on {inst}, argument {k}"

        for point in sample_relation_points(rng, kind, inst, point_tries):
            assert all(
                once[k].contains(v) for k, v in enumerate(point)
            ), f"{kind} dropped the solution {point} from {inst}"
            points_checked += 1
        assert len(once) == iv_count
    return points_checked


# Laws for constraints that repeat a variable.  Each such constraint
# denotes another relation over its distinct variables; these are all the
# patterns the four kinds allow.

REPEATED_PATTERNS = (
    ("sum", ("x", "x", "x")),
    ("sum", ("x", "y", "x")),
    ("sum", ("x", "y", "y")),
    ("sum", ("x", "x", "z")),
    ("mul", ("x", "x", "x")),
    ("mul", ("x", "y", "x")),
    ("mul", ("x", "y", "y")),
    ("mul", ("x", "x", "z")),
    ("sq", ("x", "x")),
)


def holds(kind: str, values) -> bool:
    """Whether the argument values satisfy the relation; exact for the
    dyadic grid values."""
    if kind == "sum":
        return values[0] + values[1] == values[2]
    if kind == "mul":
        return values[0] * values[1] == values[2]
    return values[0] * values[0] == values[1]


def grid_relation_points(kind: str, args, box: Box):
    """Every assignment of grid values inside `box` to the distinct
    variables that satisfies the relation."""
    names = tuple(dict.fromkeys(args))
    assignments = [{}]
    for v in names:
        assignments = [dict(a, **{v: g}) for a in assignments for g in grid_points_in(box[v])]
    return [a for a in assignments if holds(kind, [a[v] for v in args])]


def _root(q: float, up: bool) -> float:
    # sqrt(q) rounded outward, decided in exact arithmetic
    r = math.sqrt(q)
    if math.isinf(r):
        return r
    if up:
        while Fraction(r) ** 2 < Fraction(q):
            r = math.nextafter(r, math.inf)
    else:
        while Fraction(r) ** 2 > Fraction(q):
            r = math.nextafter(r, -math.inf)
    return r


def box_hull(boxes: Iterable[Box]) -> Box:
    """Componentwise hull of a non-empty collection of same-scope boxes."""
    it = iter(boxes)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("box_hull of an empty collection") from None
    hulls = dict(first.items())
    for b in it:
        if b.scope != first.scope:
            raise ValueError("box_hull requires a uniform scope")
        for v in hulls:
            hulls[v] = hulls[v].hull(b[v])
    return Box(hulls)


def repeated_hull(kind: str, args, box: Box) -> Box:
    """The smallest float box holding every point of the relation inside
    `box`, for a constraint that repeats a variable.

    Worked out per relation, independently of the contractors; exact for
    the dyadic boxes random_interval draws, where only square roots are
    inexact and they are rounded outward in exact arithmetic.
    """
    x, y, z = args if len(args) == 3 else (args[0], args[0], args[1])
    if x == y and x != z:
        X, Z = box[x], box[z]
        if kind == "sum":
            # z = 2x
            lo, hi = max(X.lo, Z.lo / 2), min(X.hi, Z.hi / 2)
            if lo > hi:
                return empty_box(box.names)
            return box.with_intervals({x: Interval(lo, hi), z: Interval(2 * lo, 2 * hi)})
        # z = x^2: x lies on the root branch of each sign whose square
        # range meets Z
        zl, zh = max(Z.lo, 0.0), Z.hi
        branches = []
        lo, hi = max(X.lo, 0.0), X.hi
        if lo <= hi and lo * lo <= zh and hi * hi >= zl:
            branches.append(Interval(max(lo, _root(zl, False)), min(hi, _root(zh, True))))
        lo, hi = X.lo, min(X.hi, 0.0)
        if lo <= hi and hi * hi <= zh and lo * lo >= zl:
            branches.append(Interval(max(lo, -_root(zh, True)), min(hi, -_root(zl, False))))
        if not branches:
            return empty_box(box.names)
        m = 0.0 if X.lo <= 0.0 <= X.hi else min(X.lo * X.lo, X.hi * X.hi)
        squares = Interval(max(Z.lo, m), min(Z.hi, max(X.lo * X.lo, X.hi * X.hi)))
        xs = branches[0] if len(branches) == 1 else branches[0].hull(branches[1])
        return box.with_intervals({x: xs, z: squares})
    # The other relations are unions of pieces that fix some variables to
    # a point and leave the rest free.
    if x == y == z:
        # 2x = x, or x^2 = x
        pieces = [{x: 0.0}] if kind == "sum" else [{x: 0.0}, {x: 1.0}]
    else:
        # z repeats `same`; x + y = x means y = 0 and x * y = x means
        # x = 0 or y = 1, and symmetrically when z repeats y
        same, other = (x, y) if z == x else (y, x)
        pieces = [{other: 0.0}] if kind == "sum" else [{same: 0.0}, {other: 1.0}]
    parts = [
        box.with_intervals({v: Interval(c, c) for v, c in piece.items()})
        for piece in pieces
        if all(box[v].contains(c) for v, c in piece.items())
    ]
    return box_hull(parts) if parts else empty_box(box.names)


def check_repeated_laws(rng: random.Random, kind: str, args, instances: int) -> int:
    """Soundness, idempotence, monotonicity at ulp scale and optimality of
    apply_lifted on a constraint that repeats a variable, on random boxes.

    Returns the number of exact relation points whose membership in the
    contracted box was verified.
    """
    con = Constraint(kind, args, cid=0)
    points_checked = 0
    for _ in range(instances):
        box = Box({v: random_interval(rng) for v in con.variables})
        once = apply_lifted(con, box)
        assert apply_lifted(con, once) == once, f"{kind}{args} not idempotent on {box}"
        assert box.encloses(once), f"{kind}{args} grew {box}"
        for v in con.variables:
            nudged = apply_lifted(con, box.with_intervals({v: nudge_inward(box[v])}))
            assert once.encloses(nudged), f"{kind}{args} not monotonic at ulp scale on {box}, {v}"
        for point in grid_relation_points(kind, args, box):
            assert all(once[v].contains(c) for v, c in point.items()), f"{kind}{args} dropped {point} from {box}"
            points_checked += 1
        # optimal: every bound is the outward rounding of a bound of the
        # exact relation inside the box
        assert once == repeated_hull(kind, args, box), f"{kind}{args} not optimal on {box}: {once}"
    return points_checked


def random_system_text(rng: random.Random) -> str:
    """One system from the random grammar of acceptance criterion 9: up to
    three variables, one to three equations over all four primitive kinds."""
    consts = ("0", "1", "2", "3", "0.5", "0.25", "1.5")
    names = ["a", "b", "c"][: rng.randrange(1, 4)]
    decls = [
        f"var {n} in [{rng.choice((-4.0, -2.0, -1.0, 0.0))}, {rng.choice((1.0, 2.0, 4.0))}];"
        for n in names
    ]

    def atom() -> str:
        return rng.choice(names) if rng.random() < 0.7 else rng.choice(consts)

    def expr(depth: int) -> str:
        if depth == 0:
            return atom()
        op = rng.randrange(6)
        if op == 0:
            return f"{expr(depth - 1)} + {expr(depth - 1)}"
        if op == 1:
            return f"{expr(depth - 1)} - {expr(depth - 1)}"
        if op == 2:
            return f"{expr(depth - 1)} * {expr(depth - 1)}"
        if op == 3:
            return f"{atom()}^2"
        if op == 4:
            return f"-{atom()}"
        return atom()

    equations = [
        f"constraint {expr(rng.randrange(1, 3))} = {expr(rng.randrange(0, 2))};"
        for _ in range(rng.randrange(1, 4))
    ]
    return " ".join(decls + equations)


def broyden(n: int, repeated: bool = False) -> str:
    """Broyden tridiagonal (3 - 2 x_i) x_i + 1 - x_{i-1} - 2 x_{i+1} = 0 on [-1, 1]^n.

    With ``repeated`` each x_i appears twice in one product (written
    ``3*x_i - x_i*x_i*2``), which the lift compiles to the square x_i^2.
    """
    decls = [f"var x{i} in [-1, 1];" for i in range(1, n + 1)]
    eqs = []
    for i in range(1, n + 1):
        lhs = f"3*x{i} - x{i}*x{i}*2 + 1" if repeated else f"(3 - 2*x{i})*x{i} + 1"
        if i > 1:
            lhs += f" - x{i - 1}"
        if i < n:
            lhs += f" - 2*x{i + 1}"
        eqs.append(f"constraint {lhs} = 0;")
    return " ".join(decls + eqs)


def broyden_root(n: int, box: Box) -> dict:
    """The root of the Broyden system that Newton's method at 40 digits
    reaches from the midpoint of ``box``, as mpmath numbers."""
    import mpmath

    def f(*x):
        return [
            (3 - 2 * x[i]) * x[i] + 1 - (x[i - 1] if i > 0 else 0) - (2 * x[i + 1] if i < n - 1 else 0)
            for i in range(n)
        ]

    names = [f"x{i}" for i in range(1, n + 1)]
    with mpmath.workdps(40):
        start = [(mpmath.mpf(box[v].lo) + mpmath.mpf(box[v].hi)) / 2 for v in names]
        root = mpmath.findroot(f, start)
        root = [root] if n == 1 else list(root)
        assert max(abs(r) for r in f(*root)) < mpmath.mpf(10) ** -30
    return dict(zip(names, root))


def holds_point(box: Box, point: dict) -> bool:
    """Whether every coordinate of ``point`` (floats or mpmath numbers)
    lies in its interval of ``box``, decided exactly."""
    import mpmath

    for name, value in point.items():
        iv = box[name]
        if iv.is_empty:
            return False
        if isinstance(value, float):
            if not iv.lo <= value <= iv.hi:
                return False
        elif not (mpmath.mpf(iv.lo) <= value <= mpmath.mpf(iv.hi)):
            return False
    return True


def solve_by_node(csp: Csp, engine, **solve_kwargs):
    """Solve with an engine that records its runs, and group the runs by
    search node.

    A node's first run starts from the node's box.  A further run of the
    same node follows a run that stalled, from the box that Krawczyk steps
    narrowed the stalled iterate to, with ``start=None``.  Any other run
    with ``start=None`` is a new node: the root, or a half of a stalled
    iterate that Krawczyk could not narrow, which is checked here.  Returns
    the report (the partial one if a budget ran out) and, per node, its box
    and the outcomes of its runs in order.
    """
    runs = []

    def recording(csp_, box, **kwargs):
        outcome = engine(csp_, box, **kwargs)
        runs.append((box, kwargs.get("start"), outcome))
        return outcome

    try:
        report = solve(csp, engine=recording, **solve_kwargs)
    except BudgetExceeded as exc:
        report = exc.report
    names = tuple(sorted(csp.user_vars))
    eps = solve_kwargs.get("eps", 1e-10)
    # the box a restart of the last run would start from, and the halves of
    # every stalled iterate Krawczyk could not narrow
    restart_box = None
    halves = set()
    nodes = []
    for box, start, outcome in runs:
        restart = restart_box is not None and box_bits(box) == box_bits(restart_box)
        if start is None and nodes:
            assert restart or box_bits(box) in halves, box
        if not restart:
            nodes.append((box, []))
        nodes[-1][1].append(outcome)
        restart_box = None
        if outcome.status is Status.STALLED:
            narrowed = [outcome.fixpoint, *newton._stage(csp, outcome.fixpoint)][-1]
            var = search.pick_split_var(narrowed, names, eps)
            if narrowed is not outcome.fixpoint:
                restart_box = narrowed
            elif var is not None:
                halves.update(box_bits(half) for half in search.split(narrowed, var))
    return report, nodes


def check_nodes_against_plain_fixpoints(csp: Csp, engine, nodes) -> int:
    """Each node's final box is a subset of the plain fixpoint of the box it
    started from (one run of ``engine`` from all constraints), and equal to
    it bit for bit when the node's first run reached its fixpoint.  A node
    whose last run stalled was either emptied by Krawczyk steps, or left
    undecided, split or emitted as the stalled iterate, which is no
    fixpoint and is not compared; the halves of a split are nodes of their
    own.  Returns the number of nodes that stalled."""
    stalled = 0
    for box, outcomes in nodes:
        plain = engine(csp, box).fixpoint
        last = outcomes[-1]
        if len(outcomes) == 1 and last.status is not Status.STALLED:
            assert box_bits(last.fixpoint) == box_bits(plain)
            continue
        stalled += 1
        final = last.fixpoint
        if last.status is Status.STALLED:
            final = [final, *newton._stage(csp, final)][-1]
            if not final.is_empty:
                continue
        assert plain.encloses(final), (box, final, plain)
    return stalled


# Reference kernels: interval multiplication and division as composed from
# mul_down, mul_up and _prod_sign, one call per directed product, before
# mul_bounds took Dekker's two-product inline and div_down/div_up read the
# sign of r*d - n from the rounded product first and then from the
# two-product inline.


def mul_bounds_reference(al: float, ah: float, bl: float, bh: float) -> tuple[float, float]:
    if al >= 0.0:
        if bl >= 0.0:
            lo, hi = mul_down(al, bl), mul_up(ah, bh)
        elif bh <= 0.0:
            lo, hi = mul_down(ah, bl), mul_up(al, bh)
        else:
            lo, hi = mul_down(ah, bl), mul_up(ah, bh)
    elif ah <= 0.0:
        if bl >= 0.0:
            lo, hi = mul_down(al, bh), mul_up(ah, bl)
        elif bh <= 0.0:
            lo, hi = mul_down(ah, bh), mul_up(al, bl)
        else:
            lo, hi = mul_down(al, bh), mul_up(al, bl)
    elif bl >= 0.0:
        lo, hi = mul_down(al, bh), mul_up(ah, bh)
    elif bh <= 0.0:
        lo, hi = mul_down(ah, bl), mul_up(al, bl)
    else:
        lo = min(mul_down(al, bh), mul_down(ah, bl))
        hi = max(mul_up(al, bl), mul_up(ah, bh))
    return lo + 0.0, hi + 0.0


def div_down_reference(n: float, d: float) -> float:
    if n == 0.0 or math.isinf(d):
        return 0.0
    if math.isinf(n):
        return -math.inf if (n < 0.0) != (d < 0.0) else math.inf
    r = n / d
    if r == math.inf:
        return sys.float_info.max
    if r == -math.inf:
        return -math.inf
    s = _prod_sign(r, d, n)
    return math.nextafter(r, -math.inf) if (s > 0 if d > 0.0 else s < 0) else r


def div_up_reference(n: float, d: float) -> float:
    if n == 0.0 or math.isinf(d):
        return 0.0
    if math.isinf(n):
        return -math.inf if (n < 0.0) != (d < 0.0) else math.inf
    r = n / d
    if r == -math.inf:
        return -sys.float_info.max
    if r == math.inf:
        return math.inf
    s = _prod_sign(r, d, n)
    return math.nextafter(r, math.inf) if (s < 0 if d > 0.0 else s > 0) else r


# Reference sum kernel: contractors._sum as it was when it repeated its pass
# until y and z both held still, before the single pass was shown to be the
# fixpoint.  Returns -1 or the change mask, and narrows lo and hi in place.


def sum_reference(lo: list[float], hi: list[float], s: tuple[int, ...], _value=None) -> int:
    i, j, k = s
    xl, xh, yl, yh, zl, zh = lo[i], hi[i], lo[j], hi[j], lo[k], hi[k]
    while True:
        a, b = sub_bounds(zl, zh, yl, yh)
        if a > xl:
            xl = a
        if b < xh:
            xh = b
        if xl > xh:
            return -1
        stable = True
        a, b = sub_bounds(zl, zh, xl, xh)
        if a > yl:
            yl = a
            stable = False
        if b < yh:
            yh = b
            stable = False
        if yl > yh:
            return -1
        a, b = add_bounds(xl, xh, yl, yh)
        if a > zl:
            zl = a
            stable = False
        if b < zh:
            zh = b
            stable = False
        if zl > zh:
            return -1
        if stable:
            break
    m = 0
    for bit, (p, a, b) in enumerate(((i, xl, xh), (j, yl, yh), (k, zl, zh))):
        if a != lo[p] or b != hi[p]:
            lo[p], hi[p] = a, b
            m |= 1 << bit
    return m


# Reference tokenizer: decompose's character loop, one regex match or one
# character at a time, before a single scanner regex replaced it.  Tokens
# are (kind, text, line, col) tuples.

_NUM_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_OPS = frozenset("+-*^()=;[],")


def tokenize_reference(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            j = text.find("\n", i)
            if j == -1:
                break
            i = j
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(("num", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch in _OPS:
            toks.append(("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# Reference sweep: newton._run as it was before it skipped the bounds over
# the box that no derivative reads and the products with a unit
# derivative.  It bounds every register at the point c and over the box.


def sweep_reference(program, c, lo, hi):
    one = (1.0, 1.0)
    points, values, derivs = [], [], []
    for op, a, b in program:
        if op == "var":
            point, value, d = (c[a], c[a]), (lo[a], hi[a]), {a: one}
        elif op == "const":
            point = value = (a, b)
            d = {}
        elif op == "neg":
            (pl, ph), (al, ah), da = points[a], values[a], derivs[a]
            point, value, d = (-ph, -pl), (-ah, -al), {j: (-h, -l) for j, (l, h) in da.items()}
        elif op == "sq":
            point = square_bounds(*points[a])
            value = square_bounds(*values[a])
            twice = mul_bounds(2.0, 2.0, *values[a])
            d = {j: mul_bounds(*twice, *dj) for j, dj in derivs[a].items()}
        elif op == "mul":
            point = mul_bounds(*points[a], *points[b])
            u, v = values[a], values[b]
            value = mul_bounds(*u, *v)
            d = {j: mul_bounds(*v, *dj) for j, dj in derivs[a].items()}
            for j, dj in derivs[b].items():
                term = mul_bounds(*u, *dj)
                d[j] = add_bounds(*d[j], *term) if j in d else term
        else:
            (al, ah), (bl, bh) = values[a], values[b]
            da, db = derivs[a], derivs[b]
            d = dict(da)
            if op == "add":
                point = add_bounds(*points[a], *points[b])
                value = add_bounds(al, ah, bl, bh)
                for j, dj in db.items():
                    d[j] = add_bounds(*d[j], *dj) if j in d else dj
            else:
                point = sub_bounds(*points[a], *points[b])
                value = sub_bounds(al, ah, bl, bh)
                for j, (l, h) in db.items():
                    d[j] = sub_bounds(*d[j], l, h) if j in d else (-h, -l)
        points.append(point)
        values.append(value)
        derivs.append(d)
    return points, derivs


# Reference inverse: newton._inverse as it was before it skipped the
# columns where the scaled pivot row is zero.  Its Gauss-Jordan updates
# every column from the pivot on, the identity half's zeros included.


def inverse_reference(a: list[list[float]]) -> list[list[float]] | None:
    n = len(a)
    rows = [row + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        p = rows[pivot][col]
        if not (p != 0.0 and math.isfinite(p)):
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [v / p for v in rows[col][col:]]
        rows[col][col:] = top
        for r in range(n):
            row = rows[r]
            f = row[col]
            if r != col and f != 0.0:
                row[col:] = [v - f * w for v, w in zip(row[col:], top)]
    inverse = [row[n:] for row in rows]
    return inverse if all(math.isfinite(v) for row in inverse for v in row) else None


_ZERO_REF = Num("0", 0.0, True)


def decompose_reference(
    declarations: list[tuple[str, Interval]],
    equations: list[tuple[ExprAst, ExprAst]],
) -> Csp:
    """The flattening walk as it was written with one emitter per operator
    and one case per pair of side kinds: a reference that decompose must
    match field for field."""
    box: dict[str, Interval] = {name: iv for name, iv in declarations}
    if len(box) != len(declarations):
        raise ValueError("duplicate declaration")
    user_vars = tuple(name for name, _ in declarations)
    index = {name: j for j, name in enumerate(user_vars)}
    constraints: list[Constraint] = []
    aux_defs: list[tuple[str, str, tuple]] = []
    cache: dict[tuple, str] = {}
    program: list[tuple] = []
    registers: dict[tuple, int] = {}
    outputs: list[int] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"_t{counter}"
        counter += 1
        return name

    def emit(kind: str, args: tuple[str, ...], value: float | None = None) -> None:
        constraints.append(Constraint(kind, args, cid=len(constraints), value=value))

    def reg(instruction: tuple) -> int:
        # structurally equal instructions share one register
        r = registers.get(instruction)
        if r is None:
            r = registers[instruction] = len(program)
            program.append(instruction)
        return r

    def leaf(node: Var | Num) -> int:
        if isinstance(node, Var):
            if node.name not in index:
                raise ValueError(f"undeclared variable {node.name!r}")
            return reg(("var", index[node.name], None))
        iv = Interval(node.value, node.value) if node.exact else node.enclosure()
        return reg(("const", iv.lo, iv.hi))

    def rep_num(num: Num) -> str:
        key = ("num", Decimal(num.text))
        if key in cache:
            return cache[key]
        t = fresh()
        if num.exact:
            box[t] = FULL
            emit("const", (t,), value=num.value)
        else:
            box[t] = num.enclosure()
        aux_defs.append((t, "const", (num.value,)))
        cache[key] = t
        return t

    def finish(key: tuple, instruction: tuple, operands: tuple, emitter, target: str | None) -> tuple[str, int]:
        # names are shared by key and registers by structure, even where
        # the key's name is a user variable that a targeted merge aliased
        r = reg(instruction)
        if key in cache:
            return cache[key], r
        out = target if target is not None else fresh()
        if out not in box:
            box[out] = FULL
        emitter(out)
        if target is None:
            aux_defs.append((out, instruction[0], operands))
        cache[key] = out
        return out, r

    def pow_chain(base: str, base_reg: int, k: int, target: str | None = None) -> tuple[str, int]:
        if k == 1:
            return base, base_reg
        if k % 2 == 0:
            h, rh = pow_chain(base, base_reg, k // 2)
            return finish(("sq", h), ("sq", rh, None), (h,), lambda out: emit("sq", (h, out)), target)
        h, rh = pow_chain(base, base_reg, k - 1)
        key = ("mul",) + tuple(sorted((h, base)))
        return finish(key, ("mul", rh, base_reg), (h, base), lambda out: emit("mul", (h, base, out)), target)

    def rep(node: ExprAst, target: str | None = None) -> tuple[str, int]:
        """The node's name in the constraints and its register in the program."""
        if isinstance(node, Var):
            return node.name, leaf(node)
        if isinstance(node, Num):
            return rep_num(node), leaf(node)
        if isinstance(node, Pow):
            return pow_chain(*rep(node.base), node.exponent, target)
        if isinstance(node, Add):
            (a, ra), (b, rb) = rep(node.lhs), rep(node.rhs)
            key = ("add",) + tuple(sorted((a, b)))
            return finish(key, ("add", ra, rb), (a, b), lambda out: emit("sum", (a, b, out)), target)
        if isinstance(node, Sub):
            (a, ra), (b, rb) = rep(node.lhs), rep(node.rhs)
            return finish(("sub", a, b), ("sub", ra, rb), (a, b), lambda out: emit("sum", (out, b, a)), target)
        if isinstance(node, Mul):
            (a, ra), (b, rb) = rep(node.lhs), rep(node.rhs)
            key = ("mul",) + tuple(sorted((a, b)))
            return finish(key, ("mul", ra, rb), (a, b), lambda out: emit("mul", (a, b, out)), target)
        if isinstance(node, Neg):
            a, ra = rep(node.operand)
            return finish(
                ("neg", a),
                ("neg", ra, None),
                (a,),
                lambda out: emit("sum", (out, a, rep_num(_ZERO_REF))),
                target,
            )
        raise TypeError(f"not an expression node: {node!r}")

    def tie(a: str, b: str) -> None:
        # encode a = b as a + 0 = b
        if a == b:
            return
        z = rep_num(_ZERO_REF)
        emit("sum", (a, z, b))

    def bind_const(var: str, num: Num) -> None:
        if num.exact:
            emit("const", (var,), value=num.value)
        else:
            box[var] = box[var].intersect(num.enclosure())

    for lhs, rhs in equations:
        l_var, r_var = isinstance(lhs, Var), isinstance(rhs, Var)
        l_num, r_num = isinstance(lhs, Num), isinstance(rhs, Num)
        # the registers of lhs and rhs; an expression side gets its own
        # from the walk that names it
        sides = [leaf(side) if isinstance(side, (Var, Num)) else None for side in (lhs, rhs)]
        if l_var and r_var:
            tie(lhs.name, rhs.name)
        elif l_num and r_num:
            if Decimal(lhs.text) != Decimal(rhs.text):
                tie(rep_num(lhs), rep_num(rhs))
        elif l_var or r_var:
            var = lhs.name if l_var else rhs.name
            other = rhs if l_var else lhs
            if isinstance(other, Num):
                bind_const(var, other)
            else:
                r, sides[1 if l_var else 0] = rep(other, target=var)
                if r != var:
                    tie(var, r)
        elif l_num or r_num:
            num = lhs if l_num else rhs
            other = rhs if l_num else lhs
            r, sides[1 if l_num else 0] = rep(other)
            bind_const(r, num)
        else:
            rl, sides[0] = rep(lhs)
            rr, sides[1] = rep(rhs, target=rl)
            if rr != rl:
                tie(rl, rr)
        outputs.append(reg(("sub", *sides)))

    return Csp(
        constraints=tuple(constraints),
        initial_box=Box(box),
        source_equations=tuple(equations),
        declarations=tuple(declarations),
        aux_defs=tuple(aux_defs),
        program=tuple(program),
        outputs=tuple(outputs),
    )
