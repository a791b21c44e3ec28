"""Problem parsing, flattening to primitives, and canonical rendering."""

import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxprune import FULL, Interval, compile_problem, parse_problem, render_problem, solve
from boxprune.decompose import (
    MAX_EXPONENT,
    Add,
    Mul,
    Neg,
    Num,
    ParseError,
    Pow,
    Sub,
    Var,
    _float_ge,
    _float_le,
    _fraction,
    _negated_num,
    _text_fraction,
    _tokenize,
    decompose,
    render_expr,
)
from boxprune.oracle import constraint_residual, equation_residual, extend_assignment

from helpers import (
    QUARTIC_UNIT,
    QUARTIC_WIDE,
    X_STAR,
    Y_STAR,
    box_bits,
    broyden,
    decompose_reference,
    make_csp,
    random_system_text,
    tokenize_reference,
)
from boxprune import Constraint

INF = math.inf


# Parsing.


def test_parse_quartic_problem():
    decls, equations = parse_problem(QUARTIC_UNIT)
    assert [name for name, _ in decls] == ["x", "y"]
    assert all(iv == Interval(0.0, 1.0) for _, iv in decls)
    assert len(equations) == 2
    lhs, rhs = equations[0]
    assert lhs == Var("y")
    assert rhs == Pow(Var("x"), 2)


def test_declaration_without_bounds_is_whole_line():
    decls, _ = parse_problem("var x;")
    assert decls == [("x", FULL)]


def test_infinite_declaration_bounds():
    decls, _ = parse_problem("var x in [-inf, 5]; var y in [0, inf]; var z in [-inf, inf];")
    assert decls[0][1] == Interval(-INF, 5.0)
    assert decls[1][1] == Interval(0.0, INF)
    assert decls[2][1] == FULL


def test_declaration_bounds_beyond_the_float_range():
    # a bound past the largest float rounds outward to an infinity, and
    # inward to the largest finite float
    decls, _ = parse_problem("var x in [0, 1e400]; var y in [-1e400, 0]; var z in [1e400, 1e401];")
    assert decls[0][1] == Interval(0.0, INF)
    assert decls[1][1] == Interval(-INF, 0.0)
    assert decls[2][1] == Interval(math.nextafter(INF, 0.0), INF)


def test_inexact_declaration_bounds_widen_outward():
    (_, iv), = parse_problem("var x in [0.1, 0.3];")[0]
    assert Fraction(iv.lo) < Fraction(1, 10)
    assert Fraction(iv.hi) > Fraction(3, 10)
    # by exactly one ulp per side
    assert math.nextafter(iv.lo, INF) == 0.1
    assert math.nextafter(iv.hi, -INF) == 0.3


def test_comments_and_whitespace():
    text = "# heading\nvar x in [0, 1]; # trailing\n\n  constraint x = 1;\n"
    decls, equations = parse_problem(text)
    assert len(decls) == 1 and len(equations) == 1


def _scan(tokenize, text):
    """Tokens as tuples, or the ParseError's message and position."""
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def test_tokenizer_edge_cases():
    # a final comment with no newline puts eof at its '#'
    assert _scan(_tokenize, "var x; # done")[-1] == ("eof", "", 1, 8)
    assert _scan(_tokenize, "var x;\n  #")[-1] == ("eof", "", 2, 3)
    # a form feed is no whitespace here
    assert _scan(_tokenize, "var x;\fvar y;") == ("line 1, column 7: unexpected character '\\x0c'", 1, 7)
    # \d is any Unicode decimal digit, as in a literal's Decimal, but '²'
    # is no digit
    assert _scan(_tokenize, "x = \u0663.5e1;")[2] == ("num", "\u0663.5e1", 1, 5)
    assert _scan(_tokenize, "x^\u00b2") == ("line 1, column 3: unexpected character '²'", 1, 3)
    for text in ("var x; # done", "var x;\fvar y;", "x = \u0663.5e1;", "x^\u00b2", "\r\n\t.5 .e"):
        assert _scan(_tokenize, text) == _scan(tokenize_reference, text)


_TOKENIZER_ALPHABET = st.sampled_from(
    [*"019.eE+-_aZx*^()=;[],# \t\r\n\f\v$@", "var", "in", "inf", "\u0663", "\u00b2", "\u00e9", "\u3000"]
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_TOKENIZER_ALPHABET | st.characters(), max_size=40).map("".join))
@example("1.5e+3x#c\n2.")
def test_tokenizer_matches_the_character_loop(text):
    assert _scan(_tokenize, text) == _scan(tokenize_reference, text)


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_problem("var x in [1, 0];")
    assert exc.value.line == 1 and exc.value.col == 11
    assert "inverted" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_problem("var x;\nconstraint x = $;")
    assert exc.value.line == 2
    assert "unexpected character" in str(exc.value)


def test_parse_error_missing_semicolon():
    with pytest.raises(ParseError, match="expected ';'"):
        parse_problem("var x")


def test_parse_error_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared variable 'z'"):
        parse_problem("constraint z = 1;")


def test_parse_error_redeclaration():
    with pytest.raises(ParseError, match="already declared"):
        parse_problem("var x; var x;")


def test_parse_error_reserved_words():
    with pytest.raises(ParseError, match="reserved word"):
        parse_problem("var inf;")
    with pytest.raises(ParseError, match="reserved word"):
        parse_problem("var in;")
    with pytest.raises(ParseError, match="reserved word"):
        parse_problem("var x; constraint var = 1;")


def test_parse_error_bad_exponents():
    for text in (
        "var x; constraint x^0 = 1;",
        "var x; constraint x^1.5 = 1;",
        "var x; constraint x^-2 = 1;",
        # flattening recursed once per bit of these, past the recursion limit
        f"var x in [0, 2]; constraint x^{2**1000} = 2;",
        f"var x in [0, 2]; constraint x^{2**64 + 1} = 2;",
        # past the digit limit of int()
        f"var x; constraint x^{'9' * 5000} = 1;",
    ):
        with pytest.raises(ParseError, match="exponent"):
            parse_problem(text)


def test_exponents_up_to_the_bound_parse():
    _, eqs = parse_problem(f"var x; constraint x^{'0' * 5000}{2**64} = 1;")
    assert eqs[0][0] == Pow(Var("x"), MAX_EXPONENT)


def test_parse_error_unattainable_infinity():
    with pytest.raises(ParseError):
        parse_problem("var x in [inf, inf];")
    with pytest.raises(ParseError, match="inverted"):
        parse_problem("var x in [inf, 5];")


def test_parse_error_constant_out_of_range():
    with pytest.raises(ParseError, match="bad numeric literal"):
        parse_problem("var x; constraint x = 1e400;")


_FUZZ_SOURCES = (
    QUARTIC_UNIT,
    QUARTIC_WIDE,
    "var x in [-inf, 0.5]; var y; constraint -(x - 1)^3 * y = 0.1 + -2e-3;",
    "var a in [-1e300, 1e300]; var b in [0, 1]; constraint a*a - b = a; constraint b^4 = 1 - a;",
)
# every kind of token, and literals at and beyond the float range
_FUZZ_TOKENS = (
    *"+-*^()=;[],",
    *("var", "constraint", "in", "inf", "x", "y", "a", "z", "_t0", "#", "@"),
    *("0", "2", "0.1", "1e308", "1e400", "1e-400", "99999999999999999999"),
    *("1e59999999999999999999", "1e-59999999999999999999"),
)


@st.composite
def _mutated_texts(draw):
    """A valid problem with a few of its tokens inserted, deleted or replaced."""
    tokens = re.findall(r"[A-Za-z_]\w*|[\d.]+(?:[eE][+-]?\d+)?|\S", draw(st.sampled_from(_FUZZ_SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "delete":
            del tokens[i]
        else:
            tokens[i : i + (edit == "replace")] = [draw(st.sampled_from(_FUZZ_TOKENS))]
    return " ".join(tokens)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_mutated_texts())
@example("var a in [0, 1e59999999999999999999]; constraint a = 1;")
@example("var a in [1e-59999999999999999999, 1]; constraint a = 1;")
def test_malformed_text_raises_only_parse_errors(text):
    try:
        compile_problem(text)
    except ParseError:
        pass


def test_literals_far_outside_the_float_range_parse_at_once():
    # the exact value of 1e10000000 takes seconds to build; beyond 10^+-400
    # a literal rounds like 10^+-400, which costs nothing
    started = time.perf_counter()
    for text, near in [("1e10000000", "1e401"), ("1e-10000000", "1e-401")]:
        for sign in ("", "-"):
            far = parse_problem(f"var x in [{sign}{text}, {sign}{text}];")[0]
            assert far == parse_problem(f"var x in [{sign}{near}, {sign}{near}];")[0]
    tiny = Num.from_text("1e-10000000")
    assert not tiny.exact and tiny.enclosure() == Interval(0.0, 5e-324)
    with pytest.raises(ParseError, match="bad numeric literal"):
        parse_problem("var x; constraint x = 1e10000000;")
    assert time.perf_counter() - started < 0.5


def test_literals_beyond_the_rounding_cap_keep_their_exact_values():
    # 1e-500 and 1e-600 round alike, yet they are different numbers: they
    # get separate auxiliaries, so x = 1e-500 - 1e-600 > 0 stays enclosed
    with pytest.raises(ParseError, match="inverted"):
        parse_problem("var x in [1e-500, 1e-600];")
    csp = compile_problem("var x in [-1, 1]; constraint 1e-500 - 1e-600 = x;")
    assert len({v for v in csp.variables if v.startswith("_t")}) == 2
    (box, _), = solve(csp).atomic_boxes
    assert box["x"].hi > 0.0


def test_exponent_one_is_dropped():
    _, equations = parse_problem("var x; constraint x^1 = 1;")
    assert equations[0][0] == Var("x")


def test_unary_minus_folds_into_literals_only():
    _, equations = parse_problem("var x; constraint -2 = -x;")
    lhs, rhs = equations[0]
    assert lhs == Num("-2", -2.0, True)
    assert rhs == Neg(Var("x"))
    # negated powers keep the power intact
    _, equations = parse_problem("var x; constraint -x^2 = 1;")
    assert equations[0][0] == Neg(Pow(Var("x"), 2))


def test_number_exactness_flags():
    assert Num.from_text("0.5").exact
    assert Num.from_text("3").exact
    assert not Num.from_text("0.1").exact


def _check_literal(text):
    """Num.from_text and a declaration bound of ``text``, and of its
    negation as a bound, against the Fraction path."""
    value = float(_text_fraction(text))
    assert Num.from_text(text) == Num(text, value, Fraction(value) == _text_fraction(text))
    for bound in (text, text[1:] if text.startswith("-") else "-" + text):
        (_, iv), = parse_problem(f"var x in [{bound}, {bound}];")[0]
        exact = _fraction(Decimal(bound))
        assert (iv.lo, iv.hi) == (_float_le(exact), _float_ge(exact)), bound


@pytest.mark.parametrize("digits", range(1, 16))
def test_integer_literals_take_the_exact_path(digits):
    # fewer than 16 ASCII digits skip the Fraction path; they must agree
    rng = random.Random(digits)
    texts = [str(rng.randrange(10 ** (digits - 1), 10**digits)) for _ in range(20)]
    texts += ["9" * digits, "1" + "0" * (digits - 1), "0" * digits, "0" * (digits - 1) + "7"]
    for text in texts:
        _check_literal(text)


def test_literals_beside_the_exact_path_take_the_fraction_path():
    # 16 digits may exceed 2^53; '\u0663' is a digit to Decimal and int
    for text in ("-0", "-00", "0000000000000000", "9999999999999999", "9007199254740993", "\u0663", "12\u0663"):
        _check_literal(text)
    # '²' passes str.isdigit but is no number to Decimal
    with pytest.raises(ArithmeticError):
        Num.from_text("\u00b2")


# Decomposition.


def test_quartic_decomposes_to_four_primitives():
    csp = compile_problem(QUARTIC_UNIT)
    shapes = [(c.kind, c.args) for c in csp.constraints]
    assert shapes == [
        ("sq", ("x", "y")),
        ("sq", ("y", "_t0")),
        ("sum", ("y", "_t0", "_t1")),
        ("const", ("_t1",)),
    ]
    assert csp.constraints[3].value == 1.0
    assert [c.cid for c in csp.constraints] == [0, 1, 2, 3]
    assert csp.variables == frozenset({"x", "y", "_t0", "_t1"})
    assert csp.user_vars == ("x", "y")
    # auxiliaries start unconstrained
    assert csp.initial_box["_t0"] == FULL
    assert csp.initial_box["_t1"] == FULL
    assert csp.initial_box["x"] == Interval(0.0, 1.0)
    assert csp.aux_defs == (("_t0", "sq", ("y",)), ("_t1", "add", ("y", "_t0")))


def test_plain_sum_needs_no_auxiliaries():
    csp = compile_problem("var x; var y; var z; constraint x + y = z;")
    assert [(c.kind, c.args) for c in csp.constraints] == [("sum", ("x", "y", "z"))]
    assert csp.variables == frozenset({"x", "y", "z"})


def test_power_chain_shares_the_square():
    csp = compile_problem("var x; constraint x^4 + x^2 = 1;")
    shapes = [(c.kind, c.args) for c in csp.constraints]
    assert shapes == [
        ("sq", ("x", "_t0")),
        ("sq", ("_t0", "_t1")),
        ("sum", ("_t1", "_t0", "_t2")),
        ("const", ("_t2",)),
    ]


def test_subtraction_reuses_sum():
    csp = compile_problem("var x; var y; var z; constraint x - y = z;")
    assert [(c.kind, c.args) for c in csp.constraints] == [("sum", ("z", "y", "x"))]


def test_negation_uses_shared_zero():
    csp = compile_problem("var x; var y; constraint -x = y;")
    shapes = [(c.kind, c.args, c.value) for c in csp.constraints]
    assert ("const", ("_t0",), 0.0) in shapes
    assert ("sum", ("y", "x", "_t0"), None) in shapes
    assert len(csp.constraints) == 2


def test_variable_aliasing_avoids_tie_constraints():
    csp = compile_problem("var x; var y; constraint y = x * x;")
    assert [(c.kind, c.args) for c in csp.constraints] == [("mul", ("x", "x", "y"))]


def test_common_subexpressions_shared():
    csp = compile_problem("var x; var y; var z; constraint (x + y) * (x + y) = z;")
    shapes = [(c.kind, c.args) for c in csp.constraints]
    assert shapes == [("sum", ("x", "y", "_t0")), ("mul", ("_t0", "_t0", "z"))]


def test_var_equals_var_ties_through_zero():
    csp = compile_problem("var x; var y; constraint x = y;")
    shapes = [(c.kind, c.args, c.value) for c in csp.constraints]
    assert ("const", ("_t0",), 0.0) in shapes
    assert ("sum", ("x", "_t0", "y"), None) in shapes


def test_equal_literals_produce_nothing():
    csp = compile_problem("var x; constraint 1 = 1.0;")
    assert csp.constraints == ()


def test_exact_constant_becomes_const_constraint():
    csp = compile_problem("var x; var y; constraint x + 0.5 = y;")
    consts = [c for c in csp.constraints if c.kind == "const"]
    assert len(consts) == 1 and consts[0].value == 0.5


def test_inexact_constant_becomes_widened_binding():
    csp = compile_problem("var x; var y; constraint x + 0.1 = y;")
    # no const constraint; the literal lives in the initial box instead
    assert all(c.kind != "const" for c in csp.constraints)
    (aux,) = [v for v in csp.variables if v.startswith("_t")]
    iv = csp.initial_box[aux]
    assert Fraction(iv.lo) < Fraction(1, 10) < Fraction(iv.hi)
    assert iv.hi == math.nextafter(iv.lo, INF)


def test_inexact_constant_directly_bound_to_variable():
    csp = compile_problem("var x in [0, 1]; constraint x = 0.1;")
    assert csp.constraints == ()
    iv = csp.initial_box["x"]
    assert Fraction(iv.lo) < Fraction(1, 10) < Fraction(iv.hi)


def test_duplicate_declarations_rejected_by_decompose():
    with pytest.raises(ValueError, match="duplicate declaration"):
        decompose([("x", FULL), ("x", FULL)], [])


def test_undeclared_variables_rejected_by_decompose():
    for lhs in (Var("z"), Add(Var("z"), Var("x"))):
        with pytest.raises(ValueError, match="undeclared variable 'z'"):
            decompose([("x", FULL)], [(lhs, Num.from_text("1"))])


# The walk against its reference copy (helpers.decompose_reference): every
# field the engines, the search and the Krawczyk step read is identical.

_IDENTITY_CORPUS = (
    [broyden(n) for n in range(2, 17)]
    + [
        broyden(2, repeated=True),
        " ".join([f"var x{i} in [-10, 10];" for i in range(1, 22)] + [
            f"constraint x{i}*x{i + 1} + x{i}^2 - 3*x{i + 1} = {i % 5};" for i in range(1, 21)
        ]),
        "var x in [-2, 2]; var y in [-2, 2]; constraint y = x^2; constraint x^2 + y^2 = 1;",
        "var x; var y; constraint x*y = 1; constraint x = y;",
        "var x in [-2, 2]; var y in [-2, 2]; constraint x = y;",
        "var x; var y; constraint x = y;",
        "var x; var y; constraint -x = y;",
        "var x; var y; constraint y = -x;",
        "var x; constraint 1 = 1.0;",
        "var x; constraint 1 = 2; constraint 0.1 = 0.3;",
        "var x in [0, 1]; constraint 0.1 = x;",
        "var x; var y; var z; constraint z = x*y; constraint z = x*y + 1;",
        "var x; var y; constraint x^7 = y^5 - x*y;",
        "var x; var y; constraint 2 = x - y; constraint x*y = 0.1 + y; constraint y*x - 0.5 = -(x - y);",
        "var a; var b; constraint a * b + 0.1 = a^2; constraint -(a - b) = 1;",
        "var x; constraint x^4 + x^2 = 1; constraint x^2 = x^4;",
    ]
    + [random_system_text(random.Random(seed)) for seed in range(300)]
)


def _csp_fields(csp):
    def bits(v):
        return v.hex() if isinstance(v, float) else v

    return (
        [(c.kind, c.args, c.cid, bits(c.value)) for c in csp.constraints],
        box_bits(csp.initial_box),
        csp.aux_defs,
        [tuple(map(bits, ins)) for ins in csp.program],
        csp.outputs,
        csp.bounded,
        csp.watchers,
    )


def test_decompose_matches_its_reference_walk():
    for text in _IDENTITY_CORPUS:
        decls, equations = parse_problem(text)
        assert _csp_fields(decompose(decls, equations)) == _csp_fields(decompose_reference(decls, equations)), text


# The variable index (Csp.watchers) and the checks that build it.


def test_var_index_on_quartic():
    csp = compile_problem(QUARTIC_UNIT)
    assert csp.names == ("_t0", "_t1", "x", "y")
    idx = dict(zip(csp.names, csp.watchers))
    assert idx["y"] == (0, 1, 2)
    assert idx["x"] == (0,)
    assert idx["_t0"] == (1, 2)
    assert idx["_t1"] == (2, 3)


def test_var_index_unconstrained_variable():
    csp = make_csp([Constraint("const", ("a",), cid=0, value=1.0)], {"a": FULL, "b": FULL})
    assert csp.names == ("a", "b")
    assert csp.watchers[1] == ()


def test_var_index_repeated_argument_counted_once():
    csp = make_csp([Constraint("sq", ("x", "x"), cid=0)], {"x": FULL})
    assert csp.watchers == ((0,),)


def test_csp_compiles_constraints_against_name_order_slots():
    csp = make_csp([Constraint("mul", ("y", "x", "y"), cid=0)], {"z": FULL, "y": FULL, "x": FULL})
    assert csp.names == ("x", "y", "z")
    assert csp.watchers == ((0,), (0,), ())
    (lifted,) = csp.lifted
    # y * x = y compiles to "y = 0 or x = 1" over the distinct slots (y, x)
    assert lifted.args == (1, 0)
    # bit b of a change mask names args[b]
    assert lifted.shrunk == ((), (1,), (0,), (1, 0))


def test_csp_rejects_ids_out_of_tuple_order():
    cons = [Constraint("const", ("x",), cid=1, value=1.0), Constraint("const", ("x",), cid=0, value=2.0)]
    with pytest.raises(ValueError, match="position 0 has id 1"):
        make_csp(cons, {"x": FULL})


def test_csp_rejects_a_constraint_over_an_undeclared_variable():
    with pytest.raises(ValueError, match="undeclared variable 'y'"):
        make_csp([Constraint("sq", ("x", "y"), cid=0)], {"x": FULL})


# Soundness of the flattening: a point satisfies the source equations iff
# its functional extension satisfies the primitive constraints.  For the
# quartic system the two residual vectors bound each other within a factor
# of two, so classification at any one threshold can only disagree inside
# a narrow band that the seeded sample never hits.


def _residuals(csp, point):
    values = extend_assignment(csp, point)
    src = max(equation_residual(eq, values) for eq in csp.source_equations)
    prim = max(constraint_residual(c, values) for c in csp.constraints)
    return src, prim


def test_decomposition_soundness_randomized():
    csp = compile_problem(QUARTIC_WIDE)
    rng = random.Random(12345)
    for _ in range(10_000):
        point = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        src, prim = _residuals(csp, point)
        assert prim <= 2.0 * src + 1e-15
        assert src <= 2.0 * prim + 1e-15
        assert (src <= 1e-9) == (prim <= 1e-9)


def test_decomposition_soundness_near_solutions():
    csp = compile_problem(QUARTIC_WIDE)
    for sx in (X_STAR, -X_STAR):
        src, prim = _residuals(csp, {"x": sx, "y": Y_STAR})
        assert src <= 1e-9 and prim <= 1e-9
    src, prim = _residuals(csp, {"x": X_STAR + 1e-3, "y": Y_STAR})
    assert src > 1e-9 and prim > 1e-9


def test_decomposition_soundness_with_mixed_operators():
    text = "var a in [-3,3]; var b in [-3,3]; constraint a*b - b^2 = 1; constraint -(a - b) = a*b;"
    csp = compile_problem(text)
    rng = random.Random(777)
    for _ in range(2_000):
        point = {"a": rng.uniform(-3, 3), "b": rng.uniform(-3, 3)}
        src, prim = _residuals(csp, point)
        # the two residual vectors vanish together
        if src <= 1e-12:
            assert prim <= 1e-7
        if prim <= 1e-12:
            assert src <= 1e-7


# Rendering.


def test_render_expr_precedence():
    x = Var("x")
    assert render_expr(Neg(Pow(x, 2))) == "-x^2"
    assert render_expr(Sub(Var("a"), Add(Var("b"), Var("c")))) == "a - (b + c)"
    assert render_expr(Pow(Pow(x, 2), 3)) == "(x^2)^3"
    assert render_expr(Mul(x, Num("-2", -2.0, True))) == "x * (-2)"
    assert render_expr(Neg(Neg(x))) == "-(-x)"
    assert render_expr(Add(Var("a"), Mul(Var("b"), Var("c")))) == "a + b * c"
    assert render_expr(Mul(Add(Var("a"), Var("b")), Var("c"))) == "(a + b) * c"
    assert render_expr(Neg(Num("2", 2.0, True))) == "-2"


def test_rendered_expressions_reparse_to_the_same_ast():
    rng = random.Random(31)
    names = ("x", "y", "z")

    def random_ast(depth):
        if depth == 0:
            if rng.random() < 0.5:
                return Var(rng.choice(names))
            return Num.from_text(rng.choice(("0", "1", "2.5", "0.1", "3")))
        op = rng.randrange(5)
        if op == 0:
            return Add(random_ast(depth - 1), random_ast(depth - 1))
        if op == 1:
            return Sub(random_ast(depth - 1), random_ast(depth - 1))
        if op == 2:
            return Mul(random_ast(depth - 1), random_ast(depth - 1))
        if op == 3:
            child = random_ast(depth - 1)
            # the parser folds a sign on a bare literal, so mirror that
            return _negated_num(child) if isinstance(child, Num) else Neg(child)
        return Pow(random_ast(depth - 1), rng.choice((2, 3, 4)))

    for _ in range(200):
        ast = random_ast(rng.randrange(1, 4))
        text = f"var x; var y; var z; constraint {render_expr(ast)} = 0;"
        _, equations = parse_problem(text)
        assert equations[0][0] == ast, render_expr(ast)


def test_render_problem_round_trip():
    texts = [
        QUARTIC_UNIT,
        "var x; var y in [-inf, 5]; constraint -(x - y)^3 = 0.1 * x + 1e-2;",
        "var x in [0.1, 0.3]; constraint x^2 = 0.25;",
        "var a in [-2, 2]; var b in [-2, 2]; constraint a*b - b = 2; constraint b = a^2;",
    ]
    for text in texts:
        csp = compile_problem(text)
        echoed = render_problem(csp.declarations, csp.source_equations)
        again = compile_problem(echoed)
        assert again == csp, echoed
        # and the canonical form is a fixpoint of echoing
        assert render_problem(again.declarations, again.source_equations) == echoed
