"""The float-only brute-force checker that the interval layer is audited against."""

import math

import mpmath
import numpy as np
import pytest

from boxprune import Box, Constraint, FULL, GridSpec, bisect_root, compile_problem, grid_solutions
from boxprune.decompose import Csp, Num, Pow, Var, parse_problem
from boxprune.oracle import constraint_residual, equation_residual, eval_expr, extend_assignment

from helpers import QUARTIC_UNIT, SQRT3_HALF, X_STAR, X_STAR_DOWN, Y_STAR


def test_grid_spec_defaults_and_validation():
    spec = GridSpec()
    assert spec.n == 401 and spec.tol == 1e-7
    with pytest.raises(ValueError, match="at least 2 samples"):
        GridSpec(n=1)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        GridSpec(tol=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        GridSpec(tol=-1e-9)


# Expression evaluation.


def test_eval_expr_scalar():
    _, equations = parse_problem("var x; var y; constraint x^3 - 2*y + 0.5 = 0;")
    lhs = equations[0][0]
    assert eval_expr(lhs, {"x": 2.0, "y": 3.0}) == 8.0 - 6.0 + 0.5
    _, equations = parse_problem("var x; constraint -(x - 1)^2 = 0;")
    assert eval_expr(equations[0][0], {"x": 3.0}) == -4.0


def test_eval_expr_vectorizes():
    _, equations = parse_problem("var x; var y; constraint x^2 * y - x = 0;")
    lhs = equations[0][0]
    xs = np.linspace(-2, 2, 9)
    ys = np.linspace(0, 1, 9)
    vec = eval_expr(lhs, {"x": xs, "y": ys})
    for k in range(9):
        assert vec[k] == eval_expr(lhs, {"x": float(xs[k]), "y": float(ys[k])})


def test_eval_expr_scalar_powers_overflow_to_infinity():
    # a float power past the float range raises OverflowError in Python
    assert eval_expr(Pow(Num("1e300", 1e300, False), 2), {}) == math.inf
    assert eval_expr(Pow(Var("x"), 3), {"x": -1e300}) == -math.inf
    with np.errstate(over="ignore"):
        assert eval_expr(Pow(Var("x"), 3), {"x": np.array([-1e300])})[0] == -math.inf


def test_eval_expr_rejects_non_nodes():
    with pytest.raises(TypeError, match="not an expression node"):
        eval_expr("x", {})


# Bisection.


def test_bisect_root_simple_linear():
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5


def test_bisect_root_endpoint_hits():
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0


def test_bisect_root_requires_a_sign_change():
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(lambda x: x * x + 1.0, 0.0, 1.0)


def test_bisect_root_reproduces_the_frozen_quartic_root():
    got = bisect_root(lambda x: x**4 + x**2 - 1.0, 0.5, 1.0)
    assert got == X_STAR
    assert X_STAR == math.nextafter(X_STAR_DOWN, math.inf)


def test_bisect_root_golden_section_value():
    assert bisect_root(lambda y: y * y + y - 1.0, 0.0, 1.0) == Y_STAR


def test_two_bisection_routes_agree():
    # x^4 + x^2 = 1 has the same positive root as x^2 = y*, y* golden
    via_y = bisect_root(lambda x: x * x - Y_STAR, 0.5, 1.0)
    assert abs(via_y - X_STAR) <= 1e-12


def test_frozen_constants_against_high_precision_arithmetic():
    with mpmath.workdps(40):
        golden = (mpmath.sqrt(5) - 1) / 2
        assert float(golden) == Y_STAR
        x_true = mpmath.sqrt(golden)
        assert float(x_true) in (X_STAR, X_STAR_DOWN)
        # the true root lies strictly between the two adjacent doubles
        f = lambda t: mpmath.mpf(t) ** 4 + mpmath.mpf(t) ** 2 - 1
        assert f(X_STAR_DOWN) < 0 < f(X_STAR)
        assert float(mpmath.sqrt(3) / 2) == SQRT3_HALF
        g = lambda t: mpmath.mpf(t) ** 2 - mpmath.mpf("0.75")
        assert g(SQRT3_HALF) < 0 < g(math.nextafter(SQRT3_HALF, math.inf))


# Grid sampling.


def test_grid_rejects_unbounded_or_inverted_ranges():
    eqs = parse_problem("var x; constraint x = 0;")[1]
    with pytest.raises(ValueError, match="unbounded or inverted"):
        grid_solutions(eqs, {"x": (0.0, math.inf)})
    with pytest.raises(ValueError, match="unbounded or inverted"):
        grid_solutions(eqs, {"x": (1.0, 0.0)})
    with pytest.raises(ValueError, match="no variables"):
        grid_solutions(eqs, {})


def test_grid_rejects_oversized_products():
    eqs = parse_problem("var x; var y; var z; constraint x + y = z;")[1]
    bounds = {"x": (0.0, 1.0), "y": (0.0, 1.0), "z": (0.0, 2.0)}
    with pytest.raises(ValueError, match="exceeds max_points"):
        grid_solutions(eqs, bounds)  # 401^3 samples is past the default cap
    assert grid_solutions(eqs, bounds, GridSpec(n=11, tol=1e-9)) != []


def test_grid_drops_points_where_the_difference_overflows():
    # rhs = 1e300^2 overflows to inf, and so does the tolerance 1e-7 (1 + |rhs|)
    eqs = parse_problem("var b in [-1, 0]; constraint b - 1e300 = 1e300^2;")[1]
    assert grid_solutions(eqs, {"b": (-1.0, 0.0)}, GridSpec(n=5)) == []
    # a finite difference at a finite rhs still counts
    eqs = parse_problem("var b in [-1, 0]; constraint b * 1e300 = -1e300;")[1]
    assert grid_solutions(eqs, {"b": (-1.0, 0.0)}, GridSpec(n=5)) == [{"b": -1.0}]


def test_grid_trivial_identity_keeps_every_point():
    eqs = parse_problem("var x; var y; constraint x = x;")[1]
    hits = grid_solutions(eqs, {"x": (0.0, 1.0), "y": (0.0, 1.0)}, GridSpec(n=5))
    assert len(hits) == 25
    assert all(set(h) == {"x", "y"} for h in hits)


def test_grid_diagonal():
    eqs = parse_problem("var x; var y; constraint y = x;")[1]
    hits = grid_solutions(eqs, {"x": (0.0, 1.0), "y": (0.0, 1.0)}, GridSpec(n=3))
    assert hits == [
        {"x": 0.0, "y": 0.0},
        {"x": 0.5, "y": 0.5},
        {"x": 1.0, "y": 1.0},
    ]


def test_grid_exact_integer_roots():
    eqs = parse_problem("var x; constraint x^2 = x;")[1]
    hits = grid_solutions(eqs, {"x": (0.0, 1.0)}, GridSpec(n=2))
    assert [h["x"] for h in hits] == [0.0, 1.0]


def test_grid_no_solutions():
    eqs = parse_problem("var x; constraint x^2 = -1;")[1]
    assert grid_solutions(eqs, {"x": (-10.0, 10.0)}) == []


def test_grid_tolerance_is_relative():
    eqs = [(Var("x"), Num("1000", 1000.0, True))]
    bounds = {"x": (999.99, 1000.01)}
    tight = grid_solutions(eqs, bounds, GridSpec(n=3, tol=1e-7))
    assert [h["x"] for h in tight] == [1000.0]
    loose = grid_solutions(eqs, bounds, GridSpec(n=3, tol=1e-4))
    assert len(loose) == 3


def test_grid_on_the_unit_quartic():
    """At the default density and tolerance no sample point qualifies: the
    solution is irrational and the residual at the nearest grid point is
    around 4e-3.  A tolerance matching the grid pitch finds the cluster."""
    eqs = parse_problem(QUARTIC_UNIT)[1]
    bounds = {"x": (0.0, 1.0), "y": (0.0, 1.0)}
    assert grid_solutions(eqs, bounds) == []
    hits = grid_solutions(eqs, bounds, GridSpec(n=401, tol=5e-3))
    assert len(hits) == 15
    for h in hits:
        assert abs(h["x"] - X_STAR) <= 0.01
        assert abs(h["y"] - Y_STAR) <= 0.01


# Assignment extension and residuals.


def test_extend_assignment_follows_definition_order():
    csp = compile_problem(QUARTIC_UNIT)
    values = extend_assignment(csp, {"x": 0.3, "y": 0.09})
    assert values["_t0"] == 0.09**2
    assert values["_t1"] == 0.09 + values["_t0"]


def test_extend_assignment_handles_all_operations():
    csp = compile_problem("var a; var b; constraint -(a - b) = 1;")
    values = extend_assignment(csp, {"a": 2.0, "b": 5.0})
    assert -3.0 in values.values()  # a - b
    assert 3.0 in values.values()  # -(a - b)
    csp = compile_problem("var a; var b; constraint a * b + 0.1 = a^2;")
    values = extend_assignment(csp, {"a": 2.0, "b": 5.0})
    assert 10.0 in values.values()  # a * b
    assert 0.1 in values.values()
    assert 10.1 in values.values()  # a * b + 0.1; a^2 aliases onto this node


def test_extend_assignment_rejects_unknown_definitions():
    csp = Csp(
        constraints=(),
        initial_box=Box({"x": FULL, "_t0": FULL}),
        source_equations=(),
        declarations=(("x", FULL),),
        aux_defs=(("_t0", "exp", ("x",)),),
    )
    with pytest.raises(ValueError, match="unknown auxiliary definition"):
        extend_assignment(csp, {"x": 1.0})


def test_constraint_residuals():
    values = {"x": 1.0, "y": 2.0, "z": 3.5}
    assert constraint_residual(Constraint("sum", ("x", "y", "z"), cid=0), values) == 0.5
    assert constraint_residual(Constraint("mul", ("x", "y", "z"), cid=0), values) == 1.5
    assert constraint_residual(Constraint("sq", ("y", "z"), cid=0), values) == 0.5
    assert constraint_residual(Constraint("const", ("z",), cid=0, value=1.5), values) == 2.0
    exact = {"x": 3.0, "y": 9.0}
    assert constraint_residual(Constraint("sq", ("x", "y"), cid=0), exact) == 0.0


def test_equation_residuals():
    eq1, eq2 = parse_problem(QUARTIC_UNIT)[1]
    at_half = {"x": 0.5, "y": 0.5}
    assert equation_residual(eq1, at_half) == 0.25
    assert equation_residual(eq2, at_half) == 0.5
    at_root = {"x": X_STAR, "y": Y_STAR}
    assert equation_residual(eq1, at_root) <= 1e-15
    assert equation_residual(eq2, at_root) <= 1e-15
