"""Brute-force checking, independent of the interval machinery.

Everything here works on ordinary floats (and numpy arrays of them): dense
grid sampling to locate near-solutions of the original equations, bisection
to pin down 1-d roots, and residual evaluation for flattened constraints.
The only shared code is the expression tree itself, so answers produced
here do not inherit bugs from the directed-rounding layer they are used to
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .contractors import Constraint
from .decompose import Add, Csp, ExprAst, Mul, Neg, Num, Pow, Sub, Var

__all__ = [
    "GridSpec",
    "eval_expr",
    "grid_solutions",
    "bisect_root",
    "extend_assignment",
    "constraint_residual",
    "equation_residual",
]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Sampling density and the relative tolerance for "looks like a root"."""

    n: int = 401
    tol: float = 1e-7
    max_points: int = 20_000_000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 samples per axis, got {self.n}")
        if not self.tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")


def eval_expr(node: ExprAst, env: Mapping[str, object]):
    """Evaluate an expression over floats or numpy arrays."""
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Add):
        return eval_expr(node.lhs, env) + eval_expr(node.rhs, env)
    if isinstance(node, Sub):
        return eval_expr(node.lhs, env) - eval_expr(node.rhs, env)
    if isinstance(node, Mul):
        return eval_expr(node.lhs, env) * eval_expr(node.rhs, env)
    if isinstance(node, Neg):
        return -eval_expr(node.operand, env)
    if isinstance(node, Pow):
        base = eval_expr(node.base, env)
        try:
            return base ** node.exponent
        except OverflowError:  # past the float range, where a product rounds to infinity
            return math.copysign(math.inf, base) if node.exponent % 2 else math.inf
    raise TypeError(f"not an expression node: {node!r}")


def grid_solutions(
    equations: Sequence[tuple[ExprAst, ExprAst]],
    bounds: Mapping[str, tuple[float, float]],
    spec: GridSpec | None = None,
) -> list[dict[str, float]]:
    """Grid points where every equation holds to within spec.tol (relative).

    Samples the axis-aligned box given by ``bounds`` on a regular grid and
    keeps points with |lhs - rhs| <= tol * (1 + |rhs|) for all equations.
    A point where lhs - rhs overflows is no hit: once rhs is infinite the
    tolerance is too, and would pass any lhs.
    """
    spec = spec or GridSpec()
    names = sorted(bounds)
    if not names:
        raise ValueError("no variables to sample")
    total = 1
    for name in names:
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"cannot sample unbounded or inverted range for {name!r}")
        total *= spec.n
    if total > spec.max_points:
        raise ValueError(f"grid of {total} points exceeds max_points={spec.max_points}")
    # imported here so that loading the package does not pay for numpy
    import numpy as np

    axes = [np.linspace(bounds[name][0], bounds[name][1], spec.n) for name in names]
    grids = np.meshgrid(*axes, indexing="ij")
    env = dict(zip(names, grids))
    mask = np.ones(grids[0].shape, dtype=bool)
    for lhs, rhs in equations:
        lv = eval_expr(lhs, env)
        rv = eval_expr(rhs, env)
        mask &= np.abs(lv - rv) <= spec.tol * (1.0 + np.abs(rv))
        # an overflowing rhs makes that tolerance infinite, so it passes any
        # lhs; a finite lhs - rhs needs a finite rhs
        mask &= np.isfinite(rv)
    hits = np.argwhere(mask)
    return [
        {name: float(axes[k][idx[k]]) for k, name in enumerate(names)}
        for idx in hits
    ]


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-15,
) -> float:
    """Root of f in [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def extend_assignment(csp: Csp, user_values: Mapping[str, float]) -> dict[str, float]:
    """Extend user-variable values to the auxiliaries, in definition order."""
    values = dict(user_values)
    for name, op, operands in csp.aux_defs:
        if op == "const":
            values[name] = operands[0]
        elif op == "add":
            values[name] = values[operands[0]] + values[operands[1]]
        elif op == "sub":
            values[name] = values[operands[0]] - values[operands[1]]
        elif op == "mul":
            values[name] = values[operands[0]] * values[operands[1]]
        elif op == "neg":
            values[name] = -values[operands[0]]
        elif op == "sq":
            values[name] = values[operands[0]] ** 2
        else:
            raise ValueError(f"unknown auxiliary definition {op!r}")
    return values


def constraint_residual(con: Constraint, values: Mapping[str, float]) -> float:
    """|defect| of one primitive constraint at a point assignment."""
    if con.kind == "sum":
        x, y, z = (values[a] for a in con.args)
        return abs(x + y - z)
    if con.kind == "mul":
        x, y, z = (values[a] for a in con.args)
        return abs(x * y - z)
    if con.kind == "sq":
        x, y = (values[a] for a in con.args)
        return abs(x * x - y)
    if con.kind == "const":
        return abs(values[con.args[0]] - con.value)
    raise ValueError(f"unknown constraint kind {con.kind!r}")


def equation_residual(
    equation: tuple[ExprAst, ExprAst], values: Mapping[str, float]
) -> float:
    lhs, rhs = equation
    return abs(eval_expr(lhs, values) - eval_expr(rhs, values))
