"""Interval Newton: the Krawczyk operator over a system's source equations.

Read each source equation lhs = rhs as f_i = lhs - rhs.  For a square
system (as many equations as user variables) and a box X whose user
bounds are all finite, the Krawczyk operator is

    K(X) = c - Y f(c) + (I - Y J(X)) (X - c)

where c is the midpoint of X, J(X) encloses the Jacobian of f over X, and
Y is any real matrix (Krawczyk 1969; Neumaier, *Interval Methods for
Systems of Equations*, 1990).  By the mean value theorem, applied to one
equation at a time along the segment from c to a root x* in X, every root
of f in X lies in K(X), whatever Y is.  So Y, an inverse of the midpoint
of J(X), is computed in plain floats; only f(c), J(X) and the products
and sums that make up K carry the proof, and they round outward.  K(X) meet
X therefore keeps every root in X, and when they do not meet, X holds no
root.  Near a regular root K narrows X quadratically, where propagation
alone converges only linearly.

The equations are compiled, on first use and once per Csp, to one
straight-line program whose instructions compute an interval value and,
in forward mode, the interval partial derivatives with respect to the user
variables.  An inexact literal enters as its one-ulp enclosure, as in
decompose, so the operator encloses the system as written.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .boxes import Box
from .decompose import Add, Csp, ExprAst, Mul, Neg, Num, Pow, Sub, Var
from .interval import _midpoint, add_bounds, mul_bounds, square_bounds, sub_bounds

__all__ = ["krawczyk"]

# Bounds are (lo, hi) pairs.  A derivative is a dict from a user variable's
# index to the bounds of the partial derivative; an index that is absent
# stands for an exact zero.
_ONE = (1.0, 1.0)
_VAR, _CONST, _ADD, _SUB, _NEG, _MUL, _SQ = range(7)


class _Program(NamedTuple):
    """``code[r]`` is the instruction computing register r: (_VAR, j,
    None) for the j-th user variable, (_CONST, lo, hi), or an operation on
    earlier registers a and b (b is None for _NEG and _SQ).
    ``outputs[i]`` is the register of f_i."""

    code: tuple[tuple, ...]
    outputs: tuple[int, ...]


def _compile(csp: Csp) -> _Program:
    index = {name: j for j, name in enumerate(csp.user_vars)}
    code: list[tuple] = []
    # structurally equal subexpressions share one register
    registers: dict[tuple, int] = {}

    def emit(instruction: tuple) -> int:
        r = registers.get(instruction)
        if r is None:
            r = registers[instruction] = len(code)
            code.append(instruction)
        return r

    def power(base: int, k: int) -> int:
        # square and multiply, as decompose expands powers
        if k == 1:
            return base
        if k % 2 == 0:
            return emit((_SQ, power(base, k // 2), None))
        return emit((_MUL, power(base, k - 1), base))

    def rep(node: ExprAst) -> int:
        if isinstance(node, Var):
            return emit((_VAR, index[node.name], None))
        if isinstance(node, Num):
            if node.exact:
                return emit((_CONST, node.value + 0.0, node.value + 0.0))
            iv = node.enclosure()
            return emit((_CONST, iv.lo, iv.hi))
        if isinstance(node, Add):
            return emit((_ADD, rep(node.lhs), rep(node.rhs)))
        if isinstance(node, Sub):
            return emit((_SUB, rep(node.lhs), rep(node.rhs)))
        if isinstance(node, Mul):
            return emit((_MUL, rep(node.lhs), rep(node.rhs)))
        if isinstance(node, Neg):
            return emit((_NEG, rep(node.operand), None))
        if isinstance(node, Pow):
            return power(rep(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    outputs = tuple(emit((_SUB, rep(lhs), rep(rhs))) for lhs, rhs in csp.source_equations)
    return _Program(tuple(code), outputs)


def _program(csp: Csp) -> _Program:
    program = csp.jacobian
    if program is None:
        program = _compile(csp)
        object.__setattr__(csp, "jacobian", program)
    return program


def _run(code: tuple[tuple, ...], lo: list[float], hi: list[float]) -> tuple[list, list]:
    """Value bounds and derivatives of every register over the box lo, hi."""
    values: list[tuple[float, float]] = []
    derivs: list[dict[int, tuple[float, float]]] = []
    for op, a, b in code:
        if op == _VAR:
            value, d = (lo[a], hi[a]), {a: _ONE}
        elif op == _CONST:
            value, d = (a, b), {}
        elif op == _NEG:
            (al, ah), da = values[a], derivs[a]
            value, d = (-ah, -al), {j: (-h, -l) for j, (l, h) in da.items()}
        elif op == _SQ:
            value = square_bounds(*values[a])
            # d(u^2) = 2u du; doubling rounds only on overflow
            twice = mul_bounds(2.0, 2.0, *values[a])
            d = {j: mul_bounds(*twice, *dj) for j, dj in derivs[a].items()}
        elif op == _MUL:
            u, v = values[a], values[b]
            value = mul_bounds(*u, *v)
            # d(uv) = v du + u dv
            d = {j: mul_bounds(*v, *dj) for j, dj in derivs[a].items()}
            for j, dj in derivs[b].items():
                term = mul_bounds(*u, *dj)
                d[j] = add_bounds(*d[j], *term) if j in d else term
        else:
            (al, ah), (bl, bh) = values[a], values[b]
            da, db = derivs[a], derivs[b]
            if op == _ADD:
                value = add_bounds(al, ah, bl, bh)
                d = dict(da)
                for j, dj in db.items():
                    d[j] = add_bounds(*d[j], *dj) if j in d else dj
            else:
                value = sub_bounds(al, ah, bl, bh)
                d = dict(da)
                for j, (l, h) in db.items():
                    d[j] = sub_bounds(*d[j], l, h) if j in d else (-h, -l)
        values.append(value)
        derivs.append(d)
    return values, derivs


def _inverse(a: list[list[float]]) -> list[list[float]] | None:
    """A float inverse by Gauss-Jordan elimination with partial pivoting;
    None for a zero pivot or a non-finite entry."""
    n = len(a)
    rows = [row + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        p = rows[pivot][col]
        if not (p != 0.0 and math.isfinite(p)):
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [v / p for v in rows[col]]
        rows[col] = top
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0.0:
                rows[r] = [v - f * w for v, w in zip(rows[r], top)]
    inverse = [row[n:] for row in rows]
    if not all(math.isfinite(v) for row in inverse for v in row):
        return None
    return inverse


def _is_square(csp: Csp) -> bool:
    """Whether the system has as many source equations as user variables,
    at least one; only then can a Krawczyk step narrow a box."""
    return len(csp.source_equations) == len(csp.user_vars) > 0


def krawczyk(csp: Csp, box: Box) -> Box:
    """K(X) meet X on the user variables of ``box``; other variables keep
    their intervals.

    Returns the empty box when the meet is empty: ``box`` holds no root.
    Returns ``box`` itself when nothing narrows, which includes a system
    that is not square, a box with an infinite or empty user bound, and a
    midpoint Jacobian with no float inverse.
    """
    if not _is_square(csp) or box.is_empty:
        return box
    n = len(csp.user_vars)
    slots = [box._slot[v] for v in csp.user_vars]
    lo = [box._lo[s] for s in slots]
    hi = [box._hi[s] for s in slots]
    if not all(math.isfinite(v) for v in lo + hi):
        return box
    program = _program(csp)
    # a float inside each interval
    c = [_midpoint(l, h) for l, h in zip(lo, hi)]
    values, _ = _run(program.code, c, c)
    _, derivs = _run(program.code, lo, hi)
    fc = [values[r] for r in program.outputs]
    jac = [derivs[r] for r in program.outputs]
    y = _inverse([[0.5 * l + 0.5 * h for l, h in (row.get(j, (0.0, 0.0)) for j in range(n))] for row in jac])
    if y is None:
        return box
    # X - c, an enclosure since c is a float
    offsets = [sub_bounds(l, h, cj, cj) for l, h, cj in zip(lo, hi, c)]
    narrowed_lo, narrowed_hi = box._lo[:], box._hi[:]
    changed = False
    for i, yi in enumerate(y):
        # k = c_i - (Y f(c))_i + sum_j (I - Y J(X))_ij (X_j - c_j)
        k = (c[i], c[i])
        # m[j] accumulates row i of I - Y J(X)
        m = {i: _ONE}
        for yik, fk, jk in zip(yi, fc, jac):
            if yik == 0.0:
                continue
            k = sub_bounds(*k, *mul_bounds(yik, yik, *fk))
            for j, jkj in jk.items():
                term = mul_bounds(yik, yik, *jkj)
                m[j] = sub_bounds(*m[j], *term) if j in m else (-term[1], -term[0])
        for j, mij in m.items():
            k = add_bounds(*k, *mul_bounds(*mij, *offsets[j]))
        # meet with X_i; a NaN bound would fail both tests and narrow nothing
        new_lo = k[0] if k[0] > lo[i] else lo[i]
        new_hi = k[1] if k[1] < hi[i] else hi[i]
        if new_lo > new_hi:
            return box._emptied()
        if new_lo != lo[i] or new_hi != hi[i]:
            narrowed_lo[slots[i]] = new_lo
            narrowed_hi[slots[i]] = new_hi
            changed = True
    return Box._adopt(box._slot, narrowed_lo, narrowed_hi) if changed else box
