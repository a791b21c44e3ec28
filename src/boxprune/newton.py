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
of J(X), is computed in plain floats.  f(c) and J(X) round outward; the
products with Y that make up K run in plain floats too, and each row of K
adds an a-priori bound on their rounding error before it rounds outward
(_rows).  K(X) meet X therefore keeps every root in X, and when they do
not meet, X holds no root.  Near a regular root K narrows X
quadratically, where propagation alone converges only linearly.  The
operator (_operator) forms K's rows, or None where K cannot be formed.
The search hands a stalled box to _stage, which meets them with X step
after step; ``krawczyk`` is its first step.

decompose records the equations as one straight-line program
(``Csp.program``) while it flattens them.  Running it computes, for every
register, an interval value and, in forward mode, the interval partial
derivatives with respect to the user variables.  An inexact literal enters
as its one-ulp enclosure, so the operator encloses the system as written.
A Krawczyk step runs the program once: the same sweep bounds each
register at c, for f(c), and over X where a derivative reads those bounds,
for J(X).
"""

from __future__ import annotations

import math
from typing import Iterator

from .boxes import Box
from .decompose import Csp
from .interval import _midpoint, add_bounds, add_up, mul_bounds, square_bounds, sub_bounds, sub_down

__all__ = ["krawczyk"]

# Bounds are (lo, hi) pairs.  A derivative is a dict from a user variable's
# index to the bounds of the partial derivative; an index that is absent
# stands for an exact zero.
_ONE = (1.0, 1.0)
_INF = math.inf
_ETA = 5e-324  # 2**-1074, the least positive float
_TWO_U = 2.0**-52  # twice the unit roundoff


def _run(csp: Csp, c: list[float], lo: list[float], hi: list[float]) -> tuple[list, list]:
    """In one sweep of ``csp.program``: the value bounds of every register
    at the point c, and its derivatives over the box lo, hi.

    Bounds over the box feed only derivatives, so an operation forms them
    only where ``csp.bounded`` says a product or a square reads them.  A
    variable's unit derivative, which sums and differences pass on, scales
    the other factor by one, exactly, so that product is not formed.
    """
    points: list[tuple[float, float]] = []
    values: list[tuple[float, float] | None] = []
    derivs: list[dict[int, tuple[float, float]]] = []
    for (op, a, b), bounded in zip(csp.program, csp.bounded):
        value = None
        if op == "var":
            point, value, d = (c[a], c[a]), (lo[a], hi[a]), {a: _ONE}
        elif op == "const":
            point = value = (a, b)
            d = {}
        elif op == "neg":
            pl, ph = points[a]
            point = (-ph, -pl)
            if bounded:
                # 0.0 - x keeps the bounds free of -0.0, as the *_bounds
                # results are, so a unit product can return them as they are
                al, ah = values[a]
                value = (0.0 - ah, 0.0 - al)
            d = {j: (-h, -l) for j, (l, h) in derivs[a].items()}
        elif op == "sq":
            point = square_bounds(*points[a])
            if bounded:
                value = square_bounds(*values[a])
            # d(u^2) = 2u du; doubling rounds only on overflow
            twice = mul_bounds(2.0, 2.0, *values[a])
            d = {j: twice if dj is _ONE else mul_bounds(*twice, *dj) for j, dj in derivs[a].items()}
        elif op == "mul":
            point = mul_bounds(*points[a], *points[b])
            u, v = values[a], values[b]
            if bounded:
                value = mul_bounds(*u, *v)
            # d(uv) = v du + u dv
            d = {j: v if dj is _ONE else mul_bounds(*v, *dj) for j, dj in derivs[a].items()}
            for j, dj in derivs[b].items():
                term = u if dj is _ONE else mul_bounds(*u, *dj)
                d[j] = add_bounds(*d[j], *term) if j in d else term
        else:
            da, db = derivs[a], derivs[b]
            d = dict(da)
            if op == "add":
                point = add_bounds(*points[a], *points[b])
                if bounded:
                    value = add_bounds(*values[a], *values[b])
                for j, dj in db.items():
                    d[j] = add_bounds(*d[j], *dj) if j in d else dj
            else:
                point = sub_bounds(*points[a], *points[b])
                if bounded:
                    value = sub_bounds(*values[a], *values[b])
                for j, (l, h) in db.items():
                    d[j] = sub_bounds(*d[j], l, h) if j in d else (-h, -l)
        points.append(point)
        values.append(value)
        derivs.append(d)
    return points, derivs


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
        # the pivot row is zero left of col, and what any row holds there
        # never feeds a later pivot or the inverse: work from col on only
        top = [v / p for v in rows[col][col:]]
        rows[col][col:] = top
        for r in range(n):
            row = rows[r]
            f = row[col]
            if r != col and f != 0.0:
                row[col:] = [v - f * w for v, w in zip(row[col:], top)]
    inverse = [row[n:] for row in rows]
    return inverse if all(math.isfinite(v) for row in inverse for v in row) else None


def _radius(lo: float, hi: float, m: float) -> float:
    """max(sub_up(hi, m), sub_up(m, lo)), a radius of [lo, hi] about m, from
    one sub_bounds (TwoSum inline): m - lo rounded up is lo - m rounded
    down, negated."""
    a, b = sub_bounds(lo, hi, m, m)
    return -a if -a > b else b


def _mid_rad(lo: float, hi: float) -> tuple[float, float]:
    """A float m and a radius r with [lo, hi] inside [m - r, m + r]."""
    m = 0.5 * lo + 0.5 * hi
    return m, _radius(lo, hi, m)


def _split(fc: list, jac: list) -> tuple[list, list]:
    """The f(c) bounds ``fc`` as (m, r) pairs, and each J(X) row of ``jac``
    (a dict of bounds, as in _run) as a list of (j, m, r), by _mid_rad."""
    return [_mid_rad(l, h) for l, h in fc], [[(j, *_mid_rad(*d)) for j, d in row.items()] for row in jac]


def _rows(
    y: list[list[float]], f: list, jac: list, c: list[float], lo: list[float], hi: list[float]
) -> Iterator[tuple[float, float]]:
    """Yield the bounds of each row of K(X) = c - Y f(c) + (I - Y J(X)) (X - c)
    for f(c) and the rows of J(X) split by _split, and the box lo, hi
    around c.

    Each row is one float midpoint and one float radius (Rump, "Fast and
    parallel interval arithmetic", BIT 1999).  Every interval of f(c) and
    J(X) is split into a float midpoint m and a radius r rounded up
    (_mid_rad), and X_j - c_j into [-rho_j, rho_j].  Then, exactly, with
    T_i = sum_k y_ik fm_k and M_ij = delta_ij - sum_k y_ik jm_kj,

        K_i in c_i - T_i +- (sum_k |y_ik| fr_k + sum_j (|M_ij| + sum_k |y_ik| jr_kj) rho_j).

    t_i and C_ij are T_i and M_ij summed in floats, over J's entries only.
    A sum of at most n + 1 products, in any order, is off by at most
    g * (sum of their magnitudes) + n * eta, where g = 2(n + 1)u >=
    gamma_{n+1} bounds the relative error (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, 3.1), u = 2**-53, and eta = 2**-1074
    bounds twice the error of a product that underflows (sums of subnormals
    are exact).  Hence K_i lies in c_i - t_i +- (S_i + n eta), where

        S_i = sum_k |y_ik| v_k + sum_j (|C_ij| + n eta) rho_j + g rho_i,
        v_k = fr_k + g |fm_k| + sum_j (jr_kj + g |jm_kj|) rho_j.

    S_i is built from nonnegative floats, and a rounded sum or product of
    nonnegative a and b is at least (a o b)(1 - u), less eta/2 for a
    product that underflows.  At most m = 3n + 6 roundings lie between any
    term and s_i, the last of them the scaling by 1 + 2mu >= (1 - u)**-m,
    so the scaled float sum covers S_i but for what its products lose to
    underflow.  Inside v_k, an eta added to jr + g |jm| before the product
    with rho_j covers the loss of g |jm|, and (entries + 1) eta the losses
    of the other products.  tau = 4(n + 1) eta covers the n eta of t_i,
    and twice over the (n + 1) eta that the 2n + 2 products of s_i itself
    can lose.  The row c_i - t_i +- s_i is then rounded outward.

    A non-finite midpoint or radius, or an overflow, makes t_i or s_i
    infinite or NaN; that row is [-inf, inf] and narrows nothing.
    """
    n = len(y)
    g = (n + 1) * _TWO_U
    nu = n * _ETA
    tau = 4 * (n + 1) * _ETA
    sigma = 1.0 + (3 * n + 6) * _TWO_U
    rho = [_radius(l, h, cj) for l, h, cj in zip(lo, hi, c)]
    v = []
    for (fm, fr), row in zip(f, jac):
        vk = fr + g * abs(fm) + (len(row) + 1) * _ETA
        for j, m, r in row:
            vk += (r + g * abs(m) + _ETA) * rho[j]
        v.append(vk)
    for i, yi in enumerate(y):
        t = 0.0
        s = g * rho[i] + tau
        # C_ij, row i of I - Y mid(J)
        ci = [0.0] * n
        ci[i] = 1.0
        for yik, (fm, _), vk, row in zip(yi, f, v, jac):
            if yik == 0.0:
                continue
            t += yik * fm
            s += abs(yik) * vk
            for j, m, _ in row:
                ci[j] -= yik * m
        for cij, rj in zip(ci, rho):
            s += (abs(cij) + nu) * rj
        s *= sigma
        # a NaN fails both tests
        if not (-_INF < t < _INF and s < _INF):
            yield -_INF, _INF
            continue
        a, b = sub_bounds(c[i], c[i], t, t)
        yield sub_down(a, s), add_up(b, s)


def _operator(csp: Csp, lo: list[float], hi: list[float]) -> Iterator[tuple[float, float]] | None:
    """The rows of K(X) (_rows) for the user bounds lo, hi of a nonempty box
    X, or None when K cannot be formed: the system is not square (as many
    equations as user variables, at least one), a bound is infinite, or the
    midpoint of J(X) has no float inverse Y."""
    if not len(csp.outputs) == len(lo) > 0 or not all(math.isfinite(v) for v in lo + hi):
        return None
    # a float inside each interval
    c = [_midpoint(l, h) for l, h in zip(lo, hi)]
    points, derivs = _run(csp, c, lo, hi)
    f, jac = _split([points[r] for r in csp.outputs], [derivs[r] for r in csp.outputs])
    # Y inverts the midpoint of J(X), whose absent entries are zero
    mid = [{j: m for j, m, _ in row} for row in jac]
    y = _inverse([[mi.get(j, 0.0) for j in range(len(c))] for mi in mid])
    return None if y is None else _rows(y, f, jac, c, lo, hi)


def _stage(csp: Csp, box: Box) -> Iterator[Box]:
    """Krawczyk steps from a stalled, nonempty box: K(X) meet X on the user
    variables, then the same from each result, for as long as each narrows
    the box and halves its widest user variable.  Yields the empty box when
    a meet is empty, ``box`` itself when nothing narrows, and nothing once
    _operator cannot form K."""
    slots = [box._slot[v] for v in csp.user_vars]
    lo, hi = [box._lo[s] for s in slots], [box._hi[s] for s in slots]
    while (rows := _operator(csp, lo, hi)) is not None:
        narrowed_lo, narrowed_hi = box._lo[:], box._hi[:]
        for i, (k_lo, k_hi) in enumerate(rows):
            # meet with X_i
            new_lo = k_lo if k_lo > lo[i] else lo[i]
            new_hi = k_hi if k_hi < hi[i] else hi[i]
            if new_lo > new_hi:
                yield box._emptied()
                return
            narrowed_lo[slots[i]], narrowed_hi[slots[i]] = new_lo, new_hi
        if narrowed_lo == box._lo and narrowed_hi == box._hi:
            yield box
            return
        box = Box._adopt(box._slot, narrowed_lo, narrowed_hi)
        yield box
        widest = max(h - l for l, h in zip(lo, hi))
        lo, hi = [narrowed_lo[s] for s in slots], [narrowed_hi[s] for s in slots]
        if not max(h - l for l, h in zip(lo, hi)) <= 0.5 * widest:
            return


def krawczyk(csp: Csp, box: Box) -> Box:
    """K(X) meet X on the user variables of ``box``, _stage's first step;
    other variables keep their intervals.

    Returns the empty box when the meet is empty: ``box`` holds no root.
    Returns ``box`` itself when nothing narrows, which includes an empty
    box and every box over which _operator cannot form K.
    """
    return box if box.is_empty else next(_stage(csp, box), box)
