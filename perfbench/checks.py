"""Correctness checks, run outside the timed region.

Each check returns None when the answer is right, or a one-line reason.
Roots come from mpmath at 40 digits, so they share no arithmetic with the
solver.  Application counts are deliberately not checked: they are
metrics, and algorithm changes may move them.
"""

from __future__ import annotations

import json
import re

import mpmath

from boxprune import GridSpec, grid_solutions

mpmath.mp.dps = 40

_BINDING = re.compile(r"(\w+)=\[([^,\]]+),([^\]]+)\]")


def _bounds(box) -> dict[str, tuple[float, float]]:
    return {name: (iv.lo, iv.hi) for name, iv in box.items()}


def text_boxes(stdout: str) -> list[dict[str, tuple[float, float]]]:
    """Boxes printed by the CLI's text format ("box <path>: {x=[lo,hi], ...}")."""
    boxes = []
    for line in stdout.splitlines():
        if line.startswith("box "):
            boxes.append({m[0]: (float(m[1]), float(m[2])) for m in _BINDING.findall(line)})
    return boxes


def json_boxes(obj: dict) -> list[dict[str, tuple[float, float]]]:
    return [
        {name: (float(lo), float(hi)) for name, (lo, hi) in entry["bindings"].items()}
        for entry in obj["boxes"]
    ]


def _holds(box: dict, root: dict) -> bool:
    return all(mpmath.mpf(box[v][0]) <= r <= mpmath.mpf(box[v][1]) for v, r in root.items())


def roots_enclosed(boxes: list[dict], roots: list[dict]) -> str | None:
    for root in roots:
        if not any(_holds(box, root) for box in boxes):
            return f"root {({v: mpmath.nstr(r, 12) for v, r in root.items()})} lies in no emitted box"
    return None


def narrower_than(boxes: list[dict], user_vars, eps: float) -> str | None:
    for box in boxes:
        for v in user_vars:
            lo, hi = box[v]
            if not hi - lo <= eps:
                return f"atomic box has {v} of width {hi - lo} > eps {eps}"
    return None


def circle_roots() -> list[dict]:
    y = (mpmath.sqrt(5) - 1) / 2
    x = mpmath.sqrt(y)
    return [{"x": -x, "y": y}, {"x": x, "y": y}]


def hyperbola_roots() -> list[dict]:
    return [{"x": mpmath.mpf(-1), "y": mpmath.mpf(-1)}, {"x": mpmath.mpf(1), "y": mpmath.mpf(1)}]


def broyden_root(n: int, box: dict) -> dict:
    """Newton's method at 40 digits from the midpoint of an emitted box."""

    def f(*x):
        out = []
        for i in range(n):
            v = (3 - 2 * x[i]) * x[i] + 1
            if i > 0:
                v -= x[i - 1]
            if i < n - 1:
                v -= 2 * x[i + 1]
            out.append(v)
        return out

    def jac(*x):
        rows = []
        for i in range(n):
            row = [mpmath.mpf(0)] * n
            row[i] = 3 - 4 * x[i]
            if i > 0:
                row[i - 1] = mpmath.mpf(-1)
            if i < n - 1:
                row[i + 1] = mpmath.mpf(-2)
            rows.append(row)
        return mpmath.matrix(rows)

    names = [f"x{i}" for i in range(1, n + 1)]
    start = [(mpmath.mpf(box[v][0]) + mpmath.mpf(box[v][1])) / 2 for v in names]
    sol = mpmath.findroot(f, start, J=jac)
    sol = [sol] if n == 1 else list(sol)
    if max(abs(r) for r in f(*sol)) > mpmath.mpf(10) ** -30:
        raise ArithmeticError("Newton did not converge")
    return dict(zip(names, sol))


def report_boxes(report) -> list[dict[str, tuple[float, float]]]:
    return [_bounds(box) for box, _path in report.atomic_boxes]


def check_broyden(n: int, boxes: list[dict], incomplete: bool, eps: float) -> str | None:
    if incomplete or not boxes:
        return "Broyden system gave no complete set of enclosures"
    reason = narrower_than(boxes, [f"x{i}" for i in range(1, n + 1)], eps)
    if reason:
        return reason
    return roots_enclosed(boxes, [broyden_root(n, box) for box in boxes])


def check_roots(roots: list[dict], boxes: list[dict], incomplete: bool, eps: float) -> str | None:
    if incomplete:
        return "search stopped at the box budget"
    return narrower_than(boxes, list(roots[0]), eps) or roots_enclosed(boxes, roots)


def check_diagonal(boxes: list[dict], incomplete: bool) -> str | None:
    """The curve x = y on [-2, 2]^2 fills the 4096-box budget, every box on the diagonal."""
    if not incomplete:
        return "curve search was expected to exhaust the box budget"
    if len(boxes) != 4096:
        return f"curve gave {len(boxes)} boxes, expected 4096"
    for box in boxes:
        (xlo, xhi), (ylo, yhi) = box["x"], box["y"]
        if xlo > yhi or ylo > xhi:
            return f"curve box {box} misses the diagonal"
    return None


def grid_spec(dims: int) -> GridSpec:
    """Dyadic grids small enough for a quick exhaustive sweep."""
    return GridSpec(n={1: 1025, 2: 257}.get(dims, 65), tol=1e-12)


def check_grid_hits(csp, report) -> str | None:
    """Every exact grid hit of the source equations lies in an emitted box.

    A search stopped at the box budget emitted only part of its answer, so
    only complete reports are held to this."""
    if report.incomplete:
        return None
    boxes = report_boxes(report)
    bounds = {name: (iv.lo, iv.hi) for name, iv in csp.declarations}
    for point in grid_solutions(csp.source_equations, bounds, grid_spec(len(bounds))):
        if not any(all(b[v][0] <= x <= b[v][1] for v, x in point.items()) for b in boxes):
            return f"grid solution {point} lies in no emitted box"
    return None


def check_cli_json_grid(stdout: str, roots: list[dict]) -> str | None:
    obj = json.loads(stdout)
    if not obj.get("grid_check", {}).get("agreement"):
        return f"grid check disagrees: {obj.get('grid_check')}"
    return roots_enclosed(json_boxes(obj), roots)
