"""Seeded problem generators for the benchmark workloads.

Every problem is plain problem-language text, so the in-process and the
command-line workloads feed the solver exactly what a user would.  Nothing
here imports boxprune.
"""

from __future__ import annotations

import random

CIRCLE = "var x in [-2, 2]; var y in [-2, 2]; constraint y = x^2; constraint x^2 + y^2 = 1;"
HYPERBOLA = "var x in [-inf, inf]; var y in [-inf, inf]; constraint x*y = 1; constraint x = y;"
DIAGONAL = "var x in [-2, 2]; var y in [-2, 2]; constraint x = y;"

# Real roots at (0, 0) and (-1/2, 1/4), yet worklist propagation converges
# linearly towards the double root and overruns its 1,000,000-application
# budget.  Kept in random_mix so that the defect stays visible.
PINNED_OVERRUN = "var a in [-2, 2]; var b in [-2, 2]; constraint b = a^2; constraint a + b = -b;"


def broyden(n: int, repeated: bool = False) -> str:
    """Broyden tridiagonal system (3 - 2 x_i) x_i + 1 - x_{i-1} - 2 x_{i+1} = 0 on [-1, 1]^n.

    With ``repeated`` the same system is written 3 x_i - x_i x_i 2 + ...,
    which decomposes into a product constraint with x_i in both argument
    slots, so every application takes the contractors' iterative path for
    repeated variables."""
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


def chain(links: int) -> str:
    """Sparse chain x_i x_{i+1} + x_i^2 - 3 x_{i+1} = i mod 5 over links + 1 variables."""
    decls = [f"var x{i} in [-10, 10];" for i in range(1, links + 2)]
    eqs = [f"constraint x{i}*x{i + 1} + x{i}^2 - 3*x{i + 1} = {i % 5};" for i in range(1, links + 1)]
    return " ".join(decls + eqs)


def random_system(rng: random.Random) -> str:
    """One draw from the random-system grammar of the schedule-confluence
    acceptance criterion (tests/test_acceptance.py, criterion 9)."""
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
