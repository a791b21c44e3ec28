"""Problem language: parsing, expression trees, and flattening to primitives.

Grammar, one statement per ``;`` with ``#`` line comments::

    problem    := (decl | constraint)*
    decl       := 'var' IDENT ('in' '[' bound ',' bound ']')? ';'
    constraint := 'constraint' expr '=' expr ';'
    expr       := term (('+' | '-') term)*
    term       := factor ('*' factor)*
    factor     := '-'? atom ('^' INT)?
    atom       := IDENT | NUMBER | '(' expr ')'
    bound      := '-'? NUMBER

A declaration without bounds means the whole real line.  Variables must be
declared before use and start with a letter; names beginning with ``_`` are
reserved for the auxiliaries that flattening introduces.

``decompose`` rewrites each equation into primitive constraints over
{sum, mul, sq, const}, introducing one auxiliary variable per distinct
non-leaf subexpression (structurally identical subtrees are shared), except
that an equation whose one side is a bare variable or literal names the
other side's root directly instead of spending an auxiliary on it.
Subtraction ``l - r = t`` becomes ``sum(t, r, l)``, negation uses a shared
zero constant, and powers expand by square and multiply, so ``x^4 + x^2``
shares its ``x^2`` node.  Decimal literals that are not exactly
representable become a fresh variable whose initial interval is the
one-ulp-outward enclosure of the literal's value; exact literals become
``const`` constraints.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Union

from .boxes import Box
from .contractors import Constraint, Lifted, lift
from .interval import FULL, Interval

__all__ = [
    "ParseError",
    "Var",
    "Num",
    "Add",
    "Sub",
    "Mul",
    "Neg",
    "Pow",
    "ExprAst",
    "Csp",
    "parse_problem",
    "decompose",
    "compile_problem",
    "render_expr",
    "render_problem",
]


class ParseError(Exception):
    """Syntax or scoping error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Num:
    """A decimal literal; `text` is kept verbatim for canonical rendering."""

    text: str
    value: float
    exact: bool

    @classmethod
    def from_text(cls, text: str) -> "Num":
        frac = _text_fraction(text)
        value = float(frac)
        if math.isinf(value):
            raise ValueError(f"constant out of float range: {text}")
        return cls(text, value, Fraction(value) == frac)

    def enclosure(self) -> Interval:
        """Tightest float interval containing the literal's real value."""
        frac = _text_fraction(self.text)
        return Interval(_float_le(frac), _float_ge(frac))


@dataclass(frozen=True, slots=True)
class Add:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True, slots=True)
class Sub:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True, slots=True)
class Mul:
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "ExprAst"
    exponent: int


ExprAst = Union[Var, Num, Add, Sub, Mul, Neg, Pow]


def _text_fraction(text: str) -> Fraction:
    return Fraction(Decimal(text))


def _float_le(frac: Fraction) -> float:
    """Greatest float <= frac."""
    v = float(frac)
    if math.isinf(v):
        return math.nextafter(v, -math.inf) if v > 0 else v
    return v if Fraction(v) <= frac else math.nextafter(v, -math.inf)


def _float_ge(frac: Fraction) -> float:
    v = float(frac)
    if math.isinf(v):
        return math.nextafter(v, math.inf) if v < 0 else v
    return v if Fraction(v) >= frac else math.nextafter(v, math.inf)


# Tokenizer.

_KEYWORDS = frozenset({"var", "constraint", "in", "inf"})
_NUM_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_OPS = frozenset("+-*^()=;[],")
_INT_RE = re.compile(r"\d+")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
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
            toks.append(_Token("num", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if ch in _OPS:
            toks.append(_Token("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.declared: dict[str, Interval] = {}

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof" else f"expected {text!r}, found end of input")
        return self.advance()

    def parse(self) -> tuple[list[tuple[str, Interval]], list[tuple[ExprAst, ExprAst]]]:
        decls: list[tuple[str, Interval]] = []
        equations: list[tuple[ExprAst, ExprAst]] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "var":
                decls.append(self.parse_decl())
            elif tok.kind == "ident" and tok.text == "constraint":
                equations.append(self.parse_constraint())
            else:
                self.fail("expected 'var' or 'constraint'")
        return decls, equations

    def parse_decl(self) -> tuple[str, Interval]:
        self.advance()  # 'var'
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a variable name")
        if tok.text in _KEYWORDS:
            self.fail(f"{tok.text!r} is a reserved word")
        if tok.text in self.declared:
            self.fail(f"variable {tok.text!r} already declared")
        name = self.advance().text
        iv = FULL
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "in":
            self.advance()
            self.expect_op("[")
            lo_tok, lo = self.parse_bound()
            self.expect_op(",")
            _, hi = self.parse_bound()
            self.expect_op("]")
            if lo > hi:
                raise ParseError(f"inverted bounds for {name!r}: {lo} > {hi}", lo_tok.line, lo_tok.col)
            lo_f = lo if isinstance(lo, float) else _float_le(lo)
            hi_f = hi if isinstance(hi, float) else _float_ge(hi)
            try:
                iv = Interval(lo_f, hi_f)
            except ValueError as exc:
                raise ParseError(str(exc), lo_tok.line, lo_tok.col) from None
        self.expect_op(";")
        self.declared[name] = iv
        return name, iv

    def parse_bound(self) -> tuple[_Token, "Fraction | float"]:
        """One declaration bound: a signed decimal, or a signed 'inf'."""
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
        num = self.peek()
        if num.kind == "ident" and num.text == "inf":
            self.advance()
            return tok, sign * math.inf
        if num.kind != "num":
            self.fail("expected a number or 'inf'")
        self.advance()
        return tok, sign * _text_fraction(num.text)

    def parse_constraint(self) -> tuple[ExprAst, ExprAst]:
        self.advance()  # 'constraint'
        lhs = self.parse_expr()
        self.expect_op("=")
        rhs = self.parse_expr()
        self.expect_op(";")
        return lhs, rhs

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self) -> ExprAst:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                node = Mul(node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> ExprAst:
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.peek()
            if exp.kind != "num" or not _INT_RE.fullmatch(exp.text) or int(exp.text) < 1:
                self.fail("exponent must be a positive integer")
            self.advance()
            k = int(exp.text)
            node = node if k == 1 else Pow(node, k)
        if negate:
            # fold the sign into a bare literal; -x^2 stays Neg(Pow(x, 2))
            return _negated_num(node) if isinstance(node, Num) else Neg(node)
        return node

    def parse_atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                return Num.from_text(tok.text)
            except (ValueError, ArithmeticError):
                self.fail(f"bad numeric literal {tok.text!r}", tok)
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                self.fail(f"{tok.text!r} is a reserved word")
            if tok.text not in self.declared:
                self.fail(f"undeclared variable {tok.text!r}")
            self.advance()
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        self.fail("expected a variable, number, or parenthesized expression")


def _negated_num(num: Num) -> Num:
    text = num.text[1:] if num.text.startswith("-") else "-" + num.text
    frac = _text_fraction(text)
    return Num(text, float(frac), Fraction(float(frac)) == frac)


def parse_problem(text: str) -> tuple[list[tuple[str, Interval]], list[tuple[ExprAst, ExprAst]]]:
    """Parse a problem into declarations and equations; raises ParseError."""
    return _Parser(text).parse()


# Flattening.


@dataclass(frozen=True, slots=True)
class Csp:
    """A flattened constraint system.

    ``constraints`` hold primitive constraints with ids 0..m-1 in emission
    order.  ``variables`` is the union of user variables and auxiliaries;
    ``initial_box`` binds all of them (auxiliaries are unconstrained unless
    they stand for an inexact literal).  ``aux_defs`` lists, in dependency
    order, how to evaluate each auxiliary from earlier values, which is what
    brute-force checking uses to extend a user-variable assignment.

    The system is compiled once at construction for the propagation loop.
    ``names`` holds the variables in name order, and a variable's position
    there is its slot.  ``watchers[slot]`` holds the ascending ids of the
    constraints mentioning that variable, and ``lifted[cid]`` is constraint
    cid compiled against the slots (``contractors.lift``).  Construction
    raises ValueError when the ids are not 0..m-1 in order or a constraint
    names an undeclared variable.
    """

    constraints: tuple[Constraint, ...]
    variables: frozenset[str]
    user_vars: tuple[str, ...]
    initial_box: Box
    source_equations: tuple[tuple[ExprAst, ExprAst], ...]
    declarations: tuple[tuple[str, Interval], ...]
    aux_defs: tuple[tuple[str, str, tuple], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    watchers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    lifted: tuple[Lifted, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(sorted(self.variables))
        slot = {v: i for i, v in enumerate(names)}
        watchers: list[list[int]] = [[] for _ in names]
        for cid, con in enumerate(self.constraints):
            if con.cid != cid:
                raise ValueError(f"constraint at position {cid} has id {con.cid}")
            for v in con.variables:
                if v not in slot:
                    raise ValueError(f"constraint c{cid} names undeclared variable {v!r}")
                watchers[slot[v]].append(cid)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "watchers", tuple(map(tuple, watchers)))
        object.__setattr__(self, "lifted", tuple(lift(con, slot) for con in self.constraints))


_ZERO = Num("0", 0.0, True)


def decompose(
    declarations: list[tuple[str, Interval]],
    equations: list[tuple[ExprAst, ExprAst]],
) -> Csp:
    box: dict[str, Interval] = {name: iv for name, iv in declarations}
    if len(box) != len(declarations):
        raise ValueError("duplicate declaration")
    constraints: list[Constraint] = []
    aux_defs: list[tuple[str, str, tuple]] = []
    cache: dict[tuple, str] = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"_t{counter}"
        counter += 1
        return name

    def emit(kind: str, args: tuple[str, ...], value: float | None = None) -> None:
        constraints.append(Constraint(kind, args, cid=len(constraints), value=value))

    def rep_num(num: Num) -> str:
        key = ("num", _text_fraction(num.text))
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

    def finish(key: tuple, op: str, operands: tuple, emitter, target: str | None) -> str:
        if key in cache:
            return cache[key]
        out = target if target is not None else fresh()
        if out not in box:
            box[out] = FULL
        emitter(out)
        if target is None:
            aux_defs.append((out, op, operands))
        cache[key] = out
        return out

    def pow_chain(base: str, k: int, target: str | None = None) -> str:
        if k == 1:
            return base
        if k % 2 == 0:
            h = pow_chain(base, k // 2)
            return finish(("sq", h), "sq", (h,), lambda out: emit("sq", (h, out)), target)
        h = pow_chain(base, k - 1)
        key = ("mul",) + tuple(sorted((h, base)))
        return finish(key, "mul", (h, base), lambda out: emit("mul", (h, base, out)), target)

    def rep(node: ExprAst, target: str | None = None) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Num):
            return rep_num(node)
        if isinstance(node, Pow):
            return pow_chain(rep(node.base), node.exponent, target)
        if isinstance(node, Add):
            a, b = rep(node.lhs), rep(node.rhs)
            key = ("add",) + tuple(sorted((a, b)))
            return finish(key, "add", (a, b), lambda out: emit("sum", (a, b, out)), target)
        if isinstance(node, Sub):
            a, b = rep(node.lhs), rep(node.rhs)
            return finish(("sub", a, b), "sub", (a, b), lambda out: emit("sum", (out, b, a)), target)
        if isinstance(node, Mul):
            a, b = rep(node.lhs), rep(node.rhs)
            key = ("mul",) + tuple(sorted((a, b)))
            return finish(key, "mul", (a, b), lambda out: emit("mul", (a, b, out)), target)
        if isinstance(node, Neg):
            a = rep(node.operand)
            return finish(
                ("neg", a),
                "neg",
                (a,),
                lambda out: emit("sum", (out, a, rep_num(_ZERO))),
                target,
            )
        raise TypeError(f"not an expression node: {node!r}")

    def tie(a: str, b: str) -> None:
        # encode a = b as a + 0 = b
        if a == b:
            return
        z = rep_num(_ZERO)
        emit("sum", (a, z, b))

    def bind_const(var: str, num: Num) -> None:
        if num.exact:
            emit("const", (var,), value=num.value)
        else:
            box[var] = box[var].intersect(num.enclosure())

    for lhs, rhs in equations:
        l_var, r_var = isinstance(lhs, Var), isinstance(rhs, Var)
        l_num, r_num = isinstance(lhs, Num), isinstance(rhs, Num)
        if l_var and r_var:
            tie(lhs.name, rhs.name)
        elif l_num and r_num:
            if _text_fraction(lhs.text) != _text_fraction(rhs.text):
                tie(rep_num(lhs), rep_num(rhs))
        elif l_var or r_var:
            var = lhs.name if l_var else rhs.name
            other = rhs if l_var else lhs
            if isinstance(other, Num):
                bind_const(var, other)
            else:
                r = rep(other, target=var)
                if r != var:
                    tie(var, r)
        elif l_num or r_num:
            num = lhs if l_num else rhs
            other = rhs if l_num else lhs
            bind_const(rep(other), num)
        else:
            rl = rep(lhs)
            rr = rep(rhs, target=rl)
            if rr != rl:
                tie(rl, rr)

    return Csp(
        constraints=tuple(constraints),
        variables=frozenset(box),
        user_vars=tuple(name for name, _ in declarations),
        initial_box=Box(box),
        source_equations=tuple(equations),
        declarations=tuple(declarations),
        aux_defs=tuple(aux_defs),
    )


def compile_problem(text: str) -> Csp:
    decls, equations = parse_problem(text)
    return decompose(decls, equations)


# Canonical rendering (echo).


def render_expr(node: ExprAst) -> str:
    return _rx(node, 0)


def _rx(node: ExprAst, level: int) -> str:
    # level 0: additive position, 1: multiplicative, 2: factor position
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Num):
        return node.text if level < 2 or not node.text.startswith("-") else f"({node.text})"
    if isinstance(node, Add):
        s, own = f"{_rx(node.lhs, 0)} + {_rx(node.rhs, 1)}", 0
    elif isinstance(node, Sub):
        s, own = f"{_rx(node.lhs, 0)} - {_rx(node.rhs, 1)}", 0
    elif isinstance(node, Mul):
        s, own = f"{_rx(node.lhs, 1)} * {_rx(node.rhs, 2)}", 1
    elif isinstance(node, Neg):
        inner = node.operand
        if isinstance(inner, (Var, Pow)) or (isinstance(inner, Num) and not inner.text.startswith("-")):
            s = f"-{_rx(inner, 2)}"
        else:
            s = f"-({_rx(inner, 0)})"
        own = 1  # a '-'-prefixed factor may follow '*' but not stand as a mul rhs
    elif isinstance(node, Pow):
        base = node.base
        if isinstance(base, Var) or (isinstance(base, Num) and not base.text.startswith("-")):
            s = f"{_rx(base, 2)}^{node.exponent}"
        else:
            s = f"({_rx(base, 0)})^{node.exponent}"
        own = 2
    else:
        raise TypeError(f"not an expression node: {node!r}")
    return f"({s})" if own < level else s


def _decl_bound_text(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    s = repr(x)
    if Fraction(s) == Fraction(x):
        return s
    # repr is shortest-roundtrip, not decimal-exact; fall back to the exact form
    return format(Decimal(x), "f")


def render_problem(
    declarations: tuple[tuple[str, Interval], ...],
    equations: tuple[tuple[ExprAst, ExprAst], ...],
) -> str:
    """Canonical problem text; reparsing reproduces the same Csp."""
    lines = []
    for name, iv in declarations:
        if iv == FULL:
            lines.append(f"var {name};")
        else:
            lines.append(f"var {name} in [{_decl_bound_text(iv.lo)},{_decl_bound_text(iv.hi)}];")
    for lhs, rhs in equations:
        lines.append(f"constraint {render_expr(lhs)} = {render_expr(rhs)};")
    return "\n".join(lines) + "\n"
