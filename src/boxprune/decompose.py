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
reserved for the auxiliaries that flattening introduces.  An expression
nests at most ``MAX_DEPTH`` levels, counting every operator and every pair
of parentheses on its deepest path; a deeper one is a ParseError.  Sums and
products chain to the left, so ``a + b + c`` is two levels deep.  An
exponent above ``MAX_EXPONENT`` (2^64) is a ParseError too.

``decompose`` rewrites each equation into primitive constraints over
{sum, mul, sq, const}, introducing one auxiliary variable per distinct
non-leaf subexpression (structurally identical subtrees are shared).  An
equation names one side, a bare variable before an expression before a
literal, and then binds the literal to that name or names the other
side's root after it, so the second side spends no auxiliary of its own.
Subtraction ``l - r = t`` becomes ``sum(t, r, l)``, negation uses a shared
zero constant, and powers expand by square and multiply, so ``x^4 + x^2``
shares its ``x^2`` node.  Decimal literals that are not exactly
representable become a fresh variable whose initial interval is the
one-ulp-outward enclosure of the literal's value; exact literals become
``const`` constraints.  The same walk records each equation as written, as
the interval program of lhs - rhs that the Krawczyk step runs
(``Csp.program``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Union

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
        if len(text) < 16 and text.isascii() and text.isdigit():
            # an integer below 10^15 < 2^53: a float exactly
            return cls(text, float(int(text)), True)
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
    return _fraction(Decimal(text))


def _fraction(value: Decimal) -> Fraction:
    """A literal's value for rounding to floats.  A nonzero value whose
    decimal exponent lies beyond +-400 is replaced by +-10^+-400: the float
    range ends near 1.8e308 and 4.9e-324, so both round alike, and the
    exact value of such a literal takes seconds to build.  Different
    literals may share a replacement, so literals are compared and shared
    by their exact Decimal instead."""
    if value:
        exponent = value.adjusted()
        if exponent > 400:
            return Fraction(10**400 if value > 0 else -(10**400))
        if exponent < -400:
            return Fraction(1 if value > 0 else -1, 10**400)
    return Fraction(value)


def _float_le(frac: Fraction) -> float:
    """Greatest float <= frac."""
    try:
        v = float(frac)
    except OverflowError:
        # beyond the float range
        v = math.inf if frac > 0 else -math.inf
    if math.isinf(v):
        return math.nextafter(v, -math.inf) if v > 0 else v
    return v if Fraction(v) <= frac else math.nextafter(v, -math.inf)


def _float_ge(frac: Fraction) -> float:
    """Least float >= frac."""
    return -_float_le(-frac) + 0.0


def _bound_float(bound: Decimal | float, rounded) -> float:
    """A declaration bound as a float: an infinity as it is, an integer of
    fewer than 16 digits exactly, and else its value rounded by ``rounded``
    (_float_le or _float_ge)."""
    if isinstance(bound, float):
        return bound
    _, digits, exponent = bound.as_tuple()
    if exponent == 0 and len(digits) < 16:
        return float(int(bound))
    return rounded(_fraction(bound))


# Tokenizer.

_KEYWORDS = frozenset({"var", "constraint", "in", "inf"})
# One alternative per token kind, tried in order at each position; "bad" is
# any other character but a newline, so the matches tile the text.  A
# comment runs up to its newline, which is scanned as a newline.
_SCAN_RE = re.compile(
    r"""(?P<num>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op>[-+*^()=;\[\],])
      | (?P<space>[ \t\r]+)
      | (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<bad>.)""",
    re.VERBOSE,
)
_INT_RE = re.compile(r"\d+")
# Parsing, flattening, rendering and the oracle all recurse once per level
# of an expression, and the parser four times per parenthesis, so a fixed
# bound keeps every one of them well inside Python's default recursion
# limit of 1000.
MAX_DEPTH = 200
# Flattening expands x^k by square and multiply, recursing once per bit of
# k and once more per 1-bit, so this bound keeps that within 128 levels.
MAX_EXPONENT = 2**64


class _Token(NamedTuple):
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    for m in _SCAN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            col += m.end() - m.start()
        elif kind == "newline":
            line += 1
            col = 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "comment":
            tok = m.group()
            toks.append(_Token(kind, tok, line, col))
            col += len(tok)
    # a comment leaves col at its '#', where a final one puts eof
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.declared: dict[str, Interval] = {}
        self.open_parens = 0

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
            lo_f = _bound_float(lo, _float_le)
            hi_f = _bound_float(hi, _float_ge)
            try:
                iv = Interval(lo_f, hi_f)
            except ValueError as exc:
                raise ParseError(str(exc), lo_tok.line, lo_tok.col) from None
        self.expect_op(";")
        self.declared[name] = iv
        return name, iv

    def parse_bound(self) -> tuple[_Token, "Decimal | float"]:
        """One declaration bound: a signed decimal, exact, or a signed 'inf'."""
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
        try:
            value = Decimal(num.text)
        except ArithmeticError:
            self.fail(f"bad numeric literal {num.text!r}", num)
        # negation under a Decimal context would round; copy_negate is exact
        return tok, value.copy_negate() if sign < 0 else value

    def parse_constraint(self) -> tuple[ExprAst, ExprAst]:
        self.advance()  # 'constraint'
        lhs, _ = self.parse_expr()
        self.expect_op("=")
        rhs, _ = self.parse_expr()
        self.expect_op(";")
        return lhs, rhs

    # Each parse_* method below returns a node and its depth: the number of
    # operators and parenthesis pairs on its deepest path.

    def deeper(self, depth: int, tok: _Token) -> int:
        """One level below ``depth``; fails at ``tok`` past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels", tok)
        return depth + 1

    def parse_expr(self) -> tuple[ExprAst, int]:
        node, depth = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs, rhs_depth = self.parse_term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
                depth = self.deeper(max(depth, rhs_depth), tok)
            else:
                return node, depth

    def parse_term(self) -> tuple[ExprAst, int]:
        node, depth = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                rhs, rhs_depth = self.parse_factor()
                node = Mul(node, rhs)
                depth = self.deeper(max(depth, rhs_depth), tok)
            else:
                return node, depth

    def parse_factor(self) -> tuple[ExprAst, int]:
        negate = None
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            negate = self.advance()
        node, depth = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp = self.peek()
            digits = exp.text.lstrip("0") if exp.kind == "num" and _INT_RE.fullmatch(exp.text) else ""
            if not digits:
                self.fail("exponent must be a positive integer")
            # int() refuses more than 4,300 digits, so their count comes first
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                self.fail("exponent exceeds 2^64")
            self.advance()
            k = int(digits)
            if k != 1:
                node, depth = Pow(node, k), self.deeper(depth, tok)
        if negate is not None:
            # fold the sign into a bare literal; -x^2 stays Neg(Pow(x, 2))
            if isinstance(node, Num):
                return _negated_num(node), depth
            return Neg(node), self.deeper(depth, negate)
        return node, depth

    def parse_atom(self) -> tuple[ExprAst, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            try:
                return Num.from_text(tok.text), 0
            except (ValueError, ArithmeticError):
                self.fail(f"bad numeric literal {tok.text!r}", tok)
        if tok.kind == "ident":
            if tok.text in _KEYWORDS:
                self.fail(f"{tok.text!r} is a reserved word")
            if tok.text not in self.declared:
                self.fail(f"undeclared variable {tok.text!r}")
            self.advance()
            return Var(tok.text), 0
        if tok.kind == "op" and tok.text == "(":
            # the depth inside is not known yet, so the open parentheses
            # are counted before recursing into them
            self.deeper(self.open_parens, tok)
            self.advance()
            self.open_parens += 1
            node, depth = self.parse_expr()
            self.open_parens -= 1
            self.expect_op(")")
            return node, self.deeper(depth, tok)
        self.fail("expected a variable, number, or parenthesized expression")


def _negated_num(num: Num) -> Num:
    text = num.text[1:] if num.text.startswith("-") else "-" + num.text
    return Num.from_text(text)


def parse_problem(text: str) -> tuple[list[tuple[str, Interval]], list[tuple[ExprAst, ExprAst]]]:
    """Parse a problem into declarations and equations; raises ParseError."""
    return _Parser(text).parse()


# Flattening.


@dataclass(frozen=True, slots=True)
class Csp:
    """A flattened constraint system.

    ``constraints`` hold primitive constraints with ids 0..m-1 in emission
    order.  ``initial_box`` binds the user variables and the auxiliaries
    (auxiliaries are unconstrained unless they stand for an inexact
    literal).  ``variables``, the names it binds, and ``user_vars``, the
    declared names in declaration order, are derived from the initial box
    and ``declarations``.  ``aux_defs`` lists, in dependency
    order, how to evaluate each auxiliary from earlier values, which is what
    brute-force checking uses to extend a user-variable assignment.

    The system is compiled once at construction for the propagation loop.
    ``names`` holds the variables in name order, and a variable's position
    there is its slot.  The initial box's map from names to slots is that
    numbering, and every box the engines, the search and the Krawczyk step
    derive from it shares the map.  ``watchers[slot]`` holds the ascending
    ids of the constraints mentioning that variable, and ``lifted[cid]`` is
    constraint cid compiled against the slots (``contractors.lift``).

    ``program`` is the straight-line interval program of f_i = lhs_i - rhs_i
    over the source equations, recorded by the same walk that flattens them,
    and ``outputs[i]`` is the register of f_i.  ``program[r]`` computes
    register r: ("var", j, None) for the j-th user variable, ("const", lo,
    hi) for a literal's enclosure, or an ``aux_defs`` operation on earlier
    registers a and b, (op, a, b), with b None for "neg" and "sq".  It keeps
    the equations as written: structurally equal subexpressions share a
    register, but a subexpression that flattening names after a user
    variable is not replaced by it.  ``newton.krawczyk`` runs the program;
    a hand-built Csp may leave both empty.  ``bounded[r]`` says whether the
    run needs register r's bounds over a box: a product or a square reads
    them for its derivative, directly or through sums and negations.

    Construction raises ValueError when the ids are not 0..m-1 in order,
    or when a constraint names a variable the initial box does not bind.
    """

    constraints: tuple[Constraint, ...]
    initial_box: Box
    source_equations: tuple[tuple[ExprAst, ExprAst], ...]
    declarations: tuple[tuple[str, Interval], ...]
    aux_defs: tuple[tuple[str, str, tuple], ...]
    program: tuple[tuple, ...] = field(default=(), repr=False)
    outputs: tuple[int, ...] = field(default=(), repr=False)
    variables: frozenset[str] = field(init=False, repr=False, compare=False)
    user_vars: tuple[str, ...] = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    watchers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    lifted: tuple[Lifted, ...] = field(init=False, repr=False, compare=False)
    bounded: tuple[bool, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the system's boxes share the initial box's name -> slot map
        slot = self.initial_box._slot
        watchers: list[list[int]] = [[] for _ in slot]
        for cid, con in enumerate(self.constraints):
            if con.cid != cid:
                raise ValueError(f"constraint at position {cid} has id {con.cid}")
            for v in con.variables:
                if v not in slot:
                    raise ValueError(f"constraint c{cid} names undeclared variable {v!r}")
                watchers[slot[v]].append(cid)
        object.__setattr__(self, "variables", frozenset(slot))
        object.__setattr__(self, "user_vars", tuple(name for name, _ in self.declarations))
        object.__setattr__(self, "names", tuple(slot))
        object.__setattr__(self, "watchers", tuple(map(tuple, watchers)))
        object.__setattr__(self, "lifted", tuple(lift(con, slot) for con in self.constraints))
        object.__setattr__(self, "bounded", _bounded(self.program))


def _bounded(program: tuple[tuple, ...]) -> tuple[bool, ...]:
    """Csp.bounded: a product or a square reads its operands' bounds, and
    a sum, difference or negation whose bounds are read reads theirs."""
    bounded = [False] * len(program)
    for r in reversed(range(len(program))):
        op, a, b = program[r]
        if op == "mul" or op == "sq" or bounded[r] and op in ("add", "sub", "neg"):
            bounded[a] = True
            if b is not None:
                bounded[b] = True
    return tuple(bounded)


_ZERO = Num("0", 0.0, True)
# the rank of an equation side: a bare variable names it first, a literal last
_RANK = {Var: 0, Num: 2}
_OPS = {Add: "add", Sub: "sub", Mul: "mul"}


def decompose(
    declarations: list[tuple[str, Interval]],
    equations: list[tuple[ExprAst, ExprAst]],
) -> Csp:
    box: dict[str, Interval] = {name: iv for name, iv in declarations}
    if len(box) != len(declarations):
        raise ValueError("duplicate declaration")
    index = {name: j for j, (name, _) in enumerate(declarations)}
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

    def bind(name: str, num: Num) -> None:
        if num.exact:
            emit("const", (name,), value=num.value)
        else:
            box[name] = box[name].intersect(num.enclosure())

    def rep_num(num: Num) -> str:
        key = ("num", Decimal(num.text))
        t = cache.get(key)
        if t is None:
            t = cache[key] = fresh()
            box[t] = FULL
            bind(t, num)
            aux_defs.append((t, "const", (num.value,)))
        return t

    def node(op: str, a: str, ra: int, b: str | None = None, rb: int | None = None, target: str | None = None):
        """The name and register of ``op`` over named operands a and b (b
        None for "sq" and "neg"); a new name is ``target`` if given."""
        # names are shared by key and registers by structure, even where
        # the key's name is a user variable that a targeted merge aliased
        r = reg((op, ra, rb))
        key = (op, b, a) if (op == "add" or op == "mul") and b < a else (op, a, b)
        out = cache.get(key)
        if out is not None:
            return out, r
        out = cache[key] = fresh() if target is None else target
        box.setdefault(out, FULL)
        if op == "add":
            emit("sum", (a, b, out))
        elif op == "sub":
            emit("sum", (out, b, a))
        elif op == "mul":
            emit("mul", (a, b, out))
        elif op == "sq":
            emit("sq", (a, out))
        else:
            emit("sum", (out, a, rep_num(_ZERO)))
        if target is None:
            aux_defs.append((out, op, (a,) if b is None else (a, b)))
        return out, r

    def power(a: str, ra: int, k: int, target: str | None = None) -> tuple[str, int]:
        if k == 1:
            return a, ra
        if k % 2:
            return node("mul", *power(a, ra, k - 1), a, ra, target)
        return node("sq", *power(a, ra, k // 2), target=target)

    def rep(e: ExprAst, target: str | None = None) -> tuple[str, int]:
        """The node's name in the constraints and its register in the program."""
        if isinstance(e, Var):
            return e.name, leaf(e)
        if isinstance(e, Num):
            return rep_num(e), leaf(e)
        if isinstance(e, Pow):
            return power(*rep(e.base), e.exponent, target)
        if isinstance(e, Neg):
            return node("neg", *rep(e.operand), target=target)
        if type(e) not in _OPS:
            raise TypeError(f"not an expression node: {e!r}")
        return node(_OPS[type(e)], *rep(e.lhs), *rep(e.rhs), target)

    def tie(a: str, b: str) -> None:
        # encode a = b as a + 0 = b
        if a != b:
            emit("sum", (a, rep_num(_ZERO), b))

    for sides in equations:
        # the registers of lhs and rhs; an expression side gets its own
        # from the walk that names it
        regs = [leaf(side) if isinstance(side, (Var, Num)) else None for side in sides]
        i, j = sorted((0, 1), key=lambda k: _RANK.get(type(sides[k]), 1))
        first, second = sides[i], sides[j]
        # a literal equal to itself needs no name
        if not (isinstance(first, Num) and Decimal(first.text) == Decimal(second.text)):
            name, regs[i] = rep(first)
            if isinstance(second, Num) and not isinstance(first, Num):
                bind(name, second)
            else:
                other, regs[j] = rep(second, target=name)
                tie(name, other)
        outputs.append(reg(("sub", *regs)))

    return Csp(
        constraints=tuple(constraints),
        initial_box=Box(box),
        source_equations=tuple(equations),
        declarations=tuple(declarations),
        aux_defs=tuple(aux_defs),
        program=tuple(program),
        outputs=tuple(outputs),
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
