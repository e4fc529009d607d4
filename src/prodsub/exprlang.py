"""Small expression language for immersion coordinate functions.

Grammar (public, versioned contract for scene files)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | base          # '^' binds tighter than unary minus
    base    := primary ('^' factor)?      # '^' right-associative
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

Whitespace insensitive; numbers are decimals with optional fraction and
exponent; identifiers are case-sensitive.  ``pi`` and ``e`` are constants,
the one-argument functions are the ones the jet layer provides.  ``x ^ p``
with an integer literal p lowers to the exact power rule; any other exponent
lowers to exp(p * log(x)) and then requires x > 0 at evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from . import jets
from .jets import Jet2

__all__ = [
    "parse",
    "eval_jet",
    "eval_value",
    "free_vars",
    "to_source",
    "ParseError",
    "EvalError",
    "Num",
    "Ident",
    "Neg",
    "BinOp",
    "Call",
    "CONSTANTS",
    "FUNCTIONS",
]

CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt", "atan")


class ParseError(Exception):
    """Syntax error at a byte position, with an expected-token hint."""

    def __init__(self, pos: int, message: str, expected: str = ""):
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"parse error at position {pos}: {message}{hint}")
        self.pos = pos
        self.message = message
        self.expected = expected


class EvalError(Exception):
    """Evaluation failure carrying the source position of the faulty node."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos
        self.message = message


@dataclass(frozen=True)
class Num:
    value: float
    is_int: bool
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Ident:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


ExprAst = Num | Ident | Neg | BinOp | Call

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(self.pos, f"unexpected {self._describe()}", expected=repr(ch))
        self.pos += 1

    def _describe(self) -> str:
        if self.pos >= len(self.src):
            return "end of input"
        return repr(self.src[self.pos])

    def parse(self):
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError(self.pos, f"trailing input {self._describe()}")
        return node

    def expr(self):
        node = self.term()
        while self._peek() in ("+", "-"):
            pos = self.pos
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term(), pos=pos)
        return node

    def term(self):
        node = self.factor()
        while self._peek() in ("*", "/"):
            pos = self.pos
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor(), pos=pos)
        return node

    def factor(self):
        if self._peek() == "-":
            pos = self.pos
            self.pos += 1
            return Neg(self.factor(), pos=pos)
        return self.base()

    def base(self):
        node = self.primary()
        if self._peek() == "^":
            pos = self.pos
            self.pos += 1
            node = BinOp("^", node, self.factor(), pos=pos)
        return node

    def primary(self):
        ch = self._peek()
        pos = self.pos
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch.isdigit():
            mo = _NUMBER.match(self.src, self.pos)
            self.pos = mo.end()
            text = mo.group()
            return Num(float(text), is_int=text.isdigit(), pos=pos)
        if ch.isalpha() or ch == "_":
            mo = _IDENT.match(self.src, self.pos)
            self.pos = mo.end()
            name = mo.group()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    raise ParseError(pos, f"unknown function {name!r}")
                self.pos += 1
                arg = self.expr()
                self._expect(")")
                return Call(name, arg, pos=pos)
            return Ident(name, pos=pos)
        raise ParseError(
            self.pos,
            f"unexpected {self._describe()}",
            expected="number, identifier or '('",
        )


def parse(source: str):
    """Parse ``source`` into an AST; raises ParseError on the first bad byte."""
    return _Parser(source).parse()


def free_vars(ast) -> set:
    """Unbound identifiers of the expression, excluding pi and e."""
    if isinstance(ast, Num):
        return set()
    if isinstance(ast, Ident):
        return set() if ast.name in CONSTANTS else {ast.name}
    if isinstance(ast, Neg):
        return free_vars(ast.arg)
    if isinstance(ast, Call):
        return free_vars(ast.arg)
    return free_vars(ast.left) | free_vars(ast.right)


def eval_jet(ast, vars: dict, params: dict) -> Jet2:
    """Evaluate through the jet layer.

    ``vars`` maps chart variable names to Jet2 seeds, ``params`` maps
    parameter names to reals, or to row arrays (N,) with one value per
    batch row (entered as constant jets).  Every free
    identifier must be bound exactly once across vars, params and constants.
    """
    both = set(vars) & set(params)
    if both:
        raise EvalError(0, f"identifiers bound twice: {sorted(both)}")
    shadowed = (set(vars) | set(params)) & set(CONSTANTS)
    if shadowed:
        raise EvalError(0, f"constants rebound: {sorted(shadowed)}")
    if not vars:
        raise EvalError(0, "eval_jet needs at least one chart variable binding")
    m = next(iter(vars.values())).m

    def rec(node) -> Jet2:
        if isinstance(node, Num):
            return jets.jet_const(node.value, m)
        if isinstance(node, Ident):
            if node.name in vars:
                return vars[node.name]
            if node.name in params:
                return jets.jet_const(params[node.name], m)
            if node.name in CONSTANTS:
                return jets.jet_const(CONSTANTS[node.name], m)
            raise EvalError(node.pos, f"unbound identifier {node.name!r}")
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Call):
            try:
                return jets.UNARY_FNS[node.fn](rec(node.arg))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalError(node.pos, str(exc)) from exc
        # BinOp
        left = rec(node.left)
        try:
            if node.op == "+":
                return left + rec(node.right)
            if node.op == "-":
                return left - rec(node.right)
            if node.op == "*":
                return left * rec(node.right)
            if node.op == "/":
                return left / rec(node.right)
            # '^': exact power rule for integer literal exponents, else
            # exp(p * log(x))
            r = node.right
            if isinstance(r, Num) and r.is_int:
                return jets.pow_const(left, int(r.value))
            if isinstance(r, Neg) and isinstance(r.arg, Num) and r.arg.is_int:
                return jets.pow_const(left, -int(r.arg.value))
            return jets.exp(rec(r) * jets.log(left))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(node.pos, str(exc)) from exc

    return rec(ast)


def eval_value(ast, bindings: dict) -> float:
    """Plain real evaluation (reference semantics for the jet path)."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Ident):
        if ast.name in bindings:
            return float(bindings[ast.name])
        if ast.name in CONSTANTS:
            return CONSTANTS[ast.name]
        raise EvalError(ast.pos, f"unbound identifier {ast.name!r}")
    if isinstance(ast, Neg):
        return -eval_value(ast.arg, bindings)
    if isinstance(ast, Call):
        fn = getattr(math, ast.fn)
        return fn(eval_value(ast.arg, bindings))
    a = eval_value(ast.left, bindings)
    b = eval_value(ast.right, bindings)
    if ast.op == "+":
        return a + b
    if ast.op == "-":
        return a - b
    if ast.op == "*":
        return a * b
    if ast.op == "/":
        return a / b
    return a**b


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_source(ast) -> str:
    """Canonical printer; parse(to_source(t)) is structurally equal to t."""

    def prec(node) -> int:
        if isinstance(node, BinOp):
            return _PREC[node.op]
        if isinstance(node, Neg):
            return 3
        return 9

    def rec(node) -> str:
        if isinstance(node, Num):
            if node.is_int:
                return str(int(node.value))
            return repr(node.value)
        if isinstance(node, Ident):
            return node.name
        if isinstance(node, Neg):
            inner = rec(node.arg)
            # '^' binds tighter than unary minus, so -(x^2) needs no parens
            # but -(x+y) does
            if prec(node.arg) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        if isinstance(node, Call):
            return f"{node.fn}({rec(node.arg)})"
        lp, rp = rec(ast_l := node.left), rec(ast_r := node.right)
        p = _PREC[node.op]
        if node.op == "^":
            # right-associative; a Neg left operand means the source had
            # parens: (-x)^2
            if prec(ast_l) <= 4:
                lp = f"({lp})"
            if prec(ast_r) < 3:
                rp = f"({rp})"
        else:
            if prec(ast_l) < p:
                lp = f"({lp})"
            # left-associative: parenthesise right child at equal precedence
            if prec(ast_r) <= p and not (
                isinstance(ast_r, Neg) and node.op in "*/"
            ):
                rp = f"({rp})"
        return f"{lp} {node.op} {rp}" if node.op in "+-" else f"{lp}{node.op}{rp}"

    return rec(ast)
