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
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .jets import Jet2

__all__ = [
    "parse",
    "eval_jet",
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
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_NUMBERS = (int, float, np.number, np.ndarray)  # what a subtree without chart variables folds to


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


_LEVELS = (("+", "-"), ("*", "/"))  # binary operators by increasing precedence


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

    def expr(self, level: int = 0):
        """A left-associative chain of the operators of ``_LEVELS[level]``
        over operands of the next level; past the last level, a factor."""
        if level == len(_LEVELS):
            return self.factor()
        node = self.expr(level + 1)
        while self._peek() in _LEVELS[level]:
            pos = self.pos
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.expr(level + 1), pos=pos)
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
    batch row.  Every free identifier must be bound exactly once across
    vars, params and constants.

    Constants fold: a subtree that reads no chart variable is evaluated as
    a number, through the same jet functions on value-only jets (m = 0),
    so its value and its EvalError are those of the same subtree on
    constant jets; a jet meets a number through Jet2's scalar operators,
    and a root that folds is returned as a constant jet.  Nothing is
    simplified: ``0*sqrt(-u1)`` still evaluates the sqrt.
    """
    both = set(vars) & set(params)
    if both:
        raise EvalError(0, f"identifiers bound twice: {sorted(both)}")
    shadowed = (set(vars) | set(params)) & set(CONSTANTS)
    if shadowed:
        raise EvalError(0, f"constants rebound: {sorted(shadowed)}")
    if not vars:
        raise EvalError(0, "eval_jet needs at least one chart variable binding")
    out = _eval(ast, vars, params)
    return jets.jet_const(out, next(iter(vars.values())).m) if isinstance(out, _NUMBERS) else out


def _apply(fn, x):
    """fn of a jet; of a number, the value of fn of its value-only jet."""
    return fn(jets.jet_const(x, 0)).value if isinstance(x, _NUMBERS) else fn(x)


def _combine(op, x, y):
    """op of jets and numbers; of two numbers, the value of op of their
    value-only jets."""
    if isinstance(x, _NUMBERS) and isinstance(y, _NUMBERS):
        return op(jets.jet_const(x, 0), jets.jet_const(y, 0)).value
    return op(x, y)


def _eval(node, vars: dict, params: dict):
    """The Jet2 of ``node``, or a number where it reads no chart variable.
    A module function, not a closure, so that an evaluation leaves no
    reference cycle to hold its jets until a garbage collection."""
    if isinstance(node, BinOp):
        left = _eval(node.left, vars, params)
        try:
            if node.op != "^":
                return _combine(_BINARY[node.op], left, _eval(node.right, vars, params))
            # '^': exact power rule for integer literal exponents, else
            # exp(p * log(x))
            r = node.right
            if isinstance(r, Num) and r.is_int:
                return _apply(lambda x: jets.pow_const(x, int(r.value)), left)
            if isinstance(r, Neg) and isinstance(r.arg, Num) and r.arg.is_int:
                return _apply(lambda x: jets.pow_const(x, -int(r.arg.value)), left)
            return _apply(jets.exp, _combine(operator.mul, _eval(r, vars, params), _apply(jets.log, left)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(node.pos, str(exc)) from exc
    if isinstance(node, Ident):
        if node.name in vars:
            return vars[node.name]
        if node.name in params:
            return params[node.name]
        if node.name in CONSTANTS:
            return CONSTANTS[node.name]
        raise EvalError(node.pos, f"unbound identifier {node.name!r}")
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return -_eval(node.arg, vars, params)
    arg = _eval(node.arg, vars, params)  # Call
    try:
        return _apply(jets.UNARY_FNS[node.fn], arg)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise EvalError(node.pos, str(exc)) from exc


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
