"""Golden grammar suite: 25 pinned cases covering precedence, the
right-associative '^' that binds tighter than unary minus, numbers, and
errors with exact byte positions; and ``eval_value``, the plain real
evaluator whose values are the reference semantics of the jet path."""

import math

from prodsub.exprlang import CONSTANTS, Call, EvalError, Ident, Neg, Num

# (source, bindings, expected value)
VALUE_CASES = [
    ("2+3*4", {}, 14.0),
    ("(2+3)*4", {}, 20.0),
    ("2-3-4", {}, -5.0),
    ("12/4/3", {}, 1.0),
    ("2^3^2", {}, 512.0),
    ("-u1^2", {"u1": 3.0}, -9.0),
    ("(-u1)^2", {"u1": 3.0}, 9.0),
    ("2^-2", {}, 0.25),
    ("-2^-2", {}, -0.25),
    ("b*cos(s/b)", {"b": 0.6, "s": 0.0}, 0.6),
    ("sin(u1)^2+cos(u1)^2", {"u1": 0.37}, 1.0),
    ("pi", {}, math.pi),
    ("e^2", {}, math.e**2),
    ("2e3", {}, 2000.0),
    ("1.5e-2+1", {}, 1.015),
    ("--u1", {"u1": 2.0}, 2.0),
    ("2*-3", {}, -6.0),
    ("  2 +  3* 4 ", {}, 14.0),  # whitespace insensitivity
]

# (source, exact 0-based error position)
ERROR_CASES = [
    ("sin(", 4),
    ("2+", 2),
    ("2++3", 2),
    ("(2+3", 4),
    ("2+foo(3)", 2),
    ("2..5", 1),
    ("3 4", 2),
]

assert len(VALUE_CASES) + len(ERROR_CASES) == 25


def eval_value(ast, bindings: dict) -> float:
    """Plain real evaluation of an AST with ``math`` and Python floats."""
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
