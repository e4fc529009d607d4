import gc

import numpy as np
import pytest

from prodsub import exprlang, jets
from prodsub.exprlang import (
    BinOp,
    Call,
    EvalError,
    Ident,
    Neg,
    Num,
    ParseError,
    eval_jet,
    free_vars,
    parse,
    to_source,
)
from grammar_cases import ERROR_CASES, VALUE_CASES, eval_value


@pytest.mark.parametrize("src,bindings,expected", VALUE_CASES)
def test_golden_values(src, bindings, expected):
    assert eval_value(parse(src), bindings) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("src,pos", ERROR_CASES)
def test_golden_error_positions(src, pos):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.pos == pos


def test_power_tighter_than_unary_minus_structure():
    t = parse("-u1^2")
    assert isinstance(t, Neg)
    assert isinstance(t.arg, BinOp) and t.arg.op == "^"


def test_power_right_associative_structure():
    t = parse("2^3^2")
    assert isinstance(t, BinOp) and t.op == "^"
    assert isinstance(t.right, BinOp) and t.right.op == "^"
    assert isinstance(t.left, Num)


def test_unknown_function_is_parse_error():
    with pytest.raises(ParseError, match="unknown function"):
        parse("sun(1)")


def test_eval_jet_pythagorean_identity():
    t = parse("sin(u1)^2+cos(u1)^2")
    for u1 in (-1.2, 0.0, 0.4, 2.0):
        j = eval_jet(t, {"u1": jets.jet_var(0, u1, 1)}, {})
        assert abs(j.value - 1.0) <= 1e-15
        assert np.all(np.abs(j.grad) <= 1e-12)
        assert np.all(np.abs(j.hess) <= 1e-10)


def test_eval_jet_product_jet():
    t = parse("u1*u2")
    j = eval_jet(
        t,
        {"u1": jets.jet_var(0, 2.0, 2), "u2": jets.jet_var(1, 3.0, 2)},
        {},
    )
    assert j.value == 6.0
    assert np.array_equal(j.grad, [3.0, 2.0])
    assert j.hess[0, 1] == 1.0 and j.hess[1, 0] == 1.0


def test_eval_jet_matches_helicoid_generator_coordinate():
    """Expression evaluation agrees with the analytic-jet generator."""
    from prodsub import ProductSpace, evaluate_jet
    from prodsub.gallery import make_theorem1

    ch = make_theorem1(
        ProductSpace(1, 4), a=0.8, phi_kind="helicoid", phi_params={"pitch": 0.5}
    )
    t = parse("a*cos(u1)*cos(u2)")
    for u in ([0.3, -0.4, 0.1], [-0.2, 0.8, 0.5]):
        vj = evaluate_jet(ch, u)
        j = eval_jet(
            t,
            {
                "u1": jets.jet_var(0, u[0], 3),
                "u2": jets.jet_var(1, u[1], 3),
                "s": jets.jet_var(2, u[2], 3),
            },
            {"a": 0.8},
        )
        k = 2  # first phi coordinate sits in ambient slot 2
        assert j.value == pytest.approx(vj.values[k], abs=1e-15)
        assert np.allclose(j.grad, vj.jac[k], atol=1e-15)
        assert np.allclose(j.hess, vj.d2[k], atol=1e-15)


def test_free_vars():
    assert free_vars(parse("b*cos(s/b)")) == {"b", "s"}
    assert free_vars(parse("pi")) == set()
    assert free_vars(parse("u1+q")) == {"u1", "q"}


def test_unbound_identifier_raises_with_position():
    with pytest.raises(EvalError):
        eval_jet(parse("u1+q"), {"u1": jets.jet_var(0, 1.0, 1)}, {})


def test_double_binding_rejected():
    with pytest.raises(EvalError, match="twice"):
        eval_jet(parse("u1"), {"u1": jets.jet_var(0, 1.0, 1)}, {"u1": 2.0})
    with pytest.raises(EvalError, match="rebound"):
        eval_jet(parse("pi"), {"pi": jets.jet_var(0, 1.0, 1)}, {})


def test_eval_jet_constant_inputs_match_plain_eval():
    srcs = ["2+3*4", "sin(1)^2+cos(1)^2", "e^2", "2^-2", "atan(0.3)/pi"]
    for src in srcs:
        t = parse(src)
        j = eval_jet(t, {"u1": jets.jet_const(0.0, 1)}, {})
        assert j.value == eval_value(t, {})
        assert np.all(j.grad == 0.0) and np.all(j.hess == 0.0)


def test_domain_error_carries_source_position():
    t = parse("1+log(u1-2)")
    with pytest.raises(EvalError) as err:
        eval_jet(t, {"u1": jets.jet_var(0, 0.0, 1)}, {})
    assert err.value.pos == 2  # the log call starts at byte 2


def _random_ast(rng, depth, names):
    kind = rng.integers(0, 6 if depth > 0 else 2)
    if kind == 0:
        x = round(float(rng.uniform(0.1, 9.75)), 2)
        if rng.integers(0, 2):
            return Num(float(int(x)), is_int=True)
        return Num(x, is_int=False)
    if kind == 1:
        return Ident(str(rng.choice(names)))
    if kind == 2:
        return Neg(_random_ast(rng, depth - 1, names))
    if kind == 3:
        fn = str(rng.choice(exprlang.FUNCTIONS))
        return Call(fn, _random_ast(rng, depth - 1, names))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, _random_ast(rng, depth - 1, names), _random_ast(rng, depth - 1, names))


def test_roundtrip_property_1000_random_expressions():
    rng = np.random.default_rng(2024)
    names = ["u1", "u2", "s", "b", "pi", "e"]
    for _ in range(1000):
        t = _random_ast(rng, 4, names)
        printed = to_source(t)
        assert parse(printed) == t, printed


def test_roundtrip_on_parsed_sources():
    for src, _, _ in VALUE_CASES:
        t = parse(src)
        assert parse(to_source(t)) == t


# -- constant folding ---------------------------------------------------------


def _unfolded(ast, vars: dict, params: dict):
    """``eval_jet`` without constant folding: every number, parameter and
    constant a constant jet, so that each product with one takes the
    Leibniz rule (the evaluation that folding replaced)."""
    m = next(iter(vars.values())).m

    def rec(node):
        if isinstance(node, Num):
            return jets.jet_const(node.value, m)
        if isinstance(node, Ident):
            if node.name in vars:
                return vars[node.name]
            return jets.jet_const(params[node.name] if node.name in params else exprlang.CONSTANTS[node.name], m)
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Call):
            try:
                return jets.UNARY_FNS[node.fn](rec(node.arg))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise EvalError(node.pos, str(exc)) from exc
        left = rec(node.left)
        try:
            if node.op != "^":
                return {"+": left.__add__, "-": left.__sub__, "*": left.__mul__, "/": left.__truediv__}[node.op](rec(node.right))
            r = node.right
            if isinstance(r, Num) and r.is_int:
                return jets.pow_const(left, int(r.value))
            return jets.exp(rec(r) * jets.log(left))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(node.pos, str(exc)) from exc

    return rec(ast)


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


@pytest.mark.parametrize("src", ["2*pi*a", "sqrt(2)/3", "cos(a)^2 + e^(a/3) - a^-2", "c*(1 - a)/tanh(a)"])
def test_a_constant_subtree_folds_to_the_unfolded_value(src):
    # a float parameter and a row-array one: the folded value is the
    # unfolded one bit for bit, alone and inside an expression of u1
    ast, times = parse(src), parse(f"u1*({src}) + ({src})")
    u1 = jets.jet_var(0, np.array([0.3, -0.7, 1.1]), 1, order=3)
    for params in ({"a": 0.8, "c": 3.0}, {"a": np.array([0.2, 0.8, 1.4]), "c": np.array([1.0, -2.0, 0.5])}):
        folded, unfolded = eval_jet(ast, {"u1": u1}, params), _unfolded(ast, {"u1": u1}, params)
        assert _bits(folded.value) == _bits(unfolded.value)
        assert not np.any(folded.grad) and not np.any(folded.hess)
        folded, unfolded = eval_jet(times, {"u1": u1}, params), _unfolded(times, {"u1": u1}, params)
        views = [(j.value, j.grad, j.hess, j.d3, j.d4) for j in (folded, unfolded)]
        assert all(np.array_equal(x, y) for x, y in zip(*views)) and len(folded.d) == len(unfolded.d)


@pytest.mark.parametrize(
    "src, pos, message",
    [
        ("log(0-1)", 0, "log: argument -1.0 outside the function domain"),
        ("1/(2-2)", 1, "jet division by zero value"),
        ("(0-1)^0.5", 5, "log: argument -1.0 outside the function domain"),
        ("u1 + sqrt(2-3)*u1", 5, "sqrt: argument -1.0 outside the function domain"),
        ("0*sqrt(-u1)", 2, "sqrt: argument -0.5 outside the function domain"),
    ],
)
def test_a_folded_subtree_fails_as_the_unfolded_one(src, pos, message):
    # the position and message the unfolded evaluation gives; nothing is
    # simplified away, so 0*sqrt(-u1) still evaluates its sqrt
    u1 = {"u1": jets.jet_var(0, 0.5, 1)}
    for evaluate in (eval_jet, _unfolded):
        with pytest.raises(EvalError) as err:
            evaluate(parse(src), u1, {})
        assert (err.value.pos, err.value.message) == (pos, message)


def test_a_bare_number_coordinate_is_a_constant_jet():
    for order in (0, 2, 3):
        seeds = {"u1": jets.jet_var(0, np.array([0.1, 0.2]), 2, order), "u2": jets.jet_var(1, np.array([0.3, 0.4]), 2, order)}
        m = seeds["u1"].m
        for src, value in (("2.5", 2.5), ("-2*pi", -2 * np.pi), ("q", 1.5)):
            got, want = eval_jet(parse(src), seeds, {"q": 1.5}), jets.jet_const(value, m)
            assert [_bits(x) for x in got.d] == [_bits(x) for x in want.d], (src, order)


def test_an_evaluation_leaves_no_reference_cycle():
    # the jets an evaluation makes are freed when it returns, not held by a
    # reference cycle until the next garbage collection
    ast = parse("b*cos(s/b) + sqrt(2)*s^2.5 - log(1 + s)")
    seeds = {"s": jets.jet_var(0, np.array([0.3, 0.5]), 1, order=3)}
    eval_jet(ast, seeds, {"b": 0.7})  # fills the jet layer's plan caches
    gc.collect()
    gc.disable()
    try:
        eval_jet(ast, seeds, {"b": 0.7})
        assert gc.collect() == 0
    finally:
        gc.enable()
