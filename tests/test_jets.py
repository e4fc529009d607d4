import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsub import exprlang, jets
from prodsub.errors import StencilError
from prodsub.jets import (
    fd_gradient,
    jet_const,
    jet_var,
    pow_const,
)


def test_jet_var_seeds():
    j = jet_var(0, 2.0, m=2)
    assert j.value == 2.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((2, 2)))
    j = jet_var(1, -3.5, m=2)
    assert j.value == -3.5
    assert np.array_equal(j.grad, [0.0, 1.0])


def test_jet_var_index_out_of_range():
    with pytest.raises(ValueError):
        jet_var(3, 0.0, m=2)


def test_mul_square():
    x = jet_var(0, 3.0, m=1)
    y = x * x
    assert y.value == 9.0
    assert np.array_equal(y.grad, [6.0])
    assert np.array_equal(y.hess, [[2.0]])


def test_add_zero_identity():
    x = jet_var(0, 1.7, m=3)
    y = x + jet_const(0.0, 3)
    assert y.value == x.value
    assert np.array_equal(y.grad, x.grad)
    assert np.array_equal(y.hess, x.hess)


def test_div_reciprocal():
    x = jet_var(0, 2.0, m=1)
    y = jet_const(1.0, 1) / x
    assert y.value == 0.5
    assert np.allclose(y.grad, [-0.25], atol=1e-15)
    assert np.allclose(y.hess, [[0.25]], atol=1e-15)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        jet_var(0, 1.0, m=2) + jet_var(0, 1.0, m=3)


def test_division_by_zero_value():
    with pytest.raises(ZeroDivisionError):
        jet_const(1.0, 1) / jet_const(0.0, 1)


def test_cos_expansion_at_zero():
    y = jets.cos(jet_var(0, 0.0, m=1))
    assert y.value == 1.0
    assert np.array_equal(y.grad, [0.0])
    assert np.array_equal(y.hess, [[-1.0]])


def _fd_check(fn, x0, rel=1e-6):
    """The jet of fn at x0 against differences of its values, and its
    third-order slot against fd_gradient of the Hessian; the order-3 jet
    has the value, gradient and Hessian of the 2-jet bit for bit."""
    h = 1e-5 * max(1.0, abs(x0))
    f = lambda t: fn(jet_var(0, t, m=1)).value
    d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
    jet = fn(jet_var(0, x0, m=1))
    scale1 = max(1.0, abs(d1))
    scale2 = max(1.0, abs(d2))
    assert abs(jet.grad[0] - d1) <= rel * scale1
    assert abs(jet.hess[0, 0] - d2) <= 2e-5 * scale2  # plain 2nd difference noise
    third = fn(jet_var(0, x0, m=1, order=3))
    assert [third.value, *third.grad, *third.hess.ravel()] == [jet.value, *jet.grad, *jet.hess.ravel()]
    d3 = fd_gradient(lambda u: fn(jet_var(0, u[0], m=1)).hess[0], np.array([x0]), 0)[0]
    assert abs(third.d3[0, 0, 0] - d3) <= 1e-8 * max(1.0, abs(d3))


def test_a_unary_table_stops_at_the_jet_order(monkeypatch):
    # an order-0 sin or cos takes no other circular function; order k draws f..f^(k)
    made = []
    for name in ("sin", "cos"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda v, name=name, real=real: made.append(name) or real(v))
    for order, want in ((0, ["sin", "cos"]), (1, ["sin", "cos", "cos", "sin"])):
        made.clear()
        x = jet_var(0, np.array([0.3, -1.2]), 1, order)
        assert jets.sin(x).order == jets.cos(x).order == order
        assert made == want


def test_exp_sin_composite_matches_fd():
    u = 0.7
    comp = lambda j: jets.exp(jets.sin(j))
    jet = comp(jet_var(0, u, m=1))
    h = 1e-6
    f = lambda t: math.exp(math.sin(t))
    d1 = (f(u + h) - f(u - h)) / (2 * h)
    assert abs(jet.grad[0] - d1) <= 1e-9 * max(1.0, abs(d1))
    # Richardson-extrapolated second difference for the 1e-9 target
    def second(hh):
        return (f(u + hh) - 2 * f(u) + f(u - hh)) / (hh * hh)

    d2 = (4 * second(5e-4) - second(1e-3)) / 3
    assert abs(jet.hess[0, 0] - d2) <= 1e-8 * max(1.0, abs(d2))


def test_log_domain_error_reports_fn_and_value():
    with pytest.raises(ValueError) as err:
        jets.log(jet_const(-1.0, 1))
    assert "log" in str(err.value) and "-1" in str(err.value)


def test_sqrt_domain():
    with pytest.raises(ValueError):
        jets.sqrt(jet_const(-0.5, 1))


def test_tan_near_pole_stays_finite():
    # cos(x) is never exactly zero at float inputs, so tan blows up but
    # does not raise; the guard only triggers on an exact zero
    j = jets.tan(jet_const(math.pi / 2, 1))
    assert math.isfinite(j.value) and abs(j.value) > 1e15


_DOMAINS = {
    "sin": (-3.0, 3.0),
    "cos": (-3.0, 3.0),
    "tan": (-1.2, 1.2),
    "sinh": (-2.0, 2.0),
    "cosh": (-2.0, 2.0),
    "tanh": (-2.0, 2.0),
    "exp": (-2.0, 2.0),
    "log": (0.2, 4.0),
    "sqrt": (0.2, 4.0),
    "atan": (-3.0, 3.0),
    "neg": (-3.0, 3.0),
}


@pytest.mark.parametrize("name", sorted(_DOMAINS))
def test_unary_fns_match_finite_differences_100_points(name):
    lo, hi = _DOMAINS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    fn = jets.UNARY_FNS[name]
    for x0 in lo + (hi - lo) * rng.random(100):
        _fd_check(fn, float(x0))


def test_pow_const_via_jet_unary():
    y = pow_const(jet_var(0, 2.0, m=1), 3)
    assert y.value == 8.0
    assert np.array_equal(y.grad, [12.0])
    assert np.array_equal(y.hess, [[12.0]])
    for p in (3, 2, 1, -2, 0.5, 2.5):
        _fd_check(lambda j: pow_const(j, p), 1.3)
    assert pow_const(jet_var(0, 2.0, m=1, order=3), 3).d3[0, 0, 0] == 6.0
    with pytest.raises(ValueError):
        pow_const(jet_var(0, -1.0, m=1), 0.5)


@given(
    st.lists(st.floats(-4, 4), min_size=6, max_size=6),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=200, deadline=None)
def test_quadratic_polynomials_exact(coef, x0, y0):
    """Jet arithmetic on degree <= 2 polynomials is exact to a few ulps."""
    a, b, c, d, e, f = coef
    x = jet_var(0, x0, m=2)
    y = jet_var(1, y0, m=2)
    p = (
        jet_const(a, 2)
        + b * x
        + c * y
        + d * (x * x)
        + e * (x * y)
        + f * (y * y)
    )
    val = a + b * x0 + c * y0 + d * x0 * x0 + e * x0 * y0 + f * y0 * y0
    assert p.value == pytest.approx(val, rel=8 * np.finfo(float).eps, abs=1e-13)
    assert p.grad[0] == pytest.approx(b + 2 * d * x0 + e * y0, rel=1e-14, abs=1e-13)
    assert p.grad[1] == pytest.approx(c + e * x0 + 2 * f * y0, rel=1e-14, abs=1e-13)
    assert p.hess[0, 0] == pytest.approx(2 * d, rel=1e-15, abs=0)
    assert p.hess[0, 1] == pytest.approx(e, rel=1e-15, abs=0)
    assert p.hess[1, 1] == pytest.approx(2 * f, rel=1e-15, abs=0)


def test_hessian_symmetry_after_random_op_chains():
    # random chains of products, sums, quotients and unary functions: the
    # Hessian is symmetric bit for bit; at order 3 the value, gradient and
    # Hessian are unchanged, d3 is symmetric to rounding and matches
    # fd_gradient of the Hessian
    rng = np.random.default_rng(7)

    def chain(ops, u, order=2):
        x, y, z = (jet_var(i, u[i], m=3, order=order) for i in range(3))
        w = x * y + z
        for op in ops:
            if op == 0:
                w = w * y
            elif op == 1:
                w = w + x * z
            elif op == 2:
                w = jets.sin(w)
            elif op == 3:
                w = jets.exp(w * 0.3)
            elif op == 4:
                w = w / (jets.cosh(z) + 1.0)
            else:
                w = 2.0 - jets.atan(w)
        return w

    for _ in range(200):
        u, ops = rng.uniform(0.3, 1.5, 3), rng.integers(0, 6, 6)
        w, third = chain(ops, u), chain(ops, u, order=3)
        assert np.array_equal(w.hess, w.hess.T)
        assert third.value == w.value and np.array_equal(third.grad, w.grad) and np.array_equal(third.hess, w.hess)
        for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.allclose(third.d3, third.d3.transpose(axes), rtol=1e-14, atol=1e-14)
        fd = np.array([fd_gradient(lambda v: chain(ops, v).hess.ravel(), u, i) for i in range(3)])
        assert np.allclose(np.moveaxis(third.d3, -1, 0).reshape(3, 9), fd, rtol=1e-7, atol=1e-7)


def test_fd_gradient_polynomial_field():
    field = lambda u: np.array([u[0] ** 2, u[0]])
    d = fd_gradient(field, np.array([1.0]), 0)
    assert np.allclose(d, [2.0, 1.0], atol=1e-9)


def test_fd_gradient_constant_field():
    d = fd_gradient(lambda u: np.array([3.0, -1.0]), np.array([0.4, 0.9]), 1)
    assert np.all(np.abs(d) <= 1e-12)


def test_fd_gradient_nonfinite_raises():
    def field(u):
        return np.array([math.inf])

    with pytest.raises(StencilError):
        fd_gradient(field, np.array([0.0]), 0)


def test_fd_gradient_pmc_h_norm_squared():
    """grad |H|^2 vanishes on a parallel-mean-curvature gallery chart."""
    from prodsub import ProductSpace, inner
    from prodsub.extrinsic import FieldCache
    from prodsub.gallery import make_theorem1

    ch = make_theorem1(ProductSpace(1, 4), a=0.8)
    cache = FieldCache(ch)

    def hh(v):
        H = cache.geometry(v).H[0]
        return np.array([inner(ch.space, H, H)])

    u = np.array([0.2, -0.1, 0.3])
    for i in range(3):
        assert abs(fd_gradient(hh, u, i)[0]) <= 1e-6


def _shapes(jet):
    return [None if x is None else x.shape for x in (jet.value, jet.grad, jet.hess, jet.d3, jet.d4)]


def test_public_shapes_and_broadcasting():
    # seeds, constants of a number and of a row array, a single point, a
    # constant mixed with a batch, pow_const(x, 0) and VecJet2.row: the
    # views hold the batch axis first where the jet has one, and a point
    # is bit for bit its row of a batch
    m, u = 3, np.array([0.3, -0.0, 0.7, 1.1])
    n = len(u)
    assert _shapes(jet_var(1, u, m, order=4)) == [(n,), (n, m), (n, m, m), (n, m, m, m), (n, m, m, m, m)]
    assert _shapes(jet_var(1, 0.5, m, order=3)) == [(), (m,), (m, m), (m, m, m), None]
    assert _shapes(jet_var(1, u, m, order=0)) == [(n,), None, None, None, None] and jet_var(1, u, m, order=0).m == 0
    assert _shapes(jet_const(2.0, m)) == [(), (m,), (m, m), None, None]
    assert _shapes(jet_const(u, m)) == [(n,), (m,), (m, m), None, None]
    assert np.array_equal(jet_var(1, u, m).grad, np.tile([0.0, 1.0, 0.0], (n, 1)))

    def f(x, y, c):
        return jets.sin(x * y) / (jet_const(2.0, m) + x) - jet_const(c, m) * y

    x, y = jet_var(0, u, m, order=4), jet_var(2, 2.0 * u, m, order=4)
    batch = f(x, y, u)
    assert _shapes(batch) == _shapes(x)
    points = [f(jet_var(0, u[r], m, order=4), jet_var(2, 2.0 * u[r], m, order=4), u[r]) for r in range(n)]
    for r, point in enumerate(points):  # the signed zero of row 1 included
        assert _shapes(point) == [(), (m,), (m, m), (m, m, m), (m, m, m, m)]
        assert all(_same(a[r], b) for a, b in zip(_views(batch), _views(point)))
    assert _shapes(pow_const(x, 0)) == [(n,), (n, m), (n, m, m), None, None]
    assert _shapes(pow_const(jet_var(0, 0.5, m, order=3), 0)) == [(), (m,), (m, m), None, None]

    comps = [batch, jet_const(1.0, m), x * x]
    vj = jets.VecJet2(comps)
    assert [v.shape for v in vj.d] == [(n, 3), (n, 3, m), (n, 3, m, m), (n, 3, m, m, m), (n, 3, m, m, m, m)]
    assert np.array_equal(vj.jac[:, 1], np.zeros((n, m))) and np.array_equal(vj.values[:, 1], np.ones(n))
    one = vj.row(2)
    assert [v.shape for v in one.d] == [(3,), (3, m), (3, m, m), (3, m, m, m), (3, m, m, m, m)]
    assert [v.shape for v in one.row(None).d] == [(1, 3), (1, 3, m), (1, 3, m, m), (1, 3, m, m, m), (1, 3, m, m, m, m)]
    point = jet_var(0, u[2], m, order=4)
    assert all(_same(a, b) for a, b in zip(one.d, jets.VecJet2([points[2], jet_const(1.0, m), point * point]).d))


def _views(jet):
    return [jet.value, jet.grad, jet.hess, jet.d3, jet.d4]


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_vecjet_shares_m():
    with pytest.raises(ValueError):
        jets.VecJet2([jet_var(0, 1.0, m=2), jet_var(0, 1.0, m=3)])


# -- order 4: one rule for every order ----------------------------------------

_SYMPY_FNS = {
    "sin": sympy.sin,
    "cos": sympy.cos,
    "tan": sympy.tan,
    "sinh": sympy.sinh,
    "cosh": sympy.cosh,
    "tanh": sympy.tanh,
    "exp": sympy.exp,
    "log": sympy.log,
    "sqrt": sympy.sqrt,
    "atan": sympy.atan,
    "neg": lambda e: -e,
}
_XYZ = sympy.symbols("x y z")
# points of the inner argument 0.5 + 0.4 x + 0.3 x y - 0.2 y^2, which stays
# in (0.5, 1.0) there, inside every function's domain
_POINTS = np.array([[0.3, 0.4, 0.5], [0.9, 0.7, 0.3], [0.5, 0.8, 0.9], [0.7, 0.35, 0.6]])


def _inner(x, y):
    return 0.5 + 0.4 * x + 0.3 * x * y - 0.2 * (y * y)


def _sympy_slots(expr, order=4) -> list:
    """The value and the derivative tensors (N, 3, ..., 3) of a sympy
    expression in x, y, z at _POINTS, up to ``order``."""
    derivs = {(): expr}  # by sorted multi-index, each from the one before
    for k in range(1, order + 1):
        for key in sorted({tuple(sorted(idx)) for idx in np.ndindex(*(3,) * k)}):
            derivs[key] = sympy.diff(derivs[key[:-1]], _XYZ[key[-1]])
    f = sympy.lambdify(_XYZ, list(derivs.values()), "math")
    values = dict(zip(derivs, np.array([f(*p) for p in _POINTS], dtype=float).T))
    return [
        np.moveaxis(np.array([values[tuple(sorted(idx))] for idx in np.ndindex(*(3,) * k)]).reshape((3,) * k + (-1,)), -1, 0)
        for k in range(order + 1)
    ]


def _assert_matches_sympy(jet, expr, what):
    slots = [jet.value, jet.grad, jet.hess, jet.d3, jet.d4]
    for k, (got, want) in enumerate(zip(slots, _sympy_slots(expr))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (what, k)
    assert jet.order == 4, what


def test_order_four_jets_match_sympy():
    # every unary function and pow_const of a function of two of three
    # variables, and the general '^' (exp(r log l)) of all three: every slot
    # up to d4 within 1e-12 relative to max(1, |sympy|)
    seeds = [jet_var(i, _POINTS[:, i], 3, order=4) for i in range(3)]
    arg, sym_arg = _inner(*seeds[:2]), _inner(*_XYZ[:2])
    for name, fn in jets.UNARY_FNS.items():
        _assert_matches_sympy(fn(arg), _SYMPY_FNS[name](sym_arg), name)
    for p in (0, 1, 2, 3, -2, 0.5, 2.5):
        jet = pow_const(arg, p)
        if p == 0:  # the constant 1, whose slots past the Hessian are missing, that is zero
            assert jet.order == 2 and np.all(jet.value == 1.0) and not jet.grad.any() and not jet.hess.any()
            continue
        _assert_matches_sympy(jet, sym_arg ** sympy.nsimplify(p), f"pow {p}")
    ast = exprlang.parse("(x*y + z)^(0.5*x - z*y)")
    jet = exprlang.eval_jet(ast, dict(zip("xyz", seeds)), {})
    x, y, z = _XYZ
    _assert_matches_sympy(jet, (x * y + z) ** (sympy.Rational(1, 2) * x - z * y), "general ^")


def _outcome(fn, value, order):
    try:
        fn(jet_var(0, np.array([1.0, value]), 1, order))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)
    return None


def test_order_four_raises_what_order_two_raises():
    # domain, range and zero-division errors at order 4 are those of order
    # 2, and so is their absence where only f''' or f'''' overflows (the
    # range checks read f, f' and f'' only)
    cases = [
        (jets.log, -1.0),
        (jets.sqrt, 0.0),
        (jets.exp, 800.0),
        (jets.sinh, 800.0),
        (jets.cosh, -800.0),
        (lambda j: pow_const(j, 2), 1e200),
        (lambda j: pow_const(j, -2), 0.0),
        (lambda j: pow_const(j, 0.5), -1.0),
        (lambda j: pow_const(j, 2.5), 1e200),
        (lambda j: 1.0 / j, 0.0),
        (lambda j: j / jet_const(0.0, 1), 1.0),
        (lambda j: pow_const(j, -2), 1e-70),  # f''' overflows, f'' does not
        (jets.log, 1e-110),  # f''' overflows, and log checks no range
    ]
    seen = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for fn, value in cases:
            seen.append(_outcome(fn, value, 4))
            assert seen[-1] == _outcome(fn, value, 2), value
    assert [s is None for s in seen] == [False] * 11 + [True] * 2
