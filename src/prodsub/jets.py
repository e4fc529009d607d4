"""Forward-mode jets over m chart variables, of order 2 with an optional
third-order slot.

A ``Jet2`` carries the value, gradient and Hessian of a scalar quantity with
respect to the chart coordinates, and ``d3``, its third derivatives, when
the seeds carry that slot (``jet_var(..., order=3)``).  All arithmetic
implements exact truncated Taylor rules (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), so polynomial expressions of degree <= 3
are differentiated exactly; a missing ``d3`` counts as zero, and value,
gradient and Hessian are computed the same way with or without it.  The
3-jet gives the first derivatives of the fields built from the 2-jet
(mean curvature, Christoffels, alpha) in closed form.  Only the nested
normal Laplacian still differences: ``fd_difference`` takes the difference
of values already taken at the points of ``fd_stencil``, and
``fd_gradient``, the oracle of the tests, evaluates a field there and
differences it the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import StencilError

__all__ = [
    "Jet2",
    "VecJet2",
    "jet_var",
    "jet_const",
    "UNARY_FNS",
    "fd_difference",
    "fd_gradient",
    "fd_stencil",
    "FD_BASE_STEP",
]

#: default finite-difference base step, cbrt(machine epsilon)
FD_BASE_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class JetDomainError(ValueError):
    """A unary function was evaluated outside its domain."""

    def __init__(self, fn: str, value: float):
        super().__init__(f"{fn}: argument {value!r} outside the function domain")
        self.fn = fn
        self.value = value


def _check_domain(fn: str, value, bad) -> None:
    """Raise for the first entry of ``value`` (in batch order) where ``bad``."""
    if np.any(bad):
        raise JetDomainError(fn, float(np.asarray(value)[np.asarray(bad)][0]))


def _check_range(arg, *results, power: bool = False) -> None:
    """Raise OverflowError where a finite argument overflowed, with the
    message of ``math`` (or of a float power); numpy would return inf."""
    finite = np.isfinite(arg)
    if any(np.any(np.isinf(r) & finite) for r in results):
        if power:
            raise OverflowError(34, "Numerical result out of range")
        raise OverflowError("math range error")


def _check_same_m(a: "Jet2", b: "Jet2") -> None:
    if a.m != b.m:
        raise ValueError(f"jet dimension mismatch: {a.m} vs {b.m}")


def _col(x):
    """Broadcast a batch of scalars against a trailing vector axis."""
    return np.asarray(x)[..., None]


def _mat(x):
    """Broadcast a batch of scalars against trailing (m, m) axes."""
    return np.asarray(x)[..., None, None]


def _number(x):
    """A float, or a float array for a row array (one number per batch row)."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


class Jet2:
    """Truncated jet: value, gradient (m,), symmetric Hessian (m, m) and,
    at order 3, the symmetric third derivatives ``d3`` (m, m, m), else None.

    Every field may carry one leading batch axis: value (N,), grad (N, m),
    hess (N, m, m) and d3 (N, m, m, m) hold the jets of N points, and every
    operation acts row by row.  A jet without the axis is the N-less case of
    the same class; operands broadcast, so constants mix with batches.
    """

    __slots__ = ("m", "value", "grad", "hess", "d3")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray, d3=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.d3 = None if d3 is None else np.asarray(d3, dtype=float)
        self.m = self.grad.shape[-1]

    def __repr__(self) -> str:
        if self.value.ndim:
            return f"Jet2(batch={self.value.shape[0]}, m={self.m})"
        return f"Jet2(value={float(self.value)!r}, m={self.m})"

    # -- arithmetic -------------------------------------------------------
    # A number operand, or a row array (N,) of them for a batch, scales or
    # shifts the jet directly; the values equal those of the same operation
    # against a constant jet.

    def __add__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value + _number(other), self.grad, self.hess, self.d3)
        _check_same_m(self, other)
        d3 = _sum(self.d3, other.d3)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess, d3)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value - _number(other), self.grad, self.hess, self.d3)
        _check_same_m(self, other)
        d3 = _sum(self.d3, _scaled(other.d3, -1.0))
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess, d3)

    def __rsub__(self, other) -> "Jet2":
        return Jet2(_number(other) - self.value, -self.grad, -self.hess, _scaled(self.d3, -1.0))

    def __mul__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            c = _number(other)
            return Jet2(self.value * c, self.grad * _col(c), self.hess * _mat(c), _scaled(self.d3, c))
        o = other
        _check_same_m(self, o)
        cross = _outer(self.grad, o.grad)
        d3 = None
        if self.d3 is not None or o.d3 is not None:
            hg = _hg(self.hess, o.grad) + _hg(o.hess, self.grad)
            d3 = _sum(_scaled(self.d3, o.value), _scaled(o.d3, self.value), _sym3(hg))
        return Jet2(
            self.value * o.value,
            self.grad * _col(o.value) + o.grad * _col(self.value),
            self.hess * _mat(o.value) + o.hess * _mat(self.value) + cross + np.swapaxes(cross, -1, -2),
            d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            c = _number(other)
            if np.any(c == 0.0):
                raise ZeroDivisionError("jet division by zero value")
            return self * (1.0 / c)
        _check_same_m(self, other)
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> "Jet2":
        return _reciprocal(self) * other

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess, _scaled(self.d3, -1.0))

    def __pow__(self, p) -> "Jet2":
        return pow_const(self, p)


def _sum(*terms):
    """The sum of the third-order terms that are not None, or None if all are."""
    present = [t for t in terms if t is not None]
    return sum(present[1:], present[0]) if present else None


def _scaled(d3, x):
    """d3 (..., m, m, m) times a batch of scalars x, or None for None."""
    return None if d3 is None else d3 * np.asarray(x)[..., None, None, None]


def _hg(h, g):
    """t[..., i, j, k] = h_ij g_k for Hessians h (..., m, m) and gradients g (..., m)."""
    return h[..., :, :, None] * g[..., None, None, :]


def _sym3(t):
    """t_ijk + t_ikj + t_jki: the symmetric part (times three) of a t that is
    symmetric in its first two indices."""
    return t + np.swapaxes(t, -1, -2) + np.moveaxis(t, -1, -3)


def jet_var(index: int, value, m: int, order: int = 2) -> Jet2:
    """Seed jet for chart variable ``index`` of ``m``: unit gradient slot,
    with a zero third-order slot at ``order`` 3.

    ``value`` is one number or a batch (N,) of them."""
    if not 0 <= index < m:
        raise ValueError(f"variable index {index} out of range for m={m}")
    value = np.array(value, dtype=float)
    grad = np.zeros(value.shape + (m,))
    grad[..., index] = 1.0
    d3 = np.zeros(value.shape + (m, m, m)) if order == 3 else None
    return Jet2(value, grad, np.zeros(value.shape + (m, m)), d3)


def jet_const(value, m: int) -> Jet2:
    """Constant jet of one number, or of a row array (N,) with one per batch row."""
    return Jet2(value, np.zeros(m), np.zeros((m, m)))


def _reciprocal(a: Jet2) -> Jet2:
    v = a.value
    if np.any(v == 0.0):
        raise ZeroDivisionError("jet division by zero value")
    inv = 1.0 / v
    inv2 = inv * inv
    outer = _outer(a.grad, a.grad)
    d3 = None if a.d3 is None else _third(a, -inv2, 2.0 * inv2 * inv, -6.0 * inv2 * inv2)
    return Jet2(inv, -a.grad * _col(inv2), -a.hess * _mat(inv2) + 2.0 * outer * _mat(inv2 * inv), d3)


def _third(a: Jet2, fp, fpp, fppp) -> np.ndarray:
    """The third derivatives of f(a) from the derivatives f', f'' and f''' at a.value."""
    outer3 = _hg(_outer(a.grad, a.grad), a.grad)
    return _scaled(a.d3, fp) + _scaled(_sym3(_hg(a.hess, a.grad)), fpp) + _scaled(outer3, fppp)


def _chain(a: Jet2, f, fp, fpp, fppp) -> Jet2:
    """Apply the scalar chain rule with derivative table (f, f', f'', f''')."""
    return Jet2(
        f,
        _col(fp) * a.grad,
        _mat(fp) * a.hess + _mat(fpp) * _outer(a.grad, a.grad),
        None if a.d3 is None else _third(a, fp, fpp, fppp),
    )


def sin(a: Jet2) -> Jet2:
    s, c = np.sin(a.value), np.cos(a.value)
    return _chain(a, s, c, -s, -c)


def cos(a: Jet2) -> Jet2:
    s, c = np.sin(a.value), np.cos(a.value)
    return _chain(a, c, -s, -c, s)


def tan(a: Jet2) -> Jet2:
    _check_domain("tan", a.value, np.cos(a.value) == 0.0)
    t = np.tan(a.value)
    sec2 = 1.0 + t * t
    return _chain(a, t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (sec2 + 2.0 * t * t))


def sinh(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        s, c = np.sinh(a.value), np.cosh(a.value)
    _check_range(a.value, s, c)
    return _chain(a, s, c, s, c)


def cosh(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        s, c = np.sinh(a.value), np.cosh(a.value)
    _check_range(a.value, s, c)
    return _chain(a, c, s, c, s)


def tanh(a: Jet2) -> Jet2:
    t = np.tanh(a.value)
    sech2 = 1.0 - t * t
    return _chain(a, t, sech2, -2.0 * t * sech2, 2.0 * sech2 * (2.0 * t * t - sech2))


def exp(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        e = np.exp(a.value)
    _check_range(a.value, e)
    return _chain(a, e, e, e, e)


def log(a: Jet2) -> Jet2:
    _check_domain("log", a.value, a.value <= 0.0)
    inv = 1.0 / a.value
    return _chain(a, np.log(a.value), inv, -inv * inv, 2.0 * inv * inv * inv)


def sqrt(a: Jet2) -> Jet2:
    _check_domain("sqrt", a.value, a.value <= 0.0)
    r = np.sqrt(a.value)
    return _chain(a, r, 0.5 / r, -0.25 / (r * a.value), 0.375 / (r * a.value * a.value))


def atan(a: Jet2) -> Jet2:
    d = 1.0 + a.value * a.value
    fppp = (6.0 * a.value * a.value - 2.0) / (d * d * d)
    return _chain(a, np.arctan(a.value), 1.0 / d, -2.0 * a.value / (d * d), fppp)


def neg(a: Jet2) -> Jet2:
    return -a


def pow_const(a: Jet2, p: float) -> Jet2:
    """a**p for a real constant exponent p.

    Integer p works for any base; fractional p requires a.value > 0.  The
    range check reads the value and the first two derivatives only, so a
    jet raises the same error with or without its third-order slot.
    """
    if isinstance(p, float) and p.is_integer():
        p = int(p)
    v = a.value
    if isinstance(p, int):
        if p == 0:
            return Jet2(np.ones_like(v), np.zeros_like(a.grad), np.zeros_like(a.hess))
        if p < 0 and np.any(v == 0.0):
            raise ZeroDivisionError("pow_const: zero base with negative exponent")
        with np.errstate(over="ignore"):
            f = v**p
            fp = p * v ** (p - 1)
            fpp = p * (p - 1) * (v ** (p - 2) if p != 1 else 0.0)
            fppp = p * (p - 1) * (p - 2) * (v ** (p - 3) if p not in (1, 2) else 0.0)
        _check_range(v, f, fp, fpp, power=True)
        return _chain(a, f, fp, fpp, fppp)
    _check_domain("pow_const", v, v <= 0.0)
    with np.errstate(over="ignore"):
        f = v**p
    _check_range(v, f, power=True)
    return _chain(a, f, p * f / v, p * (p - 1) * f / (v * v), p * (p - 1) * (p - 2) * f / (v * v * v))


UNARY_FNS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "tanh": tanh,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
    "atan": atan,
    "neg": neg,
}

class VecJet2:
    """Ambient-vector-valued jet, stacked for downstream linear algebra.

    ``values`` (k,), ``jac`` (k, m) with jac[c, i] = d f_c / d u_i, ``d2``
    (k, m, m) with the per-component Hessians and, where a component
    carries the third-order slot, ``d3`` (k, m, m, m) with
    d3[c, i, j, l] = d^3 f_c / du_i du_j du_l (zero for the components
    without it), else None.  A batch of N points adds a leading axis to
    each.  ``errors`` is None, or on a batch from ``immersion.evaluate_jet``
    the error of each row whose point could not be evaluated (its rows hold
    NaN), else None.
    """

    __slots__ = ("m", "values", "jac", "d2", "d3", "errors")

    def __init__(self, jets):
        jets = list(jets)
        if not jets:
            raise ValueError("VecJet2 needs at least one component")
        m = jets[0].m
        for j in jets:
            if j.m != m:
                raise ValueError("VecJet2 components disagree on m")
        shape = np.broadcast_shapes(*(j.value.shape for j in jets))

        def stack(parts, tail, axis):
            want = shape + tail
            return np.stack([p if p.shape == want else np.broadcast_to(p, want) for p in parts], axis)

        self.m = m
        self.values = stack([j.value for j in jets], (), -1)
        self.jac = stack([j.grad for j in jets], (m,), -2)
        self.d2 = stack([j.hess for j in jets], (m, m), -3)
        self.d3 = None
        if any(j.d3 is not None for j in jets):
            self.d3 = stack([np.zeros((m, m, m)) if j.d3 is None else j.d3 for j in jets], (m, m, m), -4)
        self.errors = None

    def __len__(self) -> int:
        return self.values.shape[-1]

    def row(self, i) -> "VecJet2":
        """The jet of point ``i`` of a batch; an index array or a slice gives
        a smaller batch, and None makes a single jet a batch of one."""
        out = object.__new__(VecJet2)
        out.m = self.m
        out.values, out.jac, out.d2 = self.values[i], self.jac[i], self.d2[i]
        out.d3 = None if self.d3 is None else self.d3[i]
        out.errors = None
        return out

    def second(self, i: int, j: int) -> np.ndarray:
        """Mixed second derivative vector d^2 f / du_i du_j, shape (k,)."""
        return self.d2[..., i, j]


def fd_stencil(u, i: int, step: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Base step h and the four points ``fd_gradient`` evaluates along chart
    direction ``i``, in its order: u + h e_i, u - h e_i, u + h/2 e_i and
    u - h/2 e_i.  h is the base step cbrt(machine eps) * max(1, |u_i|)
    unless ``step`` is given.  Points u (..., m) give steps (...) and
    stencils (..., 4, m)."""
    u = np.asarray(u, dtype=float)
    h = FD_BASE_STEP * np.maximum(1.0, np.abs(u[..., i])) if step is None else np.full(u.shape[:-1], float(step))
    points = np.repeat(u[..., None, :], 4, axis=-2)
    points[..., i] += h[..., None] * np.array([1.0, -1.0, 0.5, -0.5])
    return h, points


def nonfinite_error(u, i: int) -> StencilError:
    """The error of a stencil around u along direction i that met a non-finite field value."""
    return StencilError(f"non-finite field value near u={np.asarray(u, dtype=float).tolist()} along direction {i}")


def fd_difference(values, h) -> np.ndarray:
    """Central differences with one Richardson extrapolation step from a
    field's values (..., 4, k) at the four points of ``fd_stencil``, in its
    order, with base steps h (...): (4 d_{h/2} - d_h) / 3, shape (..., k).
    The leading axes are any number of stencils, differenced at once."""
    h = np.asarray(h, dtype=float)[..., None]
    d1 = (values[..., 0, :] - values[..., 1, :]) / (2.0 * h)
    d2 = (values[..., 2, :] - values[..., 3, :]) / (2.0 * (0.5 * h))
    return (4.0 * d2 - d1) / 3.0


def fd_gradient(field, u, i: int, step: float | None = None) -> np.ndarray:
    """Derivative of a vector-valued field along chart direction ``i``:
    ``fd_difference`` of the field at the points of ``fd_stencil`` (nested
    differences pass a coarser ``step``), read as two pairs in order.
    """
    h, pts = fd_stencil(u, i, step)
    values = []
    for k in (0, 2):
        pair = [np.atleast_1d(np.asarray(field(p), dtype=float)) for p in pts[k : k + 2]]
        if not all(np.all(np.isfinite(v)) for v in pair):
            raise nonfinite_error(u, i)
        values += pair
    return fd_difference(np.array(values), h)
