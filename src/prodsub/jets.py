"""Forward-mode jets over m chart variables, truncated at the order of their
seeds (``jet_var(..., order=k)``).

A ``Jet2`` keeps the derivative tensors of a scalar quantity with respect to
the chart coordinates in one list indexed by order, and a missing slot counts
as zero.  So does an absent one: ``d[k]`` may be None for k >= 2 where slot k
is zero by construction.  The seeds of ``jet_var``, the constants of
``jet_const`` and ``pow_const(x, 0)`` carry their value and gradient only,
a number scales or negates a jet slot by slot, and a product or a function
of jets skips every term with an absent factor, so a linear subexpression
such as ``s/b`` multiplies no zero tensors.  Slot k >= 1 is stored with the
derivative axes first and the sample axis last, ``d[k]`` (m,) * k + (N,), so
every term below is an elementwise operation over contiguous rows of N
samples, and a number or a row array (N,) scales a slot as it stands.  A
single point or a constant has N = 1 there and broadcasts against batches.
The views ``value``, ``grad``, ``hess``, ``d3`` and ``d4`` give the slots
with the batch axis first, as (N,) + (m,) * k, or without one, and zeros for
an absent slot; ``VecJet2`` stacks the components once into contiguous
(N, k, m, ...) arrays, with zeros for absent slots, the layout every
consumer reads.

All arithmetic is the truncated Taylor rule of every order (Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): a product is the
general Leibniz rule and every unary function is Faa di Bruno's formula over
the table f, f', ..., f^(k) the function supplies, each summed over index
shuffles.  A table makes no entry above the order of the jet but those a
range check reads.  A plan per order (``_leibniz_plan``, ``_compose_plan``),
built once, holds each slot's splits or partitions, the indices of their
tensor products and their shuffles, so a call only multiplies and adds.  So
polynomials of degree <= k are differentiated exactly, and a slot never
reads the slots above it: every order gives the lower slots bit for bit.
The 3-jet gives the first derivatives of H, the Christoffels and alpha, and
the 4-jet the second derivatives of H that the normal Laplacian reads.
``fd_gradient`` is the finite-difference oracle of the tests; no run calls
it.
"""

from __future__ import annotations

from functools import cache, wraps
from itertools import accumulate, islice, permutations

import numpy as np

from .errors import StencilError

__all__ = ["Jet2", "VecJet2", "jet_var", "jet_const", "UNARY_FNS", "fd_gradient", "FD_BASE_STEP"]

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


def _number(x):
    """A float, or a float array for a row array (one number per batch row)."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def _spread(p: int, q: int) -> tuple:
    """ix, iy with x[ix] * y[iy] the tensor product (m^(p+q), N) of x (m^p, N) and y (m^q, N)."""
    return (slice(None),) * p + (None,) * q, (None,) * p


def _shuffles(sizes: tuple, ordered: bool) -> tuple:
    """The distinct ways to deal k = sum(sizes) index positions into blocks
    of these sizes, past the identity, each as the ``transpose`` axes that
    move the blocks' tensor product (block by block, each block's positions
    ascending, the sample axis last) onto them.  Blocks of one size are
    interchangeable unless ``ordered``."""
    cuts = list(accumulate(sizes, initial=0))
    seen, out = set(), []
    for perm in permutations(range(cuts[-1])):
        blocks = tuple(tuple(sorted(perm[a:b])) for a, b in zip(cuts, cuts[1:]))
        key = blocks if ordered else frozenset(blocks)
        if key not in seen:
            seen.add(key)
            flat = [p for block in blocks for p in block]  # the position of each axis
            out.append((*sorted(range(len(flat)), key=flat.__getitem__), len(flat)))
    return tuple(out[1:])


def _summed(t, shuffles):
    """t plus its transposes by ``shuffles``, added left to right."""
    if not shuffles:
        return t
    out = t + t.transpose(shuffles[0])
    for axes in shuffles[1:]:
        out += t.transpose(axes)
    return out


def _add(out, t):
    """out + t, where an out of None is absent."""
    return t if out is None else out + t


def _partitions(k: int) -> tuple:
    """The partitions of k into non-increasing block sizes, fewest blocks first."""

    def parts(n, most):
        if n == 0:
            yield ()
        for s in range(min(n, most), 0, -1):
            yield from ((s,) + rest for rest in parts(n - s, s))

    return tuple(sorted(parts(k, k), key=len))


@cache
def _leibniz_plan(k: int) -> tuple:
    """The splits j >= i = k - j of slot k of a product, j descending: (j, i,
    the indices of their tensor product, its shuffles)."""
    return tuple((j, k - j, *_spread(j, k - j), _shuffles((j, k - j), j == k - j)) for j in range(k - 1, (k - 1) // 2, -1))


@cache
def _compose_plan(k: int) -> tuple:
    """The partitions of k, fewest blocks first, of slot k of a composition:
    (the block sizes, the sizes but the last block, whose tensor product a
    lower slot made, the last block's size, the indices of their tensor
    product, its shuffles)."""
    return tuple((sizes, sizes[:-1], sizes[-1], *_spread(k - sizes[-1], sizes[-1]), _shuffles(sizes, False)) for sizes in _partitions(k))


def _view(k: int):
    def slot(self):  # the sample axis first, or none where the value has no batch of its length
        if k >= len(self.d):
            return None
        x = np.zeros((self.m,) * k + self.d[1].shape[-1:]) if self.d[k] is None else self.d[k]
        return np.moveaxis(x, -1, 0) if x.shape[-1:] == self.d[0].shape else x[..., 0]

    return property(slot)


class Jet2:
    """Truncated jet: ``d[k]`` holds the symmetric k-th derivatives for k up
    to ``order``, the value () or (N,) and slot k (m,) * k + (N,), N = 1 for
    a single point or a constant; every operation acts row by row, and
    operands broadcast.  ``value``, ``grad``, ``hess``, ``d3`` and ``d4``
    view the slots as value (N,), grad (N, m) and so on, or as grad (m,)
    where the value has no batch of the slot's length (a single point, or a
    constant of a row array); zeros for an absent slot (None in ``d``) and
    None past the order.  A jet without a gradient slot has no derivative
    direction (m = 0).
    """

    __slots__ = ("d", "m")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    value = property(lambda self: self.d[0])
    grad, hess, d3, d4 = (_view(k) for k in range(1, 5))

    def __init__(self, *d):
        self.d = [x if x is None else np.asarray(x, dtype=float) for x in d]
        self.m = self.d[1].shape[0] if len(self.d) > 1 else 0

    order = property(lambda self: len(self.d) - 1)

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, m={self.m}, order={self.order})"

    # -- arithmetic -------------------------------------------------------
    # A number operand, or a row array (N,) of them for a batch, scales or
    # shifts the jet directly; the values equal those of the same operation
    # against a constant jet.

    def __add__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value + _number(other), *self.d[1:])
        return Jet2(*(x if y is None else y if x is None else x + y for x, y in _pairs(self, other)))

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value - _number(other), *self.d[1:])
        return Jet2(*(x if y is None else -y if x is None else x - y for x, y in _pairs(self, other)))

    def __rsub__(self, other) -> "Jet2":
        return Jet2(_number(other) - self.value, *(None if x is None else -x for x in self.d[1:]))

    def __mul__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            c = _number(other)
            return Jet2(*(None if x is None else x * c for x in self.d))
        a, b = zip(*_pairs(self, other))
        return Jet2(*(_leibniz(a, b, k) for k in range(len(a))))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            c = _number(other)
            if np.any(c == 0.0):
                raise ZeroDivisionError("jet division by zero value")
            return self * (1.0 / c)
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> "Jet2":
        return _reciprocal(self) * other

    def __neg__(self) -> "Jet2":
        return Jet2(*(None if x is None else -x for x in self.d))

    def __pow__(self, p) -> "Jet2":
        return pow_const(self, p)


def _pairs(a: Jet2, b: Jet2):
    """The slots of a and b side by side up to the higher order, None where missing."""
    if a.m != b.m:
        raise ValueError(f"jet dimension mismatch: {a.m} vs {b.m}")
    return zip(a.d + [None] * (len(b.d) - len(a.d)), b.d + [None] * (len(a.d) - len(b.d)))


def _leibniz(a, b, k: int):
    """Slot k of a product from the slots a, b (None where missing) by the
    general Leibniz rule: a_k b + a b_k, then for each split j > i = k - j
    the shuffles of a_j b_i + b_j a_i, summed first, and for j = i the
    shuffles of a_j b_j one by one."""
    if k == 0:
        return a[0] * b[0]
    out = None if a[k] is None else a[k] * b[0]
    if b[k] is not None:
        out = _add(out, b[k] * a[0])
    for j, i, ix, iy, shuffles in _leibniz_plan(k):
        t = None if a[j] is None or b[i] is None else a[j][ix] * b[i][iy]
        if j > i:
            if b[j] is not None and a[i] is not None:
                t = _add(t, b[j][ix] * a[i][iy])
            if t is not None:
                out = _add(out, _summed(t, shuffles))
        elif t is not None:
            out = _add(out, t)
            for axes in shuffles:
                out = out + t.transpose(axes)
    return out


def _compose(a: Jet2, table) -> Jet2:
    """f(a) from the derivative table f, f', ... of f at a.value by Faa di
    Bruno's formula: slot k sums, over the partitions of k into blocks, the
    shuffles of the product of a's slots of the block sizes, times f^(number
    of blocks).  Each product extends that of its blocks but the last, and
    a partition with an absent block (None) adds nothing.  ``table`` yields
    the entries, and only those up to a's order are drawn."""
    table = list(islice(table, len(a.d)))
    d, products = [table[0]], {}
    for k in range(1, len(a.d)):
        out = None
        for sizes, head, s, ix, iy, shuffles in _compose_plan(k):
            t = a.d[s]
            if head:
                t = None if t is None or products[head] is None else products[head][ix] * t[iy]
            products[sizes] = t
            if t is not None:
                out = _add(out, _summed(t, shuffles) * table[len(sizes)])
        d.append(out)
    return Jet2(*d)


def jet_var(index: int, value, m: int, order: int = 2) -> Jet2:
    """Seed jet of ``order`` for chart variable ``index`` of ``m``: a unit
    gradient and absent (zero) slots above it.  At order 0 the seed is its
    value alone, a jet over no derivative direction (m = 0), so that the
    constants a coordinate map builds with the seeds' m carry no derivative
    either.

    ``value`` is one number or a batch (N,) of them."""
    if not 0 <= index < m:
        raise ValueError(f"variable index {index} out of range for m={m}")
    value = np.array(value, dtype=float)
    grad = np.zeros((m,) + (value.shape or (1,)))
    grad[index] = 1.0
    return Jet2(value, grad, *[None] * (order - 1)) if order else Jet2(value)


def jet_const(value, m: int) -> Jet2:
    """Constant jet of a number or a row array (N,): a zero gradient, or the value alone where m = 0."""
    return Jet2(value, np.zeros((m, 1)), None) if m else Jet2(value)


def _unary(table):
    """The jet function f(a) of a table ``table(v)`` that yields f, f', ...
    at v, each entry made only when ``_compose`` draws it."""
    return wraps(table)(lambda a: _compose(a, table(a.value)))


@_unary
def _reciprocal(v):
    if np.any(v == 0.0):
        raise ZeroDivisionError("jet division by zero value")
    yield (inv := 1.0 / v)
    yield -(inv2 := inv * inv)
    yield 2.0 * inv2 * inv
    yield -6.0 * inv2 * inv2
    yield 24.0 * inv2 * inv2 * inv


def _trig(v, f, g):
    """f, g, -f, -g, f at v for (f, g) = (sin, cos) or (cos, -sin)."""
    yield (fv := f(v))
    yield (gv := g(v))
    yield -fv
    yield -gv
    yield fv


sin = _unary(lambda v: _trig(v, np.sin, np.cos))
cos = _unary(lambda v: _trig(v, np.cos, lambda x: -np.sin(x)))


@_unary
def tan(v):
    _check_domain("tan", v, np.cos(v) == 0.0)
    yield (t := np.tan(v))
    yield (s := 1.0 + t * t)  # sec^2
    yield 2.0 * t * s
    yield 2.0 * s * (s + 2.0 * t * t)
    yield 8.0 * t * s * (2.0 * s + t * t)


def sinh(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        s, c = np.sinh(a.value), np.cosh(a.value)
    _check_range(a.value, s, c)
    return _compose(a, [s, c, s, c, s])


def cosh(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        s, c = np.sinh(a.value), np.cosh(a.value)
    _check_range(a.value, s, c)
    return _compose(a, [c, s, c, s, c])


@_unary
def tanh(v):
    yield (t := np.tanh(v))
    yield (sech2 := 1.0 - t * t)
    yield -2.0 * t * sech2
    yield 2.0 * sech2 * (2.0 * t * t - sech2)
    yield 8.0 * t * sech2 * (2.0 * sech2 - t * t)


def exp(a: Jet2) -> Jet2:
    with np.errstate(over="ignore"):
        e = np.exp(a.value)
    _check_range(a.value, e)
    return _compose(a, [e] * 5)


@_unary
def log(v):
    _check_domain("log", v, v <= 0.0)
    yield np.log(v)
    yield (inv := 1.0 / v)
    yield -inv * inv
    yield 2.0 * inv * inv * inv
    yield -6.0 * inv * inv * inv * inv


@_unary
def sqrt(v):
    _check_domain("sqrt", v, v <= 0.0)
    yield (r := np.sqrt(v))
    yield 0.5 / r
    yield -0.25 / (r * v)
    yield 0.375 / (r * v * v)
    yield -0.9375 / (r * v * v * v)


@_unary
def atan(v):
    yield np.arctan(v)
    yield 1.0 / (d := 1.0 + v * v)
    yield -2.0 * v / (d * d)
    yield (6.0 * v * v - 2.0) / (d * d * d)
    yield 24.0 * v * (1.0 - v * v) / (d * d * d * d)


neg = Jet2.__neg__


def pow_const(a: Jet2, p: float) -> Jet2:
    """a**p for a real constant exponent p.

    Integer p works for any base; fractional p requires a.value > 0.  The
    range check reads the value and the first two derivatives only, so a
    jet raises the same error at every order.
    """
    if isinstance(p, float) and p.is_integer():
        p = int(p)
    v = a.value
    if isinstance(p, int):
        if p == 0:  # the constant 1, as ``jet_const`` gives it, up to order 2
            return Jet2(np.ones_like(v), *map(np.zeros_like, a.d[1:2]), *[None] * len(a.d[2:3]))
        if p < 0 and np.any(v == 0.0):
            raise ZeroDivisionError("pow_const: zero base with negative exponent")
        table, c = [], 1
        with np.errstate(over="ignore"):
            for j in range(max(3, len(a.d))):  # c = p (p - 1) ... (p - j + 1), exact
                table.append(c * v ** (p - j) if c else 0.0)
                c *= p - j
        _check_range(v, *table[:3], power=True)
        return _compose(a, table)
    _check_domain("pow_const", v, v <= 0.0)
    with np.errstate(over="ignore"):
        f = v**p
    _check_range(v, f, power=True)
    table, c, vj = [f], 1.0, 1.0
    for j in range(1, len(a.d)):
        c, vj = c * (p - j + 1), v if j == 1 else vj * v
        table.append(c * f / vj)
    return _compose(a, table)


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

    ``d[k]`` (k_c, m^k) stacks the k-th derivatives of the k_c components,
    with d[k][c, i, j, ...] = d^k f_c / du_i du_j ...: ``values`` (k_c,),
    ``jac`` (k_c, m), ``d2`` (k_c, m, m) always, and ``d3`` and ``d4`` where
    a component carries that slot (zero for the components without it or
    with it absent), else None.  A batch of N points adds a leading axis to
    each.  ``errors`` is None, or on a batch from ``immersion.evaluate_jet``
    the error of each row whose point could not be evaluated (its rows hold
    NaN), else None.
    """

    __slots__ = ("m", "d", "errors")

    values, jac, d2, d3, d4 = (property(lambda self, k=k: self.d[k] if k < len(self.d) else None) for k in range(5))

    def __init__(self, jets):
        jets = list(jets)
        if not jets:
            raise ValueError("VecJet2 needs at least one component")
        m = jets[0].m
        if any(j.m != m for j in jets):
            raise ValueError("VecJet2 components disagree on m")
        shape = np.broadcast_shapes(*(j.value.shape for j in jets))
        self.m, self.d, self.errors = m, [], None
        for k in range(max(3, *(len(j.d) for j in jets))):
            out = np.empty(shape + (len(jets),) + (m,) * k)
            rows = out.transpose(*range(1, k + 2), 0) if shape else out[..., None]  # the jets' layout
            for c, j in enumerate(jets):
                rows[c] = 0.0 if k > j.order or j.d[k] is None else j.d[k]
            self.d.append(out)

    def __len__(self) -> int:
        return self.values.shape[-1]

    def row(self, i) -> "VecJet2":
        """The jet of point ``i`` of a batch; an index array or a slice gives
        a smaller batch, and None makes a single jet a batch of one."""
        out = object.__new__(VecJet2)
        out.m, out.d, out.errors = self.m, [x[i] for x in self.d], None
        return out


def fd_gradient(field, u, i: int, step: float | None = None) -> np.ndarray:
    """Derivative of a vector-valued field along chart direction ``i``:
    central differences at steps h and h/2 with one Richardson step,
    (4 d_{h/2} - d_h) / 3, from the field at u + h e_i, u - h e_i,
    u + h/2 e_i and u - h/2 e_i, in that order.  h is the base step
    cbrt(machine eps) * max(1, |u_i|) unless ``step`` is given.  Raises
    StencilError where a value is not finite."""
    u = np.asarray(u, dtype=float)
    h = FD_BASE_STEP * max(1.0, abs(u[i])) if step is None else float(step)
    e = np.eye(len(u))[i]
    values = [np.atleast_1d(np.asarray(field(u + h * s * e), dtype=float)) for s in (1.0, -1.0, 0.5, -0.5)]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise StencilError(f"non-finite field value near u={u.tolist()} along direction {i}")
    d1 = (values[0] - values[1]) / (2.0 * h)
    d2 = (values[2] - values[3]) / (2.0 * (0.5 * h))
    return (4.0 * d2 - d1) / 3.0
