"""Oracles of the jets in ``prodsub.jets``.

The hand-written jet rules of orders 2 and 3: value, gradient, Hessian and
third-order slot, each rule written out for its order.  ``seeds(U, m,
order)`` gives the seed jets of a batch of points U (N, m) at order 0
(values over no derivative direction), 2 or 3.  Their slots above the
gradient, and a constant's Hessian, are ``ABSENT``, an exact zero that
every term it enters leaves out, as ``prodsub.jets`` leaves out the terms of
its absent (None) slots.

``BatchFirstJet``: the general rules of every order on the batch-first
layout, slot k (N,) + (m,) * k, which ``prodsub.jets`` replaced with the
sample axis last.  ``BATCH_FIRST`` lists what to put in place of
``prodsub.jets`` names so that its unary functions and ``pow_const`` build
these jets from their own derivative tables, and ``batch_first_seeds(U, m,
order)`` gives their seeds at any order.  Its seeds and constants leave
the slots above the gradient None, and its rules skip every term of a None
slot, as ``prodsub.jets`` does.

``DENSE``: seeds and constants of ``prodsub.jets`` itself with explicit zero
slots above the gradient, where ``jets.jet_var`` and ``jets.jet_const`` leave
them absent, so that every rule multiplies and adds the zero tensors.
"""

from functools import cache, reduce
from itertools import accumulate, permutations
import operator

import numpy as np

from prodsub import jets


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


class _Absent:
    """An absent slot: exactly zero, so a product with it is absent and a sum
    leaves it out; indexing, negation and ``np.swapaxes`` keep it absent."""

    __array_ufunc__ = None  # numpy arrays and scalars defer to the operators below

    def __add__(self, other):
        return other

    __radd__ = __add__

    def __sub__(self, other):
        return -other

    def __rsub__(self, other):
        return other

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __neg__(self):
        return self

    def __getitem__(self, index):
        return self

    def swapaxes(self, *axes):
        return self


ABSENT = _Absent()


def _slot(x):
    """A slot as a float array, or None or ``ABSENT`` as it stands."""
    return x if x is None or x is ABSENT else np.asarray(x, dtype=float)


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
    The Hessian and ``d3`` may be ``ABSENT``.

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
        self.hess = _slot(hess)
        self.d3 = _slot(d3)
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
    t_ikj = np.swapaxes(t, -1, -2)
    return t + t_ikj + np.swapaxes(t_ikj, -2, -3)


def jet_var(index: int, value, m: int, order: int = 2) -> Jet2:
    """Seed jet for chart variable ``index`` of ``m``: unit gradient slot and
    an absent Hessian, with an absent third-order slot at ``order`` 3.

    ``value`` is one number or a batch (N,) of them."""
    if not 0 <= index < m:
        raise ValueError(f"variable index {index} out of range for m={m}")
    value = np.array(value, dtype=float)
    grad = np.zeros(value.shape + (m,))
    grad[..., index] = 1.0
    return Jet2(value, grad, ABSENT, ABSENT if order == 3 else None)


def jet_const(value, m: int) -> Jet2:
    """Constant jet of one number, or of a row array (N,) with one per batch
    row: a zero gradient and an absent Hessian."""
    return Jet2(value, np.zeros(m), ABSENT)


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
            return Jet2(np.ones_like(v), np.zeros_like(a.grad), ABSENT)
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


def seeds(U, m: int, order: int) -> tuple:
    if order:
        return tuple(jet_var(i, U[:, i], m, order) for i in range(m))
    none = np.empty((len(U), 0)), np.empty((len(U), 0, 0))
    return tuple(Jet2(U[:, i], *none) for i in range(m))


# -- the general rules on the batch-first layout -------------------------------


def _trail(x, k: int):
    """A batch of scalars broadcast against k trailing tensor axes."""
    return x if isinstance(x, float) else np.asarray(x)[(Ellipsis,) + (None,) * k]


@cache
def _shuffles(sizes: tuple, ordered: bool, lead: int) -> tuple:
    """The distinct ways to deal k = sum(sizes) index positions into blocks
    of these sizes, the identity first, each as the ``transpose`` axes that
    move the blocks' tensor product (block by block, each block's positions
    ascending, after ``lead`` leading axes) onto them.  Blocks of one size
    are interchangeable unless ``ordered``."""
    cuts = list(accumulate(sizes, initial=0))
    seen, out = set(), []
    for perm in permutations(range(cuts[-1])):
        blocks = tuple(tuple(sorted(perm[a:b])) for a, b in zip(cuts, cuts[1:]))
        key = blocks if ordered else frozenset(blocks)
        if key not in seen:
            seen.add(key)
            flat = [p for block in blocks for p in block]  # the position of each axis
            out.append(tuple(range(lead)) + tuple(lead + a for a in sorted(range(len(flat)), key=flat.__getitem__)))
    return tuple(out)


def _add_all(terms):
    """The left-to-right sum of the terms that are not None, else None."""
    present = [t for t in terms if t is not None]
    return reduce(operator.add, present) if present else None


@cache
def _partitions(k: int) -> tuple:
    """The partitions of k into non-increasing block sizes, fewest blocks first."""

    def parts(n, most):
        if n == 0:
            yield ()
        for s in range(min(n, most), 0, -1):
            yield from ((s,) + rest for rest in parts(n - s, s))

    return tuple(sorted(parts(k, k), key=len))


class BatchFirstJet:
    """Truncated jet: ``d[k]`` holds the symmetric k-th derivatives (m,) * k
    for k up to the order, with one leading batch axis where the slot has
    one; a missing slot, or one that is None, counts as zero."""

    __slots__ = ("d", "m")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, *d):
        self.d = [_slot(x) for x in d]
        self.m = self.d[1].shape[-1] if len(self.d) > 1 else 0

    value = property(lambda self: self.d[0])
    order = property(lambda self: len(self.d) - 1)

    def __add__(self, other):
        if not isinstance(other, BatchFirstJet):
            return BatchFirstJet(self.value + _number(other), *self.d[1:])
        return BatchFirstJet(*(x if y is None else y if x is None else x + y for x, y in self._pairs(other)))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, BatchFirstJet):
            return BatchFirstJet(self.value - _number(other), *self.d[1:])
        return BatchFirstJet(*(x if y is None else -y if x is None else x - y for x, y in self._pairs(other)))

    def __rsub__(self, other):
        return BatchFirstJet(_number(other) - self.value, *(None if x is None else -x for x in self.d[1:]))

    def __mul__(self, other):
        if not isinstance(other, BatchFirstJet):
            c = _number(other)
            return BatchFirstJet(*(None if x is None else x * _trail(c, k) for k, x in enumerate(self.d)))
        a, b = zip(*self._pairs(other))
        return BatchFirstJet(*(self._leibniz(a, b, k) for k in range(len(a))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, BatchFirstJet):
            c = _number(other)
            if np.any(c == 0.0):
                raise ZeroDivisionError("jet division by zero value")
            return self * (1.0 / c)
        return self * jets._reciprocal(other)

    def __rtruediv__(self, other):
        return jets._reciprocal(self) * other

    def __neg__(self):
        return BatchFirstJet(*(None if x is None else -x for x in self.d))

    def __pow__(self, p):
        return jets.pow_const(self, p)

    def _pairs(self, b):
        """The slots of self and b side by side up to the higher order, None where missing."""
        if self.m != b.m:
            raise ValueError(f"jet dimension mismatch: {self.m} vs {b.m}")
        return zip(self.d + [None] * (len(b.d) - len(self.d)), b.d + [None] * (len(self.d) - len(b.d)))

    @staticmethod
    def _outer(x, p: int, y, q: int):
        """x (..., m^p) times y (..., m^q): the tensor product (..., m^(p+q))."""
        return x[(Ellipsis,) + (None,) * q] * y[(Ellipsis,) + (None,) * p + (slice(None),) * q]

    @staticmethod
    def _shuffled(t, sizes: tuple, ordered: bool = False) -> list:
        """The tensor product t of blocks of these sizes, transposed by each of their ``_shuffles``."""
        shuffles = _shuffles(sizes, ordered, t.ndim - sum(sizes))
        return [t, *(t.transpose(axes) for axes in shuffles[1:])]

    @staticmethod
    def _leibniz(a, b, k: int):
        """Slot k of a product from the slots a, b (None where missing) by the
        general Leibniz rule: a_k b + a b_k, then for each split j > i = k - j
        the shuffles of a_j b_i + b_j a_i, summed first, and for j = i the
        shuffles of a_j b_j one by one."""
        outer, shuffled = BatchFirstJet._outer, BatchFirstJet._shuffled
        if k == 0:
            return a[0] * b[0]
        out = _add_all([None if a[k] is None else a[k] * _trail(b[0], k), None if b[k] is None else b[k] * _trail(a[0], k)])
        for j in range(k - 1, (k - 1) // 2, -1):
            i = k - j
            x = None if a[j] is None or b[i] is None else outer(a[j], j, b[i], i)
            if j > i:
                t = _add_all([x, None if b[j] is None or a[i] is None else outer(b[j], j, a[i], i)])
                terms = [] if t is None else [_add_all(shuffled(t, (j, i)))]
            else:
                terms = [] if x is None else shuffled(x, (j, i), True)
            out = _add_all([out, *terms])
        return out

    @staticmethod
    def _compose(a, table):
        """f(a) from the derivative table f, f', ... of f at a.value by Faa di
        Bruno's formula: slot k sums, over the partitions of k into blocks, the
        shuffles of the product of a's slots of the block sizes, times f^(number
        of blocks), and a partition with a None block adds nothing.  ``table``
        is any iterable of the entries, drawn whole."""
        table = list(table)
        d = [table[0]]
        for k in range(1, a.order + 1):
            out = None
            for sizes in _partitions(k):
                if any(a.d[s] is None for s in sizes):
                    continue
                t, p = a.d[sizes[0]], sizes[0]
                for s in sizes[1:]:
                    t, p = BatchFirstJet._outer(t, p, a.d[s], s), p + s
                term = _add_all(BatchFirstJet._shuffled(t, sizes)) * _trail(table[len(sizes)], k)
                out = term if out is None else out + term
            d.append(out)
        return BatchFirstJet(*d)


def batch_first_const(value, m: int) -> BatchFirstJet:
    return BatchFirstJet(value, np.zeros(m), None) if m else BatchFirstJet(value)


def batch_first_seeds(U, m: int, order: int) -> tuple:
    """The seed jets of the points U (N, m) at ``order``: unit gradients and None slots above them."""
    out = []
    for i in range(m):
        value = np.array(U[:, i], dtype=float)
        grad = np.zeros(value.shape + (m,))
        grad[..., i] = 1.0
        slots = [value, grad] + [None] * (order - 1)
        out.append(BatchFirstJet(*slots[: order + 1]))
    return tuple(out)


# the names of ``prodsub.jets`` to replace, and with what
BATCH_FIRST = {"_compose": BatchFirstJet._compose, "Jet2": BatchFirstJet, "jet_const": batch_first_const}


def dense_jet_var(index: int, value, m: int, order: int = 2) -> jets.Jet2:
    """``jets.jet_var`` with zero slots above the unit gradient."""
    value = np.array(value, dtype=float)
    slots = [value] + [np.zeros((m,) * k + (value.shape or (1,))) for k in range(1, order + 1)]
    if order:
        slots[1][index] = 1.0
    return jets.Jet2(*slots)


def dense_jet_const(value, m: int) -> jets.Jet2:
    """``jets.jet_const`` with a zero Hessian."""
    return jets.Jet2(value, np.zeros((m, 1)), np.zeros((m, m, 1))) if m else jets.Jet2(value)


# the names of ``prodsub.jets`` to replace for the dense seeds
DENSE = {"jet_var": dense_jet_var, "jet_const": dense_jet_const}
