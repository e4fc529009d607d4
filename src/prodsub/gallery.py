"""Exact generators for the named constructions, as exprlang templates.

Each kind writes its coordinates as expressions in the chart variables and
a few parameters, which ``exprlang.eval_jet`` differentiates like any
scene's expressions.  The numbers derived from a kind's spec (a and b, cos r
and sin r, the circle's cosh r and sinh r) are computed here and passed as
parameters, one value per step for a scanned family (``Family.params``).
Every generator validates its parameter constraints and self-checks the
membership of its image at construction time; the theorem-1 family also runs
a minimality oracle on its surface factor and the partial tube checks that
its base normals are parallel and its profile stays on the fiber quadric.
A spec key the kind does not take, or a value that is not of the kind
the key reads (a number, an object, a list of expressions, ...), is a
SceneError that names the key, and so is an unknown gallery, curve or phi
kind.
"""

from __future__ import annotations

import math
import numbers
from functools import cache

import numpy as np

from . import exprlang, jets
from .ambient import ProductSpace, inner
from .errors import ChartError, EngineError, SceneError
from .immersion import Chart, Family, parse_coordinate, probe_grid, regular_metric
from .jets import VecJet2

__all__ = [
    "make_slice",
    "make_vertical_cylinder",
    "make_theorem1",
    "make_partial_tube",
    "make_cmc_product",
    "make_chart",
    "GALLERY",
]

_PHI_MINIMAL_TOL = 1e-8  # the largest ||H_phi|| a theorem-1 surface factor allows on its probe grid


_KINDS = {  # what a spec value must be, in the words of the SceneError
    "a number": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "a list of expressions": lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
    "a list of lists of expressions": lambda v: isinstance(v, (list, tuple)) and all(map(_KINDS["a list of expressions"], v)),
    "an interval [lo, hi]": lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_KINDS["a number"], v)),
}


def _checked(value, name: str, kind: str):
    """``value`` where it is ``kind`` (a key of ``_KINDS``), else a SceneError that names it."""
    if not _KINDS[kind](value):
        raise SceneError(f"{name} must be {kind}, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a float, checked as a number."""
    return float(_checked(value, name, "a number"))


def _reals(params, what: str) -> dict:
    """The parameters of a spec's expressions, an object of numbers."""
    return {name: _real(value, f"{what} {name}") for name, value in _checked(params, f"{what}s", "an object").items()}


_template = cache(parse_coordinate)


def _parsed(*templates) -> list:
    """The ASTs of the gallery's templates, each parsed once per process."""
    return [_template(t) for t in templates]


def make_slice(space: ProductSpace, t0: float = 0.0, scan: tuple | None = None) -> Chart:
    """Coordinate patch of a totally geodesic Q^2 sitting in the slice
    Q^n_eps x {t0}; T vanishes identically.  ``scan`` = ("t0", values)
    builds the family of the slices at those heights (see ``Family``)."""
    _, values = scan or ("t0", [t0])
    if space.epsilon == 1:
        qc = ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)"]
    else:
        qc = ["cosh(u1)*cosh(u2)", "sinh(u1)", "cosh(u1)*sinh(u2)"]
    chart = Chart(
        space=space,
        m=2,
        coords=_parsed(*qc, *["0"] * (space.n - 2), "t0"),
        params={"t0": values[0]},
        domain=[(-0.6, 0.6), (-0.6, 0.6)],
        var_names=["u1", "u2"],
        label=f"slice(t0={values[0]})",
    )
    return _with_family(chart, {"t0": values}, [f"slice(t0={v})" for v in values])


def _curve(space: ProductSpace, curve: dict, var_names) -> tuple[list, dict]:
    """The ASTs of the n+1 coordinates of a curve in the Q factor, in u1,
    and the parameters they read."""
    kind = curve.get("kind", "geodesic")
    if kind == "geodesic":
        f, g = ("cos", "sin") if space.epsilon == 1 else ("cosh", "sinh")
        return _parsed(f"{f}(u1)", f"{g}(u1)", *["0"] * (space.n - 1)), {}
    if kind == "circle":
        r = _real(curve.get("r"), "circle curve r")
        if r <= 0:
            raise ChartError("circle radius must be positive")
        if space.epsilon == 1:
            if r >= math.pi / 2:
                raise ChartError("circle radius must be < pi/2 on the sphere")
            cr, sr = math.cos(r), math.sin(r)
        else:
            cr, sr = math.cosh(r), math.sinh(r)
        return _parsed("cr", "sr*cos(u1)", "sr*sin(u1)", *["0"] * (space.n - 2)), {"cr": cr, "sr": sr}
    if kind == "exprs":
        srcs = _checked(curve.get("coords", []), "curve coords", "a list of expressions")
        if len(srcs) != space.n + 1:
            raise ChartError(f"curve needs {space.n + 1} coordinate expressions")
        params = _reals(curve.get("params", {}), "curve param")
        return [parse_coordinate(src, [*var_names, *params]) for src in srcs], params
    raise SceneError(f"unknown curve kind {kind!r}")


def make_vertical_cylinder(space: ProductSpace, curve: dict | None = None) -> Chart:
    """gamma x R for a curve gamma in the Q factor; eta vanishes identically."""
    curve = _checked(curve or {"kind": "geodesic"}, "curve", "an object")
    var_names = ["u1", "s"]
    coords, params = _curve(space, curve, var_names)
    chart = Chart(
        space=space,
        m=2,
        coords=coords + _parsed("s"),
        params=params,
        domain=[(-1.5, 1.5), (-1.0, 1.0)],
        var_names=var_names,
        s_index=1,
        label=f"vertical_cylinder({curve.get('kind', 'geodesic')})",
    )
    chart.validate_membership()
    return chart


def _phi_factor(space: ProductSpace, phi_kind: str, phi_params: dict) -> tuple[list, dict, list]:
    """The surface factor phi over (u1, u2): the ASTs of its 4 coordinates
    (3 Q slots and the R slot), which read a, the parameters it reads
    besides a, and its domain."""
    if phi_kind == "custom":
        return _custom_phi(phi_params)
    if phi_kind == "geodesic_cylinder":
        f, g = ("cos", "sin") if space.epsilon == 1 else ("cosh", "sinh")
        return _parsed(f"a*{f}(u1/a)", f"a*{g}(u1/a)", "0", "u2"), {}, [(-1.0, 1.0), (-1.0, 1.0)]
    if phi_kind != "helicoid":
        raise SceneError(f"unknown phi kind {phi_kind!r}")
    lam = _real(phi_params.get("pitch", 0.5), "helicoid pitch")
    if not 0.0 < lam <= 2.0:
        raise ChartError("helicoid pitch must lie in (0, 2]")
    if space.epsilon == 1:
        qc = ["a*cos(u1)*cos(u2)", "a*cos(u1)*sin(u2)", "a*sin(u1)"]
        dom = [(-math.pi / 2 + 0.2, math.pi / 2 - 0.2), (-1.0, 1.0)]
    else:
        qc = ["a*cosh(u1)", "a*sinh(u1)*cos(u2)", "a*sinh(u1)*sin(u2)"]
        dom = [(-0.9, 0.9), (-1.0, 1.0)]
    return _parsed(*qc, "lam*u2"), {"lam": lam}, dom


def _custom_phi(phi_params: dict) -> tuple[list, dict, list]:
    srcs = _checked(phi_params.get("coords", []), "custom phi coords", "a list of expressions")
    if len(srcs) != 4:
        raise ChartError("custom phi needs 4 coordinate expressions in (u1, u2)")
    params = _reals(phi_params.get("params", {}), "custom phi param")
    shadowed = sorted(set(params) & {"a", "b", "s"})
    if shadowed:
        raise SceneError(f"custom phi params {shadowed} would shadow the theorem-1 chart's own a, b or s")
    dom = phi_params.get("domain", [(-1.0, 1.0), (-1.0, 1.0)])
    pairs = isinstance(dom, (list, tuple)) and all(isinstance(iv, (list, tuple)) and len(iv) == 2 for iv in dom)
    if not pairs or len(dom) != 2:
        raise SceneError(f"custom phi domain needs 2 intervals [lo, hi], got {dom!r}")
    dom = [tuple(_real(x, "custom phi domain bound") for x in iv) for iv in dom]
    return [parse_coordinate(s, ["u1", "u2", *params]) for s in srcs], params, dom


def _phi_geometry_check(space, a, phi, params, u, count: int):
    """Minimality oracle for the surface factor phi in Q^2_a x R, plus the
    nowhere-vanishing test on its T field, at ``count`` steps of a scan
    whose probe grids are the rows of ``u`` in turn: (step, error) of the
    first step that fails, else None.  ``phi`` and ``params`` are as
    ``_phi_factor`` gives them, and ``a`` is one number or one per row."""
    plane = ProductSpace(space.epsilon, 2)  # Q^2_eps x R, the surface factor's ambient
    # one batched jet over the probe grids; every step below is row by row
    seeds = {"u1": jets.jet_var(0, u[:, 0], 2), "u2": jets.jet_var(1, u[:, 1], 2)}
    vj = VecJet2([exprlang.eval_jet(t, seeds, {**params, "a": a}) for t in phi])
    J = vj.jac  # (N, 4, 2)
    JtS = (J * plane.signature[:, None]).swapaxes(-1, -2)
    phiq = plane.q_padded(vj.values)
    g = JtS @ J
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    regular = regular_metric(det, g)  # the rule of a chart's own points, unit-free
    degenerate = ~np.all(regular.reshape(count, -1), axis=1)
    g_inv = g[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / np.where(regular, det, 1.0)[:, None, None]  # adj g / det g

    def proj(v):
        out = v - (inner(plane, v, phiq) / (plane.epsilon * a * a))[:, None] * phiq
        return out - (J @ g_inv @ JtS @ out[..., None])[..., 0]

    hvec = np.zeros_like(phiq)
    for i in range(2):
        for j in range(2):
            hvec += g_inv[:, i, j, None] * vj.d2[..., i, j]
    hvec = 0.5 * proj(hvec)
    # fmax/fmin skip NaN rows, as the running max/min over points did
    worst_h = np.fmax.reduce(np.sqrt(np.abs(inner(plane, hvec, hvec))).reshape(count, -1), axis=1, initial=0.0)
    tq = J[:, 3, :, None]
    min_t = np.fmin.reduce((tq.swapaxes(-1, -2) @ g_inv @ tq)[:, 0, 0].reshape(count, -1), axis=1, initial=math.inf)
    failing = np.flatnonzero(degenerate | (worst_h > _PHI_MINIMAL_TOL) | (min_t < 1e-10))
    if not failing.size:
        return None
    i = int(failing[0])
    if degenerate[i]:
        return i, ChartError("phi factor is degenerate on the probe grid")
    if worst_h[i] > _PHI_MINIMAL_TOL:
        return i, ChartError(f"phi is not minimal: ||H_phi|| reaches {worst_h[i]:.3e} > {_PHI_MINIMAL_TOL:.1e}")
    return i, ChartError("T_phi vanishes somewhere on the probe grid")


def _theorem1_ab(space: ProductSpace, a: float | None, a2: float | None) -> tuple[float, float]:
    """a and b of ``make_theorem1``, which raises where a and a2 are not fit."""
    if a is None:
        if a2 is None:
            raise SceneError("theorem1 needs a or a2")
        if a2 <= 0:
            raise ChartError("a2 must be positive")
        a = math.sqrt(a2)
    elif a2 is not None and abs(a * a - a2) > 1e-12:
        raise ChartError("inconsistent a and a2")
    if space.epsilon == 1:
        if not 0.0 < abs(a) < 1.0:
            raise ChartError(f"eps=+1 needs 0 < |a| < 1, got a={a}")
        return a, math.sqrt(1.0 - a * a)
    if not abs(a) > 1.0:
        raise ChartError(f"eps=-1 needs |a| > 1, got a={a}")
    return a, math.sqrt(a * a - 1.0)


def make_theorem1(
    space: ProductSpace,
    a: float | None = None,
    phi_kind: str = "geodesic_cylinder",
    phi_params: dict | None = None,
    a2: float | None = None,
    scan: tuple | None = None,
) -> Chart:
    """Circle-times-minimal-surface chart (b cos(s/b), b sin(s/b), phi(p)).

    eps = +1 takes 0 < |a| < 1 with b = sqrt(1 - a^2); eps = -1 needs |a| > 1
    and uses b = sqrt(a^2 - 1) so that the image stays on the quadric.
    ``scan`` = (param, values), param a or a2, builds the family of those
    values (see ``Family``).
    """
    if space.n != 4:
        raise ChartError("theorem1 charts live in Q^4_eps x R")
    phi_params = _checked(phi_params or {}, "phi_params", "an object")
    param, values = scan or (("a", [a]) if a is not None or a2 is None else ("a2", [a2]))
    ab, error = _each_step(values, lambda v: _theorem1_ab(space, **{"a": a, "a2": a2, param: v}))
    A, B = (np.array(x) for x in zip(*ab))
    phi, params, phidom = _phi_factor(space, phi_kind, phi_params)
    circle = _parsed("b*cos(s/b)", "b*sin(s/b)")
    # eps = -1: the timelike coordinate of the phi factor goes to slot 0
    coords = circle + phi if space.epsilon == 1 else phi[:3] + circle + phi[3:]
    grid = probe_grid(phidom, 5)

    def phi_failure(steps):
        at = np.repeat(steps, len(grid))
        u = np.tile(grid, (len(steps), 1))
        return _phi_geometry_check(space, A[at], phi, params, u, len(steps))

    smax = 1.2
    labels = [f"theorem1(a={a:g}, {phi_kind})" for a, _ in ab]
    chart = Chart(
        space=space,
        m=3,
        coords=coords,
        params={**params, "a": ab[0][0], "b": ab[0][1]},
        domain=[phidom[0], phidom[1], (-smax, smax)],
        var_names=["u1", "u2", "s"],
        s_index=2,
        label=labels[0],
    )
    return _with_family(chart, {"a": A, "b": B}, labels, error, [(len(grid), phi_failure)])


def make_partial_tube(
    space: ProductSpace, base: dict | None = None, profile: dict | None = None
) -> Chart:
    """Parallel transport of a profile curve through a flat parallel normal
    subbundle of a base curve in the Q factor."""
    base = _checked(base or {"kind": "geodesic"}, "base", "an object")
    var_names = ["u1", "s"]
    gamma, gparams = _curve(space, base, var_names)

    normals = base.get("normals")
    if normals is None:
        k = _checked(base.get("k", 1), "partial tube base k", "an integer")
    else:
        k = len(_checked(normals, "base normals", "a list of lists of expressions"))
    if not 0 <= k <= 2:
        raise ChartError("partial tube supports k <= 2 parallel normals")
    if normals is None:
        # constant coordinate directions, normal to the default curves
        first = 2 if base.get("kind", "geodesic") == "geodesic" else 3
        if first + k > space.n + 1:
            raise ChartError(f"base curve leaves no room for {k} normals in Q^{space.n}")
        normals = [["1" if c == first + i else "0" for c in range(space.n + 1)] for i in range(k)]
    normal_asts = []
    for srcs in normals:
        normal_asts.append([parse_coordinate(s) for s in srcs])
        if len(srcs) != space.n + 1:
            raise ChartError(f"each normal needs {space.n + 1} components")

    profile = _checked(profile or {
        "coords": ["cos(0.4*s)", "sin(0.4*s)", "0.6*s"][: k + 2]
        if space.epsilon == 1
        else ["cosh(0.4*s)", "sinh(0.4*s)", "0.6*s"][: k + 2]
    }, "profile", "an object")
    srcs = _checked(profile.get("coords", []), "profile coords", "a list of expressions")
    if len(srcs) != k + 2:
        raise ChartError(f"profile needs k+2 = {k + 2} components")
    pparams = _reals(profile.get("params", {}), "profile param")
    shadowed = sorted(set(pparams) & {*gparams, *var_names})
    if shadowed:
        raise SceneError(f"profile params {shadowed} would shadow a variable or base curve param of the tube")
    alpha_asts = [parse_coordinate(s) for s in srcs]

    sdom = tuple(_checked(profile.get("domain", (-1.0, 1.0)), "profile domain", "an interval [lo, hi]"))
    xdom = tuple(_checked(base.get("domain", (-1.2, 1.2)), "base domain", "an interval [lo, hi]"))

    _validate_tube_data(space, gamma, gparams, normal_asts, alpha_asts, pparams, xdom, sdom, k)

    # alpha_0 gamma + sum_i alpha_i N_i in each Q slot, then alpha_{k+1} in the t slot
    coords = []
    for slot in range(space.n + 1):
        acc = exprlang.BinOp("*", alpha_asts[0], gamma[slot])
        for i in range(k):
            acc = exprlang.BinOp("+", acc, exprlang.BinOp("*", alpha_asts[1 + i], normal_asts[i][slot]))
        coords.append(acc)
    chart = Chart(
        space=space,
        m=2,
        coords=coords + [alpha_asts[k + 1]],
        params={**gparams, **pparams},
        domain=[xdom, sdom],
        var_names=var_names,
        s_index=1,
        label=f"partial_tube(k={k})",
    )
    chart.validate_membership()
    return chart


def _tube_jet(ast, seed: dict, params: dict, what: str):
    """The jet of one expression of the partial tube's data; an EvalError
    is a ChartError that names the expression."""
    try:
        return exprlang.eval_jet(ast, seed, params)
    except exprlang.EvalError as exc:
        raise ChartError(f"{what} {exprlang.to_source(ast)!r} failed: {exc}") from exc


def _validate_tube_data(space, gamma, gparams, normal_asts, alpha_asts, pparams, xdom, sdom, k):
    # identifiers unbound in a base normal (bound: u1) or profile component (bound: s, the params)
    named = [(f"base normal {i}, component {c}", t, {"u1"}) for i, n in enumerate(normal_asts) for c, t in enumerate(n)]
    named += [(f"profile component {i}", t, {"s", *pparams}) for i, t in enumerate(alpha_asts)]
    for what, ast, bound in named:
        parse_coordinate(ast, bound, what)

    # base normals: orthonormal, tangent to Q, normal and parallel along
    # gamma, from exact jets at 7 base points
    xs = np.linspace(xdom[0] + 0.02, xdom[1] - 0.02, 7)

    def padded(v):  # Q vectors (7 or 1, ..., n+1) as vectors of E^{n+2} at the 7 points, zero in the t slot
        out = np.zeros((len(xs), *v.shape[1:-1], space.ambient_dim))
        out[..., : space.n + 1] = v
        return out

    gseed = {"u1": jets.jet_var(0, xs, 2), "s": jets.jet_const(0.0, 2)}
    g = VecJet2([exprlang.eval_jet(c, gseed, gparams) for c in gamma])
    gv, gt = padded(g.values)[:, None], padded(g.jac[..., 0])[:, None]
    speed = np.sqrt(np.abs(inner(space, gt, gt)))  # |gamma'|, which takes both tests below to arc length
    bad = np.zeros((len(xs), k, 3), dtype=bool)  # per point and normal: unit-normal, orthonormal, parallel
    if k:
        seed = {"u1": jets.jet_var(0, xs, 1)}
        nj = VecJet2([_tube_jet(t, seed, {}, what) for what, t, _ in named[: k * (space.n + 1)]])  # every normal's components
        xi, d = (padded(x.reshape(-1, k, space.n + 1)) for x in (nj.values, nj.jac[..., 0]))  # (point, normal, n+2)
        gram = inner(space, xi[:, :, None], xi[:, None])
        normal = np.maximum(np.abs(inner(space, xi, gv)), np.abs(inner(space, xi, gt)) / speed)
        bad[..., 0] = (np.abs(np.diagonal(gram, axis1=1, axis2=2) - 1.0) > 1e-8) | (normal > 1e-8)
        bad[..., 1] = np.tril(np.abs(gram) > 1e-8, -1).any(axis=-1)  # against the normals before it
        # parallelism: project D_x xi onto the normal space of gamma in Q
        d = d - space.epsilon * inner(space, d, gv)[..., None] * gv
        d = d - (inner(space, d, gt) / inner(space, gt, gt))[..., None] * gt
        bad[..., 2] = np.sqrt(np.abs(inner(space, d, d))) / speed > 1e-6
    if bad.any():
        _, i, test = np.argwhere(bad)[0]  # the first in (point, normal, test) order
        raise ChartError(
            [f"base normal {i} is not unit-normal along gamma", "base normals are not orthonormal",
             f"base normal {i} is not parallel along gamma"][test]
        )

    # profile constraints on the quadric fiber
    for s in np.linspace(sdom[0] + 0.02, sdom[1] - 0.02, 9):
        seed = {"s": jets.jet_var(0, float(s), 1)}
        avals = [_tube_jet(t, seed, pparams, f"profile component {i}") for i, t in enumerate(alpha_asts)]
        signs = [-1.0 if i == 0 and space.epsilon == -1 else 1.0 for i in range(k + 2)]
        quad = sum(sign * a.value**2 for sign, a in zip(signs[: k + 1], avals))
        if abs(quad - space.epsilon) > 1e-9:
            raise ChartError(
                f"profile leaves the fiber quadric: sum alpha_i^2 = {quad:.6f}"
            )
        if space.epsilon == -1 and avals[0].value <= 0:
            raise ChartError("profile alpha_0 must stay positive for eps=-1")
        speed = math.sqrt(abs(sum(sign * a.grad[0] ** 2 for sign, a in zip(signs, avals))))  # |alpha'(s)|
        if abs(avals[k + 1].grad[0]) <= 1e-8 * speed:  # relative to the speed, as the base normal tests
            raise ChartError("profile violates alpha_{k+1}' != 0")


def _cmc_product_cs(space: ProductSpace, r: float) -> tuple[float, float]:
    """cos r and sin r (cosh and sinh for eps = -1), where r is fit."""
    if space.epsilon == 1:
        if not 0.0 < r <= math.pi / 2:
            raise ChartError("eps=+1 needs 0 < r <= pi/2")
        return math.cos(r), math.sin(r)
    if not r > 0.0:
        raise ChartError("eps=-1 needs r > 0")
    return math.cosh(r), math.sinh(r)


def make_cmc_product(space: ProductSpace, r: float | None = None, scan: tuple | None = None) -> Chart:
    """N^{n-1} x R for N a geodesic sphere of radius r in Q^n_eps
    (codimension 1; constant mean curvature, eta = 0).  ``scan`` =
    ("r", values) builds the family of those radii (see ``Family``)."""
    _, values = scan or ("r", [_real(r, "r")])
    cs, error = _each_step(values, lambda r: _cmc_product_cs(space, r))
    C0, S0 = (np.array(x) for x in zip(*cs))
    n = space.n
    m = n
    if n not in (3, 4):
        raise ChartError("cmc_product supports n in {3, 4}")

    if n == 3:
        omega = ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)"]
    else:
        omega = ["cos(u1)*cos(u2)*cos(u3)", "cos(u1)*cos(u2)*sin(u3)", "cos(u1)*sin(u2)", "sin(u1)"]

    minimal = " [minimal]" if space.epsilon == 1 else ""
    labels = [f"cmc_product(r={r:g})" + (minimal if abs(r - math.pi / 2) < 1e-12 else "") for r in values[: len(cs)]]
    chart = Chart(
        space=space,
        m=m,
        coords=_parsed("c0", *[f"s0*({w})" for w in omega], "s"),
        params={"c0": cs[0][0], "s0": cs[0][1]},
        domain=[(-0.6, 0.6)] * (m - 1) + [(-1.0, 1.0)],
        var_names=[f"u{i + 1}" for i in range(m - 1)] + ["s"],
        s_index=m - 1,
        label=labels[0],
    )
    return _with_family(chart, {"c0": C0, "s0": S0}, labels, error)


def _each_step(values: list, derive) -> tuple[list, Exception | None]:
    """``derive(v)`` for each scanned value in turn, up to the first that
    raises, and that error; the first step raises at once."""
    out = []
    for v in values:
        try:
            out.append(derive(v))
        except EngineError as exc:
            if not out:
                raise
            return out, exc
    return out, None


def _with_family(chart: Chart, params: dict, labels: list, error=None, checks=()) -> Chart:
    """``chart``, the chart of the first step, as the family chart of the
    steps before ``error`` whose chart-level checks pass: ``params``,
    ``labels`` (one per step before ``error``) and ``checks`` as in
    ``Family``.  Raises the error of the first step when it does not build."""
    params = {name: np.array(v, dtype=float) for name, v in params.items()}
    chart.family = Family(params, labels, list(checks), error)
    chart.validate_membership()
    return chart


GALLERY = {
    "slice": {
        "build": make_slice,
        "scans": ("t0",),
        "params": {"t0": "height of the slice (default 0)"},
        "constraints": "none",
    },
    "vertical_cylinder": {
        "build": make_vertical_cylinder,
        "params": {
            "curve": "{kind: geodesic | circle (r) | exprs (coords)} in the Q factor"
        },
        "constraints": "curve stays on Q^n_eps (membership oracle)",
    },
    "theorem1": {
        "build": make_theorem1,
        "scans": ("a", "a2"),
        "params": {
            "a": "surface-factor radius",
            "a2": "a^2, in place of a",
            "phi_kind": "geodesic_cylinder | helicoid | custom",
            "phi_params": "pitch for helicoid; coords/domain for custom",
        },
        "constraints": "eps=+1: a^2+b^2=1 with 0<|a|<1; eps=-1: a^2-b^2=1 with |a|>1; "
        "phi minimal (||H_phi|| <= 1e-8) with T_phi nowhere zero",
    },
    "partial_tube": {
        "build": make_partial_tube,
        "params": {
            "base": "curve in Q^n_eps with k <= 2 parallel unit normals",
            "profile": "k+2 profile expressions alpha_i(s)",
        },
        "constraints": "sum alpha_i^2 = 1 on the fiber quadric and alpha_{k+1}' != 0",
    },
    "cmc_product": {
        "build": make_cmc_product,
        "scans": ("r",),
        "params": {"r": "geodesic-sphere radius in Q^n_eps"},
        "constraints": "eps=+1: 0 < r <= pi/2 (r = pi/2 is the minimal equator); eps=-1: r > 0",
    },
}


def make_chart(space: ProductSpace, spec: dict, scan: tuple | None = None) -> Chart:
    """Build a gallery chart from a scene-style mapping {kind, ...params}.

    ``scan`` = (param, values) builds instead the family chart of those
    values of one numeric parameter (see ``Family``).  Either way the
    builder has run the chart-level checks of every step
    (``Chart.validate_membership``): the family keeps the steps before the
    first that fails, and a first step that fails raises its error."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in GALLERY:
        raise SceneError(f"unknown gallery kind {kind!r}")
    unknown = sorted(set(spec) - set(GALLERY[kind]["params"]))
    if unknown:
        raise SceneError(f"gallery kind {kind} has no parameter {unknown[0]!r}; it takes {', '.join(GALLERY[kind]['params'])}")
    for key in GALLERY[kind].get("scans", ()):  # the numeric parameters
        if key in spec:
            _real(spec[key], key)
    if scan is None:
        return GALLERY[kind]["build"](space, **spec)
    scans = GALLERY[kind].get("scans", ())
    if scan[0] not in scans:
        raise SceneError(f"cannot scan {scan[0]!r}: gallery kind {kind} scans {', '.join(scans) or 'no parameter'}")
    return GALLERY[kind]["build"](space, **spec, scan=scan)
