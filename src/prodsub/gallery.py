"""Exact generators for the named constructions, with analytic 2-jets.

Every generator validates its parameter constraints and self-checks the
membership of its image at construction time; the theorem-1 family also runs
a minimality oracle on its surface factor and the partial tube checks that
its base normals are parallel and its profile stays on the fiber quadric.
"""

from __future__ import annotations

import math

import numpy as np

from . import exprlang, jets
from .ambient import ProductSpace, inner
from .errors import ChartError, EngineError, SceneError
from .immersion import Chart, Family, parse_coordinate, probe_grid, wrap_expr
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


def _const(value: float, m: int = 0):
    # m is taken from the seed jets so closures can be shared across charts
    return lambda us: jets.jet_const(value, us[0].m)


def _zero(m: int = 0):
    return _const(0.0)


def make_slice(space: ProductSpace, t0: float = 0.0) -> Chart:
    """Coordinate patch of a totally geodesic Q^2 sitting in the slice
    Q^n_eps x {t0}; T vanishes identically."""
    return _one_step(_slice_family(space, "t0", [t0]))


def _slice_family(space: ProductSpace, param: str, values: list, t0: float = 0.0) -> Chart:
    """The slices at the heights ``values``; see ``make_slice``."""
    T0 = np.array(values, dtype=float)

    def coords(t0):
        m = 2
        if space.epsilon == 1:
            qc = [
                lambda us: jets.cos(us[0]) * jets.cos(us[1]),
                lambda us: jets.cos(us[0]) * jets.sin(us[1]),
                lambda us: jets.sin(us[0]),
            ]
        else:
            qc = [
                lambda us: jets.cosh(us[0]) * jets.cosh(us[1]),
                lambda us: jets.sinh(us[0]),
                lambda us: jets.cosh(us[0]) * jets.sinh(us[1]),
            ]
        return qc + [_zero(m)] * (space.n - 2) + [_const(t0, m)]

    chart = Chart(
        space=space,
        m=2,
        coords=coords(values[0]),
        domain=[(-0.6, 0.6), (-0.6, 0.6)],
        var_names=["u1", "u2"],
        label=f"slice(t0={values[0]})",
    )
    return _with_family(chart, values, lambda steps: coords(T0[steps]), [f"slice(t0={v})" for v in values])


def _curve_coords(space: ProductSpace, curve: dict, m: int, var: str, var_names):
    """Coordinate closures (n+1 of them) for a curve in the Q factor."""
    kind = curve.get("kind", "geodesic")
    idx = var_names.index(var)
    if kind == "geodesic":
        if space.epsilon == 1:
            qc = [lambda us: jets.cos(us[idx]), lambda us: jets.sin(us[idx])]
        else:
            qc = [lambda us: jets.cosh(us[idx]), lambda us: jets.sinh(us[idx])]
        qc += [_zero(m)] * (space.n - 1)
        return qc
    if kind == "circle":
        r = float(curve["r"])
        if r <= 0:
            raise ChartError("circle radius must be positive")
        if space.epsilon == 1:
            if r >= math.pi / 2:
                raise ChartError("circle radius must be < pi/2 on the sphere")
            cr, sr = math.cos(r), math.sin(r)
        else:
            cr, sr = math.cosh(r), math.sinh(r)
        qc = [
            _const(cr, m),
            lambda us: sr * jets.cos(us[idx]),
            lambda us: sr * jets.sin(us[idx]),
        ]
        qc += [_zero(m)] * (space.n - 2)
        return qc
    if kind == "exprs":
        srcs = curve["coords"]
        if len(srcs) != space.n + 1:
            raise ChartError(f"curve needs {space.n + 1} coordinate expressions")
        params = curve.get("params", {})
        return [wrap_expr(src, params, var_names) for src in srcs]
    raise ChartError(f"unknown curve kind {kind!r}")


def make_vertical_cylinder(space: ProductSpace, curve: dict | None = None) -> Chart:
    """gamma x R for a curve gamma in the Q factor; eta vanishes identically."""
    curve = curve or {"kind": "geodesic"}
    m = 2
    var_names = ["u1", "s"]
    coords = _curve_coords(space, curve, m, "u1", var_names)
    coords.append(lambda us: us[1])
    chart = Chart(
        space=space,
        m=m,
        coords=coords,
        domain=[(-1.5, 1.5), (-1.0, 1.0)],
        var_names=var_names,
        s_index=1,
        label=f"vertical_cylinder({curve.get('kind', 'geodesic')})",
    )
    chart.validate_membership()
    return chart


def _phi_factor(space: ProductSpace, a: float, phi_kind: str, phi_params: dict):
    """Surface-factor closures (3 Q slots + 1 R slot) over (u1, u2)."""
    if space.epsilon == 1:
        if phi_kind == "geodesic_cylinder":
            qc = [
                lambda us: a * jets.cos(us[0] / a),
                lambda us: a * jets.sin(us[0] / a),
                _zero(2),
            ]
            fr = lambda us: us[1]
            dom = [(-1.0, 1.0), (-1.0, 1.0)]
        elif phi_kind == "helicoid":
            lam = float(phi_params.get("pitch", 0.5))
            if not 0.0 < lam <= 2.0:
                raise ChartError("helicoid pitch must lie in (0, 2]")
            qc = [
                lambda us: a * jets.cos(us[0]) * jets.cos(us[1]),
                lambda us: a * jets.cos(us[0]) * jets.sin(us[1]),
                lambda us: a * jets.sin(us[0]),
            ]
            fr = lambda us: lam * us[1]
            dom = [(-math.pi / 2 + 0.2, math.pi / 2 - 0.2), (-1.0, 1.0)]
        elif phi_kind == "custom":
            qc, fr, dom = _custom_phi(phi_params)
        else:
            raise ChartError(f"unknown phi kind {phi_kind!r}")
    else:
        if phi_kind == "geodesic_cylinder":
            qc = [
                lambda us: a * jets.cosh(us[0] / a),
                lambda us: a * jets.sinh(us[0] / a),
                _zero(2),
            ]
            fr = lambda us: us[1]
            dom = [(-1.0, 1.0), (-1.0, 1.0)]
        elif phi_kind == "helicoid":
            lam = float(phi_params.get("pitch", 0.5))
            if not 0.0 < lam <= 2.0:
                raise ChartError("helicoid pitch must lie in (0, 2]")
            qc = [
                lambda us: a * jets.cosh(us[0]),
                lambda us: a * jets.sinh(us[0]) * jets.cos(us[1]),
                lambda us: a * jets.sinh(us[0]) * jets.sin(us[1]),
            ]
            fr = lambda us: lam * us[1]
            dom = [(-0.9, 0.9), (-1.0, 1.0)]
        elif phi_kind == "custom":
            qc, fr, dom = _custom_phi(phi_params)
        else:
            raise ChartError(f"unknown phi kind {phi_kind!r}")
    return qc, fr, dom


def _custom_phi(phi_params: dict):
    srcs = phi_params.get("coords")
    if not srcs or len(srcs) != 4:
        raise ChartError("custom phi needs 4 coordinate expressions in (u1, u2)")
    params = phi_params.get("params", {})
    dom = [tuple(iv) for iv in phi_params.get("domain", [(-1.0, 1.0), (-1.0, 1.0)])]
    coords = [wrap_expr(s, params, ["u1", "u2"]) for s in srcs]
    return coords[:3], coords[3], dom


def _phi_geometry_check(space, a, qc, fr, u, count: int, check_T: bool, tol_min: float = 1e-8) -> list:
    """Minimality oracle for the surface factor phi in Q^2_a x R, plus the
    nowhere-vanishing test on its T field, at ``count`` steps of a scan
    whose probe grids are the rows of ``u`` in turn: the error of each step,
    else None.  ``a`` is one number or one per row."""
    eps = space.epsilon
    sig = np.array([eps if eps == -1 else 1.0, 1.0, 1.0, 1.0])

    def sdot(x, y):
        return np.sum(sig * x * y, axis=-1)

    def per_step(x):
        return x.reshape(count, -1)

    # one batched jet over the probe grids; every step below is row by row
    seeds = (jets.jet_var(0, u[:, 0], 2), jets.jet_var(1, u[:, 1], 2))
    vj = VecJet2([qc[0](seeds), qc[1](seeds), qc[2](seeds), fr(seeds)])
    J = vj.jac  # (N, 4, 2)
    JtS = np.swapaxes(J * sig[:, None], -1, -2)
    phiq = vj.values.copy()
    phiq[:, 3] = 0.0
    g = JtS @ J
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] ** 2
    degenerate = np.any(per_step(det <= 1e-14), axis=1)
    g_inv = np.linalg.inv(np.where((det <= 1e-14)[:, None, None], np.eye(2), g))

    def proj(v):
        out = v - (sdot(v, phiq) / (eps * a * a))[:, None] * phiq
        return out - (J @ g_inv @ JtS @ out[..., None])[..., 0]

    hvec = np.zeros_like(phiq)
    for i in range(2):
        for j in range(2):
            hvec += g_inv[:, i, j, None] * vj.second(i, j)
    hvec = 0.5 * proj(hvec)
    # fmax/fmin skip NaN rows, as the running max/min over points did
    worst_h = np.fmax.reduce(per_step(np.sqrt(np.abs(sdot(hvec, hvec)))), axis=1, initial=0.0)
    min_t = np.full(count, math.inf)
    if check_T:
        tq = J[:, 3, :, None]
        min_t = np.fmin.reduce(per_step((np.swapaxes(tq, -1, -2) @ g_inv @ tq)[:, 0, 0]), axis=1, initial=math.inf)
    errors = []
    for bad, h, t in zip(degenerate.tolist(), worst_h.tolist(), min_t.tolist()):
        if bad:
            errors.append(ChartError("phi factor is degenerate on the probe grid"))
        elif h > tol_min:
            errors.append(ChartError(f"phi is not minimal: ||H_phi|| reaches {h:.3e} > {tol_min:.1e}"))
        elif t < 1e-10:
            errors.append(ChartError("T_phi vanishes somewhere on the probe grid"))
        else:
            errors.append(None)
    return errors


def make_theorem1(
    space: ProductSpace,
    a: float | None = None,
    phi_kind: str = "geodesic_cylinder",
    phi_params: dict | None = None,
    a2: float | None = None,
) -> Chart:
    """Circle-times-minimal-surface chart (b cos(s/b), b sin(s/b), phi(p)).

    eps = +1 takes 0 < |a| < 1 with b = sqrt(1 - a^2); eps = -1 needs |a| > 1
    and uses b = sqrt(a^2 - 1) so that the image stays on the quadric.
    """
    param = "a" if a is not None or a2 is None else "a2"
    spec = {"a": a, "phi_kind": phi_kind, "phi_params": phi_params, "a2": a2}
    return _one_step(_theorem1_family(space, param, [spec[param]], **spec))


def _theorem1_ab(space: ProductSpace, a: float | None, a2: float | None) -> tuple[float, float]:
    """a and b of ``make_theorem1``, which raises where a and a2 are not fit."""
    if a is None:
        if a2 is None:
            raise ChartError("theorem1 needs a or a2")
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


def _theorem1_family(
    space: ProductSpace,
    param: str,
    values: list,
    a: float | None = None,
    phi_kind: str = "geodesic_cylinder",
    phi_params: dict | None = None,
    a2: float | None = None,
) -> Chart:
    """The theorem-1 charts at the values of a or a2; see ``make_theorem1``."""
    if space.n != 4:
        raise ChartError("theorem1 charts live in Q^4_eps x R")
    phi_params = phi_params or {}
    spec = {"a": a, "a2": a2}
    ab, error = _each_step(values, lambda v: _theorem1_ab(space, **{**spec, param: v}))
    A, B = (np.array(x) for x in zip(*ab))

    def coords(a, b):
        qc, fr, _ = _phi_factor(space, a, phi_kind, phi_params)
        cs = lambda us: b * jets.cos(us[2] / b)
        sn = lambda us: b * jets.sin(us[2] / b)
        if space.epsilon == 1:
            return [cs, sn, qc[0], qc[1], qc[2], fr]
        # timelike coordinate of the phi factor goes to slot 0
        return [qc[0], qc[1], qc[2], cs, sn, fr]

    phidom = _phi_factor(space, ab[0][0], phi_kind, phi_params)[2]
    grid = probe_grid(phidom, 5)

    def phi_errors(steps):
        at = np.repeat(steps, len(grid))
        qc, fr, _ = _phi_factor(space, A[at], phi_kind, phi_params)
        u = np.tile(grid, (len(steps), 1))
        return _phi_geometry_check(space, A[at], qc, fr, u, len(steps), check_T=phi_kind != "geodesic_cylinder")

    smax = 1.2
    labels = [f"theorem1(a={a:g}, {phi_kind})" for a, _ in ab]
    chart = Chart(
        space=space,
        m=3,
        coords=coords(*ab[0]),
        params={"a": ab[0][0], "b": ab[0][1]},
        domain=[phidom[0], phidom[1], (-smax, smax)],
        var_names=["u1", "u2", "s"],
        s_index=2,
        label=labels[0],
    )
    family = lambda steps: coords(A[steps], B[steps])
    return _with_family(chart, values, family, labels, error, [(len(grid), phi_errors)])


def make_partial_tube(
    space: ProductSpace, base: dict | None = None, profile: dict | None = None
) -> Chart:
    """Parallel transport of a profile curve through a flat parallel normal
    subbundle of a base curve in the Q factor."""
    base = base or {"kind": "geodesic"}
    var_names = ["u1", "s"]
    m = 2
    gamma = _curve_coords(space, base, m, "u1", var_names)

    normals = base.get("normals")
    k = int(base.get("k", 1)) if normals is None else len(normals)
    if not 0 <= k <= 2:
        raise ChartError("partial tube supports k <= 2 parallel normals")
    if normals is None:
        # constant coordinate directions, normal to the default curves
        first = 2 if base.get("kind", "geodesic") == "geodesic" else 3
        if first + k > space.n + 1:
            raise ChartError(f"base curve leaves no room for {k} normals in Q^{space.n}")
        normal_asts = []
        for i in range(k):
            comps = ["0"] * (space.n + 1)
            comps[first + i] = "1"
            normal_asts.append([parse_coordinate(c) for c in comps])
    else:
        normal_asts = []
        for srcs in normals:
            asts = [parse_coordinate(s) if isinstance(s, str) else s for s in srcs]
            if len(asts) != space.n + 1:
                raise ChartError(f"each normal needs {space.n + 1} components")
            normal_asts.append(asts)

    profile = profile or {
        "coords": ["cos(0.4*s)", "sin(0.4*s)", "0.6*s"][: k + 2]
        if space.epsilon == 1
        else ["cosh(0.4*s)", "sinh(0.4*s)", "0.6*s"][: k + 2]
    }
    srcs = profile["coords"]
    if len(srcs) != k + 2:
        raise ChartError(f"profile needs k+2 = {k + 2} components")
    pparams = profile.get("params", {})
    alpha_asts = [parse_coordinate(s) if isinstance(s, str) else s for s in srcs]

    sdom = tuple(profile.get("domain", (-1.0, 1.0)))
    xdom = tuple(base.get("domain", (-1.2, 1.2)))

    _validate_tube_data(space, gamma, normal_asts, alpha_asts, pparams, xdom, sdom, k)

    def coord_factory(slot: int):
        def coord(us):
            alphas = [
                exprlang.eval_jet(t, {"s": us[1]}, pparams) for t in alpha_asts
            ]
            if slot == space.t_index:
                return alphas[k + 1]
            acc = alphas[0] * gamma[slot](us)
            for i in range(k):
                comp = exprlang.eval_jet(normal_asts[i][slot], {"u1": us[0]}, {})
                acc = acc + alphas[1 + i] * comp
            return acc

        return coord

    coords = [coord_factory(slot) for slot in range(space.ambient_dim)]
    chart = Chart(
        space=space,
        m=m,
        coords=coords,
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


def _validate_tube_data(space, gamma, normal_asts, alpha_asts, pparams, xdom, sdom, k):
    # identifiers unbound in a base normal (bound: u1) or profile component (bound: s, the params)
    named = [(f"base normal {i}, component {c}", t, {"u1"}) for i, n in enumerate(normal_asts) for c, t in enumerate(n)]
    named += [(f"profile component {i}", t, {"s", *pparams}) for i, t in enumerate(alpha_asts)]
    for what, ast, bound in named:
        unbound = exprlang.free_vars(ast) - bound
        if unbound:
            source = exprlang.to_source(ast)
            raise SceneError(f"cannot evaluate {what} {source!r}: unbound identifiers {sorted(unbound)}")

    # base normals: orthonormal, tangent to Q, normal and parallel along
    # gamma, from exact jets at 7 base points
    xs = np.linspace(xdom[0] + 0.02, xdom[1] - 0.02, 7)

    def padded(v):  # Q vectors (or one for all points) as rows of E^{n+2}, zero in the t slot
        out = np.zeros((len(xs), space.ambient_dim))
        out[:, : space.n + 1] = v
        return out

    g = VecJet2([c((jets.jet_var(0, xs, 2), jets.jet_const(0.0, 2))) for c in gamma])
    gv, gt = padded(g.values), padded(g.jac[..., 0])
    seed = {"u1": jets.jet_var(0, xs, 1)}
    bad = np.zeros((len(xs), k, 3), dtype=bool)  # per point and normal: unit-normal, orthonormal, parallel
    xis = []
    for i, asts in enumerate(normal_asts):
        nj = VecJet2([_tube_jet(t, seed, {}, f"base normal {i}, component {c}") for c, t in enumerate(asts)])
        xi, d = padded(nj.values), padded(nj.jac[..., 0])
        normal = np.maximum(np.abs(inner(space, xi, gv)), np.abs(inner(space, xi, gt)))
        bad[:, i, 0] = (np.abs(inner(space, xi, xi) - 1.0) > 1e-8) | (normal > 1e-8)
        for other in xis:
            bad[:, i, 1] |= np.abs(inner(space, xi, other)) > 1e-8
        xis.append(xi)
        # parallelism: project D_x xi onto the normal space of gamma in Q
        d = d - space.epsilon * inner(space, d, gv)[:, None] * gv
        d = d - (inner(space, d, gt) / inner(space, gt, gt))[:, None] * gt
        bad[:, i, 2] = np.sqrt(np.abs(inner(space, d, d))) > 1e-6
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
        quad = sum(
            (1.0 if (i > 0 or space.epsilon == 1) else -1.0) * avals[i].value ** 2
            for i in range(k + 1)
        )
        if abs(quad - space.epsilon) > 1e-9:
            raise ChartError(
                f"profile leaves the fiber quadric: sum alpha_i^2 = {quad:.6f}"
            )
        if space.epsilon == -1 and avals[0].value <= 0:
            raise ChartError("profile alpha_0 must stay positive for eps=-1")
        if abs(avals[k + 1].grad[0]) < 1e-8:
            raise ChartError("profile violates alpha_{k+1}' != 0")


def make_cmc_product(space: ProductSpace, r: float) -> Chart:
    """N^{n-1} x R for N a geodesic sphere of radius r in Q^n_eps
    (codimension 1; constant mean curvature, eta = 0)."""
    return _one_step(_cmc_product_family(space, "r", [r]))


def _cmc_product_cs(space: ProductSpace, r: float) -> tuple[float, float]:
    """cos r and sin r (cosh and sinh for eps = -1), where r is fit."""
    if space.epsilon == 1:
        if not 0.0 < r <= math.pi / 2:
            raise ChartError("eps=+1 needs 0 < r <= pi/2")
        return math.cos(r), math.sin(r)
    if not r > 0.0:
        raise ChartError("eps=-1 needs r > 0")
    return math.cosh(r), math.sinh(r)


def _cmc_product_family(space: ProductSpace, param: str, values: list, r: float | None = None) -> Chart:
    """The products at the radii ``values``; see ``make_cmc_product``."""
    cs, error = _each_step(values, lambda r: _cmc_product_cs(space, r))
    C0, S0 = (np.array(x) for x in zip(*cs))
    n = space.n
    m = n
    if n not in (3, 4):
        raise ChartError("cmc_product supports n in {3, 4}")

    def coords(c0, s0):
        if n == 3:
            omega = [
                lambda us: jets.cos(us[0]) * jets.cos(us[1]),
                lambda us: jets.cos(us[0]) * jets.sin(us[1]),
                lambda us: jets.sin(us[0]),
            ]
        else:
            omega = [
                lambda us: jets.cos(us[0]) * jets.cos(us[1]) * jets.cos(us[2]),
                lambda us: jets.cos(us[0]) * jets.cos(us[1]) * jets.sin(us[2]),
                lambda us: jets.cos(us[0]) * jets.sin(us[1]),
                lambda us: jets.sin(us[0]),
            ]
        return [_const(c0, m)] + [lambda us, w=w: s0 * w(us) for w in omega] + [lambda us: us[m - 1]]

    minimal = " [minimal]" if space.epsilon == 1 else ""
    labels = [f"cmc_product(r={r:g})" + (minimal if abs(r - math.pi / 2) < 1e-12 else "") for r in values[: len(cs)]]
    chart = Chart(
        space=space,
        m=m,
        coords=coords(*cs[0]),
        params={"r": values[0]},
        domain=[(-0.6, 0.6)] * (m - 1) + [(-1.0, 1.0)],
        var_names=[f"u{i + 1}" for i in range(m - 1)] + ["s"],
        s_index=m - 1,
        label=labels[0],
    )
    return _with_family(chart, values, lambda steps: coords(C0[steps], S0[steps]), labels, error)


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


def _with_family(chart: Chart, values: list, coords, labels: list, error=None, checks=()) -> Chart:
    """``chart``, the chart of the first step, as the family chart of the
    steps before ``error``: ``coords``, ``labels`` and ``checks`` as in
    ``Family``, which the membership check of every step joins last."""
    steps = len(labels)
    checks = [*checks, (5**chart.m, chart.membership_errors)]
    chart.family = Family(np.array(values[:steps], dtype=float), coords, labels[:steps], checks, error)
    return chart


def _one_step(chart: Chart) -> Chart:
    """The chart of a family of one step, once the step's checks pass."""
    for _, check in chart.family.checks:
        (error,) = check(np.zeros(1, dtype=int))
        if error is not None:
            raise error
    chart.family = None
    return chart


GALLERY = {
    "slice": {
        "factory": make_slice,
        "family": _slice_family,
        "scans": ("t0",),
        "params": {"t0": "height of the slice (default 0)"},
        "constraints": "none",
    },
    "vertical_cylinder": {
        "factory": make_vertical_cylinder,
        "params": {
            "curve": "{kind: geodesic | circle (r) | exprs (coords)} in the Q factor"
        },
        "constraints": "curve stays on Q^n_eps (membership oracle)",
    },
    "theorem1": {
        "factory": make_theorem1,
        "family": _theorem1_family,
        "scans": ("a", "a2"),
        "params": {
            "a": "surface-factor radius (or a2 = a^2)",
            "phi_kind": "geodesic_cylinder | helicoid | custom",
            "phi_params": "pitch for helicoid; coords/domain for custom",
        },
        "constraints": "eps=+1: a^2+b^2=1 with 0<|a|<1; eps=-1: a^2-b^2=1 with |a|>1; "
        "phi minimal (||H_phi|| <= 1e-8) with T_phi nowhere zero",
    },
    "partial_tube": {
        "factory": make_partial_tube,
        "params": {
            "base": "curve in Q^n_eps with k <= 2 parallel unit normals",
            "profile": "k+2 profile expressions alpha_i(s)",
        },
        "constraints": "sum alpha_i^2 = 1 on the fiber quadric and alpha_{k+1}' != 0",
    },
    "cmc_product": {
        "factory": make_cmc_product,
        "family": _cmc_product_family,
        "scans": ("r",),
        "params": {"r": "geodesic-sphere radius in Q^n_eps"},
        "constraints": "eps=+1: 0 < r <= pi/2 (r = pi/2 is the minimal equator); eps=-1: r > 0",
    },
}


def make_chart(space: ProductSpace, spec: dict, scan: tuple | None = None) -> Chart:
    """Build a gallery chart from a scene-style mapping {kind, ...params}.

    ``scan`` = (param, values) builds instead the family chart of those
    values of one numeric parameter (see ``Family``), whose chart-level
    checks the caller runs."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in GALLERY:
        raise ChartError(f"unknown gallery kind {kind!r}")
    if scan is None:
        return GALLERY[kind]["factory"](space, **spec)
    param, values = scan
    scans = GALLERY[kind].get("scans", ())
    if param not in scans:
        raise SceneError(f"cannot scan {param!r}: gallery kind {kind} scans {', '.join(scans) or 'no parameter'}")
    return GALLERY[kind]["family"](space, param, values, **spec)
