"""Oracle of the gallery's coordinates: the hand-written jet closures.

``prodsub.gallery`` once gave each kind's coordinates as Python closures
over the seed jets, which read the scanned parameter row by row; its kinds
are now exprlang templates.  The closures are kept here as they were, and
``coords(space, spec, scan)`` gives a gallery chart's closures for the
batch rows at the steps ``steps`` (N,), as ``coords(steps)``, the way the
chart's family gave them.  The derived numbers (a and b, cos r and sin r)
come from ``prodsub.gallery``, which computes them in Python as before.
"""

import math

import numpy as np

from prodsub import exprlang, jets
from prodsub.errors import ChartError, SceneError
from prodsub.gallery import _cmc_product_cs, _theorem1_ab
from prodsub.immersion import parse_coordinate


def wrap_expr(src, params: dict, var_names):
    """Jet closure of one coordinate given as an expression AST or source.
    An identifier that neither ``var_names``, ``params`` nor the constants
    bind is a SceneError that quotes the source."""
    ast = parse_coordinate(src) if isinstance(src, str) else src
    names = list(var_names)
    unbound = exprlang.free_vars(ast) - set(names) - set(params)
    if unbound:
        source = src if isinstance(src, str) else exprlang.to_source(ast)
        raise SceneError(f"cannot evaluate coordinate {source!r}: unbound identifiers {sorted(unbound)}")

    def coord(us):
        return exprlang.eval_jet(ast, dict(zip(names, us)), params)

    return coord


def _const(value: float, m: int = 0):
    # m is taken from the seed jets so closures can be shared across charts
    return lambda us: jets.jet_const(value, us[0].m)


def _zero(m: int = 0):
    return _const(0.0)


def _slice_coords(space, t0):
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


def _curve_coords(space, curve: dict, m: int, var: str, var_names):
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


def _phi_factor(space, a: float, phi_kind: str, phi_params: dict):
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


def _theorem1_coords(space, phi_kind, phi_params, a, b):
    qc, fr, _ = _phi_factor(space, a, phi_kind, phi_params)
    cs = lambda us: b * jets.cos(us[2] / b)
    sn = lambda us: b * jets.sin(us[2] / b)
    if space.epsilon == 1:
        return [cs, sn, qc[0], qc[1], qc[2], fr]
    # timelike coordinate of the phi factor goes to slot 0
    return [qc[0], qc[1], qc[2], cs, sn, fr]


def _partial_tube_coords(space, base: dict | None = None, profile: dict | None = None):
    base = base or {"kind": "geodesic"}
    var_names = ["u1", "s"]
    m = 2
    gamma = _curve_coords(space, base, m, "u1", var_names)

    normals = base.get("normals")
    k = int(base.get("k", 1)) if normals is None else len(normals)
    if normals is None:
        # constant coordinate directions, normal to the default curves
        first = 2 if base.get("kind", "geodesic") == "geodesic" else 3
        normal_asts = []
        for i in range(k):
            comps = ["0"] * (space.n + 1)
            comps[first + i] = "1"
            normal_asts.append([parse_coordinate(c) for c in comps])
    else:
        normal_asts = [[parse_coordinate(s) if isinstance(s, str) else s for s in srcs] for srcs in normals]

    profile = profile or {
        "coords": ["cos(0.4*s)", "sin(0.4*s)", "0.6*s"][: k + 2]
        if space.epsilon == 1
        else ["cosh(0.4*s)", "sinh(0.4*s)", "0.6*s"][: k + 2]
    }
    srcs = profile["coords"]
    pparams = profile.get("params", {})
    alpha_asts = [parse_coordinate(s) if isinstance(s, str) else s for s in srcs]

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

    return [coord_factory(slot) for slot in range(space.ambient_dim)]


def _cmc_product_coords(space, c0, s0):
    n = space.n
    m = n
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


def coords(space, spec: dict, scan: tuple | None = None):
    """``coords(steps)``: the closures of the gallery chart of ``spec``, or
    of the family of ``scan`` = (param, values), for batch rows at the steps
    ``steps`` (N,)."""
    spec = dict(spec)
    kind = spec.pop("kind")
    param, values = scan or (None, None)
    if kind == "slice":
        T0 = np.array(values if scan else [spec.get("t0", 0.0)], dtype=float)
        return lambda steps: _slice_coords(space, T0[steps])
    if kind == "vertical_cylinder":
        closures = _curve_coords(space, spec.get("curve") or {"kind": "geodesic"}, 2, "u1", ["u1", "s"])
        return lambda steps: closures + [lambda us: us[1]]
    if kind == "theorem1":
        phi_kind, phi_params = spec.get("phi_kind", "geodesic_cylinder"), spec.get("phi_params") or {}
        steps_spec = [{**spec, param: v} for v in values] if scan else [spec]
        ab = [_theorem1_ab(space, s.get("a"), s.get("a2")) for s in steps_spec]
        A, B = (np.array(x) for x in zip(*ab))
        return lambda steps: _theorem1_coords(space, phi_kind, phi_params, A[steps], B[steps])
    if kind == "partial_tube":
        closures = _partial_tube_coords(space, spec.get("base"), spec.get("profile"))
        return lambda steps: closures
    if kind == "cmc_product":
        cs = [_cmc_product_cs(space, r) for r in (values if scan else [spec["r"]])]
        C0, S0 = (np.array(x) for x in zip(*cs))
        return lambda steps: _cmc_product_coords(space, C0[steps], S0[steps])
    raise ValueError(f"no oracle for gallery kind {kind!r}")
