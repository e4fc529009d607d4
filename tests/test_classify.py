import math

import numpy as np
import pytest

from prodsub import ProductSpace, analyze_point, classify, exprlang
from prodsub.classify import (
    biconservative_residual,
    biharmonic_predicates,
    biharmonic_residual,
    circle_geometry,
    class_A_residual,
    codim_two_frame,
    e0_structure,
    splitting_residual,
)
from prodsub.errors import EngineError, InvalidFrame
from prodsub.extrinsic import geometry, second_fundamental
from prodsub.gallery import make_cmc_product, make_slice, make_theorem1
from prodsub.immersion import Chart
from prodsub.scene import run_scene
from conftest import random_interior_points, theorem1_closed_forms


def _rows(chart, U):
    return second_fundamental(analyze_point(chart, U))


def _biharmonic_at_center(chart):
    """biharmonic_residual at the chart center assuming PMC (a zero
    nabla^perp H), with the predicates there."""
    rows = _rows(chart, chart.center()[None])
    rows.nabla_H = np.zeros((1, chart.m, chart.space.ambient_dim))
    r = biharmonic_residual(rows)
    pred, pred_eps = biharmonic_predicates(rows)
    return {"normal": r["normal"][0], "minimal": r["minimal"][0], "predicate": pred[0], "predicate_eps": pred_eps[0]}


def test_biconservative_slice(slice_s4):
    r = biconservative_residual(geometry(slice_s4, [[0.2, -0.1]], order=3))
    assert r["simple"][0] <= 1e-8 and r["full"][0] <= 1e-8


def test_biconservative_theorem1_cylinder(theorem1_cyl):
    r = biconservative_residual(geometry(theorem1_cyl, random_interior_points(theorem1_cyl, 5, seed=21), order=3))
    assert np.all(r["simple"] == 0.0)  # eta = 0 exactly at jet level
    assert r["full"].max() <= 1e-5


def test_biconservative_cmc_hypersurface_product():
    ch = make_cmc_product(ProductSpace(1, 4), 0.7)
    r = biconservative_residual(geometry(ch, random_interior_points(ch, 4, seed=22), order=3))
    assert r["simple"].max() <= 1e-10


def test_biharmonic_closed_forms(theorem1_cyl):
    """Direct residual equals |H| |trace A1^2 - 2 (m - |T|^2)| on the
    geodesic-cylinder family (closed-form oracle)."""
    a, b = 0.8, 0.6
    forms = theorem1_closed_forms(a)
    rows = _rows(theorem1_cyl, [[0.2, -0.3, 0.4]])
    rows.nabla_H = np.zeros((1, 3, 6))
    r = biharmonic_residual(rows)
    pred, pred_eps = biharmonic_predicates(rows)
    want_pred = forms["trace_A1_sq"] + 1.0 - 3.0
    assert pred[0] == pytest.approx(want_pred, abs=1e-10)
    assert pred_eps[0] == pytest.approx(want_pred, abs=1e-10)
    want_norm = forms["H_norm"] * abs(forms["trace_A1_sq"] - 2.0)
    assert r["normal"][0] == pytest.approx(want_norm, abs=1e-10)
    assert not r["minimal"][0] and not r["nested"][0]


def test_biharmonic_family_zero_is_the_minimal_point(s4):
    """Both the direct residual and the predicate vanish only at a^2 = 1/2,
    where H = 0 (the family's honest biharmonic locus is the minimal point)."""
    vals = np.linspace(0.3, 0.9, 13)
    resid, preds = [], []
    for a2 in vals:
        forms = theorem1_closed_forms(math.sqrt(a2))
        resid.append(forms["H_norm"] * abs(forms["trace_A1_sq"] - 2.0))
        preds.append(abs(forms["trace_A1_sq"] + 1.0 - 3.0))
        r = _biharmonic_at_center(make_theorem1(s4, a2=float(a2)))
        assert r["normal"] == pytest.approx(resid[-1], abs=1e-9)
    assert vals[int(np.argmin(resid))] == pytest.approx(0.5)
    assert vals[int(np.argmin(preds))] == pytest.approx(0.5)


def test_biharmonic_minimal_flag(s4):
    r = _biharmonic_at_center(make_theorem1(s4, a2=0.5))
    assert r["minimal"] and math.isnan(r["predicate"])
    assert r["normal"] <= 1e-12


def test_biharmonic_eps_minus_one_never_small():
    r = _biharmonic_at_center(make_theorem1(ProductSpace(-1, 4), a2=1.5))
    assert r["normal"] >= 1e-2
    # eps-explicit candidate differs from the plain predicate when eps = -1
    assert r["predicate_eps"] != pytest.approx(r["predicate"], abs=1e-6)


def test_class_A_gallery(theorem1_cyl, vcyl_circle, tube_s3):
    for ch in (theorem1_cyl, vcyl_circle):
        assert class_A_residual(_rows(ch, random_interior_points(ch, 5, seed=23))).max() <= 1e-9, ch.label
    assert class_A_residual(_rows(tube_s3, random_interior_points(tube_s3, 5, seed=24))).max() <= 1e-6


def _sympy_class_a_oracle(point):
    """Symbolically differentiated class-A deviation for a tilted graph-type
    surface in Q^2 x R; independent of the jet engine."""
    import sympy as sp

    u1, u2 = sp.symbols("u1 u2", real=True)
    f = sp.Matrix(
        [
            sp.cos(u1) * sp.cos(u2),
            sp.cos(u1) * sp.sin(u2),
            sp.sin(u1),
            sp.Rational(3, 10) * u1 + sp.Rational(1, 4) * u2**2,
        ]
    )
    f1, f2 = f.diff(u1), f.diff(u2)
    subs = {u1: point[0], u2: point[1]}
    J = np.array(sp.Matrix.hstack(f1, f2).subs(subs)).astype(float)
    d2 = {
        (0, 0): np.array(f.diff(u1, 2).subs(subs)).astype(float).ravel(),
        (0, 1): np.array(f.diff(u1).diff(u2).subs(subs)).astype(float).ravel(),
        (1, 1): np.array(f.diff(u2, 2).subs(subs)).astype(float).ravel(),
    }
    pos = np.array(f.subs(subs)).astype(float).ravel()
    phat = pos.copy()
    phat[3] = 0.0
    # orthonormal tangent frame
    e1 = J[:, 0] / np.linalg.norm(J[:, 0])
    w = J[:, 1] - (J[:, 1] @ e1) * e1
    e2 = w / np.linalg.norm(w)
    # unit normal inside the product tangent space
    nu = np.random.default_rng(0).standard_normal(4)
    for b in (phat / np.linalg.norm(phat), e1, e2):
        nu -= (nu @ b) * b
    nu /= np.linalg.norm(nu)
    C = np.zeros((2, 2))
    C[0, 0] = 1 / np.linalg.norm(J[:, 0])
    C[1, 1] = 1 / np.linalg.norm(w)
    C[1, 0] = -(J[:, 1] @ e1) * C[0, 0] / np.linalg.norm(w)
    a_chart = np.array(
        [
            [d2[(0, 0)] @ nu, d2[(0, 1)] @ nu],
            [d2[(0, 1)] @ nu, d2[(1, 1)] @ nu],
        ]
    )
    A = C @ a_chart @ C.T
    dt = np.array([0.0, 0, 0, 1.0])
    t = np.array([dt @ e1, dt @ e2])
    At = A @ t
    dev = At - (At @ t) / (t @ t) * t
    return float(np.linalg.norm(dev) / max(1.0, np.linalg.norm(A, 2)))


def test_class_A_fails_on_tilted_graph():
    space = ProductSpace(1, 2)
    chart = Chart(
        space=space,
        m=2,
        coords=[
            "cos(u1)*cos(u2)",
            "cos(u1)*sin(u2)",
            "sin(u1)",
            "0.3*u1+0.25*u2^2",
        ],
        domain=[(-0.6, 0.6), (-0.6, 0.6)],
    )
    chart.validate_membership()
    point = [0.31, 0.47]
    engine = class_A_residual(_rows(chart, [point]))[0]
    oracle = _sympy_class_a_oracle(point)
    assert engine == pytest.approx(oracle, abs=1e-10)
    assert engine >= 1e-2


def _class_a_with_svd_scale(rows):
    """class_A_residual as it was with the batched SVD 2-norm for |A_xi|."""
    t = rows.T_onb
    At = (rows.alpha @ t[:, None, :, None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (At[..., None, :] @ t[:, None, :, None])[..., 0] / (t[:, None, :] @ t[:, :, None])
        dev = np.linalg.norm(At - coef * t[:, None, :], axis=-1)
    worst = np.max(dev / np.maximum(1.0, np.linalg.norm(rows.alpha, 2, axis=(-2, -1))), axis=-1, initial=0.0)
    return np.where(rows.T_norm <= classify.DEGENERATE["T_class_a"], 0.0, worst)


def test_class_A_scale_is_the_spectral_norm(all_gallery_charts):
    # the scale max |eigvalsh(alpha^a)| against the SVD 2-norm, on charts
    # where |A_xi| > 1 sets it and on the tilted graph, where class A fails
    tilted = Chart(
        space=ProductSpace(1, 2),
        m=2,
        coords=["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)", "0.3*u1+0.25*u2^2"],
        domain=[(-0.6, 0.6), (-0.6, 0.6)],
    )
    above_one = 0
    for ch in [*all_gallery_charts, tilted]:
        rows = _rows(ch, random_interior_points(ch, 40, seed=37))
        above_one += int(np.any(np.linalg.norm(rows.alpha, 2, axis=(-2, -1)) > 1.0))
        ref = _class_a_with_svd_scale(rows)
        got = class_A_residual(rows)
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), ch.label
    assert above_one >= 6


def test_class_A_zero_when_T_vanishes(slice_s4):
    assert class_A_residual(_rows(slice_s4, [[0.1, 0.2]]))[0] == 0.0


def test_e0_structure_theorem1(theorem1_cyl):
    forms = theorem1_closed_forms(0.8)
    rows = _rows(theorem1_cyl, [[0.3, -0.2, 0.4]])
    e0 = e0_structure(rows)
    assert not rows.frame.failed.any()
    assert e0.dim_E0[0] == 1
    assert np.allclose(
        np.sort(e0.eigenvalues[0]), forms["H_norm"] * forms["eig_A1"], atol=1e-10
    )
    assert e0.aht[0] <= 1e-9
    assert e0.aetat[0] <= 1e-9
    assert e0.offblock[0] <= 1e-9
    assert e0.traceBS1[0] <= 1e-9
    assert abs(e0.a_last[0]) <= 1e-9
    assert codim_two_frame(rows).eta_gauge_fixed[0]  # eta = 0 on this chart
    assert e0.dim_E0[0] + np.sum(np.abs(e0.eigenvalues[0]) > 1e-9) == 3


def _e0_scene(n):
    """The slice in Q^n x R, whose H vanishes, with the e0 check alone."""
    return {
        "ambient": {"epsilon": 1, "n": n},
        "immersion": {"gallery": {"kind": "slice"}},
        "sampling": {"mode": "grid", "grid": [2, 2]},
        "checks": ["e0"],
    }


def test_e0_invalid_on_minimal_chart():
    ch = make_slice(ProductSpace(1, 3), 0.0)  # codim 2 here, H = 0
    rows = _rows(ch, [[0.1, 0.2]])
    assert e0_structure(rows) is not None  # codimension 2: the frame is formed and flags the row
    assert rows.frame.vanish[0] and rows.frame.failed[0]
    # the run counts the rows where H vanishes as degenerate, with the frame's note
    (entry,) = run_scene(_e0_scene(3))["checks"]
    assert entry["verdict"] == "DEGENERATE" and entry["samples_degenerate"] == 4
    assert "H vanishes" in entry["notes"]


def test_e0_invalid_on_wrong_codimension(slice_s4):
    rows = _rows(slice_s4, [[0.1, 0.2]])
    assert e0_structure(rows) is None
    assert codim_two_frame(rows) is None
    # the run fails at its first sample, with the frame's error
    with pytest.raises(EngineError) as info:
        run_scene(_e0_scene(4))
    assert isinstance(info.value.__cause__, InvalidFrame)
    assert "codimension is 3, need exactly 2" in str(info.value)


def test_e0_eigengap_warning_band(theorem1_cyl, monkeypatch):
    # with the default tolerance the spectrum is clean; a tolerance chosen
    # so that the small eigenvalue lands inside (0.1 tol, 10 tol) warns
    rows = _rows(theorem1_cyl, [[0.3, -0.2, 0.4]])
    assert not e0_structure(rows).warn_eigengap[0]
    monkeypatch.setattr(classify, "TOL_EIG", 0.25)
    assert e0_structure(rows).warn_eigengap[0]


def test_codim_two_frame_orthonormal(theorem1_heli):
    fr = codim_two_frame(_rows(theorem1_heli, [[0.2, 0.4, -0.3]]))
    assert not fr.failed.any()
    sp = theorem1_heli.space
    from prodsub.ambient import inner

    xi1, xi2 = fr.xi1[0], fr.xi2[0]
    assert inner(sp, xi1, xi1) == pytest.approx(1.0, abs=1e-12)
    assert inner(sp, xi2, xi2) == pytest.approx(1.0, abs=1e-12)
    assert abs(inner(sp, xi1, xi2)) <= 1e-12
    assert not fr.eta_gauge_fixed[0]


def _classifier_residuals(rows):
    """The gauge-invariant classifier residuals at the rows of a batch
    evaluated at order 3, biharmonic_residual assuming PMC (a zero
    nabla^perp H)."""
    bicon = biconservative_residual(rows)  # before the zero nabla^perp H below
    rows.nabla_H = np.zeros((len(rows), rows.chart.m, rows.H.shape[1]))
    bih = biharmonic_residual(rows)
    e0 = e0_structure(rows)
    return {
        "class_a": class_A_residual(rows),
        "simple": bicon["simple"],
        "full": bicon["full"],
        "normal": bih["normal"],
        "predicate": biharmonic_predicates(rows)[0],
        **{name: getattr(e0, name) for name in ("aht", "aetat", "offblock", "traceBS1")},
    }


def test_gauge_flip_invariance(theorem1_heli, tube_s3):
    for ch in (theorem1_heli, tube_s3):
        rows = geometry(ch, random_interior_points(ch, 1, seed=31), order=3)
        base = _classifier_residuals(rows)
        for signs in ([-1, 1], [1, -1], [-1, -1]):
            flipped = second_fundamental(rows.with_flipped_normals(signs))
            for name, value in _classifier_residuals(flipped).items():
                assert abs(value[0] - base[name][0]) <= 1e-12, (ch.label, name, signs)


def test_splitting_residuals(theorem1_cyl, vcyl_geodesic, s4):
    assert splitting_residual(theorem1_cyl) <= 1e-12
    assert splitting_residual(vcyl_geodesic) <= 1e-12
    twisted = Chart(
        space=s4,
        m=2,
        coords=["cos(u1)", "sin(u1)", "0", "0", "0", "u1*s"],
        domain=[(-1.0, 1.0), (-1.0, 1.0)],
        var_names=["u1", "s"],
        s_index=1,
    )
    assert splitting_residual(twisted) >= 1.0


def test_circle_geometry_theorem1(s4, h4):
    """The s-circle has radius b and normal curvature c = a/b, so the radius
    relation 1/sqrt(c^2 + eps) closes: b^2 (a^2/b^2 + eps) = a^2 + eps b^2 = 1
    with b^2 = eps (1 - a^2)."""
    for space, a in ((s4, 0.8), (s4, 0.6), (h4, 1.25), (h4, 2.0)):
        b = math.sqrt(abs(1.0 - a * a))
        r = circle_geometry(make_theorem1(space, a=a))
        assert r["radius"] == pytest.approx(b, abs=1e-10)
        assert r["plane_rank"] == 2
        assert r["c"] == pytest.approx(a / b, abs=1e-12)
        assert r["gap"] <= 1e-14


def test_circle_geometry_does_not_depend_on_the_speed_of_s(s4, h4):
    # the theorem1 chart with s replaced by 2s on half the s-domain is the
    # same submanifold: its s-circle has radius b, the relation closes
    fast = {"b*cos(s/b)": "b*cos(2*s/b)", "b*sin(s/b)": "b*sin(2*s/b)"}
    for space, a in ((s4, 0.8), (h4, 1.25)):
        b = math.sqrt(abs(1.0 - a * a))
        chart = make_theorem1(space, a=a)
        rescaled = Chart(
            space=space,
            m=3,
            coords=[fast.get(exprlang.to_source(c), c) for c in chart.coords],
            params=chart.params,
            domain=[*chart.domain[:2], (-0.6, 0.6)],
            var_names=chart.var_names,
            s_index=2,
        )
        assert sum(exprlang.to_source(c) in fast.values() for c in rescaled.coords) == 2
        r = circle_geometry(rescaled)
        assert r["radius"] == pytest.approx(b, abs=1e-10)
        assert r["c"] == pytest.approx(a / b, abs=1e-12)
        assert r["gap"] <= 1e-14


def test_circle_geometry_straight_lines(vcyl_circle):
    r = circle_geometry(vcyl_circle)
    assert math.isinf(r["radius"])
    assert r["plane_rank"] == 1
