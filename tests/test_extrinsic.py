import math

import numpy as np
import pytest

from prodsub import ProductSpace, analyze_point, inner
from prodsub.extrinsic import (
    FieldCache,
    JetDerivatives,
    T_eta_residuals,
    christoffels,
    normal_derivative_H,
    normal_laplacian_H,
    onb_connection,
    second_fundamental,
    structure_residuals,
)
from prodsub.gallery import make_theorem1
from prodsub.jets import fd_gradient
from conftest import random_interior_points, theorem1_closed_forms


def test_slice_totally_geodesic(slice_s4):
    pg = analyze_point(slice_s4, [0.2, -0.1])
    ed = second_fundamental(pg)
    assert max(np.abs(a).max() for a in ed.alpha) <= 1e-14
    assert ed.H_norm <= 1e-14


def test_theorem1_against_explicit_normal_oracle(theorem1_cyl):
    """Check alpha against the explicitly constructed normal field
    xi = (-a cos(s/b), -a sin(s/b), b cos(u1/a), b sin(u1/a), 0, 0):
    the s-curves contribute a/b, the geodesic-circle factor -b/a, and the
    mean curvature vector is proportional to xi."""
    a, b = 0.8, 0.6
    u = np.array([0.37, -0.41, 0.23])
    pg = analyze_point(theorem1_cyl, u)
    ed = second_fundamental(pg)
    cs, sn = math.cos(u[2] / b), math.sin(u[2] / b)
    cu, su = math.cos(u[0] / a), math.sin(u[0] / a)
    xi = np.array([-a * cs, -a * sn, b * cu, b * su, 0.0, 0.0])
    sp = theorem1_cyl.space
    # unit, normal to the chart and to the quadric position
    assert inner(sp, xi, xi) == pytest.approx(1.0, abs=1e-14)
    assert abs(inner(sp, xi, pg.q_padded())) <= 1e-14
    for i in range(3):
        assert abs(inner(sp, xi, pg.jet.jac[:, i])) <= 1e-14
    f_ss = pg.jet.second(2, 2)
    f_11 = pg.jet.second(0, 0)
    assert inner(sp, f_ss, xi) == pytest.approx(a / b, abs=1e-12)
    assert inner(sp, f_11, xi) == pytest.approx(-b / a, abs=1e-12)
    # H = ((a^2-b^2)/(3ab)) xi
    c = (a * a - b * b) / (3 * a * b)
    assert np.allclose(ed.H, c * xi, atol=1e-12)


@pytest.mark.parametrize("a,eps", [(0.8, 1), (0.6, 1), (1.25, -1)])
def test_theorem1_H_and_shape_spectrum(a, eps):
    forms = theorem1_closed_forms(a, eps)
    space = ProductSpace(eps, 4)
    ch = make_theorem1(space, a=a)
    for u in random_interior_points(ch, 10, seed=1):
        pg = analyze_point(ch, u)
        ed = second_fundamental(pg)
        assert ed.H_norm == pytest.approx(forms["H_norm"], abs=1e-12)
        A1 = ed.shape_in_direction(ed.H / ed.H_norm)
        assert np.allclose(np.sort(np.linalg.eigvalsh(A1)), forms["eig_A1"], atol=1e-10)


def test_theorem1_second_normal_shape_vanishes(theorem1_cyl):
    """The eta-side shape operator of the geodesic-cylinder chart is zero,
    so in particular its s-diagonal entry vanishes."""
    pg = analyze_point(theorem1_cyl, [0.4, 0.2, -0.3])
    ed = second_fundamental(pg)
    xi1 = ed.H / ed.H_norm
    # unit normal orthogonal to xi1 inside the rank-2 normal space
    sp = theorem1_cyl.space
    cands = [xi - inner(sp, xi, xi1) * xi1 for xi in pg.normal_onb]
    xi2 = max(cands, key=lambda w: inner(sp, w, w))
    xi2 = xi2 / math.sqrt(inner(sp, xi2, xi2))
    A2 = ed.shape_in_direction(xi2)
    assert np.abs(A2).max() <= 1e-12


def test_trace_shape_equals_m_times_H_component(all_gallery_charts):
    for ch in all_gallery_charts:
        for u in random_interior_points(ch, 5, seed=2):
            pg = analyze_point(ch, u)
            ed = second_fundamental(pg)
            for a, xi in enumerate(pg.normal_onb):
                lhs = np.trace(ed.shape_ops[a])
                rhs = ch.m * inner(ch.space, ed.H, xi)
                assert abs(lhs - rhs) <= 1e-10, ch.label


def test_H_is_normal_within_product(all_gallery_charts):
    for ch in all_gallery_charts:
        pg = analyze_point(ch, random_interior_points(ch, 1, seed=3)[0])
        ed = second_fundamental(pg)
        for e in pg.tangent_onb:
            assert abs(inner(ch.space, ed.H, e)) <= 1e-10
        assert abs(inner(ch.space, ed.H, pg.q_padded())) <= 1e-10


def test_theorem1_s_curves_unit_speed_circles(theorem1_cyl):
    b = 0.6
    for u in random_interior_points(theorem1_cyl, 5, seed=4):
        vj = analyze_point(theorem1_cyl, u).jet
        f_s = vj.jac[:, 2]
        assert inner(theorem1_cyl.space, f_s, f_s) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(vj.second(2, 2)) == pytest.approx(1 / b, abs=1e-10)


def test_onb_connection_antisymmetric(theorem1_heli):
    pg = analyze_point(theorem1_heli, [0.3, -0.2, 0.5])
    conn = onb_connection(pg)
    assert np.abs(conn + conn.transpose(0, 2, 1)).max() <= 1e-6


def test_onb_connection_matches_fd_of_the_frame(all_gallery_charts):
    """The jet-exact connection against one finite-difference layer of the
    tangent frame field, <d_{E_i} E_j, E_k>."""
    for ch in all_gallery_charts:
        m = ch.m
        for u in random_interior_points(ch, 3, seed=12):
            pg = analyze_point(ch, u)
            d_frames = np.array(
                [[fd_gradient(lambda v: analyze_point(ch, v).tangent_onb[j], u, p) for p in range(m)] for j in range(m)]
            )  # (j, p, ambient)
            want = np.array(
                [[pg.onb_coords(pg.tangent_coeffs[i] @ d_frames[j]) for j in range(m)] for i in range(m)]
            )
            assert np.abs(onb_connection(pg) - want).max() <= 1e-8, ch.label


def test_jet_derivatives_match_fd_of_the_fields(all_gallery_charts):
    """dg, dP, dT_coeffs and d eta in closed form against one finite-difference
    layer of the metric, normal projector, T and eta fields."""

    def fields(ch):
        def field(v):
            pg = analyze_point(ch, v)
            return np.concatenate([pg.g.ravel(), pg.normal_projector().ravel(), pg.T_coeffs, pg.eta])

        return field

    for ch in all_gallery_charts:
        m, k = ch.m, ch.space.ambient_dim
        U = random_interior_points(ch, 3, seed=13)
        d = JetDerivatives(ch.space, analyze_point(ch, U).jet, analyze_point(ch, U).g_inv)
        for r, u in enumerate(U):
            for i in range(m):
                fd = fd_gradient(fields(ch), u, i)
                exact = np.concatenate([d.dg[r, i].ravel(), d.dP[r, i].ravel(), d.dT[r, i], d.deta[r, i]])
                assert np.abs(exact - fd).max() <= 1e-8, (ch.label, i)


def test_christoffels_match_fd_of_metric(theorem1_heli):
    """Jet-level Christoffels against finite differences of the metric."""
    u = np.array([0.25, -0.35, 0.45])
    pg = analyze_point(theorem1_heli, u)
    G = christoffels(pg)

    def metric(v):
        return analyze_point(theorem1_heli, v).g.ravel()

    m = 3
    # dg[k][i, j] = d_k g_ij; Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij)/2
    dg = np.array([fd_gradient(metric, u, k).reshape(m, m) for k in range(m)])
    low = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    G_fd = np.einsum("lk,ijk->lij", pg.g_inv, low)
    assert np.abs(G - G_fd).max() <= 1e-7


def test_normal_derivative_H_pmc_vs_not(theorem1_cyl, theorem1_heli, slice_s4):
    cache = FieldCache(theorem1_cyl)
    for u in random_interior_points(theorem1_cyl, 5, seed=5):
        ws = normal_derivative_H(theorem1_cyl, u, cache)
        assert max(np.linalg.norm(w) for w in ws) <= 1e-6

    hits = 0
    pts = random_interior_points(theorem1_heli, 60, seed=6)
    cache = FieldCache(theorem1_heli)
    for u in pts:
        ws = normal_derivative_H(theorem1_heli, u, cache)
        if max(np.linalg.norm(w) for w in ws) >= 1e-3:
            hits += 1
    assert hits >= 0.9 * len(pts)

    ws = normal_derivative_H(slice_s4, [0.1, 0.2])
    assert max(np.linalg.norm(w) for w in ws) <= 1e-12


def test_structure_residuals_slice(slice_s4):
    res = structure_residuals(slice_s4, [0.15, -0.2], [1.0, 0.4], [-0.3, 1.0], [0.7, 0.2], a=1)
    for name, v in res.items():
        assert np.linalg.norm(v) <= 1e-8, name


@pytest.mark.parametrize("kind", ["geodesic_cylinder", "helicoid"])
def test_structure_residuals_theorem1(kind, s4):
    ch = make_theorem1(
        s4, a=0.8, phi_kind=kind, phi_params={"pitch": 0.5} if kind == "helicoid" else {}
    )
    rng = np.random.default_rng(8)
    cache = FieldCache(ch)
    for u in random_interior_points(ch, 8, seed=8):
        X, Y, Z = rng.standard_normal((3, 3))
        a = int(rng.integers(0, 2))
        res = structure_residuals(ch, u, X, Y, Z, a=a, cache=cache)
        for name, v in res.items():
            assert np.linalg.norm(v) <= 1e-5, (kind, name)


def test_codazzi_rhs_antisymmetric_in_XY(theorem1_heli):
    from prodsub.extrinsic import _wedge

    sp = theorem1_heli.space
    pg = analyze_point(theorem1_heli, [0.2, 0.3, -0.4])
    rng = np.random.default_rng(9)
    X, Y, Z = (pg.push(v) for v in rng.standard_normal((3, 3)))
    T = pg.T_ambient
    rhs = sp.epsilon * inner(sp, _wedge(sp, X, Y, T), Z) * pg.eta
    rhs_swapped = sp.epsilon * inner(sp, _wedge(sp, Y, X, T), Z) * pg.eta
    assert np.allclose(rhs, -rhs_swapped, atol=0)


def test_T_eta_residuals(vcyl_geodesic, slice_s4, theorem1_heli):
    r = T_eta_residuals(vcyl_geodesic, [0.4, -0.3])
    assert r["vt"] <= 1e-6 and r["veta"] <= 1e-6
    r = T_eta_residuals(slice_s4, [0.1, 0.2])
    assert r["vt"] <= 1e-8 and r["veta"] <= 1e-8
    cache = FieldCache(theorem1_heli)
    for u in random_interior_points(theorem1_heli, 5, seed=10):
        r = T_eta_residuals(theorem1_heli, u, cache)
        assert r["vt"] <= 1e-5 and r["veta"] <= 1e-5


def test_normal_laplacian_H_vanishes_under_pmc(theorem1_cyl):
    lam = normal_laplacian_H(theorem1_cyl, [0.2, -0.3, 0.4])
    assert np.linalg.norm(lam) <= 1e-4
