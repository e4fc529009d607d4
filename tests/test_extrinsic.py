import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

from prodsub import ProductSpace, analyze_point, inner
from prodsub.ambient import curvature
from prodsub.extrinsic import (
    JetDerivatives,
    T_eta_residuals,
    christoffels,
    normal_derivative_H,
    normal_laplacian_H,
    second_fundamental,
    shape_operator,
    structure_residuals,
)
from prodsub.gallery import make_theorem1
from prodsub.jets import fd_gradient
from conftest import gallery_charts, random_interior_points, theorem1_closed_forms
import reference_extrinsic


def _rows(chart, U, order=3):
    """The geometry of the points U (N, m) at ``order``, each row checked regular."""
    rows = second_fundamental(analyze_point(chart, U, order=order))
    assert not any(rows.errors), chart.label
    return rows


def _shape_along_H(rows):
    """A_{H/|H|} (N, m, m) of every row."""
    return shape_operator(rows.chart.space, rows.normal_onb, rows.alpha, rows.H / rows.H_norm[:, None])


def test_slice_totally_geodesic(slice_s4):
    rows = _rows(slice_s4, [[0.2, -0.1]])
    assert np.abs(rows.alpha).max() <= 1e-14
    assert rows.H_norm[0] <= 1e-14


def test_theorem1_against_explicit_normal_oracle(theorem1_cyl):
    """Check alpha against the explicitly constructed normal field
    xi = (-a cos(s/b), -a sin(s/b), b cos(u1/a), b sin(u1/a), 0, 0):
    the s-curves contribute a/b, the geodesic-circle factor -b/a, and the
    mean curvature vector is proportional to xi."""
    a, b = 0.8, 0.6
    u = np.array([0.37, -0.41, 0.23])
    rows = _rows(theorem1_cyl, u[None])
    vj = rows.jet.row(0)
    cs, sn = math.cos(u[2] / b), math.sin(u[2] / b)
    cu, su = math.cos(u[0] / a), math.sin(u[0] / a)
    xi = np.array([-a * cs, -a * sn, b * cu, b * su, 0.0, 0.0])
    sp = theorem1_cyl.space
    # unit, normal to the chart and to the quadric position
    assert inner(sp, xi, xi) == pytest.approx(1.0, abs=1e-14)
    assert abs(inner(sp, xi, sp.q_padded(vj.values))) <= 1e-14
    for i in range(3):
        assert abs(inner(sp, xi, vj.jac[:, i])) <= 1e-14
    f_ss = vj.d2[..., 2, 2]
    f_11 = vj.d2[..., 0, 0]
    assert inner(sp, f_ss, xi) == pytest.approx(a / b, abs=1e-12)
    assert inner(sp, f_11, xi) == pytest.approx(-b / a, abs=1e-12)
    # H = ((a^2-b^2)/(3ab)) xi
    c = (a * a - b * b) / (3 * a * b)
    assert np.allclose(rows.H[0], c * xi, atol=1e-12)


@pytest.mark.parametrize("a,eps", [(0.8, 1), (0.6, 1), (1.25, -1)])
def test_theorem1_H_and_shape_spectrum(a, eps):
    forms = theorem1_closed_forms(a, eps)
    space = ProductSpace(eps, 4)
    ch = make_theorem1(space, a=a)
    rows = _rows(ch, random_interior_points(ch, 10, seed=1))
    assert np.allclose(rows.H_norm, forms["H_norm"], atol=1e-12, rtol=0)
    eig = np.sort(np.linalg.eigvalsh(_shape_along_H(rows)), axis=-1)
    assert np.allclose(eig, forms["eig_A1"], atol=1e-10)


def test_theorem1_second_normal_shape_vanishes(theorem1_cyl):
    """The eta-side shape operator of the geodesic-cylinder chart is zero,
    so in particular its s-diagonal entry vanishes."""
    rows = _rows(theorem1_cyl, [[0.4, 0.2, -0.3]])
    xi1 = rows.H[0] / rows.H_norm[0]
    # unit normal orthogonal to xi1 inside the rank-2 normal space
    sp = theorem1_cyl.space
    cands = [xi - inner(sp, xi, xi1) * xi1 for xi in rows.normal_onb[0]]
    xi2 = max(cands, key=lambda w: inner(sp, w, w))
    xi2 = xi2 / math.sqrt(inner(sp, xi2, xi2))
    A2 = shape_operator(sp, rows.normal_onb[0], rows.alpha[0], xi2)
    assert np.abs(A2).max() <= 1e-12


def test_trace_shape_equals_m_times_H_component(all_gallery_charts):
    for ch in all_gallery_charts:
        rows = _rows(ch, random_interior_points(ch, 5, seed=2))
        lhs = np.trace(rows.alpha, axis1=-2, axis2=-1)  # (N, r)
        rhs = ch.m * inner(ch.space, rows.H[:, None], rows.normal_onb)
        assert np.abs(lhs - rhs).max() <= 1e-10, ch.label


def test_H_is_normal_within_product(all_gallery_charts):
    for ch in all_gallery_charts:
        rows = _rows(ch, random_interior_points(ch, 1, seed=3))
        assert np.abs(inner(ch.space, rows.H[:, None], rows.tangent_onb)).max() <= 1e-10
        assert abs(inner(ch.space, rows.H[0], ch.space.q_padded(rows.jet.values[0]))) <= 1e-10


def test_theorem1_s_curves_unit_speed_circles(theorem1_cyl):
    b = 0.6
    vj = analyze_point(theorem1_cyl, random_interior_points(theorem1_cyl, 5, seed=4)).jet
    f_s = vj.jac[:, :, 2]
    assert np.allclose(inner(theorem1_cyl.space, f_s, f_s), 1.0, atol=1e-10, rtol=0)
    assert np.allclose(np.linalg.norm(vj.d2[..., 2, 2], axis=-1), 1 / b, atol=1e-10, rtol=0)


def test_jet_derivatives_match_fd_of_the_fields(all_gallery_charts):
    """dg, dP (applied to the basis vectors), dT_coeffs and d eta in closed
    form against one finite-difference layer of the metric, normal
    projector, T and eta fields."""

    def fields(ch):
        def field(v):
            b = analyze_point(ch, v)
            return np.concatenate([b.g[0].ravel(), b.P[0].ravel(), b.T_coeffs[0], b.eta[0]])

        return field

    for ch in all_gallery_charts:
        m, k = ch.m, ch.space.ambient_dim
        U = random_interior_points(ch, 3, seed=13)
        d = JetDerivatives(analyze_point(ch, U))
        dP = np.swapaxes(d.dP_apply(np.broadcast_to(np.eye(k), (len(U), k, k))), -1, -2)  # [:, i, :, j] = (d_i P) e_j
        for r, u in enumerate(U):
            for i in range(m):
                fd = fd_gradient(fields(ch), u, i)
                exact = np.concatenate([d.dg[r, i].ravel(), dP[r, i].ravel(), d.dT[r, i], d.deta[r, i]])
                assert np.abs(exact - fd).max() <= 1e-8, (ch.label, i)


def test_applied_projector_derivatives_match_the_dense_forms(all_gallery_charts):
    """The derivatives of P applied to vectors and the matmul contractions
    against the dense d_i P and d_p d_q P and the einsum forms of
    ``reference_extrinsic``, within 1e-13 max(1, |value|): every gallery
    kind at both signs of eps, orders 3 and 4, batches of 1 and 61 rows."""
    for ch in all_gallery_charts:
        k = ch.space.ambient_dim
        for order in (3, 4):
            for n in (1, 61):
                rows = _rows(ch, random_interior_points(ch, n, seed=17), order)
                d, o = rows.derivatives, reference_extrinsic.DenseJetDerivatives(rows)
                E = np.broadcast_to(np.eye(k), (n, k, k))  # (d_i P) e_j is column j of d_i P
                pairs = {
                    "dg": (d.dg, o.dg),
                    "trace": (np.concatenate([d.trace[0][:, None], d.trace[1]], 1), np.concatenate([o.trace[0][:, None], o.trace[1]], 1)),
                    "dP": (np.swapaxes(d.dP_apply(E), -1, -2), o.dP),
                    "dH": (d.dH, o.dH),
                    "deta": (d.deta, o.deta),
                    "dgamma": (d.dgamma, o.dgamma),
                    "d_normals": (rows.d_normals, (o.dP[:, :, None] @ rows.normal_onb[:, None, :, :, None])[..., 0]),
                }
                if order == 4:
                    nabla_H = normal_derivative_H(rows)
                    lap = reference_extrinsic.normal_laplacian_H(rows, o, nabla_H)
                    pairs.update({
                        "d2g": (d.d2g, o.d2g),
                        "d2P": (np.swapaxes(d.d2P_apply(E), -1, -2), o.d2P),
                        "d2H": (d.d2H, o.d2H),
                        "normal_laplacian_H": (normal_laplacian_H(rows, nabla_H), lap),
                    })
                for name, (got, want) in pairs.items():
                    assert got.shape == want.shape, (ch.label, order, n, name)
                    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (ch.label, order, n, name)


def test_projector_matches_the_gram_schmidt_projection(all_gallery_charts):
    """proj_normal, P v by one matmul per row, against the modified
    Gram-Schmidt projection of ``reference_extrinsic`` within
    1e-13 max(1, |v|), and T_onb against <E_i, T> within 1e-15: every
    gallery kind at both signs of eps, orders 3 and 4, batches of 1 and 61
    rows, for random vectors and for d_i H."""
    for ch in all_gallery_charts:
        for order in (3, 4):
            for n in (1, 61):
                rows = _rows(ch, random_interior_points(ch, n, seed=19), order)
                v = np.random.default_rng(n + order).standard_normal((n, 4, ch.space.ambient_dim))
                for w in (v, v[:, 0], rows.derivatives.dH):
                    gap = np.abs(rows.proj_normal(w) - reference_extrinsic.proj_normal(rows, w))
                    bound = 1e-13 * np.maximum(1.0, np.linalg.norm(w, axis=-1))[..., None]
                    assert np.all(gap <= bound), (ch.label, order, n, w.shape)
                T_onb = inner(ch.space, rows.tangent_onb, rows.T_ambient[:, None])
                assert np.abs(rows.T_onb - T_onb).max() <= 1e-15, (ch.label, order, n)


def _arrays(rows):
    """Every array field of an ExtrinsicRows, its jet's slots, P and d_i H."""
    out = [getattr(rows, f.name) for f in fields(rows) if f.name not in ("chart", "jet", "errors")]
    return [np.asarray(x, dtype=float) for x in out + list(rows.jet.d) + [rows.P, rows.derivatives.dH]]


def test_taken_and_flipped_rows_are_their_batch_recomputed(all_gallery_charts):
    """``take`` of the rows and ``second_fundamental`` of their flipped copy
    equal ``second_fundamental`` of the taken or flipped PointBatch bit for
    bit, so no alpha, H or cached P of the parent rows survives."""
    for ch in all_gallery_charts:
        batch = analyze_point(ch, random_interior_points(ch, 7, seed=23), order=3)
        rows = second_fundamental(batch)
        _arrays(rows)  # fill the parent's caches
        signs = np.where(np.arange(batch.normal_onb.shape[1]) % 2 == 0, -1.0, 1.0)
        cases = [(rows.take(i), second_fundamental(batch.take(i))) for i in (np.array([5, 0, 3]), slice(2, 6))]
        flipped = rows.with_flipped_normals(signs), batch.with_flipped_normals(signs)
        cases.append(tuple(second_fundamental(b) for b in flipped))
        for got, want in cases:
            assert got.errors == want.errors and len(_arrays(got)) == len(_arrays(want)), ch.label
            for x, y in zip(_arrays(got), _arrays(want)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), ch.label


def test_rows_are_freed_without_the_cycle_collector(theorem1_heli):
    """Rows whose cached P and derivatives are filled are freed when the
    last reference goes: no reference cycle keeps their arrays alive until
    a garbage collection."""
    rows = _rows(theorem1_heli, random_interior_points(theorem1_heli, 4, seed=29))
    rows.derivatives.dH, rows.proj_normal(rows.H)
    gone = weakref.ref(rows)
    gc.disable()
    try:
        del rows
        assert gone() is None
    finally:
        gc.enable()


def test_christoffels_match_fd_of_metric(theorem1_heli):
    """Jet-level Christoffels against finite differences of the metric."""
    u = np.array([0.25, -0.35, 0.45])
    rows = _rows(theorem1_heli, u[None])
    g_inv = rows.g_inv
    G = christoffels(rows.derivatives.dg, g_inv)[0]

    def metric(v):
        return analyze_point(theorem1_heli, v).g[0].ravel()

    m = 3
    # dg[k][i, j] = d_k g_ij; Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij)/2
    dg = np.array([fd_gradient(metric, u, k).reshape(m, m) for k in range(m)])
    low = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    G_fd = np.einsum("lk,ijk->lij", g_inv[0], low)
    assert np.abs(G - G_fd).max() <= 1e-7


def _pmc_residual(chart, U):
    """max_p |nabla^perp_p H| at every point of U."""
    return np.linalg.norm(normal_derivative_H(_rows(chart, U)), axis=-1).max(axis=-1)


def test_normal_derivative_H_pmc_vs_not(theorem1_cyl, theorem1_heli, slice_s4):
    assert _pmc_residual(theorem1_cyl, random_interior_points(theorem1_cyl, 5, seed=5)).max() <= 1e-6

    pts = random_interior_points(theorem1_heli, 60, seed=6)
    hits = np.count_nonzero(_pmc_residual(theorem1_heli, pts) >= 1e-3)
    assert hits >= 0.9 * len(pts)

    assert _pmc_residual(slice_s4, [[0.1, 0.2]])[0] <= 1e-12


def test_structure_residuals_slice(slice_s4):
    res = structure_residuals(_rows(slice_s4, [[0.15, -0.2]]))
    shapes = {"gauss": (1, 2, 2, 2, 2), "codazzi": (1, 2, 2, 2, 3), "ricci": (1, 2, 2, 3, 3)}
    assert {name: t.shape for name, t in res.items()} == shapes
    for name, t in res.items():
        assert np.abs(t).max() <= 1e-14, name


@pytest.mark.parametrize("kind", ["geodesic_cylinder", "helicoid"])
def test_structure_residuals_theorem1(kind, s4):
    ch = make_theorem1(
        s4, a=0.8, phi_kind=kind, phi_params={"pitch": 0.5} if kind == "helicoid" else {}
    )
    res = structure_residuals(_rows(ch, random_interior_points(ch, 8, seed=8)))
    assert {name: t.shape for name, t in res.items()} == {
        "gauss": (8, 3, 3, 3, 3), "codazzi": (8, 3, 3, 3, 2), "ricci": (8, 3, 3, 2, 2),
    }
    for name, t in res.items():
        assert np.abs(t).max() <= 1e-14, (kind, name)


def test_onb_tensors_match_the_directional_oracle(all_gallery_charts):
    """The Gauss, Codazzi and Ricci tensors contracted with random chart
    directions X, Y, Z and a normal index a, against the directional
    kernels of ``reference_extrinsic`` they replaced, as ambient vectors,
    within 1e-14 max(1, |X||Y||Z|): every gallery kind at both signs of eps.
    A chart vector X has the ONB components C g X."""
    for ch in all_gallery_charts:
        n = 40
        rows = _rows(ch, random_interior_points(ch, n, seed=37))
        o = reference_extrinsic.DenseJetDerivatives(rows)
        rng = np.random.default_rng(41)
        X, Y, Z = rng.standard_normal((3, n, ch.m))
        a = rng.integers(0, rows.normal_onb.shape[1], n)
        x, y, z = ((rows.tangent_coeffs @ rows.g @ v[..., None])[..., 0] for v in (X, Y, Z))
        res, E, xi = structure_residuals(rows), rows.tangent_onb, rows.normal_onb
        got = {
            "gauss": np.einsum("nabcd,na,nb,nc,ndk->nk", res["gauss"], x, y, z, E),
            "codazzi": np.einsum("nabcs,na,nb,nc,nsk->nk", res["codazzi"], x, y, z, xi),
            "ricci": np.einsum("nabt,na,nb,ntk->nk", res["ricci"][np.arange(n), :, :, a], x, y, xi),
        }
        want = {
            "gauss": reference_extrinsic.gauss_residuals(rows, o, X, Y, Z),
            "codazzi": reference_extrinsic.codazzi_residuals(rows, o, X, Y, Z),
            "ricci": reference_extrinsic.ricci_residuals(rows, o, X, Y, a),
        }
        scale = np.fmax(1.0, np.prod(np.linalg.norm([X, Y, Z], axis=-1), axis=0))[:, None]
        for name in got:
            assert np.all(np.abs(got[name] - want[name]) <= 1e-14 * scale), (ch.label, name)


def test_codazzi_rhs_antisymmetric_in_XY(theorem1_heli):
    sp = theorem1_heli.space
    b = analyze_point(theorem1_heli, [[0.2, 0.3, -0.4]])
    rng = np.random.default_rng(9)
    X, Y, Z = (b.jet.jac @ v[:, None] for v in rng.standard_normal((3, 3)))
    rhs = b.proj_normal(curvature(sp, X[..., 0], Y[..., 0], Z[..., 0]))
    rhs_swapped = b.proj_normal(curvature(sp, Y[..., 0], X[..., 0], Z[..., 0]))
    assert np.array_equal(rhs, -rhs_swapped)


@pytest.mark.parametrize("eps", [1, -1])
def test_the_curvature_terms_are_the_T_based_forms(eps):
    # the tangent and normal parts of ambient.curvature, which Gauss and
    # Codazzi read, against the terms written through T and eta
    # (``reference_extrinsic``): d_t projects to T tangentially and to eta
    # normally, so the two forms agree up to rounding
    rng = np.random.default_rng(12)
    for ch in gallery_charts(eps):
        rows = _rows(ch, random_interior_points(ch, 20, seed=13))
        Xa, Ya, Za = np.moveaxis(rows.jet.jac @ rng.standard_normal((20, ch.m, 3)), -1, 0)
        R = curvature(ch.space, Xa, Ya, Za)
        scale = np.fmax(1.0, np.prod([np.linalg.norm(v, axis=-1) for v in (Xa, Ya, Za)], axis=0))[:, None]
        tangent, normal = R - rows.proj_normal(R), rows.proj_normal(R)
        assert np.all(np.abs(tangent - reference_extrinsic.gauss_curvature_term(rows, Xa, Ya, Za)) <= 1e-15 * scale), ch.label
        assert np.all(np.abs(normal - reference_extrinsic.codazzi_curvature_term(rows, Xa, Ya, Za)) <= 1e-15 * scale), ch.label


def test_T_eta_residuals(vcyl_geodesic, slice_s4, theorem1_heli):
    vt, veta = T_eta_residuals(_rows(vcyl_geodesic, [[0.4, -0.3]]))
    assert vt[0] <= 1e-6 and veta[0] <= 1e-6
    vt, veta = T_eta_residuals(_rows(slice_s4, [[0.1, 0.2]]))
    assert vt[0] <= 1e-8 and veta[0] <= 1e-8
    vt, veta = T_eta_residuals(_rows(theorem1_heli, random_interior_points(theorem1_heli, 5, seed=10)))
    assert vt.max() <= 1e-5 and veta.max() <= 1e-5


def test_normal_laplacian_H_vanishes_under_pmc(theorem1_cyl):
    rows = _rows(theorem1_cyl, [[0.2, -0.3, 0.4]], order=4)
    lam = normal_laplacian_H(rows, normal_derivative_H(rows))
    assert np.linalg.norm(lam[0]) <= 1e-4
