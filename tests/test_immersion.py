import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodsub import ProductSpace, analyze_point, evaluate_jet, inner, membership_residual
from prodsub.errors import IrregularPoint, NullFrame
from prodsub.immersion import Chart, gram_schmidt, probe_grid
from conftest import random_interior_points


def test_theorem1_first_coordinate_jet(theorem1_cyl):
    vj = evaluate_jet(theorem1_cyl, [0.3, -0.2, 0.0])
    assert vj.values[0] == pytest.approx(0.6, abs=1e-15)
    assert vj.jac[0, 2] == pytest.approx(0.0, abs=1e-15)  # d/ds of b cos(s/b) at 0


def test_slice_t_jet(slice_s4):
    vj = evaluate_jet(slice_s4, [0.1, -0.3])
    t = slice_s4.space.t_index
    assert vj.values[t] == 0.25
    assert np.all(vj.jac[t] == 0.0) and np.all(vj.d2[t] == 0.0)


def test_gallery_membership_exact(all_gallery_charts):
    for ch in all_gallery_charts:
        worst = 0.0
        grid = probe_grid(ch.domain, 4)
        assert np.array_equal(grid, probe_grid(ch.domain, [4] * ch.m)), ch.label
        for u in grid:
            worst = max(worst, membership_residual(ch.space, evaluate_jet(ch, u).values))
        assert worst <= 1e-12, ch.label


def test_slice_point_geometry(slice_s4):
    b = analyze_point(slice_s4, [[0.2, -0.4]])
    assert b.errors == [None]
    assert b.T_norm[0] <= 1e-15
    assert b.eta_norm[0] == pytest.approx(1.0, abs=1e-14)


def test_vertical_cylinder_point_geometry(vcyl_geodesic):
    b = analyze_point(vcyl_geodesic, [[0.5, -0.2]])
    assert b.errors == [None]
    assert b.T_norm[0] == pytest.approx(1.0, abs=1e-14)
    assert b.eta_norm[0] <= 1e-15


def test_helicoid_T_strictly_interior_and_nonconstant(theorem1_heli):
    b = analyze_point(theorem1_heli, random_interior_points(theorem1_heli, 40, seed=3))
    assert not any(b.errors)
    assert np.all((0.0 < b.T_norm) & (b.T_norm < 1.0))
    assert np.std(b.T_norm) > 1e-3


def test_pushforward(theorem1_cyl):
    jac = evaluate_jet(theorem1_cyl, [0.3, 0.1, -0.2]).jac
    v = jac @ [0.0, 0.0, 1.0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(jac @ np.zeros(3), np.zeros(6))


def test_pushforward_metric_pullback(theorem1_heli):
    rng = np.random.default_rng(11)
    b = analyze_point(theorem1_heli, [[0.3, -0.5, 0.7]])
    J, g = b.jet.jac[0], b.g[0]
    for _ in range(20):
        v, w = rng.standard_normal((2, 3))
        lhs = inner(theorem1_heli.space, J @ v, J @ w)
        assert lhs == pytest.approx(float(v @ g @ w), abs=1e-12)


def _frame_defect(b):
    """Per row, the worst deviation of the frame's Gram matrix from the
    identity and of the normals from orthogonality to p^."""
    sp = b.chart.space
    frame = np.concatenate([b.tangent_onb, b.normal_onb], axis=1)
    gram = inner(sp, frame[:, :, None], frame[:, None])
    off_quadric = inner(sp, b.normal_onb, sp.q_padded(b.jet.values)[:, None])
    return np.maximum(np.abs(gram - np.eye(frame.shape[1])).max(axis=(1, 2)), np.abs(off_quadric).max(axis=1))


def test_frames_and_unit_decomposition_random_samples(all_gallery_charts):
    for ch in all_gallery_charts:
        tol = 1e-12 if ch.space.epsilon == 1 else 1e-10
        b = analyze_point(ch, random_interior_points(ch, 100, seed=hash(ch.label) % 2**31))
        assert not any(b.errors), ch.label
        assert np.all(_frame_defect(b) <= tol), ch.label
        assert np.all(np.abs(b.T_norm**2 + b.eta_norm**2 - 1.0) <= 1e-10), ch.label
        assert b.normal_onb.shape[1] == ch.space.n + 1 - ch.m, ch.label


def test_gram_schmidt_idempotent_on_orthonormal(s4):
    vecs = np.eye(6)[[1, 2, 4]]
    basis, coeffs, count, errors = gram_schmidt(s4, vecs[None])
    assert errors == [None] and count[0] == 3
    assert np.abs(basis[0] - vecs).max() <= 1e-14
    assert np.abs(coeffs[0] - np.eye(3)).max() <= 1e-14


def test_pivoted_gram_schmidt_fails_where_it_takes_a_timelike_vector(h4):
    # the pivot takes each row's largest |<v,v>|: row 0's is the timelike
    # 2 e_0, so the row fails, while row 1 takes its spacelike vectors
    e = np.eye(6)
    basis, _, count, errors = gram_schmidt(h4, np.array([[2.0 * e[0], e[1]], [0.5 * e[2], e[1]]]), pivot=True)
    assert isinstance(errors[0], NullFrame)
    assert str(errors[0]) == "pivoted Gram-Schmidt selected <v,v>=-4.000e+00 < 0"
    assert errors[1] is None and count.tolist() == [0, 2]
    assert np.array_equal(basis[1], e[[1, 2]])


def test_a_null_tangent_vector_is_irregular(h4):
    # f_1 = (1, 1, 0, ...) is null in the Lorentz inner, so det g = 0: the
    # det test flags the point before the tangent frame is built, and the
    # frame's coefficients on that row (and its g^-1) warn of nothing
    chart = Chart(space=h4, m=1, coords=["2 + u1", "u1", "0", "0", "0", "0"], domain=[(-1.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = analyze_point(chart, probe_grid(chart.domain, 3))
    assert all(isinstance(e, IrregularPoint) and str(e).startswith("det g = 0.000e+00") for e in b.errors)


def test_g_inv_from_the_tangent_frame_is_the_inverse_metric(all_gallery_charts):
    # g^-1 = C^T C from the tangent MGS coefficients, against LAPACK's inverse
    for ch in all_gallery_charts:
        b = analyze_point(ch, random_interior_points(ch, 50, seed=31))
        ok = np.array([e is None for e in b.errors])
        assert ok.all(), ch.label
        g, g_inv = b.g[ok], b.g_inv[ok]
        ref = np.linalg.inv(g)
        bound = 1e-13 * np.linalg.cond(g)
        rel = np.max(np.abs(g_inv - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
        assert np.all(rel <= bound), ch.label
        assert np.all(np.max(np.abs(g_inv @ g - np.eye(ch.m)), axis=(-2, -1)) <= bound), ch.label


def test_irregular_point_raises(s4):
    # depends only on u1: rank-deficient metric
    chart = Chart(
        space=s4,
        m=2,
        coords=["cos(u1)", "sin(u1)", "0", "0", "0", "0.1"],
        domain=[(-1.0, 1.0), (-1.0, 1.0)],
    )
    b = analyze_point(chart, [[0.3, 0.2]])
    assert isinstance(b.errors[0], IrregularPoint)


def test_chart_membership_validation_rejects_bad_chart(s4):
    chart = Chart(
        space=s4,
        m=2,
        coords=["u1", "u2", "0", "0", "0", "0"],
        domain=[(0.5, 1.0), (0.5, 1.0)],
    )
    from prodsub.errors import ChartError

    with pytest.raises(ChartError, match="membership"):
        chart.validate_membership()


def test_an_indefinite_metric_is_irregular():
    # on eps = -1 the first slot is timelike, so g = diag(-1, 1) at every point
    chart = Chart(space=ProductSpace(-1, 2), m=2, coords=["2 + u1", "u2", "0", "0"], domain=[(-1.0, 1.0)] * 2)
    b = analyze_point(chart, probe_grid(chart.domain, 3))
    assert all(isinstance(e, IrregularPoint) and str(e).startswith("det g = -1.000e+00") for e in b.errors)
    # g = [[-1, 0, 0], [0, 1, 1], [0, 1, 1]]: det g = 0 lies above 1e-12 prod g_ii < 0, and only the
    # negative g_11 flags it
    chart = Chart(space=ProductSpace(-1, 3), m=3, coords=["2 + u1", "u2 + u3", "0", "0", "0"], domain=[(-1.0, 1.0)] * 3)
    b = analyze_point(chart, probe_grid(chart.domain, 2))
    assert all(isinstance(e, IrregularPoint) and str(e).startswith("det g = 0.000e+00") for e in b.errors)


# the rows (constant, then one coefficient per chart variable) of linear
# charts into E^5; small coefficients make null, timelike and dependent
# columns frequent
_COEF = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
_LINEAR = st.integers(1, 3).flatmap(lambda m: st.lists(st.lists(_COEF, min_size=m + 1, max_size=m + 1), min_size=5, max_size=5))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, -1]), _LINEAR)
def test_a_metric_that_is_not_positive_definite_is_irregular(eps, rows):
    # the metric of a linear chart is the same at every point
    m = len(rows[0]) - 1
    coords = [" + ".join([f"({r[0]})"] + [f"({c})*u{i + 1}" for i, c in enumerate(r[1:])]) for r in rows]
    chart = Chart(space=ProductSpace(eps, 3), m=m, coords=coords, domain=[(-1.0, 1.0)] * m)
    b = analyze_point(chart, probe_grid(chart.domain, 2))
    bad = np.linalg.eigvalsh(b.g)[:, 0] <= 0.0
    assert all(isinstance(e, IrregularPoint) for e, flag in zip(b.errors, bad) if flag)
    # nor does a tangent frame pass whose Gram-Schmidt pivot, taken in order,
    # is near-null or timelike
    assert all(isinstance(e, IrregularPoint) for e, flag in zip(b.errors, _small_mgs_pivot(chart.space, b)) if flag)


def _small_mgs_pivot(space, b):
    """The rows whose tangent vectors, taken in order by modified
    Gram-Schmidt, meet a pivot <v,v> <= 1e-12 max(1, max g_ii)."""
    tol = 1e-12 * np.fmax(1.0, np.max(np.abs(np.diagonal(b.g, axis1=-2, axis2=-1)), axis=-1))
    work = np.swapaxes(b.jet.jac, -1, -2).copy()
    small = np.zeros(len(work), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(work.shape[1]):
            nrm2 = inner(space, work[:, j], work[:, j])
            small |= nrm2 <= tol
            e = work[:, j] / np.sqrt(np.abs(nrm2))[:, None]
            work[:, j + 1 :] -= inner(space, work[:, j + 1 :], e[:, None])[..., None] * e[:, None]
    return small
