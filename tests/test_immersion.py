import math

import numpy as np
import pytest

from prodsub import analyze_point, evaluate_jet, inner, membership_residual
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
    pg = analyze_point(slice_s4, [0.2, -0.4])
    assert pg.T_norm <= 1e-15
    assert pg.eta_norm == pytest.approx(1.0, abs=1e-14)
    assert pg.theta == pytest.approx(math.pi / 2, abs=1e-14)


def test_vertical_cylinder_point_geometry(vcyl_geodesic):
    pg = analyze_point(vcyl_geodesic, [0.5, -0.2])
    assert pg.T_norm == pytest.approx(1.0, abs=1e-14)
    assert pg.eta_norm <= 1e-15
    assert pg.theta == pytest.approx(0.0, abs=1e-14)


def test_helicoid_T_strictly_interior_and_nonconstant(theorem1_heli):
    vals = []
    for u in random_interior_points(theorem1_heli, 40, seed=3):
        pg = analyze_point(theorem1_heli, u)
        assert 0.0 < pg.T_norm < 1.0
        vals.append(pg.T_norm)
    assert np.std(vals) > 1e-3


def test_pushforward(theorem1_cyl):
    jac = evaluate_jet(theorem1_cyl, [0.3, 0.1, -0.2]).jac
    v = jac @ [0.0, 0.0, 1.0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(jac @ np.zeros(3), np.zeros(6))


def test_pushforward_metric_pullback(theorem1_heli):
    rng = np.random.default_rng(11)
    pg = analyze_point(theorem1_heli, [0.3, -0.5, 0.7])
    for _ in range(20):
        v, w = rng.standard_normal((2, 3))
        lhs = inner(theorem1_heli.space, pg.push(v), pg.push(w))
        assert lhs == pytest.approx(float(v @ pg.g @ w), abs=1e-12)


def _frame_defect(pg):
    sp = pg.space
    frame = pg.tangent_onb + pg.normal_onb
    worst = 0.0
    for i, a in enumerate(frame):
        for j in range(i, len(frame)):
            worst = max(worst, abs(inner(sp, a, frame[j]) - (1.0 if i == j else 0.0)))
    phat = pg.q_padded()
    for xi in pg.normal_onb:
        worst = max(worst, abs(inner(sp, xi, phat)))
    return worst


def test_frames_and_unit_decomposition_random_samples(all_gallery_charts):
    for ch in all_gallery_charts:
        tol = 1e-12 if ch.space.epsilon == 1 else 1e-10
        for u in random_interior_points(ch, 100, seed=hash(ch.label) % 2**31):
            pg = analyze_point(ch, u)
            assert _frame_defect(pg) <= tol, ch.label
            assert abs(pg.T_norm**2 + pg.eta_norm**2 - 1.0) <= 1e-10, ch.label
            assert len(pg.normal_onb) == ch.space.n + 1 - ch.m, ch.label


def test_gram_schmidt_idempotent_on_orthonormal(s4):
    vecs = [np.eye(6)[i] for i in (1, 2, 4)]
    basis, _ = gram_schmidt(s4, vecs)
    for b, v in zip(basis, vecs):
        assert np.linalg.norm(b - v) <= 1e-14


def test_gram_schmidt_null_vector_raises(h4):
    null = np.array([1.0, 1.0, 0, 0, 0, 0])  # <v,v> = 0 in the Lorentz inner
    with pytest.raises(NullFrame):
        gram_schmidt(h4, [null])


def test_irregular_point_raises(s4):
    # depends only on u1: rank-deficient metric
    chart = Chart(
        space=s4,
        m=2,
        coords=["cos(u1)", "sin(u1)", "0", "0", "0", "0.1"],
        domain=[(-1.0, 1.0), (-1.0, 1.0)],
    )
    with pytest.raises(IrregularPoint):
        analyze_point(chart, [0.3, 0.2])


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


def test_nu_defined_only_in_codimension_one(cmc_s3, theorem1_cyl):
    pg = analyze_point(cmc_s3, [0.1, 0.2, -0.3])
    assert pg.nu is not None and abs(pg.nu) <= 1e-14  # vertical product: eta = 0
    pg2 = analyze_point(theorem1_cyl, [0.1, 0.2, -0.3])
    assert pg2.nu is None
