import math
import re
import warnings

import numpy as np
import pytest

from prodsub import ProductSpace, analyze_point, evaluate_jet, membership_residual
from prodsub.errors import ChartError, SceneError
from prodsub.extrinsic import geometry, normal_derivative_H, second_fundamental, shape_operator
from prodsub.gallery import (
    GALLERY,
    make_chart,
    make_cmc_product,
    make_partial_tube,
    make_theorem1,
    make_vertical_cylinder,
)
from prodsub import jets
from prodsub.immersion import _coordinates, probe_grid
from prodsub.jets import Jet2, VecJet2
import reference_gallery
from conftest import random_interior_points, theorem1_closed_forms


def _rows(chart, U):
    rows = second_fundamental(analyze_point(chart, U))
    assert not any(rows.errors), chart.label
    return rows


def test_slice_fields(slice_s4):
    t = slice_s4.space.t_index
    rows = _rows(slice_s4, random_interior_points(slice_s4, 20, seed=40))
    assert np.all(rows.jet.values[:, t] == 0.25)
    assert rows.T_norm.max() <= 1e-14
    assert rows.H_norm.max() <= 1e-14


def test_vertical_cylinder_geodesic_fields(vcyl_geodesic):
    rows = _rows(vcyl_geodesic, random_interior_points(vcyl_geodesic, 10, seed=41))
    assert rows.eta_norm.max() <= 1e-14
    assert np.allclose(rows.T_norm, 1.0, atol=1e-14, rtol=0)
    assert rows.H_norm.max() <= 1e-14


@pytest.mark.parametrize("eps", [1, -1])
def test_vertical_cylinder_circle_is_cmc(eps):
    space = ProductSpace(eps, 4)
    ch = make_vertical_cylinder(space, {"kind": "circle", "r": 0.7})
    want = (1 / math.tan(0.7) if eps == 1 else 1 / math.tanh(0.7)) / 2

    rows = geometry(ch, random_interior_points(ch, 8, seed=42), order=3)
    assert np.linalg.norm(normal_derivative_H(rows), axis=-1).max() <= 1e-6
    assert np.allclose(rows.H_norm, want, atol=1e-10)


@pytest.mark.parametrize("eps,a", [(1, 0.8), (1, 0.6), (-1, 1.25)])
def test_theorem1_shape_data_every_sample(eps, a):
    forms = theorem1_closed_forms(a, eps)
    ch = make_theorem1(ProductSpace(eps, 4), a=a)
    rows = _rows(ch, random_interior_points(ch, 30, seed=43))
    assert np.allclose(rows.H_norm, forms["H_norm"], atol=1e-9, rtol=0)
    A1 = shape_operator(ch.space, rows.normal_onb, rows.alpha, rows.H / rows.H_norm[:, None])
    assert np.allclose(np.sort(np.linalg.eigvalsh(A1), axis=-1), forms["eig_A1"], atol=1e-9)


def test_theorem1_parameter_errors(s4, h4):
    with pytest.raises(ChartError):
        make_theorem1(s4, a=1.2)
    with pytest.raises(ChartError):
        make_theorem1(h4, a=0.9)
    with pytest.raises(ChartError):
        make_theorem1(s4, a=0.8, phi_kind="helicoid", phi_params={"pitch": 3.0})
    with pytest.raises(ChartError):
        make_theorem1(ProductSpace(1, 3), a=0.8)
    with pytest.raises(ChartError):
        make_theorem1(s4, a=0.8, a2=0.5)


def test_theorem1_minimality_oracle_rejects_nonminimal_phi(s4):
    # a non-geodesic circle cylinder in Q^2_a is not minimal
    a = 0.7
    coords = [
        "0.56*cos(u1)",
        "0.56*sin(u1)",
        "0.42",
        "u2",
    ]
    with pytest.raises(ChartError, match="minimal"):
        make_theorem1(
            s4, a=a, phi_kind="custom", phi_params={"coords": coords}
        )


@pytest.mark.parametrize("t_coord", ["0", "u2^3"])
def test_theorem1_custom_phi_with_a_degenerate_metric_is_rejected_silently(s4, t_coord):
    # d/du2 vanishes everywhere, or on the probe grid's u2 = 0 line: the
    # closed-form 2x2 inverse divides those rows by 1, not by det g = 0
    coords = ["0.8*cos(u1/0.8)", "0.8*sin(u1/0.8)", "0", t_coord]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChartError, match="phi factor is degenerate"):
            make_theorem1(s4, a=0.8, phi_kind="custom", phi_params={"coords": coords})


@pytest.mark.parametrize("L", [1.0, 1e-2, 1e-4])
def test_theorem1_custom_phi_builds_at_any_scale_of_its_variables(s4, L):
    # the geodesic cylinder in u -> L u has g = L^2 I, regular at any L:
    # the phi oracle's degeneracy floor is unit-free, as a chart's own is
    coords = [f"0.8*cos({L!r}*u1/0.8)", f"0.8*sin({L!r}*u1/0.8)", "0", f"{L!r}*u2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_theorem1(s4, a=0.8, phi_kind="custom", phi_params={"coords": coords})


def test_theorem1_custom_phi_accepts_the_geodesic_cylinder(s4):
    coords = ["0.8*cos(u1/0.8)", "0.8*sin(u1/0.8)", "0", "u2"]
    ch = make_theorem1(s4, a=0.8, phi_kind="custom", phi_params={"coords": coords})
    ref = make_theorem1(s4, a=0.8)
    for u in random_interior_points(ref, 5, seed=44):
        assert np.allclose(
            evaluate_jet(ch, u).values, evaluate_jet(ref, u).values, atol=1e-14
        )


def _helicoid_phi_oracle(a, lam, eps):
    """Mean curvature of the helicoid surface factor inside Q^2_a x R,
    computed directly (independent of the chart machinery)."""
    sig = np.array([-1.0 if eps == -1 else 1.0, 1.0, 1.0, 1.0])

    def sdot(x, y):
        return float(np.sum(sig * x * y))

    rng = np.random.default_rng(45)
    worst = 0.0
    for u, v in rng.uniform(-0.8, 0.8, (20, 2)):
        if eps == 1:
            phi = np.array([a * math.cos(u) * math.cos(v), a * math.cos(u) * math.sin(v), a * math.sin(u), 0.0])
            pu = np.array([-a * math.sin(u) * math.cos(v), -a * math.sin(u) * math.sin(v), a * math.cos(u), 0.0])
            pv = np.array([-a * math.cos(u) * math.sin(v), a * math.cos(u) * math.cos(v), 0.0, lam])
            puu = np.array([-a * math.cos(u) * math.cos(v), -a * math.cos(u) * math.sin(v), -a * math.sin(u), 0.0])
            pvv = np.array([-a * math.cos(u) * math.cos(v), -a * math.cos(u) * math.sin(v), 0.0, 0.0])
        else:
            phi = np.array([a * math.cosh(u), a * math.sinh(u) * math.cos(v), a * math.sinh(u) * math.sin(v), 0.0])
            pu = np.array([a * math.sinh(u), a * math.cosh(u) * math.cos(v), a * math.cosh(u) * math.sin(v), 0.0])
            pv = np.array([0.0, -a * math.sinh(u) * math.sin(v), a * math.sinh(u) * math.cos(v), lam])
            puu = np.array([a * math.cosh(u), a * math.sinh(u) * math.cos(v), a * math.sinh(u) * math.sin(v), 0.0])
            pvv = np.array([0.0, -a * math.sinh(u) * math.cos(v), -a * math.sinh(u) * math.sin(v), 0.0])
        g = np.array([[sdot(pu, pu), sdot(pu, pv)], [sdot(pv, pu), sdot(pv, pv)]])
        gi = np.linalg.inv(g)
        hvec = gi[0, 0] * puu + gi[1, 1] * pvv  # g is diagonal here
        hvec = hvec - (sdot(hvec, phi) / (eps * a * a)) * phi
        coef = gi @ np.array([sdot(hvec, pu), sdot(hvec, pv)])
        hvec = hvec - np.column_stack([pu, pv]) @ coef
        worst = max(worst, math.sqrt(abs(sdot(hvec, hvec))) / 2)
    return worst


@pytest.mark.parametrize("eps,a", [(1, 0.8), (-1, 1.25)])
def test_helicoid_factor_is_minimal(eps, a):
    assert _helicoid_phi_oracle(a, 0.5, eps) <= 1e-10
    # and the generator accepts it
    make_theorem1(
        ProductSpace(eps, 4), a=a, phi_kind="helicoid", phi_params={"pitch": 0.5}
    )


def test_partial_tube_class_A(tube_s3):
    from prodsub.classify import class_A_residual

    assert class_A_residual(_rows(tube_s3, random_interior_points(tube_s3, 10, seed=46))).max() <= 1e-6


def test_partial_tube_constraint_errors():
    sp3 = ProductSpace(1, 3)
    with pytest.raises(ChartError, match="alpha"):
        make_partial_tube(
            sp3, profile={"coords": ["cos(0.4*s)", "sin(0.4*s)", "0.5"]}
        )
    with pytest.raises(ChartError, match="quadric"):
        make_partial_tube(
            sp3, profile={"coords": ["cos(s)", "0.5*sin(s)", "0.6*s"]}
        )
    with pytest.raises(ChartError, match="k <= 2"):
        make_partial_tube(sp3, base={"kind": "geodesic", "k": 3})


TUBE_PROFILE_K2 = {
    1: {"coords": ["cos(0.4*s)", "0.6*sin(0.4*s)", "0.8*sin(0.4*s)", "0.6*s"]},
    -1: {"coords": ["cosh(0.4*s)", "0.6*sinh(0.4*s)", "0.8*sinh(0.4*s)", "0.6*s"]},
}


@pytest.mark.parametrize("eps", [1, -1])
def test_partial_tube_rejects_a_base_normal_that_is_not_unit_normal(eps):
    # gamma = (cos u1, sin u1, 0, 0) (cosh, sinh for eps = -1): twice a unit normal
    with pytest.raises(ChartError, match="base normal 0 is not unit-normal along gamma"):
        make_partial_tube(ProductSpace(eps, 3), base={"kind": "geodesic", "normals": [["0", "0", "2", "0"]]})


@pytest.mark.parametrize("eps", [1, -1])
def test_partial_tube_rejects_base_normals_that_are_not_orthonormal(eps):
    base = {"kind": "geodesic", "normals": [["0", "0", "1", "0"], ["0", "0", "1", "0"]]}
    with pytest.raises(ChartError, match="base normals are not orthonormal"):
        make_partial_tube(ProductSpace(eps, 3), base=base, profile=TUBE_PROFILE_K2[eps])


@pytest.mark.parametrize("eps", [1, -1])
def test_partial_tube_rejects_a_base_normal_that_is_not_parallel(eps):
    # a unit normal turning in the normal plane of gamma: D_x xi has unit
    # length normal to gamma.  Its error comes before the one of the second
    # normal, which is not unit-normal, as normal 0 comes before normal 1
    turning = ["0", "0", "cos(u1)", "sin(u1)"]
    with pytest.raises(ChartError, match="base normal 0 is not parallel along gamma"):
        make_partial_tube(ProductSpace(eps, 3), base={"kind": "geodesic", "normals": [turning]})
    base = {"kind": "geodesic", "normals": [turning, ["0", "0", "2", "0"]]}
    with pytest.raises(ChartError, match="base normal 0 is not parallel along gamma"):
        make_partial_tube(ProductSpace(eps, 3), base=base, profile=TUBE_PROFILE_K2[eps])


@pytest.mark.parametrize("L", [1e-9, 1.0, 1e3])
def test_partial_tube_base_normal_tests_do_not_depend_on_the_speed_of_the_base(L):
    # gamma = (cos Lu1, sin Lu1, 0, 0) at speed L: a normal at 45 degrees to
    # gamma' and one that turns at unit rate per arc length fail at every
    # speed, and a constant normal builds at every speed
    def tube(normal):
        base = {"kind": "exprs", "coords": [f"cos({L!r}*u1)", f"sin({L!r}*u1)", "0", "0"], "normals": [normal]}
        return make_partial_tube(ProductSpace(1, 3), base=base)

    with pytest.raises(ChartError, match="base normal 0 is not unit-normal along gamma"):
        tube(["0", "0.7071067811865476", "0.7071067811865476", "0"])
    with pytest.raises(ChartError, match="base normal 0 is not parallel along gamma"):
        tube(["0", "0", f"cos({L!r}*u1)", f"sin({L!r}*u1)"])
    tube(["0", "0", "1", "0"])


@pytest.mark.parametrize("L", [1e-9, 1.0, 1e3])
def test_partial_tube_profile_test_does_not_depend_on_the_speed_of_the_profile(L):
    # the default k = 1 profile written in s -> L s builds at every speed,
    # and a profile whose last component is constant fails at every speed
    def tube(last):
        return make_partial_tube(ProductSpace(1, 3), profile={"coords": [f"cos(0.4*{L!r}*s)", f"sin(0.4*{L!r}*s)", last]})

    tube(f"0.6*{L!r}*s")
    with pytest.raises(ChartError, match=re.escape("profile violates alpha_{k+1}' != 0")):
        tube("0.5")


@pytest.mark.parametrize("coords, domain", [(["1", "log(s)"], [0.1, 1.1]), (["1", "log(100*s)"], [0.001, 0.011])])
def test_partial_tube_probes_its_profile_inside_its_domain_at_every_scale(coords, domain):
    # one profile at L = 1 and at L = 1e-2 builds at both: its probe points
    # are inset 2% of the interval, as every probe grid's, so log reads only s > 0
    make_partial_tube(ProductSpace(1, 3), base={"kind": "geodesic", "k": 0}, profile={"coords": coords, "domain": domain})


def test_partial_tube_k0_reduces_to_vertical_cylinder():
    sp3 = ProductSpace(1, 3)
    tube = make_partial_tube(sp3, base={"kind": "geodesic", "k": 0}, profile={"coords": ["1", "s"]})
    cyl = make_vertical_cylinder(sp3)
    U = random_interior_points(tube, 10, seed=47)
    assert np.allclose(evaluate_jet(tube, U).values, evaluate_jet(cyl, U).values, atol=1e-12)
    assert _rows(tube, U).eta_norm.max() <= 1e-12


@pytest.mark.parametrize("eps", [1, -1])
def test_cmc_product_constant_H(eps):
    ch = make_cmc_product(ProductSpace(eps, 3), 0.7)
    want = (2.0 / 3.0) * (1 / math.tan(0.7) if eps == 1 else 1 / math.tanh(0.7))
    assert np.allclose(_rows(ch, random_interior_points(ch, 10, seed=48)).H_norm, want, atol=1e-10)


def test_cmc_product_equator_minimal_and_vertical():
    ch = make_cmc_product(ProductSpace(1, 3), math.pi / 2)
    assert "minimal" in ch.label
    rows = _rows(ch, [[0.1, 0.2, -0.1]])
    assert rows.H_norm[0] <= 1e-14
    assert rows.eta_norm[0] <= 1e-14


def test_cmc_product_parameter_range():
    with pytest.raises(ChartError):
        make_cmc_product(ProductSpace(1, 3), 2.0)
    with pytest.raises(ChartError):
        make_cmc_product(ProductSpace(-1, 3), -0.3)


def test_gallery_registry_and_factory(s4):
    assert set(GALLERY) == {
        "slice",
        "vertical_cylinder",
        "theorem1",
        "partial_tube",
        "cmc_product",
    }
    assert "eps=+1: a^2+b^2=1" in GALLERY["theorem1"]["constraints"]
    assert "sum alpha_i^2 = 1" in GALLERY["partial_tube"]["constraints"]
    ch = make_chart(s4, {"kind": "slice", "t0": 0.1})
    assert ch.label.startswith("slice")
    with pytest.raises(SceneError, match="unknown gallery kind"):
        make_chart(s4, {"kind": "nope"})


def test_expression_curve_cylinder(s4):
    ch = make_vertical_cylinder(
        s4,
        {
            "kind": "exprs",
            "coords": ["cos(u1)", "sin(u1)", "0", "0", "0"],
        },
    )
    ref = make_vertical_cylinder(s4)
    for u in random_interior_points(ch, 5, seed=49):
        assert np.allclose(
            evaluate_jet(ch, u).values, evaluate_jet(ref, u).values, atol=1e-14
        )


def test_membership_oracle_on_all_generators(all_gallery_charts):
    for ch in all_gallery_charts:
        worst = max(
            membership_residual(ch.space, evaluate_jet(ch, u).values)
            for u in probe_grid(ch.domain, 5)
        )
        assert worst <= 1e-12, ch.label


def _template_cases(eps):
    """(space, spec, scan) of every gallery kind at one sign of eps: one
    step of each, a 61-step family of each scannable parameter, the circle
    and ``exprs`` curves, the custom phi, the partial tube with k = 0, 1, 2
    and on a circle, and cmc_product at n = 3 and 4."""
    s3, s4 = ProductSpace(eps, 3), ProductSpace(eps, 4)
    c, s = ("cos", "sin") if eps == 1 else ("cosh", "sinh")
    a, a_range = (0.8, (0.3, 0.9)) if eps == 1 else (1.25, (1.1, 1.9))
    steps = lambda lo, hi: list(np.linspace(lo, hi, 61))
    circle = ["cos(q)", "sin(q)*cos(u1)", "sin(q)*sin(u1)", "0", "0"]
    if eps == -1:
        circle[:3] = ["cosh(q)", "sinh(q)*cos(u1)", "sinh(q)*sin(u1)"]
    custom = {"coords": [f"q*{c}(u1/q)", f"q*{s}(u1/q)", "0", "u2"], "params": {"q": a}}
    tube2 = [f"{c}(0.4*s)", f"{s}(0.4*s)*cos(0.3*s)", f"{s}(0.4*s)*sin(0.3*s)", "0.6*s"]
    return [
        (s4, {"kind": "slice", "t0": 0.25}, None),
        (s4, {"kind": "slice"}, ("t0", steps(-1.0, 1.0))),
        (s4, {"kind": "vertical_cylinder"}, None),
        (s4, {"kind": "vertical_cylinder", "curve": {"kind": "circle", "r": 0.7}}, None),
        (s4, {"kind": "vertical_cylinder", "curve": {"kind": "exprs", "coords": circle, "params": {"q": 0.7}}}, None),
        (s4, {"kind": "theorem1", "a": a}, None),
        (s4, {"kind": "theorem1", "a": a, "phi_kind": "helicoid", "phi_params": {"pitch": 0.5}}, None),
        (s4, {"kind": "theorem1", "a": a, "phi_kind": "custom", "phi_params": custom}, None),
        (s4, {"kind": "theorem1", "a": a}, ("a", steps(*a_range))),
        (s4, {"kind": "theorem1", "a2": a * a, "phi_kind": "helicoid"}, ("a2", steps(*(x * x for x in a_range)))),
        (s3, {"kind": "partial_tube", "base": {"kind": "geodesic", "k": 0}, "profile": {"coords": ["1", "0.6*s"]}}, None),
        (s3, {"kind": "partial_tube"}, None),
        (s4, {"kind": "partial_tube", "base": {"kind": "circle", "r": 0.5}}, None),
        (s4, {"kind": "partial_tube", "base": {"kind": "geodesic", "k": 2}, "profile": {"coords": tube2}}, None),
        (s3, {"kind": "cmc_product", "r": 0.7}, None),
        (s4, {"kind": "cmc_product", "r": 0.7}, None),
        (s3, {"kind": "cmc_product", "r": 0.7}, ("r", steps(0.2, 1.5))),
    ]


def _closure_jet(closures, U, m, order):
    """The jet of the oracle's closures at the rows U (N, m), each
    component broadcast to the batch as ``immersion._coordinates`` does."""
    seeds = tuple(jets.jet_var(i, U[:, i], m, order) for i in range(m))
    comps = []
    with np.errstate(over="ignore", invalid="ignore"):
        for coord in closures:
            c = coord(seeds)
            comps.append(c if c.value.ndim else Jet2(np.full(len(U), c.value), *c.d[1:]))
    return VecJet2(comps)


def _bits(x):
    return x.shape, x.tobytes()


@pytest.mark.parametrize("eps", [1, -1])
def test_every_template_is_its_closure_bit_for_bit(eps):
    # the templates against the hand-written closures they replaced
    # (``reference_gallery``), at orders 0, 2, 3 and 4: every slot bit for
    # bit, NaN and -0.0 included, at the probe grid and interior points of
    # every step.  The partial tube's closures multiplied alpha_i by the
    # constant jets of gamma and of the base normals, whose Leibniz terms
    # add a +0.0 where a product with a number gives -0.0; its slots agree
    # bit for bit up to the sign of a zero.
    for space, spec, scan in _template_cases(eps):
        chart = make_chart(space, spec, scan)
        count = len(chart.family)
        assert count == (len(scan[1]) if scan else 1), chart.label
        grid = np.vstack([probe_grid(chart.domain, 3), random_interior_points(chart, 5, seed=50)])
        U, steps = np.tile(grid, (count, 1)), np.repeat(np.arange(count), len(grid))
        closures = reference_gallery.coords(space, spec, scan)(steps)
        signed = 0.0 if spec["kind"] == "partial_tube" else -0.0  # x + -0.0 keeps the sign of a zero
        for order in (0, 2, 3, 4):
            got, want = _coordinates(chart, U, steps, order), _closure_jet(closures, U, chart.m, order)
            assert len(got.d) == len(want.d), (chart.label, order)
            for k, (x, y) in enumerate(zip(got.d, want.d)):
                assert _bits(x + signed) == _bits(y + signed), (chart.label, scan and scan[0], order, k)
