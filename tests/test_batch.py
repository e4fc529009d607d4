"""The batch axis of the jet and geometry pipeline.

A batch of N points runs every step row by row, so each row is bit for bit
what a single-point call gives, whatever else is in the batch.  Stencils and
probes are evaluated as such batches; these tests pin that equality, the
stencil points a prefetch fills, and that errors at stencil points still
surface exactly as a point-by-point evaluation raises them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import prodsub.extrinsic
import prodsub.immersion
import prodsub.scene
from prodsub import jets
from prodsub.cli import main
from prodsub.errors import ChartError
from prodsub.extrinsic import (
    FieldCache,
    first_layer,
    nested_layer,
    normal_laplacian_H,
    second_fundamental,
)
from prodsub.immersion import Chart, analyze_point, evaluate_jet, probe_grid
from prodsub.jets import fd_gradient, fd_stencil, jet_var
from prodsub.scene import build_chart, load_scene
from conftest import random_interior_points

SCENES = Path(__file__).resolve().parent.parent / "scenes"
EXPR_SCENES = ("theorem1_cylinder_expr.json", "slice_expr.json", "vertical_cylinder_expr.json")


def _same(a, b) -> bool:
    """Equal shape and equal bytes: -0.0 and 0.0 differ, NaN equals itself."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _load(name):
    return load_scene(str(SCENES / name))


@pytest.fixture(scope="module")
def batch_charts(all_gallery_charts):
    return list(all_gallery_charts) + [build_chart(_load(n)) for n in EXPR_SCENES]


def _geometry_fields(pg):
    return [
        np.array(pg.tangent_onb),
        pg.tangent_coeffs,
        np.array(pg.normal_onb),
        pg.T_ambient,
        pg.T_coeffs,
        pg.T_norm,
        pg.eta,
        pg.eta_norm,
    ]


def test_batch_rows_equal_single_point_calls(batch_charts):
    for ch in batch_charts:
        U = random_interior_points(ch, 9, seed=21)
        vj = evaluate_jet(ch, U)
        batch = analyze_point(ch, U)
        eds = second_fundamental(batch)
        assert len(batch) == len(eds) == len(U)
        for i, u in enumerate(U):
            one = evaluate_jet(ch, u)
            for a, b in ((vj.values[i], one.values), (vj.jac[i], one.jac), (vj.d2[i], one.d2)):
                assert _same(a, b), ch.label
            pg = analyze_point(ch, u)
            for a, b in zip(_geometry_fields(batch.point(i)), _geometry_fields(pg)):
                assert _same(a, b), ch.label
            ed = second_fundamental(pg)
            assert _same(np.array(eds[i].alpha), np.array(ed.alpha)), ch.label
            assert _same(eds[i].H, ed.H) and _same(eds[i].H_norm, ed.H_norm), ch.label


def test_batch_rows_do_not_depend_on_batch_composition(batch_charts):
    for ch in batch_charts:
        U = random_interior_points(ch, 10, seed=5)
        full = second_fundamental(analyze_point(ch, U))
        rev = second_fundamental(analyze_point(ch, U[::-1]))[::-1]
        halves = second_fundamental(analyze_point(ch, U[:3])) + second_fundamental(
            analyze_point(ch, U[3:])
        )
        for other in (rev, halves):
            for a, b in zip(full, other):
                for x, y in zip(_geometry_fields(a.pg), _geometry_fields(b.pg)):
                    assert _same(x, y), ch.label
                assert _same(np.array(a.alpha), np.array(b.alpha)), ch.label
                assert _same(a.H, b.H), ch.label


def test_batched_unary_jets_equal_scalar_jets():
    x = np.linspace(0.2, 1.9, 13)
    for name, fn in sorted(jets.UNARY_FNS.items()):
        batch = fn(jet_var(0, x, 1) * 0.7 + 0.1)
        for i, xi in enumerate(x):
            one = fn(jet_var(0, xi, 1) * 0.7 + 0.1)
            assert _same(batch.value[i], one.value), name
            assert _same(batch.grad[i], one.grad) and _same(batch.hess[i], one.hess), name


def test_batched_domain_error_reports_first_offending_value():
    with pytest.raises(jets.JetDomainError) as err:
        jets.log(jet_var(0, np.array([1.0, -2.0, 0.0, -3.0]), 1))
    assert str(err.value) == "log: argument -2.0 outside the function domain"
    assert err.value.value == -2.0


def test_batched_overflow_raises_like_math():
    x = jet_var(0, np.array([1.0, 800.0]), 1)
    for fn in (jets.exp, jets.sinh, jets.cosh):
        with pytest.raises(OverflowError, match="^math range error$"):
            fn(x)
    with pytest.raises(OverflowError, match="Numerical result out of range"):
        jets.pow_const(jet_var(0, np.array([2.0, 1e200]), 1), 2)
    with np.errstate(invalid="ignore"):  # inf * 0 in the Hessian, as with floats
        assert jets.exp(jet_var(0, np.array([np.inf]), 1)).value[0] == np.inf


def test_fd_gradient_reads_the_stencil_points():
    u = np.array([0.3, -1.7, 0.05])
    for i in range(3):
        seen = []
        fd_gradient(lambda v: seen.append(np.array(v)) or v, u, i)
        assert _same(np.array(seen), fd_stencil(u, i)[1])
        seen.clear()
        fd_gradient(lambda v: seen.append(np.array(v)) or v, u, i, step=5e-4)
        assert _same(np.array(seen), fd_stencil(u, i, 5e-4)[1])


def _count_analyze(monkeypatch):
    shapes = []
    original = prodsub.extrinsic.analyze_point

    def counting(chart, u):
        shapes.append(np.shape(u))
        return original(chart, u)

    monkeypatch.setattr(prodsub.extrinsic, "analyze_point", counting)
    return shapes


def test_pmc_check_prefetches_its_stencil_in_one_batch(monkeypatch):
    chart = build_chart(_load("theorem1_cylinder.json"))
    shapes = _count_analyze(monkeypatch)
    u = chart.center() + np.array([0.1, -0.2, 0.3])
    cache = FieldCache(chart)
    ctx = prodsub.scene.CheckContext(chart, u, cache, (0, 0, 0))
    prodsub.scene.CHECKS["pmc"](ctx)
    m = chart.m
    assert shapes == [(1 + 4 * m, m)]
    keys = {tuple(p) for p in first_layer(u).tolist()}
    assert len(keys) == 1 + 4 * m
    assert set(cache._memo) == keys


def test_nested_laplacian_prefetches_its_stencils_in_one_batch(monkeypatch, theorem1_heli):
    shapes = _count_analyze(monkeypatch)
    cache = FieldCache(theorem1_heli)
    normal_laplacian_H(theorem1_heli, np.array([0.2, -0.3, 0.4]), cache)
    m = theorem1_heli.m
    assert shapes == [((1 + 4 * m) ** 2, m)]
    assert len(cache._memo) == (1 + 4 * m) ** 2 == len(nested_layer([0.2, -0.3, 0.4]))


def test_validate_membership_is_one_batched_jet(monkeypatch, theorem1_cyl):
    shapes = []
    original = prodsub.immersion.evaluate_jet

    def counting(chart, u):
        shapes.append(np.shape(u))
        return original(chart, u)

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", counting)
    theorem1_cyl.validate_membership()
    assert shapes == [(125, 3)]


def test_batch_error_is_the_first_failing_point_error(s4):
    # row 0 fails at coordinate 5 only; later rows fail at coordinate 0, the
    # coordinate a batch evaluates first
    chart = Chart(
        space=s4,
        m=2,
        coords=["cos(u2) + 0*sqrt(-u1)", "sin(u2)", "0", "0", "0", "sqrt(u1 + 0.9)"],
        domain=[(-1.0, 1.0), (-0.5, 0.5)],
    )
    grid = probe_grid(chart.domain, 5)
    with pytest.raises(ChartError) as single:
        evaluate_jet(chart, grid[0])
    assert str(single.value).startswith("coordinate 5 failed at u=")
    for call in (lambda: evaluate_jet(chart, grid), chart.validate_membership):
        with pytest.raises(ChartError) as err:
            call()
        assert str(err.value) == str(single.value)


def _stencil_scene(tmp_path, coords, u1_domain, grid):
    scene = {
        "ambient": {"epsilon": 1, "n": 2},
        "immersion": {
            "expressions": {
                "m": 2,
                "coords": coords,
                "domain": [u1_domain, [-0.5, 0.5]],
                "var_names": ["u1", "u2"],
            }
        },
        "sampling": {"mode": "grid", "grid": grid},
        "checks": ["pmc"],
    }
    path = tmp_path / "stencil.json"
    path.write_text(json.dumps(scene))
    return path


def test_domain_error_at_a_stencil_point_exits_3(tmp_path, capsys):
    # the first sample sits at u1 = 2e-6, inside the base step of u1 = 0,
    # so the stencil point u - h e_1 takes sqrt of a negative number
    path = _stencil_scene(tmp_path, ["cos(u2)", "sin(u2)", "0", "sqrt(u1)"], [0.0, 1e-4], [2, 1])
    assert main(["run", "--scene", str(path)]) == 3
    chart = build_chart(json.loads(path.read_text()))
    center = prodsub.scene.sample_points(chart, {"mode": "grid", "grid": [2, 1]})[0]
    assert center[0] == pytest.approx(2e-6)
    bad = fd_stencil(center, 0)[1][1]
    assert bad[0] < 0.0
    want = (
        f"computation error: check pmc failed at sample 0, u={center.tolist()}: "
        f"coordinate 3 failed at u={bad.tolist()}: at position 0: "
        f"sqrt: argument {float(bad[0])!r} outside the function domain"
    )
    assert capsys.readouterr().err.strip() == want


def test_irregular_stencil_point_exits_3(tmp_path, capsys):
    # t = u1^3 gives det g = 9 u1^4, below 1e-12 for u1 < 5.7735e-4: the
    # sample at u1 = 5.8e-4 is regular, its stencil point u - h e_1 is not
    path = _stencil_scene(
        tmp_path, ["cos(u2)", "sin(u2)", "0", "u1^3"], [5.7e-4, 5.9e-4], [1, 1]
    )
    chart = build_chart(json.loads(path.read_text()))
    center = prodsub.scene.sample_points(chart, {"mode": "grid", "grid": [1, 1]})[0]
    analyze_point(chart, center)  # regular
    bad = fd_stencil(center, 0)[1][1]
    with pytest.raises(prodsub.errors.IrregularPoint) as err:
        analyze_point(chart, bad)
    assert str(err.value).startswith("det g = 9.7")
    assert main(["run", "--scene", str(path)]) == 3
    want = (
        f"computation error: check pmc failed at sample 0, u={center.tolist()}: {err.value}"
    )
    assert capsys.readouterr().err.strip() == want
