"""The batch axis of the jet and geometry pipeline.

A batch of N points runs every step row by row, so each row is bit for bit
what a single-point call gives, whatever else is in the batch.  Samples,
probes and the nesting samples of the normal Laplacian are evaluated as
such batches; these tests pin that equality, the points and jet order each
call takes, that the exact derivatives agree with finite differences, and
that errors at sample centers surface exactly as a point-by-point
evaluation raises them.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import prodsub.ambient
import prodsub.classify
import prodsub.extrinsic
import prodsub.immersion
import prodsub.scene
from prodsub import jets
from prodsub import exprlang
from prodsub.cli import main
from prodsub.errors import ChartError
from prodsub.extrinsic import (
    FieldCache,
    geometry,
    normal_derivative_H,
    normal_laplacian_H,
    second_fundamental,
)
from prodsub.immersion import Chart, analyze_point, evaluate_jet, probe_grid
from prodsub.jets import fd_gradient, jet_var
from prodsub.scene import build_chart, load_scene
import grammar_cases
import reference_jets
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


def _geometry_fields(b, i):
    """The frame-bundle arrays of row i of a PointBatch."""
    return [b.tangent_onb[i], b.tangent_coeffs[i], b.normal_onb[i], b.T_ambient[i], b.T_coeffs[i], b.T_norm[i],
            b.eta[i], b.eta_norm[i]]


def test_batch_rows_equal_single_point_calls(batch_charts):
    # a single point, a batch of one, is bit for bit its row of a larger batch
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
            single = second_fundamental(analyze_point(ch, u[None]))
            assert len(single) == 1 and single.errors == [None], ch.label
            for a, b in zip(_geometry_fields(batch, i), _geometry_fields(single, 0)):
                assert _same(a, b), ch.label
            assert _same(eds.alpha[i], single.alpha[0]), ch.label
            assert _same(eds.H[i], single.H[0]) and _same(eds.H_norm[i], single.H_norm[0]), ch.label


def test_batch_rows_do_not_depend_on_batch_composition(batch_charts):
    for ch in batch_charts:
        U = random_interior_points(ch, 10, seed=5)
        full, rev, first, last = (second_fundamental(analyze_point(ch, V)) for V in (U, U[::-1], U[:3], U[3:]))
        n = len(U)
        # (rows, row) of sample i in the reversed and in the split batches
        for i in range(n):
            for eds, r in ((rev, n - 1 - i), (first, i) if i < 3 else (last, i - 3)):
                for x, y in zip(_geometry_fields(full, i), _geometry_fields(eds, r)):
                    assert _same(x, y), ch.label
                assert _same(full.alpha[i], eds.alpha[r]), ch.label
                assert _same(full.H[i], eds.H[r]), ch.label


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
    # u + h e_i, u - h e_i, u + h/2 e_i and u - h/2 e_i, in that order, with
    # the base step cbrt(eps) max(1, |u_i|) or the step given
    u = np.array([0.3, -1.7, 0.05])
    for i in range(3):
        for step, h in ((None, jets.FD_BASE_STEP * max(1.0, abs(u[i]))), (5e-4, 5e-4)):
            seen = []
            fd_gradient(lambda v: seen.append(np.array(v)) or v, u, i, step)
            want = np.repeat(u[None], 4, axis=0)
            want[:, i] += h * np.array([1.0, -1.0, 0.5, -0.5])
            assert _same(np.array(seen), want)


def _count_analyze(monkeypatch):
    """Record the (shape, jet order) of every ``analyze_point`` call of the geometry."""
    calls = []
    original = prodsub.extrinsic.analyze_point

    def counting(chart, u, steps=0, order=2):
        calls.append((np.shape(u), order))
        return original(chart, u, steps, order)

    monkeypatch.setattr(prodsub.extrinsic, "analyze_point", counting)
    return calls


def test_pmc_check_reads_its_center_alone(monkeypatch, theorem1_cyl):
    # a pmc run takes the 3-jet of its samples and nothing around them; a
    # FieldCache keeps a point's order-3 geometry for the kernels
    calls = _count_analyze(monkeypatch)
    u = theorem1_cyl.center() + np.array([0.1, -0.2, 0.3])
    _run_rows(theorem1_cyl, ["pmc"], u[None])
    assert calls == [((1, 3), 3)]
    cache = FieldCache(theorem1_cyl)
    normal_derivative_H(cache.geometry(u[None]))
    normal_derivative_H(cache.geometry(u[None]))  # the cache keeps u's geometry
    assert calls == [((1, 3), 3)] * 2


def _count_nested_jets(monkeypatch):
    """Record the (points, jet order) of every ``evaluate_jet`` call of
    ``classify``, which takes the 4-jets of the nested rows."""
    calls = []
    original = prodsub.classify.evaluate_jet

    def counting(chart, u, steps=0, order=2):
        calls.append((np.array(u), order))
        return original(chart, u, steps, order)

    monkeypatch.setattr(prodsub.classify, "evaluate_jet", counting)
    return calls


def test_nested_laplacian_takes_one_order_four_call(monkeypatch, theorem1_heli):
    # the rows of a batch that nest, and only those, go to one evaluate_jet
    # call at order 4 and keep the frames of the batch's one analyze_point
    # call: here rows 0 and 2, as row 1 counts as PMC
    calls, fourth = _count_analyze(monkeypatch), _count_nested_jets(monkeypatch)
    U = random_interior_points(theorem1_heli, 3, seed=4)
    rows = geometry(theorem1_heli, U, order=3)
    rows.nabla_H = normal_derivative_H(rows)
    rows.nabla_H[1] = 0.0
    r = prodsub.classify.biharmonic_residual(rows)
    assert r["nested"].tolist() == [True, False, True]
    assert calls == [((3, 3), 3)]
    assert [(u.shape, order) for u, order in fourth] == [((2, 3), 4)]
    assert _same(fourth[0][0], U[[0, 2]])


def test_nested_rows_reuse_the_frames_of_their_batch(monkeypatch, all_gallery_charts):
    # every gallery kind at both signs of eps: the normal Laplacian of the
    # nested rows is bit for bit the one of a fresh order-4 geometry call of
    # them.  nabla^perp H is moved off PMC, so that every row with H != 0
    # nests; it enters both sides alike.  The slices and geodesic vertical
    # cylinders are minimal and nest nothing.
    laps = []
    original = prodsub.classify.normal_laplacian_H
    monkeypatch.setattr(prodsub.classify, "normal_laplacian_H", lambda rows, W: laps.append(original(rows, W)) or laps[-1])
    for ch in all_gallery_charts:
        U = random_interior_points(ch, 4, seed=21)
        rows = geometry(ch, U, order=3)
        rows.nabla_H = nabla_H = normal_derivative_H(rows) + 1e-3
        laps.clear()
        at = np.flatnonzero(prodsub.classify.biharmonic_residual(rows)["nested"])
        assert at.size == (0 if np.all(rows.H_norm == 0.0) else len(U)) and len(laps) == bool(at.size), ch.label
        if at.size:
            assert _same(laps[0], original(geometry(ch, U[at], order=4), nabla_H[at])), ch.label


def test_validate_membership_is_one_batched_jet(monkeypatch, theorem1_cyl):
    # one batch of the probe grid, which asks for values only
    calls = []
    original = prodsub.immersion.evaluate_jet

    def counting(chart, u, *steps, **kwargs):
        calls.append((np.shape(u), kwargs.get("order", 2)))
        return original(chart, u, *steps, **kwargs)

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", counting)
    theorem1_cyl.validate_membership()
    assert calls == [((125, 3), 0)]


def _failing_coordinate_chart(space) -> Chart:
    """A chart whose probe point 0 fails at coordinate 5 only and whose
    later failing probe points fail at coordinate 0."""
    return Chart(
        space=space,
        m=2,
        coords=["cos(u2) + 0*sqrt(-u1)", "sin(u2)", "0", "0", "0", "sqrt(u1 + 0.9)"],
        domain=[(-1.0, 1.0), (-0.5, 0.5)],
    )


def test_batch_error_is_the_first_failing_point_error(s4):
    # row 0 fails at coordinate 5 only; later rows fail at coordinate 0, the
    # coordinate a batch evaluates first.  Each failing row of the batch
    # records the error its point raises on its own, and the membership
    # check raises the first of them
    chart = _failing_coordinate_chart(s4)
    grid = probe_grid(chart.domain, 5)
    jet = evaluate_jet(chart, grid)
    singles = []
    for u, err in zip(grid, jet.errors):
        try:
            evaluate_jet(chart, u)
        except ChartError as single:
            singles.append(str(single))
            assert isinstance(err, ChartError) and str(err) == str(single)
        else:
            assert err is None
    assert singles[0].startswith("coordinate 5 failed at u=")
    assert any(s.startswith("coordinate 0 failed at u=") for s in singles)
    with pytest.raises(ChartError) as err:
        chart.validate_membership()
    assert str(err.value) == singles[0] == str(jet.errors[0])


def test_values_only_jets_are_the_2_jet_values(s4, all_gallery_charts):
    # the membership probes read values only: over the probe grid and
    # interior points of every gallery kind at both signs of eps, every
    # corpus scene, the 61 steps of the criterion-4a family and a chart
    # whose coordinates fail, the values are bit for bit those of the
    # 2-jet, NaN included, and each row's error is the same
    for ch, U, steps in _jet_cases(s4, all_gallery_charts):
        full, values = evaluate_jet(ch, U, steps), evaluate_jet(ch, U, steps, order=0)
        assert _same(values.values, full.values), ch.label
        assert values.jac.shape == (len(U), len(ch.coords), 0) and values.d2.shape == (len(U), len(ch.coords), 0, 0)
        assert [e and str(e) for e in values.errors] == [e and str(e) for e in full.errors], ch.label
    assert np.isnan(values.values).any() and any(values.errors)  # the failing chart has failing rows


# S^3 x R charts through the Hopf coordinates, m = 3: 125 probe points a
# step, so the 20 values of p are one membership block of 2,500 points.
# Step 13 (p = 0.225) is the first that fails: the factor
# 1 + exp(5000 (p - 0.215)) is 1 within 2e-22 up to step 12, and
# sqrt(u1 - p) first meets the probe points at u1 = 0.22 there.
_HOPF = ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)*cos(u3)", "sin(u1)*sin(u3)", "u1 + u2"]
_OFF_PRODUCT = "cos(u1)*cos(u2)*(1 + exp(5000*(p - 0.215)))"
_LATE_STEP = {
    "off_product": (0, _OFF_PRODUCT,
                    "chart expressions leaves the product: membership residual 2.560e+43 > 1.0e-09"),
    "domain_error": (4, "u1 + u2 + 0*sqrt(u1 - p)",
                     "coordinate 4 failed at u=[0.22, -0.48, -0.48]: at position 12: sqrt: argument "
                     "-0.0050000000000000044 outside the function domain"),
}
_P_VALUES = [float(v) for v in np.linspace(-0.035, 0.345, 20)]


def _hopf_scene(edits: dict, p: float = 0.0) -> dict:
    """The membership scene of the Hopf chart with coordinate slot i set to edits[i]."""
    coords = [edits.get(i, c) for i, c in enumerate(_HOPF)]
    expressions = {"m": 3, "coords": coords, "params": {"p": p}, "var_names": ["u1", "u2", "u3"],
                   "domain": [[0.2, 1.2], [-0.5, 0.5], [-0.5, 0.5]]}
    return {"ambient": {"epsilon": 1, "n": 3}, "immersion": {"expressions": expressions},
            "sampling": {"mode": "grid", "grid": [2, 2, 2]}, "checks": ["membership"]}


def _count_coordinate_rows(monkeypatch) -> list:
    """The row count of each ``immersion._coordinates`` call from now on."""
    rows = []
    original = prodsub.immersion._coordinates

    def counting(chart, U, *args):
        rows.append(len(U))
        return original(chart, U, *args)

    monkeypatch.setattr(prodsub.immersion, "_coordinates", counting)
    return rows


@pytest.mark.parametrize("case", sorted(_LATE_STEP))
def test_a_build_stops_at_its_first_failing_step_in_a_later_block(case, monkeypatch, tmp_path, capsys):
    slot, coord, message = _LATE_STEP[case]
    scene = _hopf_scene({slot: coord})
    rows = _count_coordinate_rows(monkeypatch)
    family = build_chart(scene, ("p", _P_VALUES)).family
    assert len(family) == 13 and str(family.error) == message
    if case == "off_product":  # nothing raises: the one block is one call
        assert rows == [20 * 125]
    else:  # the block raises: halves of whole steps down to step 13, whose rows alone are replayed
        assert len([n for n in rows if n > 125]) <= 2 * math.ceil(math.log2(20))
        assert all(n % 125 == 0 or n == 1 for n in rows) and rows.count(1) <= 125

    monkeypatch.undo()
    path = tmp_path / "scene.json"
    scan = ["scan", "--scene", str(path), "--param", "p", "--from", "-0.035", "--to", "0.345", "--steps", "20",
            "--residual", "membership"]
    for p, argv, code in ((_P_VALUES[12], ["run"], 0), (_P_VALUES[13], ["run"], 3), (0.0, scan, 3)):
        scene["immersion"]["expressions"]["params"]["p"] = p
        path.write_text(json.dumps(scene))
        capsys.readouterr()
        assert main(argv + ["--scene", str(path)] if argv == ["run"] else argv) == code
        if code:
            assert capsys.readouterr().err == f"computation error: {message}\n"


_FAILURES = {  # name: (coordinate edits, the first failing step)
    "domain_error": ({4: _LATE_STEP["domain_error"][1]}, 13),
    "off_product": ({0: _OFF_PRODUCT}, 13),
    # step 13 leaves the product and step 14, in the same block, raises first at u1 = 0.22
    "off_product_before_domain": ({0: _OFF_PRODUCT, 4: "u1 + u2 + 0*sqrt(u1 - p + 0.01)"}, 13),
    "every_step_domain": ({4: "u1 + u2 + 0*sqrt(p - 1)"}, 0),
}


@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_the_first_failing_step_does_not_depend_on_the_block_bound(case, monkeypatch):
    # blocks of one step, of two steps and of the default bound stop the
    # family at the same step, with the error that step gives on its own
    edits, stop = _FAILURES[case]
    with pytest.raises(ChartError) as alone:
        build_chart(_hopf_scene(edits, _P_VALUES[stop]))
    rows = _count_coordinate_rows(monkeypatch)
    for bound in (125, 250, prodsub.immersion._PROBE_POINTS):
        monkeypatch.setattr(prodsub.immersion, "_PROBE_POINTS", bound)
        rows.clear()
        if stop:
            family = build_chart(_hopf_scene(edits), ("p", _P_VALUES)).family
            assert (len(family), str(family.error)) == (stop, str(alone.value)), bound
        else:  # step 0 fails: the build raises its error, after halving the block down to it
            with pytest.raises(ChartError) as first:
                build_chart(_hopf_scene(edits), ("p", _P_VALUES))
            assert str(first.value) == str(alone.value), bound
            assert len([n for n in rows if n > 125]) <= math.ceil(math.log2(20)) + 1, bound


def _same_other_rows(rows, clean, bad: int) -> bool:
    """Whether every row of ``rows`` but ``bad`` is bit for bit its row of ``clean``, the batch without it."""
    pairs = [(i, i - (i > bad)) for i in range(len(rows)) if i != bad]
    return all(
        all(_same(a, b) for a, b in zip(_geometry_fields(rows, i), _geometry_fields(clean, j)))
        and _same(rows.alpha[i], clean.alpha[j]) and _same(rows.H[i], clean.H[j])
        for i, j in pairs
    )


def test_a_failing_coordinate_fails_only_its_row(s4):
    # log of a negative number at row 2 alone: that row holds NaN and the
    # error its point raises on its own, the others what a clean batch gives
    chart = Chart(
        space=s4, m=2, coords=["cos(u2)", "sin(u2)", "0", "0", "0", "u1 + 0*log(u1 + 0.9)"],
        domain=[(-1.0, 1.0), (-0.5, 0.5)],
    )
    U = np.array([[0.3, 0.1], [-0.5, -0.2], [-0.95, 0.0], [0.7, 0.4]])
    rows = geometry(chart, U)
    with pytest.raises(ChartError) as alone:
        evaluate_jet(chart, U[2])
    assert [e and str(e) for e in rows.errors] == [None, None, str(alone.value), None]
    jet = evaluate_jet(chart, U)
    assert [e and str(e) for e in jet.errors] == [None, None, str(alone.value), None]
    assert np.isnan(jet.values[2]).all() and np.isnan(jet.jac[2]).all() and np.isnan(jet.d2[2]).all()
    assert _same_other_rows(rows, geometry(chart, np.delete(U, 2, axis=0)), 2)


def test_a_non_finite_metric_fails_only_its_own_sample(s4):
    # t overflows to inf for u1 > 0.3 without raising: the metric of the
    # second sample is not finite, which fails that sample alone
    w = "(1 + 0.5e300*(1 + tanh(10000*(u1 - 0.3))))"
    t = f"u1*{w}*{w}"
    chart = Chart(space=s4, m=2, coords=["cos(u2)", "sin(u2)", "0", "0", "0", t], domain=[(-1.0, 1.0), (-0.5, 0.5)])
    U = np.array([[0.1, 0.0], [0.5, 0.1], [-0.4, 0.2]])
    rows = geometry(chart, U)
    assert [e and str(e) for e in rows.errors] == [None, "induced metric not finite at u=[0.5, 0.1]", None]
    assert _same_other_rows(rows, geometry(chart, U[[0, 2]]), 1)
    names = ["membership", "class_a", "pmc"]
    assert _outcome(_run_rows, chart, names, U) == (
        "check membership failed at sample 1, u=[0.5, 0.1]: induced metric not finite at u=[0.5, 0.1]"
    )
    assert len(_rows(chart, names, U, [0, 2])) == 2 * len(names)


def _narrow_scene(tmp_path, theta, t, u1_domain, grid):
    """An S^2 x R scene of biharmonic_normal on the surface of latitude
    ``theta`` and height ``t`` over a narrow u1 interval, longitude u2,
    which is not PMC, so that every sample nests."""
    coords = [f"cos({theta})*cos(u2)", f"cos({theta})*sin(u2)", f"sin({theta})", t]
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
        "checks": ["biharmonic_normal"],
    }
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(scene))
    return path


@pytest.mark.parametrize(
    "theta, t, u1_domain, grid",
    [
        # the first sample sits at u1 = 2e-6, 2e-6 from the edge of the
        # domain of sqrt(u1)
        ("0.5 + u1", "sqrt(u1)", [0.0, 1e-4], [2, 1]),
        # latitude and height u1^3 give g = diag(18 u1^4, cos^2(0.5 + u1^3)),
        # which degenerates at u1 = 0: the sample at u1 = 5.8e-4, where
        # det g = 1.6e-12, is regular
        ("0.5 + u1^3", "u1^3", [5.7e-4, 5.9e-4], [1, 1]),
    ],
    ids=["domain_edge", "irregular_point"],
)
def test_a_narrow_chart_takes_its_normal_laplacian_at_the_samples(tmp_path, capsys, theta, t, u1_domain, grid):
    # the normal Laplacian reads the samples' own 4-jets and no point
    # around them, so a chart narrower than any stencil gives a verdict
    path = _narrow_scene(tmp_path, theta, t, u1_domain, grid)
    assert main(["run", "--scene", str(path), "--format", "json"]) == 1
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["verdict"] == "FAIL" and np.isfinite(check["max_residual"])
    assert check["notes"] == prodsub.scene._NESTED_NOTE and check["derivative_tier"] == "jet-exact"


# -- the run-level batch: every sample of a chunk in one call ----------------

POINTWISE_CHECKS = [
    "membership", "frames", "unit_norm", "h_eta", "mean_curvature", "class_a",
    "e0", "biharmonic_predicate",
]


def _rows(chart, names, samples, indices):
    """The chunk columns of ``_compute_rows`` flattened into (check, index,
    u, value, note, degenerate) records, sample by sample in the order of
    ``names``."""
    chunks = prodsub.scene._compute_rows(chart, names, samples, indices)
    cells = {  # each check's (value, note, degenerate) in the order of indices
        name: [cell for c in chunks for cell in zip(c[name][0].tolist(), c[name][1], c[name][2].tolist())]
        for name in names
    }
    return [(name, idx, samples[idx].tolist(), *cells[name][j]) for j, idx in enumerate(indices) for name in names]


def _reference_rows(chart, names, samples):
    """The rows of each sample on its own: one chunk of one sample per call,
    so its geometry and its checks see no other sample."""
    rows = []
    for idx in range(len(samples)):
        rows += _rows(chart, names, samples, [idx])
    return rows


def _run_rows(chart, names, samples):
    return _rows(chart, names, samples, range(len(samples)))


def _outcome(rows_of, *args):
    try:
        return rows_of(*args)
    except prodsub.errors.EngineError as exc:
        return str(exc)


def _same_rows(a, b) -> bool:
    return len(a) == len(b) and all(
        x[:3] == y[:3] and x[4:] == y[4:] and _same(x[3], y[3]) for x, y in zip(a, b)
    )


def test_a_run_evaluates_its_samples_in_one_batch(monkeypatch):
    calls = []
    original = prodsub.immersion.evaluate_jet

    def counting(chart, u, steps=0, order=2):
        calls.append((np.shape(u), order))
        return original(chart, u, steps, order)

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", counting)
    scene = _load("theorem1_cylinder.json")
    sampling = {"mode": "random", "counts": 7, "seed": 2}
    prodsub.scene.run_scene(scene, checks=POINTWISE_CHECKS, sampling_override=sampling)
    # the membership probe's values, then the samples' 2-jets
    assert calls == [((125, 3), 0), ((7, 3), 2)]
    calls.clear()
    prodsub.scene.run_scene(scene, checks=POINTWISE_CHECKS + ["pmc"], sampling_override=sampling)
    assert calls == [((125, 3), 0), ((7, 3), 3)]  # the samples alone, at order 3


def _count_calls(monkeypatch, name: str, modules=(prodsub.jets, prodsub.extrinsic, prodsub.classify, prodsub.scene)):
    """Count the calls of the function ``name`` under every module that holds it."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("chart_fixture", ["theorem1_cyl", "theorem1_heli"])
def test_order_three_checks_cover_every_derivative_check(monkeypatch, request, chart_fixture):
    # a check that reads the 3-jet but whose record lacks order 3 would find
    # no d3 in its chunk and raise.  Each check alone takes one geometry
    # call of its samples, at its own order; the nested Laplacian, where PMC
    # fails (the helicoid), adds one evaluate_jet call of its samples at
    # order 4.  No run calls fd_gradient.
    chart = request.getfixturevalue(chart_fixture)
    samples = random_interior_points(chart, 3, seed=4)
    m = chart.m
    calls, fourth = _count_analyze(monkeypatch), _count_nested_jets(monkeypatch)
    fd_calls = _count_calls(monkeypatch, "fd_gradient")
    for name in sorted(prodsub.scene.CHECKS):
        calls.clear()
        fourth.clear()
        _run_rows(chart, [name], samples)
        order = prodsub.scene.CHECK_TABLE[name].order
        nested = name == "biharmonic_normal" and chart_fixture == "theorem1_heli"
        assert calls == [((3, m), order)], name
        assert [(u.shape, o) for u, o in fourth] == [((3, m), 4)] * nested, name
        assert all(_same(u, samples) for u, _ in fourth), name
    assert not fd_calls
    third = {n for n, c in prodsub.scene.CHECK_TABLE.items() if c.order == 3}
    assert third == {"gauss", "pmc", "biconservative_full", "biharmonic_normal"}
    assert {c.order for c in prodsub.scene.CHECK_TABLE.values()} == {2, 3}


STRUCTURE_CHECKS = [
    "gauss", "codazzi", "ricci", "vector_t", "vector_eta", "pmc", "biconservative_full", "biharmonic_normal",
]


@pytest.mark.parametrize("chart_fixture", ["theorem1_cyl", "theorem1_heli"])
def test_a_structure_run_takes_nabla_perp_H_once_per_sample(monkeypatch, request, chart_fixture):
    # once per chunk: pmc, biharmonic_normal and biconservative_full share
    # the chunk's nabla^perp H.  The geometry is one call of the N sample
    # centers at order 3, with no stencil around them; the nested Laplacian
    # (the helicoid's four samples) adds one evaluate_jet call of them at
    # order 4.
    chart = request.getfixturevalue(chart_fixture)
    m = chart.m
    samples = random_interior_points(chart, 4, seed=5)
    kernel = _count_calls(monkeypatch, "normal_derivative_H", (prodsub.extrinsic, prodsub.classify, prodsub.scene))
    calls, fourth = _count_analyze(monkeypatch), _count_nested_jets(monkeypatch)
    rows = _run_rows(chart, STRUCTURE_CHECKS, samples)
    assert len(rows) == 4 * len(STRUCTURE_CHECKS)
    nested = sum(r[4] == prodsub.scene._NESTED_NOTE for r in rows)
    assert nested == (4 if chart_fixture == "theorem1_heli" else 0)
    assert calls == [((4, m), 3)]
    assert [(u.shape, o) for u, o in fourth] == ([((4, m), 4)] if nested else [])
    assert all(_same(u, samples) for u, _ in fourth)
    assert len(kernel) == 1
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 2)  # two chunks
    kernel.clear()
    assert _same_rows(_run_rows(chart, STRUCTURE_CHECKS, samples), rows)
    assert len(kernel) == 2


@pytest.mark.parametrize("checks, name", [
    (["e0", "biharmonic_predicate"], "codim_two_frame"),
    (["vector_t", "vector_eta"], "T_eta_residuals"),
])
def test_checks_that_share_a_kernel_take_it_once_per_chunk(monkeypatch, theorem1_cyl, checks, name):
    # both consumers of the codim-2 frame, and both of the T/eta residuals,
    # read one cached property of the chunk's rows, as the three checks
    # that read nabla^perp H do above
    samples = random_interior_points(theorem1_cyl, 4, seed=5)
    kernel = _count_calls(monkeypatch, name, (prodsub.extrinsic, prodsub.classify, prodsub.scene))
    rows = _run_rows(theorem1_cyl, checks, samples)
    assert len(kernel) == 1
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 2)  # two chunks
    kernel.clear()
    assert _same_rows(_run_rows(theorem1_cyl, checks, samples), rows)
    assert len(kernel) == 2


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _jet_cases(s4, all_gallery_charts):
    """(chart, points, steps) of the jet comparisons: the probe grid and
    interior points of every gallery kind at both signs of eps and of every
    corpus scene, the 61 steps of the criterion-4a family, and a chart whose
    coordinates fail at some of its probe points."""
    scan = build_chart(_load("biharmonic_scan_eps1.json"), ("a2", list(np.linspace(0.3, 0.9, 61))))
    cases = [(ch, np.vstack([probe_grid(ch.domain, 5), random_interior_points(ch, 9, seed=3)]), 0)
             for ch in all_gallery_charts + [build_chart(_load(p.name)) for p in sorted(SCENES.glob("*.json"))]]
    grid, steps = probe_grid(scan.domain, 5), len(scan.family)
    cases.append((scan, np.tile(grid, (steps, 1)), np.repeat(np.arange(steps), len(grid))))
    failing = _failing_coordinate_chart(s4)
    cases.append((failing, probe_grid(failing.domain, 5), 0))
    return cases


def test_chunk_differences_match_fd_gradient(s4, all_gallery_charts, batch_charts):
    # every gallery kind at both signs of eps and the three *_expr scenes:
    # the exact derivatives of an order-3 chunk (the 3-jet itself,
    # nabla^perp H, d Gamma and (d_i P) xi_s) against fd_gradient of the
    # 2-jet fields point by point, within finite-difference accuracy
    for ch in batch_charts:
        m = ch.m
        samples = random_interior_points(ch, 3, seed=13)
        ((_, geo),) = prodsub.scene._chunks(ch, ["pmc"], samples, range(3))
        d, xi = geo.derivatives, geo.normal_onb
        cache = FieldCache(ch)  # each point a batch of one
        for r, u in enumerate(samples):
            fields = {
                "d3": (lambda v: evaluate_jet(ch, v).d2.ravel(), geo.jet.d3[r]),
                "nabla_H": (lambda v: cache.geometry(v).H[0], d.dH[r]),
                "dgamma": (lambda v: cache.geometry(v).derivatives.gamma[0].ravel(), d.dgamma[r]),
                "d_normals": (lambda v: cache.geometry(v).proj_normal(xi[r : r + 1]).ravel(), geo.d_normals[r]),
            }
            for name, (field, exact) in fields.items():
                fd = np.array([fd_gradient(field, u, i) for i in range(m)])  # direction first
                if name == "d3":
                    exact = np.moveaxis(exact, -1, 0)
                elif name == "nabla_H":  # the normal projection of both, as a run takes it
                    exact, fd = geo.nabla_H[r], cache.geometry(u).proj_normal(fd[None])[0]
                assert _rel_gap(exact.reshape(fd.shape), fd) <= 1e-8, (ch.label, name)
    # the third-order slot changes nothing of the 2-jet, failing rows included
    for ch, U, steps in _jet_cases(s4, all_gallery_charts):
        full, third = evaluate_jet(ch, U, steps), evaluate_jet(ch, U, steps, order=3)
        for a, b in ((full.values, third.values), (full.jac, third.jac), (full.d2, third.d2)):
            assert _same(a, b), ch.label
        assert [e and str(e) for e in third.errors] == [e and str(e) for e in full.errors], ch.label
        d3 = third.d3
        assert d3.shape == full.d2.shape + (ch.m,)
        bad = np.array([e is not None for e in third.errors])
        assert np.isnan(d3[bad]).all() and np.isfinite(d3[~bad]).all(), ch.label
        scale = np.maximum(1.0, np.abs(d3))
        for axes in ((0, 1, 3, 2, 4), (0, 1, 2, 4, 3), (0, 1, 4, 3, 2)):
            assert np.all(np.abs(d3 - d3.transpose(axes))[~bad] <= 1e-13 * scale[~bad]), ch.label
    assert bad.any()  # the failing chart has failing rows


def test_order_four_derivatives_match_fd_gradient(s4, all_gallery_charts, batch_charts):
    # every gallery kind at both signs of eps and the three *_expr scenes:
    # the 4-jet and the second derivatives of g, g^-1, P and H of an order-4
    # batch against fd_gradient of the first derivatives of order-3 batches
    # of one, within finite-difference accuracy
    for ch in batch_charts:
        m = ch.m
        samples = random_interior_points(ch, 3, seed=13)
        rows = geometry(ch, samples, order=4)
        d = rows.derivatives
        E = np.eye(ch.space.ambient_dim)  # (d_p P) e_j and (d_p d_q P) e_j, the columns j of the matrices
        d2P_E = d.d2P_apply(np.broadcast_to(E, (len(samples),) + E.shape))
        cache = FieldCache(ch)
        for r, u in enumerate(samples):
            fields = {
                "d4": (lambda v: evaluate_jet(ch, v, order=3).d3, np.moveaxis(rows.jet.d4[r], -1, 0)),
                "d2g": (lambda v: cache.geometry(v).derivatives.dg[0], d.d2g[r]),
                "d2g_inv": (lambda v: cache.geometry(v).derivatives.dg_inv[0], d.d2g_inv[r]),
                "d2P": (lambda v: cache.geometry(v).derivatives.dP_apply(E[None])[0], d2P_E[r]),
                "d2H": (lambda v: cache.geometry(v).derivatives.dH[0], d.d2H[r]),
            }
            for name, (field, exact) in fields.items():
                fd = np.array([fd_gradient(lambda v: field(v).ravel(), u, i) for i in range(m)])  # direction first
                assert _rel_gap(exact.reshape(fd.shape), fd) <= 1e-8, (ch.label, name)
    # the fourth-order slot changes nothing of the 3-jet, failing rows included
    for ch, U, steps in _jet_cases(s4, all_gallery_charts):
        third, fourth = evaluate_jet(ch, U, steps, order=3), evaluate_jet(ch, U, steps, order=4)
        assert all(_same(a, b) for a, b in zip(third.d, fourth.d[:4])) and len(fourth.d) == 5, ch.label
        assert [e and str(e) for e in fourth.errors] == [e and str(e) for e in third.errors], ch.label
        bad = np.array([e is not None for e in fourth.errors])
        assert np.isnan(fourth.d4[bad]).all() and np.isfinite(fourth.d4[~bad]).all(), ch.label


# the hand-written rules in place of ``prodsub.jets``
_HAND_WRITTEN = {name: getattr(reference_jets, name) for name in ["jet_var", "jet_const", "pow_const", *jets.UNARY_FNS, "UNARY_FNS"]}


def _seeds(U, m, order):
    return tuple(jet_var(i, U[:, i], m, order) for i in range(m))


def _coordinate_jets(monkeypatch, coords, U, m, order, patch={}, seeds=_seeds):
    """The jet of each coordinate map at the points U (N, m), or its error,
    with the ``prodsub.jets`` names in ``patch`` replaced and the seed jets
    ``seeds(U, m, order)``; with neither, the general jet itself."""
    with monkeypatch.context() as mp:
        for name, value in patch.items():
            mp.setattr(jets, name, value)
        seeds = seeds(U, m, order)
        out = []
        with np.errstate(all="ignore"):
            for coord in coords:
                try:
                    out.append(coord(seeds))
                except (ValueError, ZeroDivisionError, OverflowError, exprlang.EvalError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")  # compared by type and message
        return out


def _same_jet(ref, new) -> bool:
    """value, grad, hess and d3 bit for bit, NaN and -0.0 included; a slot
    is absent in the general jet (None, or missing) where it is
    ``reference_jets.ABSENT`` in the oracle, and held where the oracle holds
    it; a missing or empty slot of the oracle is missing or empty in the
    general jet."""
    if isinstance(ref, str) or isinstance(new, str):
        return ref == new
    for k, name in enumerate(("value", "grad", "hess", "d3")):
        a, b = getattr(ref, name), getattr(new, name)
        held = k < len(new.d) and new.d[k] is not None
        if a is reference_jets.ABSENT:
            if held:
                return False
        elif a is None or a.size == 0:
            if not (b is None or b.size == 0):
                return False
        elif not held or not _same(a, b):
            return False
    return True


def _same_but_zero_signs(a, b) -> bool:
    """``_same`` with -0.0 read as 0.0."""
    return _same(*(np.where(np.asarray(x) == 0.0, 0.0, x) for x in (a, b)))


def _coordinate_maps(ch, steps):
    """The coordinate maps of the chart ``ch`` at batch rows of the steps
    ``steps`` (N,): its ASTs evaluated with its family's params."""
    params = {**ch.params, **{name: v[steps] for name, v in ch.family.params.items()}}
    return [lambda us, ast=ast: exprlang.eval_jet(ast, dict(zip(ch.var_names, us)), params) for ast in ch.coords]


def _coordinate_cases(s4, all_gallery_charts):
    """(coordinate maps, points U (N, m), m): every coordinate map of every
    gallery kind at both signs of eps, every corpus scene, the 61-step
    family and a failing chart (``_jet_cases``), and the grammar suite."""
    cases = [(_coordinate_maps(ch, np.broadcast_to(steps, len(U))), U, ch.m) for ch, U, steps in _jet_cases(s4, all_gallery_charts)]
    for src, bindings, _ in grammar_cases.VALUE_CASES:
        ast, names = exprlang.parse(src), sorted(bindings) or ["x"]
        U = np.array([[bindings.get(n, 0.5) for n in names], [0.25] * len(names)])
        cases.append(([lambda us, ast=ast, names=names: exprlang.eval_jet(ast, dict(zip(names, us)), {})], U, len(names)))
    return cases


def test_general_jets_reproduce_the_hand_written_rules(monkeypatch, s4, all_gallery_charts):
    # orders 0, 2 and 3 give the values, gradients, Hessians and third
    # derivatives of the hand-written rules bit for bit, NaN and -0.0
    # included, leave absent the slots those rules leave ``ABSENT`` from
    # their seeds and constants, and give the same errors: every coordinate
    # map of every gallery kind at both signs of eps, every corpus scene,
    # the 61-step family and a failing chart (``_jet_cases``), and the
    # grammar suite
    for coords, U, m in _coordinate_cases(s4, all_gallery_charts):
        for order in (0, 2, 3):
            ref = _coordinate_jets(monkeypatch, coords, U, m, order, _HAND_WRITTEN, reference_jets.seeds)
            new = _coordinate_jets(monkeypatch, coords, U, m, order)
            assert all(_same_jet(a, b) for a, b in zip(ref, new)), order


def _same_slots(ref, new) -> bool:
    """Every slot of the batch-first jet bit for bit in the general jet's
    views, NaN and -0.0 included, None in both or in neither, and no slot
    more or less; errors by type and message."""
    if isinstance(ref, str) or isinstance(new, str):
        return ref == new
    views = [new.value, new.grad, new.hess, new.d3, new.d4][: len(new.d)]
    return len(ref.d) == len(new.d) and all(
        (a is None) == (x is None) and (a is None or _same(a, b)) for a, b, x in zip(ref.d, views, new.d)
    )


# functions of arguments with non-zero second derivatives, whose sums of
# shuffles round, and a quotient and a general power of them
_INNER = "(0.5 + 0.4*x + 0.3*x*y - 0.2*y^2)"
_NESTED = [f"{fn}({_INNER})" for fn in jets.UNARY_FNS if fn != "neg"] + [
    f"-{_INNER}^3 / (1.5 + sin(x*y*z))", f"{_INNER}^-2 - x*y*exp(z*x)", "(x*y + z)^(0.5*x - z*y)",
]


def test_sample_last_jets_reproduce_the_batch_first_rules(monkeypatch, s4, all_gallery_charts):
    # orders 0 to 4 give every slot of the general rules on the batch-first
    # layout (``reference_jets.BatchFirstJet``) bit for bit, NaN and -0.0
    # included, leave absent the slots those rules leave None, and give the
    # same errors: the cases of the hand-written oracle and the _NESTED
    # expressions at 40 random points
    points = np.random.default_rng(5).uniform(0.2, 0.9, (40, 3))
    nested = [lambda us, ast=exprlang.parse(src): exprlang.eval_jet(ast, dict(zip("xyz", us)), {}) for src in _NESTED]
    for coords, U, m in _coordinate_cases(s4, all_gallery_charts) + [(nested, points, 3)]:
        for order in range(5):
            ref = _coordinate_jets(monkeypatch, coords, U, m, order, reference_jets.BATCH_FIRST, reference_jets.batch_first_seeds)
            new = _coordinate_jets(monkeypatch, coords, U, m, order)
            assert all(isinstance(a, (str, reference_jets.BatchFirstJet)) for a in ref)
            assert all(_same_slots(a, b) for a, b in zip(ref, new)), order


def test_absent_slots_change_no_jet(monkeypatch, s4, all_gallery_charts):
    # the seeds and constants with zero slots above the gradient
    # (``reference_jets.DENSE``) give every array of the jets bit for bit up
    # to the sign of zero, NaN included, and the same errors, at orders 0
    # to 4: ``evaluate_jet`` on the cases of ``_jet_cases`` (every gallery
    # kind at both signs of eps, every corpus scene, the 61-step family and
    # a failing chart) and the _NESTED expressions at 40 random points
    cases = _jet_cases(s4, all_gallery_charts)
    points = np.random.default_rng(5).uniform(0.2, 0.9, (40, 3))
    nested = [exprlang.parse(src) for src in _NESTED]

    def all_jets(order):
        seeds = {name: jets.jet_var(i, points[:, i], 3, order) for i, name in enumerate("xyz")}
        with np.errstate(all="ignore"):
            expressions = jets.VecJet2([exprlang.eval_jet(ast, seeds, {}) for ast in nested])
        return [evaluate_jet(ch, U, steps, order) for ch, U, steps in cases] + [expressions]

    for order in range(5):
        with monkeypatch.context() as mp:
            for name, value in reference_jets.DENSE.items():
                mp.setattr(jets, name, value)
            dense = all_jets(order)
        for ref, new in zip(dense, all_jets(order)):
            assert len(ref.d) == len(new.d) == max(3, order + 1), order
            assert all(_same_but_zero_signs(a, b) for a, b in zip(ref.d, new.d)), order
            assert [e and str(e) for e in ref.errors or []] == [e and str(e) for e in new.errors or []], order


# the step of the finite-difference layer the normal Laplacian once took
_NESTED_STEP = 5e-4


def _nested_oracle(chart, u):
    """The normal Laplacian at u as it was once taken: fd_gradient (one
    Richardson step) of nabla^perp_q H along p at the step _NESTED_STEP,
    where nabla^perp_q H is the exact one of each point's own order-3
    geometry, a batch of one."""
    m, cache = chart.m, FieldCache(chart)

    def nabla_H(q):
        return lambda v: normal_derivative_H(cache.geometry(v))[0, q]

    rows = cache.geometry(u)
    G, W0 = rows.derivatives.gamma[0], normal_derivative_H(rows)[0]
    out = np.zeros(chart.space.ambient_dim)
    for p in range(m):
        for q in range(m):
            dW = fd_gradient(nabla_H(q), u, p, step=_NESTED_STEP)
            out += rows.g_inv[0, p, q] * (dW - np.einsum("k,kc->c", G[:, p, q], W0))
    return rows.proj_normal(out[None])[0]


def test_nested_laplacians_match_the_per_point_oracle(batch_charts, theorem1_heli):
    # every gallery kind at both signs of eps and the three *_expr scenes:
    # the closed form from the 4-jet against the finite-difference oracle,
    # and a batch of one bit for bit against its row of the chunk
    for ch in batch_charts:
        samples = random_interior_points(ch, 3, seed=13)
        rows = geometry(ch, samples, order=4)
        lap = normal_laplacian_H(rows, normal_derivative_H(rows))
        for r, u in enumerate(samples):
            assert _rel_gap(lap[r], _nested_oracle(ch, u)) <= 1e-8, ch.label
            one = geometry(ch, u[None], order=4)
            assert _same(normal_laplacian_H(one, normal_derivative_H(one))[0], lap[r]), ch.label
    # the helicoid's residuals against those of the finite-difference layer
    samples = random_interior_points(theorem1_heli, 3, seed=13)
    got = _run_rows(theorem1_heli, ["biharmonic_normal"], samples)
    layer = [0.3392440555713899, 0.2517519883860234, 0.17764274368394148]
    assert all(abs(r[3] - v) <= 1e-8 * max(1.0, abs(v)) for r, v in zip(got, layer))


def test_nested_laplacian_rows_do_not_depend_on_the_splits(monkeypatch, tmp_path):
    # the helicoid's biharmonic_normal rows, whole, when _BATCH_POINTS
    # splits the chunk (and with it the order-4 evaluate_jet call of the
    # nesting samples) into calls of two or three samples, or takes all five
    # in one call, and under --jobs 1/2/4
    scene = _load("theorem1_helicoid.json")
    sampling = {"mode": "random", "counts": 5, "seed": 3}
    chart = build_chart(scene)
    samples = prodsub.scene.sample_points(chart, sampling)
    m, names = chart.m, ["biharmonic_normal"]
    calls, fourth = _count_analyze(monkeypatch), _count_nested_jets(monkeypatch)
    rows = _run_rows(chart, names, samples)
    assert all(r[4] == prodsub.scene._NESTED_NOTE for r in rows)
    splits = [
        (2, [(2, m), (2, m), (1, m)]),
        (3, [(3, m), (2, m)]),
        (512, [(5, m)]),
    ]
    for value, nested_calls in splits:
        with monkeypatch.context() as mp:
            mp.setattr(prodsub.immersion, "_BATCH_POINTS", value)
            calls.clear()
            fourth.clear()
            assert _same_rows(_run_rows(chart, names, samples), rows), value
            assert calls == [(s, 3) for s in nested_calls], value
            assert [(u.shape, o) for u, o in fourth] == [(s, 4) for s in nested_calls], value
            assert _same(np.vstack([u for u, _ in fourth]), samples), value
    csv = []
    for jobs in (1, 2, 4):
        path = tmp_path / f"jobs{jobs}.csv"
        prodsub.scene.run_scene(scene, checks=names, sampling_override=sampling, jobs=jobs, csv_path=str(path))
        csv.append(path.read_bytes())
    assert csv[0] == csv[1] == csv[2]


FIVE_CHECKS = ["gauss", "codazzi", "pmc", "biconservative_full", "biharmonic_normal"]


def test_differencing_work_does_not_grow_with_the_samples(monkeypatch):
    # the five checks that read the 3-jet on the cylinder (PMC holds, so
    # nothing nests) take every derivative on the chunk's arrays: the
    # Christoffels once per chunk, no finite difference and no FieldCache
    fd_calls = _count_calls(monkeypatch, "fd_gradient")
    gamma_calls = _count_calls(monkeypatch, "christoffels", (prodsub.extrinsic, prodsub.classify, prodsub.scene))
    geometry_calls = []
    original = FieldCache.geometry
    monkeypatch.setattr(FieldCache, "geometry", lambda self, u: geometry_calls.append(1) or original(self, u))
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 32)
    scene = _load("theorem1_cylinder.json")
    for n, chunks in ((4, 1), (40, 2)):
        gamma_calls.clear()
        rep = prodsub.scene.run_scene(
            scene, checks=FIVE_CHECKS, sampling_override={"mode": "random", "counts": n, "seed": 2}
        )
        assert rep["samples"] == n and {c["derivative_tier"] for c in rep["checks"]} == {"jet-exact"}
        assert (len(fd_calls), len(gamma_calls), len(geometry_calls)) == (0, chunks, 0), n


def test_reports_name_the_derivative_tier_of_each_check():
    # every check is jet-exact, biharmonic_normal off PMC (the helicoid,
    # where it takes the normal Laplacian from the 4-jet) included
    names = FIVE_CHECKS + ["ricci", "vector_t", "membership", "class_a", "splitting"]
    for kind in ("cylinder", "helicoid"):
        rep = prodsub.scene.run_scene(
            _load(f"theorem1_{kind}.json"), checks=names, sampling_override={"mode": "random", "counts": 3, "seed": 1}
        )
        got = {c["name"]: c["derivative_tier"] for c in rep["checks"]}
        assert got == dict.fromkeys(names, "jet-exact"), kind


def test_a_pmc_tolerance_override_leaves_the_nesting_rule(capsys):
    # biharmonic_normal nests where |nabla^perp H| exceeds TOL_PMC, the pmc
    # check's default tolerance: --tol pmc=1e3 passes pmc on the helicoid
    # and nests every sample all the same
    scene = str(SCENES / "theorem1_helicoid.json")
    assert main(["run", "--scene", scene, "--check", "pmc", "--check", "biharmonic_normal", "--samples", "4",
                 "--tol", "pmc=1e3", "--format", "json"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["pmc"]["verdict"] == "PASS" and checks["pmc"]["tolerance_used"] == 1e3
    assert checks["biharmonic_normal"]["derivative_tier"] == "jet-exact"
    assert checks["biharmonic_normal"]["notes"] == prodsub.scene._NESTED_NOTE


def test_jet_exact_checks_close_to_rounding(all_gallery_charts):
    # ricci, vector_t and vector_eta on every gallery chart (both signs of
    # eps) and every corpus scene with its own sampling
    names = ["ricci", "vector_t", "vector_eta"]
    for ch in all_gallery_charts:
        rows = _run_rows(ch, names, random_interior_points(ch, 20, seed=7))
        assert max(r[3] for r in rows) <= 1e-12, ch.label
    for path in sorted(SCENES.glob("*.json")):
        rep = prodsub.scene.run_scene(_load(path.name), checks=names)
        for c in rep["checks"]:
            assert c["max_residual"] <= 1e-12, (path.name, c["name"])


def test_run_rows_equal_the_per_sample_loop(batch_charts):
    for ch in batch_charts:
        samples = random_interior_points(ch, 3, seed=17)
        names = []
        for name in sorted(prodsub.scene.CHECKS):
            ref = _outcome(_reference_rows, ch, [name], samples)
            if isinstance(ref, str):  # the check raises on this chart, and so must the run
                assert _outcome(_run_rows, ch, [name], samples) == ref, (ch.label, name)
            else:
                names.append(name)
        assert names, ch.label
        pointwise = [n for n in names if prodsub.scene.CHECK_TABLE[n].order < 3]
        for subset in (names, pointwise):
            ref = _reference_rows(ch, subset, samples)
            assert _same_rows(_run_rows(ch, subset, samples), ref), (ch.label, subset)


def test_a_long_run_splits_into_batches_of_whole_samples(monkeypatch, theorem1_cyl):
    samples = random_interior_points(theorem1_cyl, 5, seed=6)
    whole = _run_rows(theorem1_cyl, ["pmc", "class_a"], samples)
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 2)
    calls = _count_analyze(monkeypatch)
    assert _same_rows(_run_rows(theorem1_cyl, ["pmc", "class_a"], samples), whole)
    assert calls == [((2, 3), 3), ((2, 3), 3), ((1, 3), 3)]


def _center_error_scene(tmp_path, t_coord, grid, checks):
    scene = {
        "ambient": {"epsilon": 1, "n": 2},
        "immersion": {
            "expressions": {
                "m": 2,
                "coords": ["cos(u2)", "sin(u2)", "0", t_coord],
                "domain": [[-1.0, 1.0], [-0.5, 0.5]],
                "var_names": ["u1", "u2"],
            }
        },
        "sampling": {"mode": "grid", "grid": grid},
        "checks": checks,
    }
    path = tmp_path / "center.json"
    path.write_text(json.dumps(scene))
    return path, scene


@pytest.mark.filterwarnings("error::RuntimeWarning")  # failed rows stay silent
@pytest.mark.parametrize("checks", [["membership", "class_a"], ["membership", "pmc"]])
@pytest.mark.parametrize(
    "t_coord, grid, bad_sample",
    [
        # t = u1^3 is irregular at u1 = 0, the middle sample of three
        ("u1^3", [3, 1], 1),
        # sqrt of a negative number at u1 = 0.32, the third of four samples
        # (the membership probe at u1 = 0, +-0.48, +-0.96 stays clear)
        ("u1 + 0*sqrt((u1 - 0.32)^2 - 0.0001)", [4, 1], 2),
    ],
)
def test_error_at_a_sample_center_matches_the_per_sample_loop(
    tmp_path, capsys, t_coord, grid, bad_sample, checks
):
    path, scene = _center_error_scene(tmp_path, t_coord, grid, checks)
    chart = build_chart(scene)
    samples = prodsub.scene.sample_points(chart, scene["sampling"])
    ref = _outcome(_reference_rows, chart, checks, samples)
    assert ref.startswith(f"check membership failed at sample {bad_sample}, u=")
    assert main(["run", "--scene", str(path)]) == 3
    assert capsys.readouterr().err.strip() == f"computation error: {ref}"


# -- chunk-level checks: every entry runs on the arrays of a whole chunk ------

def _rows_by_sample(rows):
    return sorted(rows, key=lambda r: (r[1], r[0]))


def test_every_check_is_independent_of_its_batch(batch_charts):
    # a batch of N, a reversed batch and a split batch give the rows that
    # batches of one give (``_reference_rows``), bit for bit
    for ch in batch_charts:
        samples = random_interior_points(ch, 4, seed=29)
        for name in sorted(prodsub.scene.CHECKS):
            ref = _outcome(_reference_rows, ch, [name], samples)
            if isinstance(ref, str):
                continue  # the check raises on this chart (wrong codimension)
            for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
                rows = _rows(ch, [name], samples, order)
                assert _same_rows(_rows_by_sample(rows), ref), (ch.label, name, order)
            split = _run_rows(ch, [name], samples[:1])
            split += _rows(ch, [name], samples, [1, 2, 3])
            assert _same_rows(split, ref), (ch.label, name)


def test_jet_level_checks_are_invariant_under_normal_sign_flips(batch_charts):
    # every per-sample check, the five that read the 3-jet included
    for ch in batch_charts:
        for u in random_interior_points(ch, 3, seed=41):
            b = analyze_point(ch, u[None], order=3)
            codim = b.normal_onb.shape[1]
            flips = [[-1.0 if (k >> a) & 1 else 1.0 for a in range(codim)] for k in range(1, 2**codim)]
            for name in sorted(prodsub.scene.CHECKS):
                try:
                    base = prodsub.scene.CHECKS[name](second_fundamental(b))
                except prodsub.errors.RowFailure:
                    continue  # e0 off codimension 2
                for signs in flips:
                    values, notes, degen = prodsub.scene.CHECKS[name](second_fundamental(b.with_flipped_normals(signs)))
                    want = np.asarray(base[0], dtype=float)
                    got = np.asarray(values, dtype=float)
                    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (ch.label, name, signs)
                    assert notes == base[1] and np.array_equal(degen, base[2]), (ch.label, name, signs)


def _count_inner(monkeypatch):
    calls = []
    original = prodsub.ambient.inner

    def counting(*args):
        calls.append(1)
        return original(*args)

    for mod in (prodsub.ambient, prodsub.immersion, prodsub.extrinsic, prodsub.classify, prodsub.scene):
        if getattr(mod, "inner", None) is original:
            monkeypatch.setattr(mod, "inner", counting)
    return calls


def test_pointwise_inner_products_do_not_grow_with_the_samples(monkeypatch):
    calls = _count_inner(monkeypatch)
    scene = _load("theorem1_cylinder.json")
    counts = []
    for n in (4, 40):
        calls.clear()
        rep = prodsub.scene.run_scene(
            scene, checks=POINTWISE_CHECKS, sampling_override={"mode": "random", "counts": n, "seed": 2}
        )
        assert rep["samples"] == n
        counts.append(len(calls))
    assert counts[0] == counts[1] and counts[0] < 100


def test_a_scan_step_reads_its_center_from_the_step_batch(monkeypatch):
    calls = _count_analyze(monkeypatch)
    scene = _load("biharmonic_scan_eps1.json")
    scan = prodsub.scene.scan_parameter(scene, "a2", 0.4, 0.6, 3, "biharmonic_normal")
    m = 3
    # one call for the 3 step centers' 2-jets, then one for the 8 samples of each step
    assert calls == [((3, m), 2), ((3 * 8, m), 3)]
    for row in scan["rows"]:
        gallery = {**scene["immersion"]["gallery"], "a2": row["value"]}
        chart = build_chart({**scene, "immersion": {"gallery": gallery}})
        want, _ = prodsub.classify.biharmonic_predicates(second_fundamental(analyze_point(chart, chart.center()[None])))
        assert _same(row["signed"], want[0])


def test_a_scan_fills_each_call_with_points(monkeypatch):
    calls = _count_analyze(monkeypatch)
    scene = _load("biharmonic_scan_eps1.json")
    prodsub.scene.scan_parameter(scene, "a2", 0.3, 0.9, 61, "biharmonic_normal")
    # the 61 step centers take one call; then the 8 samples of every step one call
    assert [s[0] for s, _ in calls] == [61, 61 * 8] and 61 * 8 <= prodsub.immersion._BATCH_POINTS


@pytest.mark.parametrize("name, lo, hi", [("biharmonic_scan_eps1.json", 0.3, 0.9), ("biharmonic_scan_eps-1.json", 1.3, 1.9)])
def test_the_criterion_4a_scans_never_nest(monkeypatch, name, lo, hi):
    # the scan tables read nabla^perp H only through the nesting rule of
    # biharmonic_normal; on both PMC families it stays 6 digits below TOL_PMC
    real, seen = prodsub.scene.biharmonic_residual, []

    def recording(rows):
        seen.append(np.linalg.norm(rows.nabla_H, axis=-1))
        return real(rows)

    monkeypatch.setattr(prodsub.scene, "biharmonic_residual", recording)
    prodsub.scene.scan_parameter(_load(name), "a2", lo, hi, 61, "biharmonic_normal")
    norms = np.concatenate(seen)
    assert len(norms) == 61 * 8 and norms.max() <= 1e-6 * prodsub.classify.TOL_PMC


def _strided(a):
    """``a`` as a view that steps over every other row of a larger array."""
    a = np.asarray(a)
    out = np.zeros((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    out[::2] = a
    return out[::2]


@pytest.mark.parametrize("name, param, values", [
    ("biharmonic_scan_eps1.json", "a2", [0.35, 0.5, 0.62]),
    ("biharmonic_scan_eps-1.json", "a2", [1.3, 1.75]),
    ("vertical_cylinder_expr.json", "r", [0.4, 0.7, 1.1]),
])
def test_family_rows_equal_their_own_chart_in_any_layout(name, param, values):
    # the scanned parameter rides on the batch axis: a family-chart row is
    # bit for bit the row of its step's own chart, whether the points and
    # their steps come contiguous or strided (``ambient.inner`` sums a
    # strided row in another order than a contiguous one)
    scene = _load(name)
    family = build_chart(scene, (param, values))
    u = random_interior_points(family, 4, seed=5)
    U, steps = np.tile(u, (len(values), 1)), np.repeat(np.arange(len(values)), len(u))
    assert not _strided(U).flags.c_contiguous and not _strided(steps).flags.c_contiguous

    def arrays(b):
        fields = [b.jet.values, b.jet.jac, b.jet.d2, b.g_inv, b.tangent_onb, b.normal_onb, b.T_ambient, b.eta]
        return fields + [b.alpha, b.H, *prodsub.extrinsic.T_eta_residuals(b), prodsub.classify.biharmonic_predicates(b)[0]]

    contiguous = arrays(prodsub.extrinsic.second_fundamental(analyze_point(family, U, steps)))
    strided = arrays(prodsub.extrinsic.second_fundamental(analyze_point(family, _strided(U), _strided(steps))))
    assert all(_same(a, b) for a, b in zip(contiguous, strided))
    for s, v in enumerate(values):
        imm = scene["immersion"]
        if "gallery" in imm:
            imm = {"gallery": {**imm["gallery"], param: v}}
        else:
            ex = imm["expressions"]
            imm = {"expressions": {**ex, "params": {**ex.get("params", {}), param: v}}}
        own = arrays(prodsub.extrinsic.second_fundamental(analyze_point(build_chart({**scene, "immersion": imm}), u)))
        rows = slice(s * len(u), (s + 1) * len(u))
        assert all(_same(a[rows], b) for a, b in zip(contiguous, own)), (name, v)


def test_jet_number_paths_take_row_arrays_in_any_layout():
    # a row array scales and shifts a batch as its numbers do one row at a time
    x = jet_var(0, np.array([0.3, -0.7, 1.1]), 2)
    c = np.array([0.6, -1.5, 2.0])
    rows = [jet_var(0, v, 2) for v in x.value.tolist()]
    want = [[r * v, v * r, r / v, r + v, v - r] for r, v in zip(rows, c.tolist())]
    for row_array in (c, _strided(c)):
        got = [x * row_array, row_array * x, x / row_array, x + row_array, row_array - x]
        for k, jet in enumerate(got):
            for i in range(3):
                w = want[i][k]
                assert _same(jet.value[i], w.value) and _same(jet.grad[i], w.grad) and _same(jet.hess[i], w.hess)
