"""The batch axis of the jet and geometry pipeline.

A batch of N points runs every step row by row, so each row is bit for bit
what a single-point call gives, whatever else is in the batch.  Stencils and
probes are evaluated as such batches; these tests pin that equality, the
stencil points a prefetch fills, and that errors at stencil points still
surface exactly as a point-by-point evaluation raises them.
"""

import json
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
from prodsub.cli import main
from prodsub.errors import ChartError
from prodsub.extrinsic import (
    FD_NESTED_STEP,
    FieldCache,
    FirstLayer,
    first_layer,
    geometry,
    normal_derivative_H,
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
            assert len(single) == 1 and single.batch.errors == [None], ch.label
            for a, b in zip(_geometry_fields(batch, i), _geometry_fields(single.batch, 0)):
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
                for x, y in zip(_geometry_fields(full.batch, i), _geometry_fields(eds.batch, r)):
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

    def counting(chart, u, *steps):
        shapes.append(np.shape(u))
        return original(chart, u, *steps)

    monkeypatch.setattr(prodsub.extrinsic, "analyze_point", counting)
    return shapes


def test_pmc_check_prefetches_its_stencil_in_one_batch(monkeypatch):
    # the kernel that the pmc entry runs, on the first layer of one point
    # that a FieldCache keeps
    chart = build_chart(_load("theorem1_cylinder.json"))
    seen = []
    original = prodsub.extrinsic.analyze_point

    def recording(chart, u, *steps):
        seen.append(np.array(u))
        return original(chart, u, *steps)

    monkeypatch.setattr(prodsub.extrinsic, "analyze_point", recording)
    u = chart.center() + np.array([0.1, -0.2, 0.3])
    cache = FieldCache(chart)
    normal_derivative_H(cache.layer(u[None]))
    m = chart.m
    assert [p.shape for p in seen] == [(1 + 4 * m, m)]
    assert _same(seen[0], first_layer(u))  # the points fd_gradient reads, in its order
    assert len({tuple(p) for p in first_layer(u).tolist()}) == 1 + 4 * m
    normal_derivative_H(cache.layer(u[None]))  # the cache keeps u's layer
    assert len(seen) == 1


def _outer_layers(u) -> np.ndarray:
    """The first layers of the 4m points of u's FD_NESTED_STEP stencils, in order."""
    outer = [v for p in range(len(u)) for v in fd_stencil(u, p, FD_NESTED_STEP)[1]]
    return np.vstack([first_layer(v) for v in outer])


def test_nested_laplacian_prefetches_its_stencils_in_one_batch(monkeypatch, theorem1_heli):
    # a batch of one: u's first layer, then the first layers of the 4m
    # points of u's nested stencils in one 4m (1 + 4m)-point call
    seen = []
    original = prodsub.extrinsic.analyze_point
    monkeypatch.setattr(prodsub.extrinsic, "analyze_point", lambda ch, u, *steps: seen.append(np.array(u)) or original(ch, u, *steps))
    u = np.array([0.2, -0.3, 0.4])
    layer = FirstLayer.at(theorem1_heli, u[None])
    normal_laplacian_H(layer.centers, normal_derivative_H(layer))
    m = theorem1_heli.m
    assert [p.shape for p in seen] == [(1 + 4 * m, m), (4 * m * (1 + 4 * m), m)]
    assert _same(seen[0], first_layer(u)) and _same(seen[1], _outer_layers(u))


def test_validate_membership_is_one_batched_jet(monkeypatch, theorem1_cyl):
    # one batch of the probe grid, which asks for values only
    calls = []
    original = prodsub.immersion.evaluate_jet

    def counting(chart, u, *steps, **kwargs):
        calls.append((np.shape(u), kwargs.get("values_only", False)))
        return original(chart, u, *steps, **kwargs)

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", counting)
    theorem1_cyl.validate_membership()
    assert calls == [((125, 3), True)]


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
    scan = build_chart(_load("biharmonic_scan_eps1.json"), ("a2", list(np.linspace(0.3, 0.9, 61))))
    cases = [(ch, np.vstack([probe_grid(ch.domain, 5), random_interior_points(ch, 9, seed=3)]), 0)
             for ch in all_gallery_charts + [build_chart(_load(p.name)) for p in sorted(SCENES.glob("*.json"))]]
    grid, steps = probe_grid(scan.domain, 5), len(scan.family)
    cases.append((scan, np.tile(grid, (steps, 1)), np.repeat(np.arange(steps), len(grid))))
    failing = _failing_coordinate_chart(s4)
    cases.append((failing, probe_grid(failing.domain, 5), 0))
    for ch, U, steps in cases:
        full, values = evaluate_jet(ch, U, steps), evaluate_jet(ch, U, steps, values_only=True)
        assert _same(values.values, full.values), ch.label
        assert values.jac.shape == (len(U), len(ch.coords), 0) and values.d2.shape == (len(U), len(ch.coords), 0, 0)
        assert [e and str(e) for e in values.errors] == [e and str(e) for e in full.errors], ch.label
    assert np.isnan(values.values).any() and any(values.errors)  # the failing chart has failing rows


# S^3 x R charts through the Hopf coordinates, m = 3: 125 probe points a
# step, so a build checks 4 steps per block.  Over the 20 values of p,
# step 13 (p = 0.225, in the fourth block) is the first that fails: the
# factor 1 + exp(5000 (p - 0.215)) is 1 within 2e-22 up to step 12, and
# sqrt(u1 - p) first meets the probe points at u1 = 0.22 there.
_HOPF = ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)*cos(u3)", "sin(u1)*sin(u3)", "u1 + u2"]
_LATE_STEP = {
    "off_product": (0, "cos(u1)*cos(u2)*(1 + exp(5000*(p - 0.215)))",
                    "chart expressions leaves the product: membership residual 2.560e+43 > 1.0e-09"),
    "domain_error": (4, "u1 + u2 + 0*sqrt(u1 - p)",
                     "coordinate 4 failed at u=[0.22, -0.48, -0.48]: at position 12: sqrt: argument "
                     "-0.0050000000000000044 outside the function domain"),
}


@pytest.mark.parametrize("case", sorted(_LATE_STEP))
def test_a_build_stops_at_its_first_failing_step_in_a_later_block(case, monkeypatch, tmp_path, capsys):
    slot, coord, message = _LATE_STEP[case]
    coords = list(_HOPF)
    coords[slot] = coord
    expressions = {"m": 3, "coords": coords, "params": {"p": 0.0}, "var_names": ["u1", "u2", "u3"],
                   "domain": [[0.2, 1.2], [-0.5, 0.5], [-0.5, 0.5]]}
    scene = {"ambient": {"epsilon": 1, "n": 3}, "immersion": {"expressions": expressions},
             "sampling": {"mode": "grid", "grid": [2, 2, 2]}, "checks": ["membership"]}
    values = [float(v) for v in np.linspace(-0.035, 0.345, 20)]
    rows = []
    original = prodsub.immersion._coordinates

    def counting(chart, U, *args):
        rows.append(len(U))
        return original(chart, U, *args)

    monkeypatch.setattr(prodsub.immersion, "_coordinates", counting)
    family = build_chart(scene, ("p", values)).family
    assert len(family) == 13 and str(family.error) == message
    # whole blocks of 4 steps up to the failing one, and a replay of that block's rows alone
    replay = 4 * 125 if case == "domain_error" else 0
    assert rows == [4 * 125] * 4 + [1] * replay

    monkeypatch.undo()
    path = tmp_path / "scene.json"
    scan = ["scan", "--scene", str(path), "--param", "p", "--from", "-0.035", "--to", "0.345", "--steps", "20",
            "--residual", "membership"]
    for p, argv, code in ((values[12], ["run"], 0), (values[13], ["run"], 3), (0.0, scan, 3)):
        expressions["params"]["p"] = p
        path.write_text(json.dumps(scene))
        capsys.readouterr()
        assert main(argv + ["--scene", str(path)] if argv == ["run"] else argv) == code
        if code:
            assert capsys.readouterr().err == f"computation error: {message}\n"


def _same_other_rows(rows, clean, bad: int) -> bool:
    """Whether every row of ``rows`` but ``bad`` is bit for bit its row of ``clean``, the batch without it."""
    pairs = [(i, i - (i > bad)) for i in range(len(rows)) if i != bad]
    return all(
        all(_same(a, b) for a, b in zip(_geometry_fields(rows.batch, i), _geometry_fields(clean.batch, j)))
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
    assert [e and str(e) for e in rows.batch.errors] == [None, None, str(alone.value), None]
    jet = evaluate_jet(chart, U)
    assert [e and str(e) for e in jet.errors] == [None, None, str(alone.value), None]
    assert np.isnan(jet.values[2]).all() and np.isnan(jet.jac[2]).all() and np.isnan(jet.d2[2]).all()
    assert _same_other_rows(rows, geometry(chart, np.delete(U, 2, axis=0)), 2)


def test_a_non_finite_metric_fails_only_its_own_sample(s4):
    # t overflows to inf for u1 > 0.3 without raising: the metric of the
    # second sample is not finite, which fails that sample alone
    def t(us):
        big = np.where(us[0].value > 0.3, 1e300, 1.0)
        return us[0] * big * big

    chart = Chart(space=s4, m=2, coords=["cos(u2)", "sin(u2)", "0", "0", "0", t], domain=[(-1.0, 1.0), (-0.5, 0.5)])
    U = np.array([[0.1, 0.0], [0.5, 0.1], [-0.4, 0.2]])
    rows = geometry(chart, U)
    assert [e and str(e) for e in rows.batch.errors] == [None, "induced metric not finite at u=[0.5, 0.1]", None]
    assert _same_other_rows(rows, geometry(chart, U[[0, 2]]), 1)
    names = ["membership", "class_a", "pmc"]
    assert _outcome(_run_rows, chart, names, U, 0) == (
        "check membership failed at sample 1, u=[0.5, 0.1]: induced metric not finite at u=[0.5, 0.1]"
    )
    assert len(_rows(chart, names, U, [0, 2], 0)) == 2 * len(names)


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
    assert analyze_point(chart, center[None]).errors == [None]  # regular
    bad = fd_stencil(center, 0)[1][1]
    (err,) = analyze_point(chart, bad[None]).errors
    assert isinstance(err, prodsub.errors.IrregularPoint)
    assert str(err).startswith("det g = 9.7")
    assert main(["run", "--scene", str(path)]) == 3
    want = (
        f"computation error: check pmc failed at sample 0, u={center.tolist()}: {err}"
    )
    assert capsys.readouterr().err.strip() == want


# -- the run-level batch: every sample of a chunk in one call ----------------

POINTWISE_CHECKS = [
    "membership", "frames", "unit_norm", "h_eta", "mean_curvature", "class_a",
    "e0", "biharmonic_predicate",
]


def _rows(chart, names, samples, indices, seed):
    """The chunk columns of ``_compute_rows`` flattened into (check, index,
    u, value, note, degenerate) records, sample by sample in the order of
    ``names``."""
    chunks = prodsub.scene._compute_rows(chart, names, samples, indices, seed)
    cells = {  # each check's (value, note, degenerate) in the order of indices
        name: [cell for c in chunks for cell in zip(c[name][0].tolist(), c[name][1], c[name][2].tolist())]
        for name in names
    }
    return [(name, idx, samples[idx].tolist(), *cells[name][j]) for j, idx in enumerate(indices) for name in names]


def _reference_rows(chart, names, samples, seed):
    """The rows of each sample on its own: one chunk of one sample per call,
    so its geometry and its checks see no other sample."""
    rows = []
    for idx in range(len(samples)):
        rows += _rows(chart, names, samples, [idx], seed)
    return rows


def _run_rows(chart, names, samples, seed):
    return _rows(chart, names, samples, range(len(samples)), seed)


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
    shapes, values_only = [], []
    original = prodsub.immersion.evaluate_jet

    def counting(chart, u, *steps, **kwargs):
        shapes.append(np.shape(u))
        values_only.append(kwargs.get("values_only", False))
        return original(chart, u, *steps, **kwargs)

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", counting)
    scene = _load("theorem1_cylinder.json")
    sampling = {"mode": "random", "counts": 7, "seed": 2}
    prodsub.scene.run_scene(scene, checks=POINTWISE_CHECKS, sampling_override=sampling)
    assert shapes == [(125, 3), (7, 3)]  # the membership probe, then the samples
    assert values_only == [True, False]  # the samples take whole 2-jets
    shapes.clear()
    values_only.clear()
    prodsub.scene.run_scene(scene, checks=POINTWISE_CHECKS + ["pmc"], sampling_override=sampling)
    assert shapes == [(125, 3), (7 * 13, 3)]  # each sample with its first layer
    assert values_only == [True, False]


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


def _nested_calls(n_nested: int, m: int) -> list:
    """The nested Laplacian's geometry calls for n_nested samples of one
    chunk: whole samples, at most _NESTED_POINTS points per call."""
    size = 4 * m * (1 + 4 * m)
    per = max(1, prodsub.extrinsic._NESTED_POINTS // size)
    return [(min(per, n_nested - i) * size, m) for i in range(0, n_nested, per)]


@pytest.mark.parametrize("chart_fixture", ["theorem1_cyl", "theorem1_heli"])
def test_first_layer_checks_cover_every_differencing_check(monkeypatch, request, chart_fixture):
    # a differencing check whose record lacks first_layer would compute its
    # stencil in a second call.  Every difference is taken on arrays: the first layers
    # on the chunk's, and the nested Laplacian, where PMC fails (the
    # helicoid), on the first layers of its samples' outer stencils, taken
    # in calls of whole samples within the point budget.  No run calls
    # fd_gradient.  A check without first_layer (ricci, vector_t and
    # vector_eta among them) differences nothing.
    chart = request.getfixturevalue(chart_fixture)
    samples = random_interior_points(chart, 3, seed=4)
    m = chart.m
    assert _nested_calls(3, 3) == [(2 * 156, 3), (156, 3)]  # two m = 3 samples per call
    shapes = _count_analyze(monkeypatch)
    fd_calls = _count_calls(monkeypatch, "fd_gradient")
    for name in sorted(prodsub.scene.CHECKS):
        shapes.clear()
        _run_rows(chart, [name], samples, 0)
        differences = prodsub.scene.CHECK_TABLE[name].first_layer
        k = 1 + 4 * m if differences else 1
        nested = 3 if name == "biharmonic_normal" and chart_fixture == "theorem1_heli" else 0
        assert shapes == [(3 * k, m)] + _nested_calls(nested, m), name
    assert not fd_calls
    first_layer = {n for n, c in prodsub.scene.CHECK_TABLE.items() if c.first_layer}
    assert first_layer <= set(prodsub.scene.CHECKS)
    assert first_layer.isdisjoint({"ricci", "vector_t", "vector_eta"})


STRUCTURE_CHECKS = [
    "gauss", "codazzi", "ricci", "vector_t", "vector_eta", "pmc", "biconservative_full", "biharmonic_normal",
]


@pytest.mark.parametrize("chart_fixture", ["theorem1_cyl", "theorem1_heli"])
def test_a_structure_run_takes_nabla_perp_H_once_per_sample(monkeypatch, request, chart_fixture):
    # once per chunk: pmc, biharmonic_normal and biconservative_full share
    # the chunk's nabla^perp H.  The nested Laplacian (the helicoid's four
    # samples) adds one kernel call per call of its outer-stencil geometry.
    chart = request.getfixturevalue(chart_fixture)
    samples = random_interior_points(chart, 4, seed=5)
    kernel = _count_calls(monkeypatch, "normal_derivative_H", (prodsub.extrinsic, prodsub.classify, prodsub.scene))
    rows = _run_rows(chart, STRUCTURE_CHECKS, samples, 0)
    assert len(rows) == 4 * len(STRUCTURE_CHECKS)
    nested = sum(r[4] == prodsub.scene._NESTED_NOTE for r in rows)
    assert nested == (4 if chart_fixture == "theorem1_heli" else 0)
    assert len(kernel) == 1 + len(_nested_calls(nested, chart.m))
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 2 * (1 + 4 * chart.m))  # two chunks
    kernel.clear()
    assert _same_rows(_run_rows(chart, STRUCTURE_CHECKS, samples, 0), rows)
    assert len(kernel) == 2 + 2 * len(_nested_calls(nested // 2, chart.m))


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def test_chunk_differences_match_fd_gradient(batch_charts):
    # every gallery kind at both signs of eps and the three *_expr scenes:
    # the chunk's array differences against fd_gradient point by point
    for ch in batch_charts:
        m = ch.m
        samples = random_interior_points(ch, 3, seed=13)
        (chunk,) = prodsub.scene._chunks(ch, ["pmc"], samples, range(3), 0)
        layer, b = chunk.layer, chunk.layer.rows.batch
        X, Y, Z = np.random.default_rng(3).standard_normal((3, 3, m))
        (DG,) = layer.diff(layer.rows.derivatives.gamma)
        alpha = prodsub.extrinsic._alpha  # P d2f(v, w) per row, the field of the Codazzi kernel
        (dYZ,) = layer.diff(alpha(b, *np.repeat([Y, Z], layer.k, axis=1)))
        dXYZ = layer.centers.batch.proj_normal(np.einsum("ni,nic->nc", X, dYZ))
        cache = FieldCache(ch)  # each point a batch of one
        for r, u in enumerate(samples):
            b = cache.geometry(u).batch
            want = [b.proj_normal(fd_gradient(lambda v: cache.geometry(v).H[0], u, i)[None])[0] for i in range(m)]
            assert _rel_gap(chunk.nabla_H[r], np.array(want)) <= 1e-12, ch.label
            gamma = lambda v: cache.geometry(v).derivatives.gamma[0].ravel()
            want = [fd_gradient(gamma, u, i).reshape(m, m, m) for i in range(m)]
            assert _rel_gap(DG[r], np.array(want)) <= 1e-12, ch.label

            def alpha_YZ(v):
                return alpha(cache.geometry(v).batch, Y[r : r + 1], Z[r : r + 1])[0]

            want = b.proj_normal(sum(X[r, i] * fd_gradient(alpha_YZ, u, i) for i in range(m))[None])[0]
            assert _rel_gap(dXYZ[r], want) <= 1e-12, ch.label


def test_first_layer_differences_raise_what_fd_gradient_raises(theorem1_cyl):
    U = random_interior_points(theorem1_cyl, 3, seed=2)
    layer = prodsub.extrinsic.FirstLayer.at(theorem1_cyl, U)
    k, H = layer.k, layer.rows.H

    def fd_error(field_rows, sample):
        """What fd_gradient raises on the field, point by point at the sample."""
        at = {tuple(p): r for r, p in enumerate(first_layer(U[sample]))}
        fields = [lambda v, f=f: f[sample * k + at[tuple(v)]] for f in field_rows]
        try:
            for field in fields:
                for i in range(theorem1_cyl.m):
                    fd_gradient(field, U[sample], i)
        except prodsub.errors.StencilError as exc:
            return str(exc)

    for sample, point, second in ((1, 1 + 4 * 2 + 3, False), (2, 1 + 4 * 1 + 1, True), (2, 1, True)):
        bad = H.copy()
        bad[sample * k + point, 0] = np.nan
        fields = (H, bad) if second else (bad, H)
        with pytest.raises(prodsub.errors.RowFailure) as err:
            layer.diff(*fields)
        assert err.value.args[0] == sample
        assert str(err.value.args[1]) == fd_error(fields, sample)
    # a point that fails comes before a non-finite value of a later pair
    failed = prodsub.errors.IrregularPoint("stand-in")
    layer.rows.batch.errors[k + 1 + 4 * 1] = failed
    bad = H.copy()
    bad[k + 1 + 4 * 2, 0] = np.nan
    with pytest.raises(prodsub.errors.RowFailure) as err:
        layer.diff(bad)
    assert err.value.args == (1, failed)


def _nested_oracle(chart, u):
    """The nested normal Laplacian at u point by point, as runs took it
    sample by sample: fd_gradient of nabla^perp_q H along p with the nested
    step, where nabla^perp_q H is the normal projection of fd_gradient of
    H.  Each point's geometry is a batch of one, and a point whose geometry
    fails raises its error.  The geometry of every point it reads is filled
    in one batch first."""
    m = chart.m
    points = np.vstack([first_layer(u), _outer_layers(u)])
    rows = prodsub.extrinsic.second_fundamental(prodsub.extrinsic.analyze_point(chart, points))
    known = {tuple(v): rows.take([i]) for i, v in enumerate(points.tolist()) if rows.batch.errors[i] is None}

    def geometry(v):
        key = tuple(np.asarray(v, dtype=float).tolist())
        if key not in known:
            known[key] = prodsub.extrinsic.second_fundamental(prodsub.extrinsic.analyze_point(chart, [key]))
        if known[key].batch.errors[0] is not None:
            raise known[key].batch.errors[0]
        return known[key]

    def nabla_H(q):
        def field(v):
            b = geometry(v).batch  # v's own geometry first, then its stencil's
            return b.proj_normal(fd_gradient(lambda x: geometry(x).H[0], v, q)[None])[0]

        return field

    b = geometry(u).batch
    G = geometry(u).derivatives.gamma[0]
    W0 = np.array([nabla_H(q)(u) for q in range(m)])
    out = np.zeros(chart.space.ambient_dim)
    for p in range(m):
        for q in range(m):
            dW = fd_gradient(nabla_H(q), u, p, step=FD_NESTED_STEP)
            out += b.g_inv[0, p, q] * (dW - np.einsum("k,kc->c", G[:, p, q], W0))
    return b.proj_normal(out[None])[0]


def test_nested_laplacians_match_the_per_point_oracle(batch_charts):
    # every gallery kind at both signs of eps and the three *_expr scenes;
    # three m = 3 samples take two calls of outer-stencil geometry
    for ch in batch_charts:
        samples = random_interior_points(ch, 3, seed=13)
        (chunk,) = prodsub.scene._chunks(ch, ["pmc"], samples, range(3), 0)
        lap = normal_laplacian_H(chunk.geo, chunk.nabla_H)
        for r, u in enumerate(samples):
            assert _rel_gap(lap[r], _nested_oracle(ch, u)) <= 1e-12, ch.label
            one = FirstLayer.at(ch, u[None])  # a batch of one
            assert _rel_gap(normal_laplacian_H(one.centers, normal_derivative_H(one))[0], lap[r]) <= 1e-12, ch.label


def test_nested_laplacian_rows_do_not_depend_on_the_splits(monkeypatch, tmp_path):
    # the helicoid's biharmonic_normal rows, whole, when _BATCH_POINTS
    # splits the chunk, when the point budget splits the nested samples
    # (one per call, or all five in one), and under --jobs 1/2/4
    scene = _load("theorem1_helicoid.json")
    sampling = {"mode": "random", "counts": 5, "seed": 3}
    chart = build_chart(scene)
    samples = prodsub.scene.sample_points(chart, sampling)
    m, names = chart.m, ["biharmonic_normal"]
    shapes = _count_analyze(monkeypatch)
    rows = _run_rows(chart, names, samples, 0)
    assert all(r[4] == prodsub.scene._NESTED_NOTE for r in rows)
    size = 4 * m * (1 + 4 * m)
    splits = [
        (prodsub.immersion, "_BATCH_POINTS", 2 * (1 + 4 * m), [(2 * size, m)] * 2 + [(size, m)]),
        (prodsub.extrinsic, "_NESTED_POINTS", 1, [(size, m)] * 5),
        (prodsub.extrinsic, "_NESTED_POINTS", 5 * size, [(5 * size, m)]),
    ]
    for module, name, value, nested_calls in splits:
        with monkeypatch.context() as mp:
            mp.setattr(module, name, value)
            shapes.clear()
            assert _same_rows(_run_rows(chart, names, samples, 0), rows), name
            assert [s for s in shapes if s[0] % size == 0] == nested_calls, name
    csv = []
    for jobs in (1, 2, 4):
        path = tmp_path / f"jobs{jobs}.csv"
        prodsub.scene.run_scene(scene, checks=names, sampling_override=sampling, jobs=jobs, csv_path=str(path))
        csv.append(path.read_bytes())
    assert csv[0] == csv[1] == csv[2]


def _inject(monkeypatch, chart, faults):
    """Make the geometry of the given points fail ("failed"), make the
    chart's first coordinate map raise on every batch that holds them, as a
    domain error does ("raises"), or hold a non-finite H ("nan", by a NaN
    second derivative), in a batch or alone."""
    original = prodsub.immersion._analyze
    raising = np.array([point for kind, point in faults if kind == "raises"]).reshape(-1, chart.m)
    family_coords = chart.family.coords

    def coords(steps):
        first, *rest = family_coords(steps)

        def coordinate(us):
            U = np.stack([u.value for u in us], axis=-1)
            if (U[:, None] == raising[None]).all(axis=-1).any():
                raise ValueError("injected")
            return first(us)

        return [coordinate, *rest]

    def faulty(chart, U, steps):
        batch = original(chart, U, steps)
        for kind, point in faults:
            for r in np.flatnonzero((U == point).all(axis=1)):
                if kind == "failed":
                    batch.errors[r] = prodsub.errors.IrregularPoint(f"injected at u={point.tolist()}")
                elif kind == "nan":
                    batch.jet.d2[r] = np.nan
        return batch

    monkeypatch.setattr(chart.family, "coords", coords)
    monkeypatch.setattr(prodsub.immersion, "_analyze", faulty)


def test_nested_stencil_failures_report_what_the_per_sample_path_reports(monkeypatch, theorem1_heli):
    # a failed row or a non-finite H among the outer-stencil rows of the
    # nested Laplacian gives the failing sample, check and message the
    # per-sample path gave (the first sample whose oracle raises)
    chart, m = theorem1_heli, theorem1_heli.m
    samples = random_interior_points(chart, 3, seed=8)
    clean = _run_rows(chart, ["biharmonic_normal"], samples, 0)
    assert all(r[4] == prodsub.scene._NESTED_NOTE for r in clean)

    def per_sample():
        """The first failing sample of the per-sample path and its report."""
        for i, u in enumerate(samples):
            try:
                _nested_oracle(chart, u)
            except prodsub.errors.EngineError as exc:
                return i, f"check biharmonic_normal failed at sample {i}, u={u.tolist()}: {exc}"
        return None, None

    def outer(sample, p, j, r):
        """Row r of the first layer of point j of the sample's nested stencil along p."""
        return first_layer(fd_stencil(samples[sample], p, FD_NESTED_STEP)[1][j])[r]

    cases = [
        [("failed", outer(1, 1, 2, 1 + 4 * 2 + 1))],
        [("nan", outer(1, 0, 3, 1 + 4 * 0 + 2))],
        [("failed", outer(2, 2, 0, 0))],  # an outer point itself, in the second call
        [("nan", outer(2, 1, 1, 1 + 4 * 1 + 3))],
        [("nan", outer(0, 1, 1, 0))],  # H at an outer point is never differenced
        [("nan", outer(2, 0, 0, 3)), ("failed", outer(1, 2, 3, 5))],  # the lower sample first
        [("failed", first_layer(samples[2])[4]), ("nan", outer(1, 1, 1, 4))],  # pmc fails after
        [("failed", first_layer(samples[0])[4]), ("nan", outer(1, 1, 1, 4))],  # pmc fails first
        [("raises", v) for v in _outer_layers(samples[2])],  # the coordinates fail at every point of the second call
    ]
    seen = []
    for faults in cases:
        with monkeypatch.context() as mp:
            _inject(mp, chart, faults)
            sample, want = per_sample()
            got = _outcome(_run_rows, chart, ["biharmonic_normal"], samples, 0)
        if want is None:
            assert _same_rows(got, clean), faults
        else:
            assert got == want, faults
        seen.append((sample, want and ("injected" in want, "non-finite field value" in want)))
    failed, nonfinite = (True, False), (False, True)
    assert seen == [(1, failed), (1, nonfinite), (2, failed), (2, nonfinite), (None, None),
                    (1, failed), (1, nonfinite), (0, failed), (2, failed)]
    # under a looser PMC tolerance only sample 1 nests; it fails as sample 1
    with monkeypatch.context() as mp:
        mp.setitem(prodsub.scene.CHECK_TABLE, "pmc", replace(prodsub.scene.CHECK_TABLE["pmc"], tol=0.05))
        rows = _run_rows(chart, ["biharmonic_normal"], samples, 0)
        assert [r[4] == prodsub.scene._NESTED_NOTE for r in rows] == [False, True, False]
        _inject(mp, chart, [("failed", outer(1, 1, 2, 9))])
        sample, want = per_sample()
        assert sample == 1 and _outcome(_run_rows, chart, ["biharmonic_normal"], samples, 0) == want
    # a non-finite nabla^perp H at an outer point fails its sample along
    # that outer direction, as fd_gradient did on the outer pair
    original = prodsub.extrinsic.normal_derivative_H

    def poisoned(layer):
        W = original(layer)
        if len(layer) == 4 * m:  # the second call, of sample 2 alone
            W[4 * 1 + 2, 0, 0] = np.nan  # direction p = 1, point 2
        return W

    monkeypatch.setattr(prodsub.extrinsic, "normal_derivative_H", poisoned)
    want = f"sample 2, u={samples[2].tolist()}: {jets.nonfinite_error(samples[2], 1)}"
    assert _outcome(_run_rows, chart, ["biharmonic_normal"], samples, 0) == f"check biharmonic_normal failed at {want}"


FIVE_CHECKS = ["gauss", "codazzi", "pmc", "biconservative_full", "biharmonic_normal"]


def test_differencing_work_does_not_grow_with_the_samples(monkeypatch):
    # the five differencing checks on the cylinder (PMC holds, so nothing
    # nests) take every difference on the chunk's arrays: the Christoffels
    # once for the chunk's first-layer rows and once for its centers
    fd_calls = _count_calls(monkeypatch, "fd_gradient")
    gamma_calls = _count_calls(monkeypatch, "christoffels", (prodsub.extrinsic, prodsub.classify, prodsub.scene))
    geometry_calls = []
    original = FieldCache.geometry
    monkeypatch.setattr(FieldCache, "geometry", lambda self, u: geometry_calls.append(1) or original(self, u))
    scene = _load("theorem1_cylinder.json")
    per_chunk = prodsub.immersion._BATCH_POINTS // (1 + 4 * 3)  # 39 samples with their first layers
    for n, chunks in ((4, 1), (40, 2)):
        assert -(-n // per_chunk) == chunks
        gamma_calls.clear()
        rep = prodsub.scene.run_scene(
            scene, checks=FIVE_CHECKS, sampling_override={"mode": "random", "counts": n, "seed": 2}
        )
        assert rep["samples"] == n and {c["derivative_tier"] for c in rep["checks"]} == {"fd"}
        assert (len(fd_calls), len(gamma_calls), len(geometry_calls)) == (0, 2 * chunks, 0), n


def test_reports_name_the_derivative_tier_of_each_check():
    names = FIVE_CHECKS + ["ricci", "vector_t", "membership", "class_a", "splitting"]
    tiers = {"cylinder": "fd", "helicoid": "nested-fd"}
    for kind, nested in tiers.items():
        rep = prodsub.scene.run_scene(
            _load(f"theorem1_{kind}.json"), checks=names, sampling_override={"mode": "random", "counts": 3, "seed": 1}
        )
        got = {c["name"]: c["derivative_tier"] for c in rep["checks"]}
        want = {n: "fd" if n in FIVE_CHECKS else "jet-exact" for n in names}
        want["biharmonic_normal"] = nested
        assert got == want, kind


def test_jet_exact_checks_close_to_rounding(all_gallery_charts):
    # ricci, vector_t and vector_eta on every gallery chart (both signs of
    # eps) and every corpus scene with its own sampling
    names = ["ricci", "vector_t", "vector_eta"]
    for ch in all_gallery_charts:
        rows = _run_rows(ch, names, random_interior_points(ch, 20, seed=7), 7)
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
            ref = _outcome(_reference_rows, ch, [name], samples, 9)
            if isinstance(ref, str):  # the check raises on this chart, and so must the run
                assert _outcome(_run_rows, ch, [name], samples, 9) == ref, (ch.label, name)
            else:
                names.append(name)
        assert names, ch.label
        pointwise = [n for n in names if not prodsub.scene.CHECK_TABLE[n].first_layer]
        for subset in (names, pointwise):
            ref = _reference_rows(ch, subset, samples, 9)
            assert _same_rows(_run_rows(ch, subset, samples, 9), ref), (ch.label, subset)


def test_a_long_run_splits_into_batches_of_whole_samples(monkeypatch, theorem1_cyl):
    samples = random_interior_points(theorem1_cyl, 5, seed=6)
    whole = _run_rows(theorem1_cyl, ["pmc", "class_a"], samples, 1)
    monkeypatch.setattr(prodsub.immersion, "_BATCH_POINTS", 30)  # two first layers
    shapes = _count_analyze(monkeypatch)
    assert _same_rows(_run_rows(theorem1_cyl, ["pmc", "class_a"], samples, 1), whole)
    assert shapes == [(26, 3), (26, 3), (13, 3)]


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
    ref = _outcome(_reference_rows, chart, checks, samples, 0)
    assert ref.startswith(f"check membership failed at sample {bad_sample}, u=")
    assert main(["run", "--scene", str(path)]) == 3
    assert capsys.readouterr().err.strip() == f"computation error: {ref}"


# -- chunk-level checks: every entry runs on the arrays of a whole chunk ------

JET_LEVEL_CHECKS = sorted(n for n in prodsub.scene.CHECKS if not prodsub.scene.CHECK_TABLE[n].first_layer)


def _rows_by_sample(rows):
    return sorted(rows, key=lambda r: (r[1], r[0]))


def test_every_check_is_independent_of_its_batch(batch_charts):
    # a batch of N, a reversed batch and a split batch give the rows that
    # batches of one give (``_reference_rows``), bit for bit
    for ch in batch_charts:
        samples = random_interior_points(ch, 4, seed=29)
        for name in sorted(prodsub.scene.CHECKS):
            ref = _outcome(_reference_rows, ch, [name], samples, 3)
            if isinstance(ref, str):
                continue  # the check raises on this chart (wrong codimension)
            for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
                rows = _rows(ch, [name], samples, order, 3)
                assert _same_rows(_rows_by_sample(rows), ref), (ch.label, name, order)
            split = _run_rows(ch, [name], samples[:1], 3)
            split += _rows(ch, [name], samples, [1, 2, 3], 3)
            assert _same_rows(split, ref), (ch.label, name)


def _chunk_of(batch):
    """The chunk of one sample whose geometry is the batch of one ``batch``."""
    return prodsub.scene.Chunk(batch.chart, np.array([0]), batch.u, 0, second_fundamental(batch))


def test_jet_level_checks_are_invariant_under_normal_sign_flips(batch_charts):
    for ch in batch_charts:
        for u in random_interior_points(ch, 3, seed=41):
            b = analyze_point(ch, u[None])
            codim = b.normal_onb.shape[1]
            flips = [[-1.0 if (k >> a) & 1 else 1.0 for a in range(codim)] for k in range(1, 2**codim)]
            for name in JET_LEVEL_CHECKS:
                try:
                    base = prodsub.scene.CHECKS[name](_chunk_of(b))
                except prodsub.errors.RowFailure:
                    continue  # e0 off codimension 2
                for signs in flips:
                    values, notes, degen = prodsub.scene.CHECKS[name](_chunk_of(b.with_flipped_normals(signs)))
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
    shapes = _count_analyze(monkeypatch)
    scene = _load("biharmonic_scan_eps1.json")
    scan = prodsub.scene.scan_parameter(scene, "a2", 0.4, 0.6, 3, "biharmonic_normal")
    m = 3
    # one call for the 3 step centers, then one for the 8 samples with first layers per step
    assert shapes == [(3, m), (3 * 8 * (1 + 4 * m), m)]
    for row in scan["rows"]:
        gallery = {**scene["immersion"]["gallery"], "a2": row["value"]}
        chart = build_chart({**scene, "immersion": {"gallery": gallery}})
        want, _ = prodsub.classify.biharmonic_predicates(second_fundamental(analyze_point(chart, chart.center()[None])))
        assert _same(row["signed"], want[0])


def test_a_scan_fills_each_call_with_points(monkeypatch):
    shapes = _count_analyze(monkeypatch)
    scene = _load("biharmonic_scan_eps1.json")
    prodsub.scene.scan_parameter(scene, "a2", 0.3, 0.9, 61, "biharmonic_normal")
    k = 1 + 4 * 3  # a sample's first layer
    # the 61 step centers take one call; then 39 samples (507 points) a call
    assert [s[0] for s in shapes] == [61] + [39 * k] * 12 + [(61 * 8 - 12 * 39) * k]
    assert all(s[0] <= prodsub.immersion._BATCH_POINTS for s in shapes)


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

    def arrays(rows):
        b = rows.batch
        fields = [b.jet.values, b.jet.jac, b.jet.d2, b.g_inv, b.tangent_onb, b.normal_onb, b.T_ambient, b.eta]
        return fields + [rows.alpha, rows.H, *prodsub.extrinsic.T_eta_residuals(rows), prodsub.classify.biharmonic_predicates(rows)[0]]

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
