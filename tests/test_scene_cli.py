import copy
import functools
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prodsub.errors
import prodsub.immersion
import prodsub.scene
from prodsub.cli import main
from prodsub.errors import ChartError, SceneError
from prodsub.scene import (
    SCENE_SCHEMA,
    _conforms,
    _validate,
    build_chart,
    format_scan_table,
    load_scene,
    run_scene,
    sample_points,
    scan_parameter,
    validate_scene,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _load(name):
    return load_scene(str(SCENES / name))


def test_schema_rejects_malformed_scene(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ambient": {"epsilon": 2, "n": 4}}))
    with pytest.raises(SceneError):
        load_scene(str(bad))
    bad.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(str(bad))
    # the exact texts of jsonschema's best match, which a rejection still reports
    cyl = _load("theorem1_cylinder.json")
    cases = [
        ({**cyl, "ambient": {"epsilon": 2, "n": 4}}, "2 is not one of [1, -1]"),
        ({"ambient": {"epsilon": 1, "n": 4}}, "'immersion' is a required property"),
        ({**cyl, "immersion": BOTH}, f"{BOTH} is valid under each of {{'required': ['expressions']}}, "
                                     "{'required': ['gallery']}"),
        ({**cyl, "colour": "red"}, "Additional properties are not allowed ('colour' was unexpected)"),
    ]
    for scene, message in cases:
        with pytest.raises(SceneError) as exc:
            validate_scene(scene)
        assert str(exc.value) == f"scene does not match the schema: {message}"
    for override, message in (({"mode": "random", "counts": 0}, "0 is less than the minimum of 1"),
                              ({"seed": -1}, "-1 is less than the minimum of 0")):
        with pytest.raises(SceneError) as exc:
            run_scene(cyl, sampling_override=override)
        assert str(exc.value) == f"scene does not match the schema: {message}"


# ---- the built-in schema reader against jsonschema --------------------------

SAMPLING_SCHEMA = SCENE_SCHEMA["properties"]["sampling"]
CORPUS = {p.name: json.loads(p.read_text()) for p in sorted(SCENES.glob("*.json"))}
# values past or at the schema's bounds, bools and 3.0 for integers, NaN and inf, values of other types,
# and an immersion of both kinds ({} has neither)
BOTH = {"gallery": {"kind": "theorem1"}, "expressions": {"m": 1, "coords": [], "domain": []}}
ODD_VALUES = [-1, 0, 1, 2, 9, 10, 3.0, 0.5, True, False, math.nan, math.inf, -math.inf,
              None, "3", "grid", [], [0.5, 1.5], [1, 2, 3], {}, {"kind": "theorem1"}, BOTH]
DELETE = object()


def _paths(doc, path=()):
    """The path of every value in ``doc``, its root included."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _edits(doc):
    """Every single edit of ``doc`` as (path, key, value): an item or key
    deleted, or set to one of ODD_VALUES, or an item or an unknown key added,
    in every object and array at any level."""
    for path in _paths(doc):
        node = _at(doc, path)
        if isinstance(node, (dict, list)):
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            yield from ((path, key, DELETE) for key in keys)
            added = "unknown" if isinstance(node, dict) else len(node)
            yield from ((path, key, value) for key in [*keys, added] for value in ODD_VALUES)


def _apply(doc, edit):
    path, key, value = edit
    doc = copy.deepcopy(doc)
    node = _at(doc, path)
    if value is DELETE:
        del node[key]
    elif isinstance(node, list) and key == len(node):
        node.append(copy.deepcopy(value))
    else:
        node[key] = copy.deepcopy(value)
    return doc


@st.composite
def _edited(draw, doc):
    """``doc`` after one to three edits."""
    for _ in range(draw(st.integers(1, 3))):
        doc = _apply(doc, draw(st.sampled_from(list(_edits(doc)))))
    return doc


def _assert_agrees_with_jsonschema(doc, schema, validate):
    """A document ``_conforms`` accepts is valid to jsonschema, and
    ``validate`` raises best_match's message exactly when jsonschema finds
    an error."""
    validator = jsonschema.Draft202012Validator(schema)
    if _conforms(doc, schema):
        assert validator.is_valid(doc)
    err = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if err is None:
        validate(doc)
        return
    with pytest.raises(SceneError) as exc:
        validate(doc)
    assert str(exc.value) == f"scene does not match the schema: {err.message}"


def test_every_corpus_scene_conforms():
    assert all(_conforms(scene, SCENE_SCHEMA) for scene in CORPUS.values())


def test_conforms_accepts_no_single_edit_that_jsonschema_rejects():
    validator = jsonschema.Draft202012Validator(SCENE_SCHEMA)
    for scene in CORPUS.values():
        for edit in _edits(scene):
            doc = _apply(scene, edit)
            assert not _conforms(doc, SCENE_SCHEMA) or validator.is_valid(doc), edit


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(CORPUS.values())).flatmap(_edited))
@example({**CORPUS["slice.json"], "ambient": {"epsilon": 1, "n": 4.0}})  # refused here, accepted by jsonschema
@example({**CORPUS["slice.json"], "ambient": {"epsilon": 1.0, "n": 4}})
def test_conforms_never_accepts_what_jsonschema_rejects(doc):
    _assert_agrees_with_jsonschema(doc, SCENE_SCHEMA, validate_scene)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([scene["sampling"] for scene in CORPUS.values()] + [{}]).flatmap(_edited))
def test_the_sampling_check_never_accepts_what_jsonschema_rejects(sampling):
    _assert_agrees_with_jsonschema(sampling, SAMPLING_SCHEMA, lambda doc: _validate(SAMPLING_SCHEMA, doc))


# the keywords _conforms reads; any other would be ignored, a silent false accept
CONFORMS_KEYWORDS = {"type", "enum", "minimum", "maximum", "required", "properties", "additionalProperties",
                     "items", "minItems", "maxItems", "oneOf"}


def test_conforms_reads_every_keyword_of_the_schema():
    def walk(schema):
        assert set(schema) <= CONFORMS_KEYWORDS | {"$schema"}, set(schema) - CONFORMS_KEYWORDS
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(prodsub.scene._TYPES)
        for sub in [*schema.get("properties", {}).values(), *map(schema.get, ("additionalProperties", "items"))]:
            assert sub in (None, False) or isinstance(sub, dict)  # None: absent
            if isinstance(sub, dict):
                walk(sub)
        for branch in schema.get("oneOf", ()):  # a stricter branch could make oneOf looser
            assert set(branch) == {"required"}

    walk(SCENE_SCHEMA)


def test_scan_validates_a_scene_dict_itself():
    # run_scene takes validated scenes; scan_parameter, called on scene dicts, checks its own
    scene = _load("biharmonic_scan_eps1.json")
    for bad in ({**scene, "ambient": {"epsilon": 2, "n": 4}}, {k: v for k, v in scene.items() if k != "immersion"}):
        with pytest.raises(SceneError, match="does not match the schema"):
            scan_parameter(bad, "a2", 0.3, 0.9, 3, "biharmonic_normal")


def test_run_theorem1_cylinder_scene_all_pass():
    rep = run_scene(_load("theorem1_cylinder.json"))
    assert rep["all_pass"]
    assert {c["verdict"] for c in rep["checks"]} == {"PASS"}


def test_run_helicoid_scene_pmc_fails():
    rep = run_scene(_load("theorem1_helicoid.json"))
    by = {c["name"]: c for c in rep["checks"]}
    assert by["pmc"]["verdict"] == "FAIL"
    assert by["pmc"]["max_residual"] >= 1e-3


def test_run_slice_scene_degenerate():
    rep = run_scene(_load("slice.json"))
    by = {c["name"]: c for c in rep["checks"]}
    assert by["biconservative"]["verdict"] == "DEGENERATE"
    assert by["biconservative"]["max_residual"] == 0.0
    assert rep["all_pass"]


def test_expression_mirror_scenes_pass():
    for name in ("theorem1_cylinder_expr.json", "slice_expr.json", "vertical_cylinder_expr.json"):
        rep = run_scene(_load(name))
        assert rep["all_pass"], name


def test_jobs_determinism(tmp_path):
    scene = _load("theorem1_cylinder.json")
    scene["checks"] = ["pmc", "biconservative", "class_a", "gauss"]
    p1, p4 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_scene(scene, jobs=1, csv_path=str(p1))
    r4 = run_scene(scene, jobs=4, csv_path=str(p4))
    v1 = [(c["name"], c["verdict"], c["max_residual"], c["mean_residual"]) for c in r1["checks"]]
    v4 = [(c["name"], c["verdict"], c["max_residual"], c["mean_residual"]) for c in r4["checks"]]
    assert v1 == v4
    assert p1.read_bytes() == p4.read_bytes()


STRUCTURE_CHECKS = [
    "gauss", "codazzi", "ricci", "vector_t", "vector_eta",
    "pmc", "biconservative_full", "biharmonic_normal",
]


@pytest.mark.parametrize("name", ["theorem1_helicoid.json", "slice_expr.json"])
def test_jobs_determinism_structure_checks(tmp_path, name):
    scene = _load(name)
    scene["checks"] = STRUCTURE_CHECKS
    sampling = {"mode": "random", "counts": 5, "seed": 4}
    p1, p2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    r1 = run_scene(scene, sampling_override=sampling, jobs=1, csv_path=str(p1))
    r2 = run_scene(scene, sampling_override=sampling, jobs=2, csv_path=str(p2))
    v1 = [(c["name"], c["verdict"], c["max_residual"], c["mean_residual"]) for c in r1["checks"]]
    v2 = [(c["name"], c["verdict"], c["max_residual"], c["mean_residual"]) for c in r2["checks"]]
    assert v1 == v2
    assert p1.read_bytes() == p2.read_bytes()
    assert r1["parallel"] == {"requested": 1, "used": 1, "fallback_reason": None}
    assert r2["parallel"] == {"requested": 2, "used": 2, "fallback_reason": None}


def test_parallel_block_names_the_fallback(monkeypatch, tmp_path):
    real_fork = os.fork

    def no_fork():
        raise OSError("fork refused")

    scene = _load("theorem1_cylinder.json")
    kw = dict(checks=["pmc", "gauss"], sampling_override={"mode": "grid", "grid": [2, 2, 2]})
    serial = run_scene(scene, jobs=1, csv_path=str(tmp_path / "a.csv"), **kw)
    monkeypatch.setattr(prodsub.scene.os, "fork", no_fork)
    fallback = run_scene(scene, jobs=2, csv_path=str(tmp_path / "b.csv"), **kw)
    assert fallback["parallel"] == {
        "requested": 2,
        "used": 1,
        "fallback_reason": "OSError: fork refused",
    }
    assert fallback["checks"] == serial["checks"]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    # a fork that fails after one child started: that child keeps the last
    # block, and this process computes the two blocks before it
    forks = iter([real_fork])
    monkeypatch.setattr(prodsub.scene.os, "fork", lambda: next(forks, no_fork)())
    partial = run_scene(scene, jobs=3, csv_path=str(tmp_path / "c.csv"), **kw)
    assert partial["parallel"] == {"requested": 3, "used": 2, "fallback_reason": "OSError: fork refused"}
    assert partial["checks"] == serial["checks"]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    _no_child_left()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_PMC_SAMPLING = {"mode": "grid", "grid": [2, 2, 2]}


def _pmc_run(jobs):
    # 8 samples: blocks of 4/4 under --jobs 2 and 3/3/2 under --jobs 3
    return run_scene(_load("theorem1_cylinder.json"), checks=["pmc"], sampling_override=_PMC_SAMPLING, jobs=jobs)


def _pmc_ids(rows):
    """The sample index of each of the rows that the pmc kernel of ``_pmc_run`` gets."""
    samples = sample_points(build_chart(_load("theorem1_cylinder.json")), _PMC_SAMPLING)
    return np.array([np.flatnonzero((samples == u).all(axis=1))[0] for u in rows.u])


def _patch_pmc(monkeypatch, fault):
    """Make the pmc kernel call ``fault(rows)`` before it runs."""
    original = prodsub.scene.CHECKS["pmc"]
    monkeypatch.setitem(prodsub.scene.CHECKS, "pmc", lambda c: fault(c) or original(c))


@pytest.mark.parametrize("jobs", [2, 3])
def test_forked_runs_leave_no_child_behind(monkeypatch, jobs):
    _no_child_left()
    assert _pmc_run(jobs)["parallel"] == {"requested": jobs, "used": jobs, "fallback_reason": None}
    _no_child_left()

    def planted(c):  # samples 5 and 6 lie in the last block(s), which children compute
        ids = _pmc_ids(c)
        bad = np.flatnonzero(np.isin(ids, [5, 6]))
        if len(bad):
            raise prodsub.errors.RowFailure(int(bad[0]), ChartError(f"planted at {ids[bad[0]]}"))

    _patch_pmc(monkeypatch, planted)
    msgs = []
    for j in (1, jobs):
        with pytest.raises(prodsub.errors.EngineError) as err:
            _pmc_run(j)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] and "check pmc failed at sample 5, u=" in msgs[0] and "planted at 5" in msgs[0]
    _no_child_left()

    parent = os.getpid()

    for kind in (ZeroDivisionError, KeyboardInterrupt):

        def parent_fails(c):
            if os.getpid() == parent:
                raise kind("planted in the parent's block")

        _patch_pmc(monkeypatch, parent_fails)
        with pytest.raises(kind, match="planted in the parent's block"):
            _pmc_run(jobs)
        _no_child_left()


def test_a_child_that_dies_or_raises_is_an_error_of_its_block(monkeypatch):
    parent = os.getpid()

    def child_exits(c):
        if os.getpid() != parent:
            os._exit(7)

    def child_leaves(c):  # a BaseException that is not an Exception: the child exits 1 without a result
        if os.getpid() != parent:
            raise SystemExit(0)

    for fault, status in ((child_exits, "wait status 1792, exit code 7"), (child_leaves, "wait status 256, exit code 1")):
        _patch_pmc(monkeypatch, fault)
        with pytest.raises(prodsub.errors.EngineError) as err:
            _pmc_run(2)
        assert str(err.value) == f"a worker process ended without a result ({status})"
        _no_child_left()

    def child_raises(c):
        if os.getpid() != parent:
            raise ZeroDivisionError(f"planted in a child at sample {_pmc_ids(c)[0]}")

    _patch_pmc(monkeypatch, child_raises)
    with pytest.raises(ZeroDivisionError, match="^planted in a child at sample 4$"):
        _pmc_run(2)
    _no_child_left()


def test_scan_jobs_table_byte_identical(tmp_path):
    scans = [
        ("biharmonic_scan_eps1.json", "a2", "0.3", "0.9", "7", "biharmonic_normal"),
        ("biharmonic_scan_eps1.json", "a2", "0.3", "0.9", "13", "biharmonic_normal"),
        ("vertical_cylinder_expr.json", "r", "0.3", "1.2", "5", "gauss"),
    ]
    for name, param, lo, hi, steps, residual in scans:
        tables = []
        for jobs in ("1", "2", "4"):
            out = tmp_path / f"scan{jobs}.dat"
            argv = ["scan", "--scene", str(SCENES / name), "--param", param, "--from", lo, "--to", hi]
            argv += ["--steps", steps, "--residual", residual, "--jobs", jobs, "--out", str(out)]
            assert main(argv) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1] == tables[2], (name, steps, residual)


def test_scan_reports_the_first_failing_step_under_jobs():
    # a2 = 1 leaves 0 < |a| < 1 on S^4: steps 3 and 4 of 5 both fail
    scene = _load("biharmonic_scan_eps1.json")
    msgs = []
    for jobs in (1, 2):
        with pytest.raises(ChartError) as err:
            scan_parameter(scene, "a2", 0.5, 1.3, 5, "biharmonic_normal", jobs=jobs)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] and "a=1" in msgs[0]


def test_run_reports_the_first_failing_sample_under_jobs(capsys):
    # e0 fails on every sample of the slice (codimension 3): each job count
    # reports sample 0, whichever process fails first in time
    argv = ["run", "--scene", str(SCENES / "slice.json"), "--samples", "40", "--seed", "5"]
    argv += ["--check", "membership", "--check", "e0", "--check", "biconservative"]
    errs = []
    for jobs in ("1", "2", "4"):
        assert main([*argv, "--jobs", jobs]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == errs[2]
    assert "check e0 failed at sample 0, u=" in errs[0]


def test_csv_header_and_shape(tmp_path):
    scene = _load("theorem1_cylinder.json")
    csv = tmp_path / "r.csv"
    run_scene(scene, checks=["membership"], csv_path=str(csv))
    lines = csv.read_text().splitlines()
    assert lines[0] == "check,sample_index,u1,u2,s,residual"
    assert len(lines) == 1 + 4 * 4 * 4
    first = lines[1].split(",")
    assert first[0] == "membership" and first[1] == "0" and len(first) == 6
    # a count-1 axis of the grid sits at the midpoint of its interval
    chart = build_chart(scene)
    pts = sample_points(chart, {"mode": "grid", "grid": [1, 3, 2]})
    assert pts.shape == (1 * 3 * 2, 3)
    assert np.allclose(pts[:, 0], chart.center()[0], rtol=0.0, atol=1e-15)


def test_random_sampling_deterministic():
    scene = _load("theorem1_helicoid.json")
    chart = build_chart(scene)
    a = sample_points(chart, {"mode": "random", "counts": 17, "seed": 5})
    b = sample_points(chart, {"mode": "random", "counts": 17, "seed": 5})
    c = sample_points(chart, {"mode": "random", "counts": 17, "seed": 6})
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_chart_built_once_per_run_and_scan_step(monkeypatch):
    # a run builds its chart once, and a scan builds one family chart for
    # all its steps and validates its scene once; forked children build none
    parent, calls, validations = os.getpid(), [], []
    original = prodsub.scene.build_chart
    original_validate = prodsub.scene.validate_scene

    def counting_build_chart(scene, *scan):
        # raised in a forked child, this is re-raised in the parent
        if os.getpid() != parent:
            raise RuntimeError("a forked child rebuilt the chart")
        calls.append(scene)
        return original(scene, *scan)

    monkeypatch.setattr(prodsub.scene, "build_chart", counting_build_chart)
    monkeypatch.setattr(prodsub.scene, "validate_scene", lambda scene: validations.append(1) or original_validate(scene))
    scene = _load("theorem1_cylinder.json")
    for jobs in (1, 2):
        calls.clear()
        run_scene(
            scene,
            checks=["membership", "pmc"],
            sampling_override={"mode": "grid", "grid": [2, 2, 2]},
            jobs=jobs,
        )
        assert len(calls) == 1, jobs
    scene = _load("biharmonic_scan_eps1.json")
    for jobs in (1, 2):
        calls.clear()
        validations.clear()
        scan_parameter(scene, "a2", 0.4, 0.6, 3, "biharmonic_normal", jobs=jobs)
        assert len(calls) == 1 and len(validations) == 1, jobs


def test_unknown_check_is_scene_error():
    scene = _load("slice.json")
    with pytest.raises(SceneError, match="unknown checks"):
        run_scene(scene, checks=["nope"])


TOL_RUN = ["run", "--scene", str(SCENES / "theorem1_cylinder.json"), "--samples", "3", "--check", "pmc"]


@pytest.mark.parametrize("value", ["abc", "nan", "-1e-3", ""])
def test_a_tolerance_that_is_not_a_non_negative_number_is_a_scene_error(capsys, tmp_path, value):
    assert main(TOL_RUN + ["--tol", f"pmc={value}"]) == 2
    assert capsys.readouterr().err == f"scene error: tolerance pmc={value!r} is not a non-negative number\n"
    scene = _load("theorem1_cylinder.json")
    with pytest.raises(SceneError, match=r"tolerance pmc=.* is not a non-negative number"):
        run_scene(scene, checks=["pmc"], tolerances={"pmc": value})
    for bad in (float("nan"), -1e-3):  # in the scene's tolerances block, which the schema lets through
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**scene, "tolerances": {"pmc": bad}}))
        with pytest.raises(SceneError, match=r"tolerance pmc=.* is not a non-negative number"):
            run_scene(load_scene(str(path)), checks=["pmc"])
        assert main(["run", "--scene", str(path), "--samples", "3", "--check", "pmc"]) == 2
    # zero and infinity are tolerances
    assert run_scene(scene, checks=["mean_curvature"], tolerances={"mean_curvature": "inf"})["all_pass"]
    assert not run_scene(scene, checks=["pmc"], tolerances={"pmc": 0})["all_pass"]


def test_a_tolerance_for_an_unknown_check_is_a_scene_error(capsys, tmp_path):
    assert main(TOL_RUN + ["--tol", "pmcc=1e-3"]) == 2
    assert capsys.readouterr().err == "scene error: unknown tolerances: ['pmcc']\n"
    scene = _load("theorem1_cylinder.json")
    with pytest.raises(SceneError, match=r"unknown tolerances: \['pmcc'\]"):
        run_scene(scene, checks=["pmc"], tolerances={"pmcc": 1e-3})
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**scene, "tolerances": {"pmcc": 1e-3}}))
    with pytest.raises(SceneError, match=r"unknown tolerances: \['pmcc'\]"):
        run_scene(load_scene(str(path)), checks=["pmc"])
    assert main(["run", "--scene", str(path), "--samples", "3", "--check", "pmc"]) == 2
    # a tolerance of a check the run does not request is no error
    assert run_scene(scene, checks=["pmc"], tolerances={"gauss": 1e-3})["all_pass"]


def test_adding_a_check_moves_no_random_stream(monkeypatch, tmp_path):
    # no check draws anything, so a new check whose name sorts first leaves
    # the residuals of gauss, codazzi and ricci byte for byte as they were
    def run(csv):
        path = tmp_path / csv
        run_scene(_load("theorem1_cylinder.json"), checks=["gauss", "codazzi", "ricci"], csv_path=str(path))
        return path.read_bytes()

    before = run("before.csv")
    dummy = prodsub.scene.Check(prodsub.scene.CHECKS["vector_t"], 1e-5)
    monkeypatch.setitem(prodsub.scene.CHECK_TABLE, "aaa_dummy", dummy)
    monkeypatch.setitem(prodsub.scene.CHECKS, "aaa_dummy", dummy.kernel)
    assert sorted(prodsub.scene.CHECKS)[0] == "aaa_dummy"
    assert run("after.csv") == before


def test_seeds_past_64_bits_do_not_alias(tmp_path):
    # the cylinder samples a grid and gauss draws nothing, so no seed, of
    # whatever size, changes its column
    def gauss(seed):
        path = tmp_path / f"{seed}.csv"
        report = run_scene(_load("theorem1_cylinder.json"), checks=["gauss"], sampling_override={"seed": seed},
                           csv_path=str(path))
        # the report names the one generator, of the sample positions
        assert report["rng"] == {"name": "numpy-PCG64", "seed": seed}
        return [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]

    columns = [gauss(s) for s in (0, 2**64, 2**64 + 1)]
    assert len(columns[0]) == 64
    assert columns[0] == columns[1] == columns[2]


def test_a_chart_with_a_small_metric_is_regular(tmp_path, capsys):
    # the cylinder in v = u / 0.005 has g = 2.5e-5 I, cond(g) = 1 and det g
    # = 1.6e-14: regular, with the verdicts of the original chart
    scene = _load("theorem1_cylinder_expr.json")
    ex = scene["immersion"]["expressions"]
    names = "|".join(ex["var_names"])
    small = copy.deepcopy(scene)
    small["immersion"]["expressions"].update(
        coords=[re.sub(rf"\b({names})\b", r"(0.005*\1)", c) for c in ex["coords"]],
        domain=[[lo / 0.005, hi / 0.005] for lo, hi in ex["domain"]],
    )
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small))
    capsys.readouterr()
    assert main(["run", "--scene", str(path), "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = run_scene(scene)
    assert [(c["name"], c["verdict"]) for c in got["checks"]] == [(c["name"], c["verdict"]) for c in want["checks"]]
    b = prodsub.immersion.analyze_point(build_chart(small), sample_points(build_chart(small), small["sampling"]))
    assert np.allclose(b.g, 2.5e-5 * np.eye(3), rtol=1e-12, atol=0) and b.errors == [None] * len(b)


def test_scan_single_step():
    scene = _load("biharmonic_scan_eps1.json")
    scan = scan_parameter(scene, "a2", 0.64, 0.64, 1, "biharmonic_normal")
    assert len(scan["rows"]) == 1
    table = format_scan_table(scan)
    assert table.startswith("# a2")
    assert len([l for l in table.splitlines() if not l.startswith("#")]) == 1


@pytest.mark.parametrize("bound", ["from", "to"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_scan_bound_is_a_scene_error(bound, value, capsys):
    # rejected before any step is built, with no numpy warning on the way
    given = {"from": "0.3", "to": "0.9", bound: value}
    argv = ["scan", "--scene", str(SCENES / "biharmonic_scan_eps1.json"), "--param", "a2", "--from=" + given["from"],
            "--to=" + given["to"], "--steps", "5", "--residual", "biharmonic_normal"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"scene error: a scan needs finite bounds, got {bound}={float(value)}\n"


def test_scan_eps1_minimum_at_half():
    scene = _load("biharmonic_scan_eps1.json")
    scan = scan_parameter(scene, "a2", 0.3, 0.9, 13, "biharmonic_normal")
    assert scan["min_at"] == pytest.approx(0.5, abs=1e-12)
    assert scan["min_residual"] <= 1e-12
    assert scan["brackets"] == []  # the signed predicate never changes sign


def test_scan_eps_minus1_no_zero():
    scene = _load("biharmonic_scan_eps-1.json")
    scan = scan_parameter(scene, "a2", 1.3, 1.9, 7, "biharmonic_normal")
    assert scan["min_residual"] >= 1e-2
    assert scan["brackets"] == []


# ---- CLI surface ----------------------------------------------------------


def test_cli_run_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        [
            "run",
            "--scene",
            str(SCENES / "theorem1_cylinder.json"),
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["engine"]["name"] == "prodsub"
    assert rep["rng"]["name"] == "numpy-PCG64"

    assert main(["run", "--scene", str(SCENES / "theorem1_helicoid.json")]) == 1
    assert main(["run", "--scene", str(SCENES / "slice.json")]) == 0


def test_cli_scene_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ambient": {"epsilon": 1, "n": 4}}))
    assert main(["run", "--scene", str(bad)]) == 2
    assert main(["run", "--scene", str(tmp_path / "missing.json")]) == 2
    # sampling overrides and scan steps are held to the schema's bounds too
    cyl, sl = str(SCENES / "theorem1_cylinder.json"), str(SCENES / "slice.json")
    for extra in (["--samples", "-1"], ["--samples", "0"], ["--seed", "-1"], ["--grid", "0x2x2"]):
        assert main(["run", "--scene", cyl, *extra]) == 2, extra
    assert main(["run", "--scene", sl, "--grid", "0x2"]) == 2
    scan = ["scan", "--scene", str(SCENES / "biharmonic_scan_eps1.json"), "--param", "a2"]
    scan += ["--from", "0.3", "--to", "0.9", "--residual", "biharmonic_normal"]
    for steps in ("0", "-2"):
        assert main([*scan, "--steps", steps]) == 2, steps


def test_cli_computation_error_exit_3(tmp_path, capsys):
    # e0 needs codimension 2; the slice in Q^4 x R has codimension 3
    scene = json.loads((SCENES / "slice.json").read_text())
    scene["checks"] = ["e0"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(p)]) == 3
    err = capsys.readouterr().err
    assert "check e0 failed at sample 0" in err and "codimension is 3, need exactly 2" in err


def test_cli_overrides(tmp_path):
    # forcing an absurd tolerance flips the verdict: exit 1
    code = main(
        [
            "run",
            "--scene",
            str(SCENES / "theorem1_cylinder.json"),
            "--check",
            "pmc",
            "--tol",
            "pmc=1e-30",
            "--grid",
            "2x2x2",
        ]
    )
    assert code == 1


def test_cli_scan_writes_plot_data(tmp_path):
    out = tmp_path / "scan.dat"
    code = main(
        [
            "scan",
            "--scene",
            str(SCENES / "biharmonic_scan_eps1.json"),
            "--param",
            "a2",
            "--from",
            "0.45",
            "--to",
            "0.55",
            "--steps",
            "3",
            "--residual",
            "biharmonic_normal",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 3 and all(len(l.split()) == 2 for l in data)


def test_cli_list_gallery(capsys):
    assert main(["list-gallery"]) == 0
    text = capsys.readouterr().out
    assert "theorem1" in text and "eps=+1: a^2+b^2=1" in text
    assert "partial_tube" in text and "sum alpha_i^2 = 1" in text

    assert main(["list-gallery", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "cmc_product" in data


def _python(*args):
    """Run a fresh interpreter that finds the package where this process does,
    installed or not."""
    src = Path(prodsub.scene.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True)


def test_console_entry_point_smoke():
    proc = _python("-m", "prodsub.cli", "list-gallery", "--format", "json")
    assert proc.returncode == 0
    assert "theorem1" in proc.stdout


def test_an_accepted_run_never_imports_jsonschema():
    cyl = str(SCENES / "theorem1_cylinder.json")
    proc = _python("-c", f"import sys; from prodsub.cli import main; assert main(['run', '--scene', {cyl!r}]) == 0; "
                         "assert 'jsonschema' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
    proc = _python("-m", "prodsub.cli", "run", "--scene", cyl, "--samples", "0")
    assert proc.returncode == 2
    assert proc.stderr == "scene error: scene does not match the schema: 0 is less than the minimum of 1\n"


def test_schema_is_valid_jsonschema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(SCENE_SCHEMA)


def test_nonfinite_residual_fails_with_diagnostic():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    samples = np.array([[0.1, 0.2], [0.3, 0.4]])
    columns = {"membership": (np.array([float("nan"), 0.0]), set(), np.array([False, False]))}
    report, any_fail = _merge_stats(columns, samples, chart, ["membership"], {})
    assert any_fail
    assert report[0]["verdict"] == "FAIL"
    assert "non-finite" in report[0]["notes"]


def test_a_nan_predicate_on_a_defined_frame_is_non_finite_not_degenerate():
    # the predicate's undefined rows are those of the codim-2 frame: a NaN
    # where the frame is defined (here alpha, read after H is formed) fails
    # as every other check's NaN does, and is not counted as degenerate
    from prodsub.extrinsic import geometry
    from prodsub.scene import _chk_biharmonic_predicate, _merge_stats

    chart = build_chart(_load("theorem1_cylinder.json"))
    samples = np.array([[0.1, 0.2, 0.3], [0.3, -0.2, 0.4]])
    rows = geometry(chart, samples)
    rows.alpha[0] = np.nan
    values, notes, degen = _chk_biharmonic_predicate(rows)
    assert np.isnan(values[0]) and not degen.any()
    assert np.isfinite(rows.H).all() and not rows.frame.failed.any()
    report, any_fail = _merge_stats({"biharmonic_predicate": (values, notes, degen)}, samples, chart, ["biharmonic_predicate"], {})
    assert any_fail and report[0]["verdict"] == "FAIL" and report[0]["samples_degenerate"] == 0
    assert "non-finite residual encountered" in report[0]["notes"]
    assert "codim-2 frame undefined" not in report[0]["notes"]


def test_mixed_degenerate_and_live_samples():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    samples = np.array([[0.1, 0.2], [0.3, 0.4]])
    columns = {"class_a": (np.array([0.0, 1e-12]), {"T = 0 (slice-type point)"}, np.array([True, False]))}
    report, any_fail = _merge_stats(columns, samples, chart, ["class_a"], {})
    assert not any_fail
    assert report[0]["verdict"] == "PASS"  # live samples decide the verdict


def _s2_scene(tmp_path, t_coord, s_coord="cos(u2)"):
    scene = {
        "ambient": {"epsilon": 1, "n": 2},
        "immersion": {
            "expressions": {
                "m": 2,
                "coords": [s_coord, "sin(u2)", "0", t_coord],
                "domain": [[-1.0, 1.0], [-0.5, 0.5]],
                "var_names": ["u1", "u2"],
            }
        },
        "sampling": {"mode": "grid", "grid": [3, 3]},
        "checks": ["membership"],
    }
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(scene))
    return path


def test_coordinate_overflow_exits_3(tmp_path, capsys):
    # exp(1000 u1) overflows for u1 > 0.71; the first such probe point is
    # (0.96, -0.48)
    path = _s2_scene(tmp_path, "u1", "cos(u2) + (exp(1000*u1) - exp(1000*u1))")
    assert main(["run", "--scene", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err == (
        "computation error: coordinate 0 failed at u=[0.96, -0.48]: "
        "at position 11: math range error"
    )


def test_a_coordinate_that_does_not_parse_is_a_scene_error(tmp_path, capsys):
    scene = json.loads((SCENES / "slice_expr.json").read_text())
    scene["immersion"]["expressions"]["coords"][0] = "cos(u1"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "scene error: cannot parse coordinate 'cos(u1': parse error at position 6: "
        "unexpected end of input (expected ')')"
    )


def test_an_expression_that_fails_while_a_chart_builds_exits_3(tmp_path, capsys):
    # the partial tube evaluates its base normals itself, outside the chart's coordinate maps;
    # its first base probe point is u1 = -1.2 + 0.02 * 2.4 = -1.152
    normal = ["0", "0", "sqrt(u1 - 5)", "0"]
    scene = {
        "ambient": {"epsilon": 1, "n": 3},
        "immersion": {"gallery": {"kind": "partial_tube", "base": {"kind": "geodesic", "normals": [normal]}}},
        "checks": ["membership"],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(path)]) == 3
    assert capsys.readouterr().err.strip() == (
        "computation error: base normal 0, component 2 'sqrt(u1 - 5)' failed: "
        "at position 0: sqrt: argument -6.152 outside the function domain"
    )


@pytest.mark.parametrize(
    "base, profile, message",
    [
        ({"normals": [["0", "0", "x*u1", "0"]]}, None, "base normal 0, component 2 'x*u1': unbound identifiers ['x']"),
        ({"k": 1}, {"coords": ["cos(w*s)", "sin(w*s)", "0.6*s"]},
         "profile component 0 'cos(w*s)': unbound identifiers ['w']"),
    ],
)
def test_an_unbound_identifier_in_a_partial_tube_is_a_scene_error(tmp_path, capsys, monkeypatch, base, profile, message):
    # the partial tube evaluates its base normals and profile itself; a name
    # that u1 (base normals) or s and the profile params do not bind fails
    # before any of them is evaluated
    def no_evaluation(*args):
        raise AssertionError("an expression was evaluated")

    monkeypatch.setattr(prodsub.exprlang, "eval_jet", no_evaluation)
    gallery = {"kind": "partial_tube", "base": {"kind": "geodesic", **base}}
    if profile is not None:
        gallery["profile"] = profile
    scene = {"ambient": {"epsilon": 1, "n": 3}, "immersion": {"gallery": gallery}, "checks": ["membership"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"scene error: cannot evaluate {message}"


_CUSTOM_PHI = {"coords": ["q*cos(u1/q)", "q*sin(u1/q)", "0", "u2"], "params": {"q": 0.8}}


@pytest.mark.parametrize(
    "gallery, message",
    [
        ({"kind": "theorem1", "a": 0.8, "foo": 1},
         "gallery kind theorem1 has no parameter 'foo'; it takes a, a2, phi_kind, phi_params"),
        ({"kind": "vertical_cylinder", "curve": {"kind": "circle"}}, "circle curve r must be a number, got None"),
        ({"kind": "theorem1", "a": 0.8, "phi_kind": "custom", "phi_params": {**_CUSTOM_PHI, "domain": [[-1.0, 1.0]]}},
         "custom phi domain needs 2 intervals [lo, hi], got [[-1.0, 1.0]]"),
        ({"kind": "theorem1", "a": "0.8"}, "a must be a number, got '0.8'"),
        ({"kind": "vertical_cylinder", "curve": {"kind": "exprs", "coords": ["cos(q)", "sin(q)*cos(u1)", "sin(q)*sin(u1)",
                                                                         "0", "0"], "params": {"q": "0.7"}}},
         "curve param q must be a number, got '0.7'"),
        ({"kind": "partial_tube", "base": 5}, "base must be an object, got 5"),
        ({"kind": "vertical_cylinder", "curve": "circle"}, "curve must be an object, got 'circle'"),
        ({"kind": "partial_tube", "profile": [1]}, "profile must be an object, got [1]"),
        ({"kind": "theorem1", "a": 0.8, "phi_kind": "helicoid", "phi_params": 3}, "phi_params must be an object, got 3"),
        ({"kind": "cmc_product"}, "r must be a number, got None"),
        ({"kind": "theorem1"}, "theorem1 needs a or a2"),
        ({"kind": "partial_tube", "base": {"kind": "geodesic", "k": 1.5}}, "partial tube base k must be an integer, got 1.5"),
        ({"kind": "theorem1", "a": 0.8, "phi_kind": "custom", "phi_params": {"coords": "abcd"}},
         "custom phi coords must be a list of expressions, got 'abcd'"),
        ({"kind": "partial_tube", "base": {"kind": "geodesic", "normals": [5]}},
         "base normals must be a list of lists of expressions, got [5]"),
        ({"kind": "vertical_cylinder", "curve": {"kind": "exprs", "coords": ["cos(u1)", "sin(u1)", "0", "0", "0"],
                                                 "params": [1]}},
         "curve params must be an object, got [1]"),
        ({"kind": "partial_tube", "profile": {"coords": ["cos(0.4*s)", "sin(0.4*s)", "0.6*s"], "domain": 5}},
         "profile domain must be an interval [lo, hi], got 5"),
        ({"kind": "slice", "t0": None}, "t0 must be a number, got None"),
        ({"kind": "theorem1", "a": None, "a2": 0.5}, "a must be a number, got None"),
        ({"kind": "vertical_cylinder", "curve": {"kind": "spiral"}}, "unknown curve kind 'spiral'"),
        ({"kind": "theorem1", "a": 0.8, "phi_kind": "catenoid"}, "unknown phi kind 'catenoid'"),
        ({"kind": "torus"}, "unknown gallery kind 'torus'"),
    ],
    ids=["unknown_key", "circle_without_r", "one_domain_interval", "string_number", "string_param", "base_not_object",
         "curve_not_object", "profile_not_object", "phi_params_not_object", "cmc_without_r", "theorem1_without_a",
         "fractional_k", "coords_not_a_list", "normal_not_a_list", "params_not_object", "domain_not_interval",
         "null_t0", "null_a", "unknown_curve_kind", "unknown_phi_kind", "unknown_gallery_kind"],
)
def test_a_malformed_gallery_spec_is_a_scene_error(tmp_path, capsys, gallery, message):
    # the schema checks only a gallery spec's kind; its other keys and its
    # numbers are checked against what the kind declares
    scene = {"ambient": {"epsilon": 1, "n": 4}, "immersion": {"gallery": gallery}, "checks": ["membership"]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"scene error: {message}"


def test_an_unbound_identifier_is_a_scene_error_before_any_point(tmp_path, capsys, monkeypatch):
    def no_geometry(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", no_geometry)
    plain = json.loads((SCENES / "slice_expr.json").read_text())
    plain["immersion"]["expressions"]["coords"][0] = "cos(x)*cos(u2)"
    family = json.loads((SCENES / "vertical_cylinder_expr.json").read_text())
    family["immersion"]["expressions"]["coords"][1] = "sin(r)*cos(x)"
    scan = ["--param", "r", "--from", "0.3", "--to", "0.9", "--steps", "3", "--residual", "pmc"]
    for scene, command, source in ((plain, ["run"], "cos(x)*cos(u2)"), (family, ["scan", *scan], "sin(r)*cos(x)")):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scene))
        assert main([command[0], "--scene", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err.strip() == (
            f"scene error: cannot evaluate coordinate {source!r}: unbound identifiers ['x']"
        )


@pytest.mark.parametrize("check", ["splitting", "circle"])
def test_a_chart_level_check_raises_its_first_failing_probe(tmp_path, capsys, check):
    # the t coordinate fails near u1 = 0.32 (a splitting probe) and near
    # u2 = 0.12 (a circle probe), at no membership probe and no sample
    t = "u1 + 0*sqrt((u1 - 0.32)^2 - 0.0001) + 0*sqrt((u2 - 0.12)^2 - 0.0001)"
    scene = json.loads(_s2_scene(tmp_path, t).read_text())
    scene["immersion"]["expressions"]["s_index"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scene))
    chart = build_chart(scene)
    if check == "splitting":
        probes = prodsub.immersion.probe_grid(chart.domain, 4)
    else:
        probes = np.zeros((10, 2))
        probes[1:, 1] = np.linspace(-0.48, 0.48, 9)
    want = None
    for u in probes:
        try:
            prodsub.immersion.evaluate_jet(chart, u)
        except ChartError as exc:
            want = str(exc)
            break
    assert want is not None
    assert main(["run", "--scene", str(path), "--check", check]) == 3
    assert capsys.readouterr().err.strip() == f"computation error: {want}"


def test_nan_chart_fails_the_membership_gate(tmp_path, capsys):
    # inf - inf: the coordinate is NaN wherever u1 != 0
    path = _s2_scene(tmp_path, "u1", "cos(u2) + (1e200*u1)*(1e200*u1) - (1e200*u1)*(1e200*u1)")
    assert main(["run", "--scene", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err == (
        "computation error: chart expressions leaves the product: "
        "membership residual nan > 1.0e-09"
    )
    with pytest.raises(ChartError, match="membership residual nan"):
        build_chart(json.loads(path.read_text()))


def _csv_rows(path):
    lines = path.read_text().splitlines()[1:]
    out = {}
    for line in lines:
        name, idx, *u, value = line.split(",")
        out.setdefault(name, []).append((int(idx), [float(x) for x in u], float(value)))
    return out


@pytest.mark.parametrize("name", ["theorem1_helicoid.json", "slice.json"])
def test_report_names_the_worst_sample_of_every_check(tmp_path, name):
    scene = _load(name)
    checks = ["membership", "pmc", "biconservative", "class_a"]
    if name != "slice.json":  # a slice has no s variable to split along
        checks.append("splitting")
    sampling = {"mode": "random", "counts": 6, "seed": 8}
    reports = []
    for jobs in (1, 2):
        csv = tmp_path / f"j{jobs}.csv"
        rep = run_scene(scene, checks, sampling_override=sampling, jobs=jobs, csv_path=str(csv))
        rows = _csv_rows(csv)
        for c in rep["checks"]:
            worst = max(rows[c["name"]], key=lambda r: r[2])  # first of equals
            assert (c["argmax_index"], c["argmax_u"]) == (worst[0], worst[1]), c["name"]
            assert 0 <= c["samples_degenerate"] <= c["samples_evaluated"]
        reports.append(rep["checks"])
    fields = ("argmax_index", "argmax_u", "samples_degenerate")
    assert [[c[f] for f in fields] for c in reports[0]] == [[c[f] for f in fields] for c in reports[1]]
    by = {c["name"]: c for c in reports[0]}
    if name == "slice.json":  # T = 0 everywhere on a slice
        assert by["biconservative"]["samples_degenerate"] == 6
        assert by["membership"]["samples_degenerate"] == 0
    else:
        center = build_chart(scene).center().tolist()
        assert (by["splitting"]["argmax_index"], by["splitting"]["argmax_u"]) == (0, center)


def test_csv_lines_follow_check_order_under_uneven_pool_blocks(tmp_path):
    # 7 samples split into blocks of 3/2/2 (--jobs 3) and 2/2/2/1 (--jobs 4)
    scene = _load("theorem1_cylinder.json")
    checks = ["pmc", "splitting", "membership", "class_a"]
    sampling = {"mode": "random", "counts": 7, "seed": 4}
    csv = []
    for jobs in (1, 3, 4):
        path = tmp_path / f"j{jobs}.csv"
        rep = run_scene(scene, checks, sampling_override=sampling, jobs=jobs, csv_path=str(path))
        assert rep["parallel"]["used"] == jobs
        json.dumps(rep)  # no numpy scalar in the report
        for c in rep["checks"]:
            for field in ("samples_evaluated", "samples_degenerate", "argmax_index"):
                assert type(c[field]) is int, (c["name"], field)
        csv.append(path.read_bytes())
    assert csv[0] == csv[1] == csv[2]
    keys = [line.split(",")[:2] for line in csv[0].decode().splitlines()[1:]]
    want = [[name, str(i)] for name in ("class_a", "membership", "pmc") for i in range(7)] + [["splitting", "0"]]
    assert keys == want
    center = build_chart(scene).center().tolist()
    assert [float(x) for x in csv[0].decode().splitlines()[-1].split(",")[2:-1]] == center


def test_worst_sample_counts_non_finite_first_and_breaks_ties_by_index():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    samples = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    columns = {
        "membership": (np.array([2.0, float("nan"), float("inf")]), set(), np.array([False, False, False])),
        "class_a": (np.array([0.0, 3.0, 3.0]), {"T = 0 (slice-type point)"}, np.array([True, False, False])),
    }
    report, _ = _merge_stats(columns, samples, chart, ["membership", "class_a"], {})
    assert [(c["argmax_index"], c["argmax_u"], c["samples_degenerate"]) for c in report] == [
        (1, [0.3, 0.4], 0),
        (1, [0.3, 0.4], 1),
    ]


def test_a_check_named_twice_runs_once(tmp_path):
    scene = _load("theorem1_cylinder.json")
    kw = dict(sampling_override={"mode": "random", "counts": 6, "seed": 4})
    once = run_scene(scene, checks=["pmc", "membership"], csv_path=str(tmp_path / "once.csv"), **kw)
    twice = run_scene(scene, checks=["pmc", "membership", "pmc"], csv_path=str(tmp_path / "twice.csv"), **kw)
    assert [c["name"] for c in twice["checks"]] == ["pmc", "membership"]
    assert [c["samples_evaluated"] for c in twice["checks"]] == [6, 6]
    assert twice["checks"] == once["checks"]
    assert (tmp_path / "twice.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()
    lines = (tmp_path / "twice.csv").read_text().splitlines()
    assert sum(line.startswith("pmc,") for line in lines) == 6


def test_a_scan_names_an_unknown_parameter_before_any_step(capsys, monkeypatch):
    def no_geometry(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(prodsub.immersion, "evaluate_jet", no_geometry)
    scan = ["--from", "0.3", "--to", "0.9", "--steps", "3", "--residual", "pmc"]
    cases = [("theorem1_cylinder.json", "nope"), ("vertical_cylinder_expr.json", "zz")]
    for name, param in cases:
        assert main(["scan", "--scene", str(SCENES / name), "--param", param, *scan]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("scene error: ") and repr(param) in err, err


@pytest.mark.parametrize(
    "name, param, lo, hi, residual",
    [
        ("biharmonic_scan_eps1.json", "a2", 0.3, 0.9, "biharmonic_normal"),
        ("biharmonic_scan_eps-1.json", "a2", 1.3, 1.9, "biharmonic_normal"),
        ("vertical_cylinder_expr.json", "r", 0.3, 1.2, "biharmonic_normal"),
        ("biharmonic_scan_eps1.json", "a2", 0.3, 0.9, "gauss"),
        ("theorem1_helicoid.json", "a", 0.6, 0.9, "biharmonic_normal"),  # nested differences
    ],
)
def test_each_scan_row_is_the_one_step_scan_at_its_value(name, param, lo, hi, residual):
    # the steps share one family chart and its batches; a row reads only its own step
    scene = _load(name)
    scan = scan_parameter(scene, param, lo, hi, 5, residual)
    for row in scan["rows"]:
        (alone,) = scan_parameter(scene, param, row["value"], row["value"], 1, residual)["rows"]
        assert json.dumps(alone) == json.dumps(row)
        assert np.float64(alone["max_residual"]).tobytes() == np.float64(row["max_residual"]).tobytes()


_CMC_S3 = {"ambient": {"epsilon": 1, "n": 3}, "immersion": {"gallery": {"kind": "cmc_product", "r": 0.7}}}


@pytest.mark.parametrize(
    "scene, param",
    [
        ("theorem1_cylinder.json", "a"),
        ("theorem1_helicoid.json", "a"),
        ("biharmonic_scan_eps1.json", "a2"),
        ("biharmonic_scan_eps-1.json", "a2"),
        ("slice.json", "t0"),
        (_CMC_S3, "r"),
        ("vertical_cylinder_expr.json", "r"),
        ("theorem1_cylinder_expr.json", "a"),
    ],
)
def test_a_run_is_the_one_step_scan_at_its_value(tmp_path, scene, param):
    # a chart and the family chart of one step at the chart's own value give
    # the same report entries and CSV bytes
    scene = _load(scene) if isinstance(scene, str) else scene
    imm = scene["immersion"]
    value = imm["gallery"][param] if "gallery" in imm else imm["expressions"]["params"][param]
    sampling = {"mode": "random", "counts": 4, "seed": 3}
    names = ["membership", "frames", "h_eta", "class_a", "ricci", "gauss", "pmc", "biharmonic_normal"]
    reports, csv = [], []
    for i, chart in enumerate([build_chart(scene), build_chart(scene, (param, [value]))]):
        path = tmp_path / f"{i}.csv"
        reports.append(prodsub.scene._run_checks(scene, chart, sampling, names, None, 1, str(path)))
        csv.append(path.read_bytes())
    assert reports[0]["checks"] == reports[1]["checks"]
    assert reports[0]["chart"] == reports[1]["chart"]
    assert csv[0] == csv[1]


def test_every_chart_is_a_family_of_one(all_gallery_charts):
    charts = all_gallery_charts + [build_chart(_load(p.name)) for p in sorted(SCENES.glob("*.json"))]
    for chart in charts:
        assert len(chart.family) == 1 and chart.family.labels == [chart.label], chart.label


def test_a_first_step_that_does_not_build_fails_a_run_and_a_scan_alike(tmp_path):
    # r = 2 takes the chart off S^2 x R; its one-axis grid would be a scene
    # error, but a chart that does not build fails first, in a run and in a scan
    coords = ["r*cos(u2)", "sin(u2)", "0", "u1"]
    expressions = {"m": 2, "coords": coords, "params": {"r": 2.0}, "domain": [[-1.0, 1.0], [-0.5, 0.5]]}
    scene = {
        "ambient": {"epsilon": 1, "n": 2},
        "immersion": {"expressions": expressions},
        "sampling": {"mode": "grid", "grid": [3]},
        "checks": ["membership"],
    }
    with pytest.raises(ChartError, match="leaves the product") as run:
        run_scene(scene)
    with pytest.raises(ChartError) as scan:
        scan_parameter(scene, "r", 2.0, 1.0, 3, "membership")
    assert str(scan.value) == str(run.value)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    scan_args = ["--param", "r", "--from", "2", "--to", "1", "--steps", "3", "--residual", "membership"]
    assert main(["run", "--scene", str(path)]) == 3
    assert main(["scan", "--scene", str(path), *scan_args]) == 3


def test_a_scan_reports_a_sample_error_before_a_later_step_that_does_not_build(tmp_path):
    # e0 fails at every sample of the codimension-1 product; r > pi/2 does not build on S^3
    scene = {
        "ambient": {"epsilon": 1, "n": 3},
        "immersion": {"gallery": {"kind": "cmc_product", "r": 0.7}},
        "sampling": {"mode": "random", "counts": 5, "seed": 1},
    }
    for jobs in (1, 2):
        with pytest.raises(prodsub.errors.EngineError, match="^check e0 failed at sample 0, u="):
            scan_parameter(scene, "r", 1.0, 1.7, 5, "e0", jobs=jobs)
        with pytest.raises(ChartError, match=r"^eps=\+1 needs 0 < r <= pi/2$"):
            scan_parameter(scene, "r", 1.0, 1.7, 5, "pmc", jobs=jobs)
