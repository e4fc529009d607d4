import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prodsub.scene
from prodsub.cli import main
from prodsub.errors import ChartError, SceneError
from prodsub.scene import (
    SCENE_SCHEMA,
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
    with pytest.raises(SceneError):
        validate_scene({"ambient": {"epsilon": 1, "n": 4}})  # no immersion


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
    class NoFork:
        def Pool(self, *args, **kwargs):
            raise OSError("fork refused")

    scene = _load("theorem1_cylinder.json")
    kw = dict(checks=["pmc", "gauss"], sampling_override={"mode": "grid", "grid": [2, 2, 2]})
    serial = run_scene(scene, jobs=1, csv_path=str(tmp_path / "a.csv"), **kw)
    monkeypatch.setattr(prodsub.scene.multiprocessing, "get_context", lambda method: NoFork())
    fallback = run_scene(scene, jobs=2, csv_path=str(tmp_path / "b.csv"), **kw)
    assert fallback["parallel"] == {
        "requested": 2,
        "used": 1,
        "fallback_reason": "OSError: fork refused",
    }
    assert fallback["checks"] == serial["checks"]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scan_jobs_table_byte_identical(tmp_path):
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / f"scan{jobs}.dat"
        argv = ["scan", "--scene", str(SCENES / "biharmonic_scan_eps1.json"), "--param", "a2"]
        argv += ["--from", "0.3", "--to", "0.9", "--steps", "7", "--residual", "biharmonic_normal"]
        assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_scan_reports_the_first_failing_step_under_jobs():
    # a2 = 1 leaves 0 < |a| < 1 on S^4: steps 3 and 4 of 5 both fail
    scene = _load("biharmonic_scan_eps1.json")
    msgs = []
    for jobs in (1, 2):
        with pytest.raises(ChartError) as err:
            scan_parameter(scene, "a2", 0.5, 1.3, 5, "biharmonic_normal", jobs=jobs)
        msgs.append(str(err.value))
    assert msgs[0] == msgs[1] and "a=1" in msgs[0]


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
    parent, calls = os.getpid(), []
    original = prodsub.scene.build_chart

    def counting_build_chart(scene):
        # raised in a pool worker, this escapes the serial fallback
        if os.getpid() != parent:
            raise RuntimeError("a pool worker rebuilt the chart")
        calls.append(scene)
        return original(scene)

    monkeypatch.setattr(prodsub.scene, "build_chart", counting_build_chart)
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
    calls.clear()
    scan_parameter(_load("biharmonic_scan_eps1.json"), "a2", 0.4, 0.6, 3, "biharmonic_normal")
    assert len(calls) == 3


def test_unknown_check_is_scene_error():
    scene = _load("slice.json")
    with pytest.raises(SceneError, match="unknown checks"):
        run_scene(scene, checks=["nope"])


def test_scan_single_step():
    scene = _load("biharmonic_scan_eps1.json")
    scan = scan_parameter(scene, "a2", 0.64, 0.64, 1, "biharmonic_normal")
    assert len(scan["rows"]) == 1
    table = format_scan_table(scan)
    assert table.startswith("# a2")
    assert len([l for l in table.splitlines() if not l.startswith("#")]) == 1


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


def test_cli_computation_error_exit_3(tmp_path):
    # e0 needs codimension 2; the slice in Q^4 x R has codimension 3
    scene = json.loads((SCENES / "slice.json").read_text())
    scene["checks"] = ["e0"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(scene))
    assert main(["run", "--scene", str(p)]) == 3


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


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "prodsub.cli", "list-gallery", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "theorem1" in proc.stdout


def test_schema_is_valid_jsonschema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(SCENE_SCHEMA)


def test_nonfinite_residual_fails_with_diagnostic():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    rows = {
        "membership": [
            ("membership", 0, [0.1, 0.2], float("nan"), None, False),
            ("membership", 1, [0.3, 0.4], 0.0, None, False),
        ]
    }
    report, any_fail = _merge_stats(rows, chart, ["membership"], {})
    assert any_fail
    assert report[0]["verdict"] == "FAIL"
    assert "non-finite" in report[0]["notes"]


def test_mixed_degenerate_and_live_samples():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    rows = {
        "class_a": [
            ("class_a", 0, [0.1, 0.2], 0.0, "T = 0 (slice-type point)", True),
            ("class_a", 1, [0.3, 0.4], 1e-12, None, False),
        ]
    }
    report, any_fail = _merge_stats(rows, chart, ["class_a"], {})
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


def test_worst_sample_counts_non_finite_first_and_breaks_ties_by_index():
    from prodsub.scene import _merge_stats

    chart = build_chart(_load("slice.json"))
    rows = {
        "membership": [
            ("membership", 0, [0.1, 0.2], 2.0, None, False),
            ("membership", 1, [0.3, 0.4], float("nan"), None, False),
            ("membership", 2, [0.5, 0.6], float("inf"), None, False),
        ],
        "class_a": [
            ("class_a", 0, [0.1, 0.2], 0.0, "T = 0 (slice-type point)", True),
            ("class_a", 1, [0.3, 0.4], 3.0, None, False),
            ("class_a", 2, [0.5, 0.6], 3.0, None, False),
        ],
    }
    report, _ = _merge_stats(rows, chart, ["membership", "class_a"], {})
    assert [(c["argmax_index"], c["argmax_u"], c["samples_degenerate"]) for c in report] == [
        (1, [0.3, 0.4], 0),
        (1, [0.3, 0.4], 1),
    ]
