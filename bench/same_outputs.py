"""Check that a change leaves every run output of the corpus as it was.

    python bench/same_outputs.py --base REV

Exports the committed files of ``REV`` and of ``HEAD`` with ``record.py``'s
``export`` and, from each export's root, runs ``prodsub run`` on every
corpus scene (``scenes/*.json``) with ``--samples 24 --seed 7``, ``--out``
and ``--csv``, under ``--jobs 1``, ``2`` and ``4``, for three check sets:
the scene's own checks, the structure checks and the jet-level plus
chart-level checks.  Under the same job counts it runs both 61-step
criterion-4a scans of ``biharmonic_normal`` with ``--out``, the runs of
the generated scenes in ``NARROW`` with ``--out`` and ``--csv``:
``biharmonic_normal`` off PMC on charts narrower than a stencil, next to a
domain edge and next to an irregular point, and the runs and scans of the
generated scenes in ``FAILING``, each of which fails: an error at a sample
center, coordinate overflows, a NaN chart, a scan step that does not build, an unbound
identifier, scans whose first or second step leaves the product, scans
whose first failing step is a later step (off the product, a domain error,
or off the product just before a step that raises), a scan whose every
step raises, scenes
the schema rejects (``epsilon: 2``, an immersion of both kinds, an unknown
key in ``expressions``) and runs whose ``--samples 0`` or ``--seed -1``
the schema rejects.  Compares the reports (less ``wall_time_s``), the CSV
and scan files byte for byte, and stdout, stderr and the exit code of every
run.  It also runs every demo (``demos/*.py``) and compares its stdout and exit
code; a demo's stderr would name the export's path in a warning.  Prints
each output that differs, for a report or CSV with the checks whose entries
or rows differ (and any other report key or the CSV header that does), and
exits 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from record import export

JOBS = (1, 2, 4)
CHECK_SETS = {
    "own": None,
    "structure": ["gauss", "codazzi", "ricci", "vector_t", "vector_eta", "pmc", "biconservative_full",
                  "biharmonic_normal"],
    "pointwise": ["membership", "frames", "unit_norm", "h_eta", "mean_curvature", "biconservative",
                  "biharmonic_predicate", "class_a", "e0", "splitting", "circle"],
}
SCANS = {  # criterion 4a: the a2 windows of both signs of eps
    "scan_eps1": ("scenes/biharmonic_scan_eps1.json", "0.3", "0.9"),
    "scan_eps-1": ("scenes/biharmonic_scan_eps-1.json", "1.3", "1.9"),
}


def _s2(t: str, grid: list, checks: list, u1=(-1.0, 1.0), s: str = "cos(u2)") -> dict:
    """An expression scene on S^2 x R with the given t (and first) coordinate."""
    expressions = {"m": 2, "coords": [s, "sin(u2)", "0", t], "domain": [list(u1), [-0.5, 0.5]],
                   "var_names": ["u1", "u2"]}
    return {"ambient": {"epsilon": 1, "n": 2}, "immersion": {"expressions": expressions},
            "sampling": {"mode": "grid", "grid": grid}, "checks": checks}


def _latitude(theta: str, t: str, u1: tuple, grid: list) -> dict:
    """biharmonic_normal on the S^2 x R surface of latitude ``theta`` and height ``t`` over u1, longitude
    u2: it is not PMC, so every sample takes the normal Laplacian."""
    scene = _s2(t, grid, ["biharmonic_normal"], u1, s=f"cos({theta})*cos(u2)")
    scene["immersion"]["expressions"]["coords"][1:3] = [f"cos({theta})*sin(u2)", f"sin({theta})"]
    return scene


def _corpus(name: str) -> dict:
    return json.loads((Path(__file__).resolve().parent.parent / "scenes" / name).read_text())


def _unbound() -> dict:
    scene = _corpus("slice_expr.json")
    scene["immersion"]["expressions"]["coords"][0] = "cos(x)*cos(u2)"
    return scene


def _edited(name: str, path: tuple, value) -> dict:
    """The corpus scene ``name`` with the value at ``path`` set to ``value``."""
    scene = _corpus(name)
    node = scene
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return scene


def _off_product() -> dict:
    """An S^2 x R scene whose first coordinate r*cos(u2) leaves the product unless r = 1."""
    scene = _s2("u1", [3, 3], ["membership"], s="r*cos(u2)")
    scene["immersion"]["expressions"]["params"] = {"r": 2.0}
    return scene


def _scan_r(lo: str, hi: str) -> list:
    return ["scan", "--param", "r", "--from", lo, "--to", hi, "--steps", "3", "--residual", "membership"]


def _late_step(edits: dict) -> dict:
    """An S^3 x R scene in Hopf coordinates (m = 3, 125 probe points a
    step) with coordinate slot i set to ``edits[i]``, which reads p."""
    coords = ["cos(u1)*cos(u2)", "cos(u1)*sin(u2)", "sin(u1)*cos(u3)", "sin(u1)*sin(u3)", "u1 + u2"]
    coords = [edits.get(i, c) for i, c in enumerate(coords)]
    expressions = {"m": 3, "coords": coords, "params": {"p": 0.0}, "var_names": ["u1", "u2", "u3"],
                   "domain": [[0.2, 1.2], [-0.5, 0.5], [-0.5, 0.5]]}
    return {"ambient": {"epsilon": 1, "n": 3}, "immersion": {"expressions": expressions},
            "sampling": {"mode": "grid", "grid": [2, 2, 2]}, "checks": ["membership"]}


# 20 values of p (2,500 probe points) whose step 13 is the first that fails in the late_step scenes
_OFF_PRODUCT = "cos(u1)*cos(u2)*(1 + exp(5000*(p - 0.215)))"  # off the product from step 13 on
_SCAN_P = ["scan", "--param", "p", "--from", "-0.035", "--to", "0.345", "--steps", "20", "--residual", "membership"]


# a bump of height 1e400 at u1 = 0.32, a sample and no probe point: 0 * inf is NaN there
_OVERFLOW = "u1 + 0*((1e200*exp(-10000*(u1 - 0.32)^2))*(1e200*exp(-10000*(u1 - 0.32)^2)))"
NARROW = {  # name: scene; every sample lies within 5e-4, the step of the old difference layer, of the edge
    "stencil_domain": _latitude("0.5 + u1", "sqrt(u1)", (0.0, 1e-4), [2, 1]),  # of the domain of sqrt(u1)
    "stencil_irregular": _latitude("0.5 + u1^3", "u1^3", (5.7e-4, 5.9e-4), [1, 1]),  # of det g > 1e-12
}
FAILING = {  # name: (scene, the command's arguments after --scene)
    "center_domain": (_s2("u1 + 0*sqrt((u1 - 0.32)^2 - 0.0001)", [4, 1], ["membership", "class_a"]), ["run"]),
    "overflow_raises": (_s2("u1", [3, 3], ["membership"], s="cos(u2) + (exp(1000*u1) - exp(1000*u1))"), ["run"]),
    "overflow_metric": (_s2(_OVERFLOW, [4, 1], ["membership", "class_a", "pmc"]), ["run"]),
    "nan_chart": (_s2("u1", [3, 3], ["membership"], s="cos(u2) + (1e200*u1)*(1e200*u1) - (1e200*u1)*(1e200*u1)"),
                  ["run"]),
    "step_does_not_build": (_corpus("biharmonic_scan_eps1.json"), ["scan", "--param", "a2", "--from", "0.5",
                                                                    "--to", "1.3", "--steps", "5",
                                                                    "--residual", "biharmonic_normal"]),
    "unbound_identifier": (_unbound(), ["run"]),
    "first_step_off_product": (_off_product(), _scan_r("2", "1")),
    "second_step_off_product": (_off_product(), _scan_r("1", "2")),
    "late_step_off_product": (_late_step({0: _OFF_PRODUCT}), _SCAN_P),
    "late_step_domain": (_late_step({4: "u1 + u2 + 0*sqrt(u1 - p)"}), _SCAN_P),
    "every_step_domain": (_late_step({4: "u1 + u2 + 0*sqrt(p - 1)"}), _SCAN_P),
    # step 13 leaves the product; step 14 raises at the first probe point
    "off_product_before_domain": (_late_step({0: _OFF_PRODUCT, 4: "u1 + u2 + 0*sqrt(u1 - p + 0.01)"}), _SCAN_P),
    "epsilon_2": (_edited("theorem1_cylinder.json", ("ambient", "epsilon"), 2), ["run"]),
    "gallery_and_expressions": (_edited("slice_expr.json", ("immersion", "gallery"), {"kind": "slice"}), ["run"]),
    "unknown_expressions_key": (_edited("slice_expr.json", ("immersion", "expressions", "colour"), "red"), ["run"]),
    "zero_samples": (_corpus("theorem1_cylinder.json"), ["run", "--samples", "0"]),
    "negative_seed": (_corpus("theorem1_cylinder.json"), ["run", "--seed", "-1"]),
}


def write_generated(root: Path) -> None:
    """The scenes of ``NARROW`` and ``FAILING`` as ``narrow/<name>.json`` and
    ``failing/<name>.json`` under ``root``."""
    for folder, scenes in (("narrow", NARROW), ("failing", {k: v[0] for k, v in FAILING.items()})):
        (root / folder).mkdir()
        for name, scene in scenes.items():
            (root / folder / f"{name}.json").write_text(json.dumps(scene))


def invocations(root: Path) -> dict:
    """Every run as {name: (interpreter arguments, the files it writes, the
    streams compared)}."""
    out = {}
    cli = ["-m", "prodsub.cli"]
    for demo in sorted((root / "demos").glob("*.py")):
        out[f"demo.{demo.stem}"] = ([f"demos/{demo.name}"], [], ("stdout",))
    for jobs in JOBS:
        for scene in sorted((root / "scenes").glob("*.json")):
            for label, checks in CHECK_SETS.items():
                name = f"{scene.stem}.{label}.jobs{jobs}"
                argv = ["run", "--scene", f"scenes/{scene.name}", "--samples", "24", "--seed", "7"]
                argv += [a for c in checks or () for a in ("--check", c)]
                argv += ["--jobs", str(jobs), "--out", f"{name}.json", "--csv", f"{name}.csv"]
                out[name] = (cli + argv, [f"{name}.json", f"{name}.csv"], ("stdout", "stderr"))
        for label, (scene, lo, hi) in SCANS.items():
            name = f"{label}.jobs{jobs}"
            argv = ["scan", "--scene", scene, "--param", "a2", "--from", lo, "--to", hi, "--steps", "61"]
            argv += ["--residual", "biharmonic_normal", "--jobs", str(jobs), "--out", f"{name}.dat"]
            out[name] = (cli + argv, [f"{name}.dat"], ("stdout", "stderr"))
        for label in NARROW:
            name = f"narrow.{label}.jobs{jobs}"
            argv = ["run", "--scene", f"narrow/{label}.json", "--jobs", str(jobs), "--out", f"{name}.json"]
            argv += ["--csv", f"{name}.csv"]
            out[name] = (cli + argv, [f"{name}.json", f"{name}.csv"], ("stdout", "stderr"))
        for label, (_, (command, *args)) in FAILING.items():
            name = f"failing.{label}.jobs{jobs}"
            argv = [command, "--scene", f"failing/{label}.json", *args, "--jobs", str(jobs)]
            out[name] = (cli + argv, [], ("stdout", "stderr"))
    return out


def outputs(root: Path, argv: list, files: list, streams: tuple) -> dict:
    """The outputs of one run from ``root``: its exit code, the ``streams``
    among stdout and stderr, and the files it wrote there, each report less
    its wall time."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True)
    got = {"exit": proc.returncode, **{s: getattr(proc, s) for s in streams}}
    for f in files:
        path = root / f
        data = path.read_bytes() if path.exists() else None
        if data is not None and f.endswith(".json"):
            report = json.loads(data)
            report.pop("wall_time_s", None)
            data = json.dumps(report).encode()  # as text, so that a NaN equals itself
        got[f] = data
    return got


def _by_check(f: str, data: bytes) -> dict:
    """A report or CSV as {part: content}: each check's entry or rows under
    its name, and a report's other keys or the CSV header under their own."""
    if f.endswith(".json"):
        report = json.loads(data)
        parts = {f"check {c['name']}": c for c in report.pop("checks", [])}
        return {**parts, **report}
    header, *lines = data.decode().splitlines()
    parts = {"header": header}
    for line in lines:
        parts.setdefault(f"check {line.split(',', 1)[0]}", []).append(line)
    return parts


def what_differs(f: str, base, change) -> str:
    """For a report or CSV that both sides wrote, `` (<parts>)``: the checks
    whose entries or rows differ and any other part that does; else ''."""
    if base is None or change is None or not f.endswith((".json", ".csv")):
        return ""
    parts = _by_check(f, base), _by_check(f, change)
    names = sorted(k for k in {*parts[0], *parts[1]} if parts[0].get(k) != parts[1].get(k))
    return f" ({', '.join(names)})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision whose outputs the change must reproduce")
    args = ap.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        roots = {"base": work / "base", "change": work / "change"}
        export(args.base, roots["base"])
        export("HEAD", roots["change"])
        for root in roots.values():
            write_generated(root)
        runs = invocations(roots["change"])
        differ = []
        for name, run in runs.items():
            got = {side: outputs(root, *run) for side, root in roots.items()}
            for key in got["base"]:
                if got["base"][key] != got["change"][key]:
                    differ.append(f"{name}: {key}")
                    detail = what_differs(key, got["base"][key], got["change"][key])
                    print(f"DIFFERS {name}: {key}{detail}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(runs)} runs, {len(differ)} differing outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
