"""Check that a change leaves every run output of the corpus as it was.

    python bench/same_outputs.py --base REV

Exports the committed files of ``REV`` and of ``HEAD`` with ``record.py``'s
``export`` and, from each export's root, runs ``prodsub run`` on every
corpus scene (``scenes/*.json``) with ``--samples 24 --seed 7``, ``--out``
and ``--csv``, under ``--jobs 1``, ``2`` and ``4``, for three check sets:
the scene's own checks, the structure checks and the jet-level plus
chart-level checks.  The generated scenes of ``GALLERY`` (every gallery
template the corpus lacks, at both signs of eps: the vertical cylinder on a
geodesic, a circle and an ``exprs`` curve, theorem 1 with a custom phi, the
partial tube with k = 0, 1 and 2, cmc_product at n = 3 and 4, and the
slice) run the same way for their own and the structure checks.  Under the
same job counts it runs the 61-step scans of ``SCANS`` with ``--out``: both
criterion-4a scans of ``biharmonic_normal`` over a2 and the scans of t0
and r on generated scenes; the runs of the generated scenes in ``NARROW``
with ``--out`` and ``--csv``: ``biharmonic_normal`` off PMC on charts
narrower than a stencil, next to a domain edge and next to an irregular
point; the runs of the generated scenes in ``SCALED`` with ``--out`` and
``--csv``, for their own checks: gallery builds whose tests read chart
units, the custom phi ``L*u`` geodesic cylinder at L = 1e-4 and partial
tubes at L = 1e-9 over the base ``(cos(L*u1), sin(L*u1), 0, 0)``, with a
base normal at 45 degrees to gamma' and one that turns at unit rate per
arc length; and the runs and scans of the generated scenes in ``FAILING``, each
of which fails: an error at a sample center, coordinate overflows, a NaN
chart, a scan step that does not build, an unbound identifier, scans whose
first or second step leaves the product, scans whose first failing step is
a later step (off the product, a domain error, or off the product just
before a step that raises), a scan whose every step raises, twenty malformed
gallery specs (an unknown key, a circle without r, a custom phi domain of
one interval, a number given as a string, a base, curve, profile or
phi_params that is not an object, a cmc_product without r, a theorem1
without a or a2, a fractional k, custom phi coords that are a string, base
normals that are not lists, curve params that are not an object, a
profile domain that is not an interval, a null t0, a null a, and an unknown
curve, phi and gallery kind), scenes the schema rejects
(``epsilon: 2``, an immersion of both kinds, an unknown key in
``expressions``) and runs whose ``--samples 0`` or ``--seed -1``
the schema rejects.  Compares the reports (less ``wall_time_s``), the CSV
and scan files byte for byte, and stdout, stderr and the exit code of every
run.  It also runs every demo (``demos/*.py``) and compares its stdout and exit
code; a demo's stderr would name the export's path in a warning.  Prints
each output that differs, for a report or CSV with the checks whose entries
or rows differ (and any other report key or the CSV header that does), and
exits 1 if any does, else 0.  Under a differing report, CSV or scan table it
prints a line for each differing check (a scan table is one): the largest
relative and absolute difference of its residuals and which of its verdict,
``samples_degenerate`` and argmax changed, so that a change which only
reassociates arithmetic can be told from one that changes a result.
"""

from __future__ import annotations

import argparse
import json
import math
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
SCANS = {  # name: (scene, param, from, to, residual)
    # criterion 4a: the a2 windows of both signs of eps
    "scan_eps1": ("scenes/biharmonic_scan_eps1.json", "a2", "0.3", "0.9", "biharmonic_normal"),
    "scan_eps-1": ("scenes/biharmonic_scan_eps-1.json", "a2", "1.3", "1.9", "biharmonic_normal"),
    # the other scannable gallery parameters, t0 and r, on scenes of ``GALLERY``
    **{f"scan_t0_eps{e}": (f"gallery/slice_eps{e}.json", "t0", "-1", "1", "membership") for e in (1, -1)},
    **{f"scan_r_eps{e}": (f"gallery/cmc_n3_eps{e}.json", "r", "0.2", "1.5", "mean_curvature") for e in (1, -1)},
}


def _gallery(eps: int, n: int, spec: dict) -> dict:
    """A gallery scene whose own checks are the pointwise set less the ones
    that need codimension 2 or a theorem-1 chart, and pmc."""
    checks = [c for c in CHECK_SETS["pointwise"] if c not in ("e0", "splitting", "circle")] + ["pmc"]
    return {"ambient": {"epsilon": eps, "n": n}, "immersion": {"gallery": spec}, "checks": checks}


def _gallery_scenes() -> dict:
    """The gallery kinds the corpus lacks, at both signs of eps: the vertical
    cylinder on a geodesic, a circle and an ``exprs`` curve, theorem 1 with a
    custom phi, the partial tube with k = 0, 1 and 2, cmc_product at n = 3
    and 4, and the slice (for the scans of t0)."""
    out = {}
    for eps in (1, -1):
        c, s = ("cos", "sin") if eps == 1 else ("cosh", "sinh")
        a = 0.8 if eps == 1 else 1.25
        circle = [f"{c}(q)", f"{s}(q)*cos(u1)", f"{s}(q)*sin(u1)", "0", "0"]
        custom = {"coords": [f"q*{c}(u1/q)", f"q*{s}(u1/q)", "0", "u2"], "params": {"q": a}}
        tube2 = [f"{c}(0.4*s)", f"{s}(0.4*s)*cos(0.3*s)", f"{s}(0.4*s)*sin(0.3*s)", "0.6*s"]
        specs = {
            "cylinder_geodesic": (4, {"kind": "vertical_cylinder"}),
            "cylinder_circle": (4, {"kind": "vertical_cylinder", "curve": {"kind": "circle", "r": 0.7}}),
            "cylinder_exprs": (4, {"kind": "vertical_cylinder", "curve": {"kind": "exprs", "coords": circle,
                                                                          "params": {"q": 0.7}}}),
            "custom_phi": (4, {"kind": "theorem1", "a": a, "phi_kind": "custom", "phi_params": custom}),
            "tube_k0": (3, {"kind": "partial_tube", "base": {"kind": "geodesic", "k": 0},
                            "profile": {"coords": ["1", "0.6*s"]}}),
            "tube_k1": (3, {"kind": "partial_tube"}),
            "tube_k2": (4, {"kind": "partial_tube", "base": {"kind": "geodesic", "k": 2}, "profile": {"coords": tube2}}),
            "cmc_n3": (3, {"kind": "cmc_product", "r": 0.7}),
            "cmc_n4": (4, {"kind": "cmc_product", "r": 0.7}),
            "slice": (4, {"kind": "slice"}),
        }
        out.update({f"{name}_eps{eps}": _gallery(eps, n, spec) for name, (n, spec) in specs.items()})
    return out


GALLERY = _gallery_scenes()
GALLERY_SETS = {label: CHECK_SETS[label] for label in ("own", "structure")}


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
    "stencil_irregular": _latitude("0.5 + u1^3", "u1^3", (5.7e-4, 5.9e-4), [1, 1]),  # of u1 = 0, where g degenerates
}
def _tube_at_speed(L: float, normal: list) -> dict:
    """The partial tube over the S^3 geodesic (cos(L*u1), sin(L*u1), 0, 0), at speed L, with one base normal."""
    base = {"kind": "exprs", "coords": [f"cos({L!r}*u1)", f"sin({L!r}*u1)", "0", "0"], "normals": [normal]}
    return _gallery(1, 3, {"kind": "partial_tube", "base": base})


SCALED = {  # name: scene; builds whose gallery tests once read chart units
    "custom_phi_L1e-4": _gallery(1, 4, {"kind": "theorem1", "a": 0.8, "phi_kind": "custom", "phi_params": {
        "coords": ["0.8*cos(0.0001*u1/0.8)", "0.8*sin(0.0001*u1/0.8)", "0", "0.0001*u2"]}}),
    "tube_oblique_normal_L1e-9": _tube_at_speed(1e-9, ["0", "0.7071067811865476", "0.7071067811865476", "0"]),
    "tube_turning_normal_L1e-9": _tube_at_speed(1e-9, ["0", "0", "cos(1e-09*u1)", "sin(1e-09*u1)"]),
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
    # malformed gallery specs: an unknown key, a circle without r, a custom phi domain of one interval, a string a
    "gallery_unknown_key": (_edited("theorem1_cylinder.json", ("immersion", "gallery", "foo"), 1), ["run"]),
    "gallery_circle_without_r": (_gallery(1, 4, {"kind": "vertical_cylinder", "curve": {"kind": "circle"}}), ["run"]),
    "gallery_one_domain_interval": (_gallery(1, 4, {"kind": "theorem1", "a": 0.8, "phi_kind": "custom", "phi_params": {
        "coords": ["q*cos(u1/q)", "q*sin(u1/q)", "0", "u2"], "params": {"q": 0.8}, "domain": [[-1.0, 1.0]]}}), ["run"]),
    "gallery_string_number": (_edited("theorem1_cylinder.json", ("immersion", "gallery", "a"), "0.8"), ["run"]),
    # nested values of the wrong type, a missing r or a, a fractional k, a null number and unknown kinds
    **{f"gallery_{name}": (_gallery(1, 4, spec), ["run"]) for name, spec in {
        "base_not_object": {"kind": "partial_tube", "base": 5},
        "curve_not_object": {"kind": "vertical_cylinder", "curve": "circle"},
        "profile_not_object": {"kind": "partial_tube", "profile": [1]},
        "phi_params_not_object": {"kind": "theorem1", "a": 0.8, "phi_kind": "helicoid", "phi_params": 3},
        "cmc_without_r": {"kind": "cmc_product"},
        "theorem1_without_a": {"kind": "theorem1"},
        "fractional_k": {"kind": "partial_tube", "base": {"kind": "geodesic", "k": 1.5}},
        "coords_not_a_list": {"kind": "theorem1", "a": 0.8, "phi_kind": "custom", "phi_params": {"coords": "abcd"}},
        "normals_not_lists": {"kind": "partial_tube", "base": {"kind": "geodesic", "normals": [5]}},
        "params_not_object": {"kind": "vertical_cylinder", "curve": {
            "kind": "exprs", "coords": ["cos(u1)", "sin(u1)", "0", "0", "0"], "params": [1]}},
        "domain_not_interval": {"kind": "partial_tube", "profile": {
            "coords": ["cos(0.4*s)", "sin(0.4*s)", "0.6*s"], "domain": 5}},
        "null_t0": {"kind": "slice", "t0": None},
        "null_a": {"kind": "theorem1", "a": None, "a2": 0.5},
        "unknown_curve_kind": {"kind": "vertical_cylinder", "curve": {"kind": "spiral"}},
        "unknown_phi_kind": {"kind": "theorem1", "a": 0.8, "phi_kind": "catenoid"},
        "unknown_gallery_kind": {"kind": "torus"},
    }.items()},
    "zero_samples": (_corpus("theorem1_cylinder.json"), ["run", "--samples", "0"]),
    "negative_seed": (_corpus("theorem1_cylinder.json"), ["run", "--seed", "-1"]),
}


def write_generated(root: Path) -> None:
    """The scenes of ``GALLERY``, ``NARROW``, ``SCALED`` and ``FAILING`` as
    ``<folder>/<name>.json`` under ``root``, in the folders ``gallery``,
    ``narrow``, ``scaled`` and ``failing``."""
    failing = {k: v[0] for k, v in FAILING.items()}
    for folder, scenes in (("gallery", GALLERY), ("narrow", NARROW), ("scaled", SCALED), ("failing", failing)):
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
        corpus = [(scene, CHECK_SETS) for scene in sorted((root / "scenes").glob("*.json"))]
        corpus += [(scene, GALLERY_SETS) for scene in sorted((root / "gallery").glob("*.json"))]
        for scene, sets in corpus:
            for label, checks in sets.items():
                folder = scene.parent.name
                name = f"{'gallery.' if folder == 'gallery' else ''}{scene.stem}.{label}.jobs{jobs}"
                argv = ["run", "--scene", f"{folder}/{scene.name}", "--samples", "24", "--seed", "7"]
                argv += [a for c in checks or () for a in ("--check", c)]
                argv += ["--jobs", str(jobs), "--out", f"{name}.json", "--csv", f"{name}.csv"]
                out[name] = (cli + argv, [f"{name}.json", f"{name}.csv"], ("stdout", "stderr"))
        for label, (scene, param, lo, hi, residual) in SCANS.items():
            name = f"{label}.jobs{jobs}"
            argv = ["scan", "--scene", scene, "--param", param, "--from", lo, "--to", hi, "--steps", "61"]
            argv += ["--residual", residual, "--jobs", str(jobs), "--out", f"{name}.dat"]
            out[name] = (cli + argv, [f"{name}.dat"], ("stdout", "stderr"))
        for folder, label in [*(("narrow", k) for k in NARROW), *(("scaled", k) for k in SCALED)]:
            name = f"{folder}.{label}.jobs{jobs}"
            argv = ["run", "--scene", f"{folder}/{label}.json", "--jobs", str(jobs), "--out", f"{name}.json"]
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


def _gap(base: list, change: list) -> tuple:
    """The largest relative and absolute difference of paired residuals,
    NaN equal to NaN; inf where one side is not finite or the two differ
    in number."""
    if len(base) != len(change):
        return math.inf, math.inf
    rel = gap = 0.0
    for a, b in zip(base, change):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(a - b)
        if not math.isfinite(d):
            return math.inf, math.inf
        rel, gap = max(rel, d / max(abs(a), abs(b))), max(gap, d)
    return rel, gap


def _argmax(values: list):
    """The first index of the largest value that is not NaN, None if none is."""
    return max((i for i, v in enumerate(values) if not math.isnan(v)), key=values.__getitem__, default=None)


def _decided(f: str, part) -> tuple:
    """The residuals of one check's part of a report (its entry) or CSV
    (its rows), or of a scan table's text, and what decides the check:
    a report's verdict, ``samples_degenerate`` and argmax, a CSV's argmax,
    and a scan's sign-change brackets and the step of its least residual."""
    if f.endswith(".json"):
        residuals = [math.nan if part.get(k) is None else float(part[k]) for k in ("max_residual", "mean_residual")]
        keys = {"verdict": "verdict", "samples_degenerate": "samples_degenerate", "argmax": "argmax_index"}
        return residuals, {what: part.get(k) for what, k in keys.items()}
    if f.endswith(".csv"):
        residuals = [float(line.rsplit(",", 1)[1]) for line in part]
        return residuals, {"argmax": _argmax(residuals)}
    lines = part.decode().splitlines()
    residuals = [float(line.split()[1]) for line in lines if not line.startswith("#")]
    brackets = [line for line in lines if line.startswith("# sign-change")]
    return residuals, {"brackets": brackets, "min_at": _argmax([-r for r in residuals])}


def residual_changes(f: str, base, change) -> list:
    """For a report, CSV or scan table that both sides wrote, one line for
    each check whose entry or rows differ (a scan table is one check): the
    largest relative and absolute residual difference, and which of what
    decides the check changed and which did not."""
    if base is None or change is None or not f.endswith((".json", ".csv", ".dat")):
        return []
    if f.endswith(".dat"):
        pairs = {"scan": (base, change)} if base != change else {}
    else:
        parts = _by_check(f, base), _by_check(f, change)
        pairs = {k: (parts[0][k], parts[1][k]) for k in sorted(parts[0].keys() & parts[1].keys())
                 if k.startswith("check ") and parts[0][k] != parts[1][k]}
    lines = []
    for name, (b, c) in pairs.items():
        (rb, db), (rc, dc) = _decided(f, b), _decided(f, c)
        rel, gap = _gap(rb, rc)
        changed = [what for what in db if db[what] != dc[what]]
        kept = [what for what in db if what not in changed]
        verdicts = [f"{', '.join(group)} {word}" for group, word in ((changed, "changed"), (kept, "unchanged")) if group]
        lines.append(f"{name}: residuals differ by {rel:.3g} rel, {gap:.3g} abs; {'; '.join(verdicts)}")
    return lines


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
                    for line in residual_changes(key, got["base"][key], got["change"][key]):
                        print(f"    {line}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(runs)} runs, {len(differ)} differing outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
