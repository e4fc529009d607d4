"""Scene loading, the check registry, the batch runner and parameter scans.

A scene is a JSON document validated against SCENE_SCHEMA: an ambient block,
an immersion (gallery spec or expression list), a sampling spec, the list of
checks to run and optional tolerance overrides.

A run checks its samples a chunk at a time: one batched geometry call per
chunk of up to ``immersion._BATCH_POINTS`` (512) samples, at the jet order
its checks need (3 when one reads a derivative of H or of the
Christoffels, else 2), and one call of each CHECKS entry on the chunk's
``ExtrinsicRows``, which returns a residual and a degenerate flag per
sample and the set of the chunk's notes; what several entries read, such
as nabla^perp H or the codim-2 frame, is a cached property of the rows,
computed once per chunk.
Every entry is array code over the samples themselves, and no entry
differences: the normal Laplacian of H, where PMC fails, evaluates the
chunk's samples that need it again at order 4, in one geometry call.  The
results stay one column per check from the kernel to the report and the
CSV: chunks, and the blocks of
samples that ``--jobs N`` computes in the run's process and forked children,
follow sample order, so joining a check's columns gives row i for sample i.
Residuals are deterministic functions of (scene, seed), and the seed only
places random samples: nothing reduces across samples, and no check draws
anything, so neither the chunking nor the blocks change values.

A parameter scan is one such run on one family chart (``Family``), whose
scanned parameter takes one value per batch row: every step's samples go
through the same chunks and blocks, each row keeping its step, and the
columns split back into one maximum per step; a run is a scan of one step.
The steps' chart centers, for the signed predicate, take one more geometry
call.  Runs and scans build by one rule (``Chart.validate_membership``):
the chart-level checks run once over the probe grids of all the steps.
No geometry call raises for a point that fails: its row holds the error,
and the first error in (step, sample, check) order is raised.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .ambient import ProductSpace, inner, membership_residual
from . import exprlang, immersion
from .classify import (
    DEGENERATE,
    TOL_PMC,
    biconservative_full,
    biconservative_simple,
    biharmonic_predicates,
    biharmonic_residual,
    circle_geometry,
    class_A_residual,
    e0_structure,
    splitting_residual,
)
from .errors import ChartError, EngineError, InvalidFrame, RowFailure, SceneError
from .extrinsic import ExtrinsicRows, codazzi_residuals, codim_two_mismatch, gauss_residuals, geometry, ricci_residuals
from .gallery import make_chart
from .immersion import Chart, probe_grid

__all__ = [
    "SCENE_SCHEMA",
    "load_scene",
    "build_chart",
    "run_scene",
    "scan_parameter",
    "Check",
    "CHECK_TABLE",
    "CHECKS",
    "RNG_NAME",
]

RNG_NAME = "numpy-PCG64"  # the sample positions

SCENE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["ambient", "immersion"],
    "additionalProperties": False,
    "properties": {
        "ambient": {
            "type": "object",
            "required": ["epsilon", "n"],
            "additionalProperties": False,
            "properties": {
                "epsilon": {"enum": [1, -1]},
                "n": {"type": "integer", "minimum": 2},
            },
        },
        "immersion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gallery": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {"kind": {"type": "string"}},
                },
                "expressions": {
                    "type": "object",
                    "required": ["m", "coords", "domain"],
                    "additionalProperties": False,
                    "properties": {
                        "m": {"type": "integer", "minimum": 1, "maximum": 9},
                        "coords": {"type": "array", "items": {"type": "string"}},
                        "params": {
                            "type": "object",
                            "additionalProperties": {"type": "number"},
                        },
                        "domain": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "var_names": {
                            "type": "array",
                            "items": {"type": "string"},
                        },
                        "s_index": {"type": ["integer", "null"]},
                        "label": {"type": "string"},
                    },
                },
            },
            "oneOf": [{"required": ["gallery"]}, {"required": ["expressions"]}],
        },
        "sampling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["grid", "random"]},
                "counts": {"type": "integer", "minimum": 1},
                "grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                },
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "checks": {"type": "array", "items": {"type": "string"}},
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
}


def load_scene(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scene = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    validate_scene(scene)
    return scene


def validate_scene(scene: dict) -> None:
    _validate(SCENE_SCHEMA, scene)


def _validate(schema: dict, document) -> None:
    """Raise SceneError with jsonschema's best match unless ``document``
    matches ``schema``.  Only a document that ``_conforms`` refuses loads
    jsonschema, which words the error, or accepts it if it finds none."""
    if _conforms(document, schema):
        return
    import jsonschema

    err = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(document))
    if err is not None:
        raise SceneError(f"scene does not match the schema: {err.message}") from err


_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float), "null": type(None)}


def _conforms(doc, schema: dict) -> bool:
    """Whether ``doc`` matches ``schema``, read with the keywords SCENE_SCHEMA
    uses.  It is never looser than jsonschema but stricter in places: no bool
    or ``3.0`` is an integer, ``enum`` compares types, NaN meets no bound.
    A stricter ``oneOf`` branch would make ``oneOf`` looser, so SCENE_SCHEMA's
    branches hold only ``required``, which is read exactly."""
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if isinstance(doc, bool) or not isinstance(doc, tuple(_TYPES[name] for name in names)):
            return False
    if "enum" in schema and not any(type(doc) is type(v) and doc == v for v in schema["enum"]):
        return False
    if ("minimum" in schema or "maximum" in schema) and not (
        isinstance(doc, (int, float)) and schema.get("minimum", -math.inf) <= doc <= schema.get("maximum", math.inf)
    ):
        return False
    if isinstance(doc, list) and not (
        schema.get("minItems", 0) <= len(doc) <= schema.get("maxItems", math.inf)
        and all(_conforms(x, schema.get("items", {})) for x in doc)
    ):
        return False
    if isinstance(doc, dict):
        if any(key not in doc for key in schema.get("required", ())):
            return False
        for key, value in doc.items():
            sub = schema.get("properties", {}).get(key, schema.get("additionalProperties", {}))
            if sub is False or not _conforms(value, sub):
                return False
    return "oneOf" not in schema or sum(_conforms(doc, branch) for branch in schema["oneOf"]) == 1


def build_chart(scene: dict, scan: tuple | None = None) -> Chart:
    """The chart of a validated scene.  ``scan`` = (param, values) builds
    instead the family chart of those values of one immersion parameter.
    Either way the chart-level checks of every step have run
    (``Chart.validate_membership``)."""
    amb = scene["ambient"]
    space = ProductSpace(int(amb["epsilon"]), int(amb["n"]))
    imm = scene["immersion"]
    try:  # a builder that evaluates an expression itself meets its EvalError
        if "gallery" in imm:
            return make_chart(space, imm["gallery"], scan)
        return _expression_chart(space, imm["expressions"], scan)
    except exprlang.EvalError as exc:
        raise ChartError(f"cannot build the chart: {exc}") from exc


def _expression_chart(space: ProductSpace, ex: dict, scan: tuple | None) -> Chart:
    if len(ex["coords"]) != space.ambient_dim:
        raise SceneError(
            f"expression immersion needs {space.ambient_dim} coordinates"
        )
    params = dict(ex.get("params", {}))
    if scan is not None:  # the coordinate maps of the chart itself read step 0
        params[scan[0]] = float(scan[1][0])
    chart = Chart(
        space=space,
        m=int(ex["m"]),
        coords=list(ex["coords"]),
        params=params,
        domain=[tuple(iv) for iv in ex["domain"]],
        var_names=list(ex.get("var_names", [])),
        s_index=ex.get("s_index"),
        label=ex.get("label", "expressions"),
    )
    if scan is None:
        return chart.with_family({}, [chart.label])
    param, values = scan
    free = set().union(*map(exprlang.free_vars, chart.coords)) - set(chart.var_names)
    if param not in free:
        raise SceneError(f"cannot scan {param!r}: the expressions read no parameter of that name")
    return chart.with_family({param: values}, [chart.label] * len(values))


def sample_points(chart: Chart, sampling: dict) -> np.ndarray:
    """Deterministic sample set: a probe grid, or random samples in the box of
    the 2-point probe grid.  Its inset protects no stencil any more; it
    stays so that the samples of a scene and seed do not move."""
    if sampling.get("mode", "grid") == "grid":
        counts = sampling.get("grid")
        if counts is None:
            counts = max(int(round(sampling.get("counts", 125) ** (1.0 / chart.m))), 2)
        elif len(counts) != chart.m:
            raise SceneError(f"grid needs {chart.m} axis counts")
        return probe_grid(chart.domain, counts)
    lo, hi = probe_grid(chart.domain, 2)[[0, -1]]
    n = int(sampling.get("counts", 100))
    seed = int(sampling.get("seed", 0))
    rng = np.random.Generator(np.random.PCG64(seed))
    return lo + (hi - lo) * rng.random((n, chart.m))


# --------------------------------------------------------------------------
# check registry


def _slice_type(geo: ExtrinsicRows, values: np.ndarray, tol_key: str):
    """``values`` with the rows where T = 0 noted and flagged degenerate."""
    flat = geo.T_norm <= DEGENERATE[tol_key]
    return values, {"T = 0 (slice-type point)"} if flat.any() else None, flat


def _frames_residual(geo: ExtrinsicRows) -> np.ndarray:
    sp = geo.chart.space
    frame = np.concatenate([geo.tangent_onb, geo.normal_onb], axis=1)
    gram = inner(sp, frame[:, :, None], frame[:, None])  # one dot per pair, so symmetric
    off_quadric = inner(sp, geo.normal_onb, sp.q_padded(geo.jet.values)[:, None])
    worst = np.max(np.abs(gram - np.eye(frame.shape[1])), axis=(1, 2))
    return np.maximum(worst, np.max(np.abs(off_quadric), axis=1))


def _chk_mean_curvature(geo: ExtrinsicRows):
    return geo.H_norm, {"reports |H| itself, not a residual"}, False


def _chk_biconservative(geo: ExtrinsicRows):
    return _slice_type(geo, biconservative_simple(geo), "T_biconservative")


def _chk_class_a(geo: ExtrinsicRows):
    return _slice_type(geo, class_A_residual(geo), "T_class_a")


def _chk_biharmonic_predicate(geo: ExtrinsicRows):
    pred, pred_eps = biharmonic_predicates(geo)
    undefined = geo.frame_undefined
    notes = {f"eps-explicit candidate {p:.6g}" for p in set(pred_eps[~undefined].tolist())}
    if undefined.any():
        notes.add("codim-2 frame undefined (H = 0 or wrong codimension)")
    return np.where(undefined, 0.0, np.abs(pred)), notes, undefined


def _tensor_max(t: np.ndarray) -> np.ndarray:
    """The largest |component| of each row's tensor t (N, ...)."""
    return np.max(np.abs(t.reshape(len(t), -1)), axis=-1)


def _chk_e0(geo: ExtrinsicRows):
    e0, frame = e0_structure(geo), geo.frame
    if e0 is None:
        raise RowFailure(0, InvalidFrame(codim_two_mismatch(geo)))
    vanish, broken = frame.vanish, np.flatnonzero(frame.failed & ~frame.vanish)  # H = 0 is degenerate, not broken
    if broken.size:
        raise RowFailure(int(broken[0]), InvalidFrame("cannot complete the codim-2 frame"))
    notes = {"H vanishes; xi_1 = H/|H| is undefined"} if vanish.any() else set()
    val = np.max([e0.aht, e0.aetat, e0.offblock, e0.traceBS1, np.abs(e0.a_last)], axis=0)
    kinds = set(zip(e0.dim_E0[~vanish].tolist(), e0.warn_eigengap[~vanish].tolist()))
    notes |= {f"dim_E0={k}" + ("; eigengap warning" if w else "") for k, w in kinds}
    return np.where(vanish, 0.0, val), notes, vanish


_NESTED_NOTE = "PMC not verified; normal Laplacian exact from the 4-jet"


def _chk_biharmonic_normal(geo: ExtrinsicRows):
    """``biharmonic_residual``, which nests where |nabla^perp H| exceeds
    TOL_PMC, the pmc check's default tolerance: a run's override of the pmc
    tolerance changes the pmc verdict, not where this check nests."""
    r = biharmonic_residual(geo)
    notes = {note for note, at in (("H = 0 (minimal point)", r["minimal"]), (_NESTED_NOTE, r["nested"])) if at.any()}
    return r["normal"], notes, r["minimal"]


def _chk_circle(chart: Chart):
    r = circle_geometry(chart)
    if r["radius"] == math.inf:
        return 0.0, "straight s-curves (radius = inf)", True
    note = f"radius={r['radius']:.9g}, plane_rank={r['plane_rank']}, c={r['c']:.9g}"
    return r["gap"], note, False


@dataclass(frozen=True)
class Check:
    """Every fact about one check.

    ``kernel`` maps the ExtrinsicRows of a chunk of N samples to its (N,)
    residuals, or to them, the set of the distinct notes of its rows (None
    for none) and an (N,) degenerate mask (or one flag for all); a
    ``chart_level`` kernel maps the chart to one residual, or to it, one
    note (or None) and one flag.  A residual column is never a tuple, so
    ``column`` tells the two apart.  A report joins a check's notes over
    the chunks as a set, so a note says that some row has it, not which.
    ``tol`` is the default tolerance, or its pair (eps = +1, eps = -1).
    ``order`` is the jet order the kernel reads, 3 where it takes a
    derivative of H or of the Christoffels; a run evaluates its samples
    at the highest order of its checks; ``biharmonic_normal`` takes one
    order-4 jet of its nesting samples itself and reuses their frames.
    """

    kernel: Callable
    tol: float | tuple[float, float]
    order: int = 2
    chart_level: bool = False

    def tolerance(self, space: ProductSpace) -> float:
        return self.tol[space.epsilon == -1] if isinstance(self.tol, tuple) else self.tol

    def column(self, arg):
        """(residuals, notes, degenerate) of the kernel on ``arg``: a kernel
        that returns its residuals alone notes nothing and flags no row."""
        out = self.kernel(arg)
        return out if isinstance(out, tuple) else (out, None, False)


# one lambda a line, so that a profile's <lambda> names its check by line number
CHECK_TABLE = {
    "membership": Check(lambda geo: membership_residual(geo.chart.space, geo.jet.values), 1e-9),
    "frames": Check(_frames_residual, (1e-12, 1e-10)),
    "unit_norm": Check(lambda geo: np.abs(geo.T_norm**2 + geo.eta_norm**2 - 1.0), 1e-10),
    "h_eta": Check(lambda geo: np.abs(inner(geo.chart.space, geo.H, geo.eta)), 1e-9),
    "mean_curvature": Check(_chk_mean_curvature, math.inf),
    "biconservative": Check(_chk_biconservative, 1e-9),
    "biharmonic_predicate": Check(_chk_biharmonic_predicate, 1e-6),
    "class_a": Check(_chk_class_a, 1e-9),
    "e0": Check(_chk_e0, 1e-8),
    "ricci": Check(lambda geo: _tensor_max(ricci_residuals(geo)), 1e-5),
    "vector_t": Check(lambda geo: geo.t_eta[0], 1e-5),
    "vector_eta": Check(lambda geo: geo.t_eta[1], 1e-5),
    "pmc": Check(lambda geo: geo.pmc, TOL_PMC, order=3),
    "biconservative_full": Check(biconservative_full, 1e-5, order=3),
    "biharmonic_normal": Check(_chk_biharmonic_normal, 1e-4, order=3),
    "gauss": Check(lambda geo: _tensor_max(gauss_residuals(geo)), 1e-5, order=3),
    "codazzi": Check(lambda geo: _tensor_max(codazzi_residuals(geo)), 1e-5),
    "splitting": Check(splitting_residual, 1e-12, chart_level=True),
    "circle": Check(_chk_circle, 1e-8, chart_level=True),
}

# the columns of the per-sample checks, which a run calls through this view
CHECKS = {name: c.column for name, c in CHECK_TABLE.items() if not c.chart_level}


def _tolerances(scene: dict, overrides: dict | None) -> dict:
    """The tolerance overrides of a run, the scene's and then ``overrides``,
    as floats: each names a check and is a non-negative number."""
    tols = {**scene.get("tolerances", {}), **(overrides or {})}
    unknown = [n for n in tols if n not in CHECK_TABLE]
    if unknown:
        raise SceneError(f"unknown tolerances: {unknown}")
    for name, value in tols.items():
        try:
            tol = float(value)
        except (TypeError, ValueError):
            tol = math.nan
        if not tol >= 0.0:  # NaN included
            raise SceneError(f"tolerance {name}={value!r} is not a non-negative number")
        tols[name] = tol
    return tols


def _chunk_columns(ids: np.ndarray, geo: ExtrinsicRows, names: list) -> dict:
    """The columns of a chunk of ``_compute_rows``, the step indices ``ids``
    of its samples and their ExtrinsicRows ``geo``: for each check in
    ``names``, its (N,) residuals, the set of its notes and its (N,)
    degenerate mask, one row per sample.

    A failing chunk raises the error of its first (sample, check) pair: the
    checks run on the samples before the first one whose geometry fails,
    which fails in every check."""
    n, errors = len(geo), geo.errors
    bad = next((i for i, e in enumerate(errors) if e is not None), n)
    failures = [] if bad == n else [(bad, 0, errors[bad])]
    columns = {}
    live = geo.take(slice(0, bad))
    for pos, name in enumerate(names if bad else ()):
        try:
            values, notes, degen = CHECKS[name](live)
        except RowFailure as f:
            failures.append((f.args[0], pos, f.args[1]))
            continue
        columns[name] = (values, notes or set(), degen if np.ndim(degen) else np.broadcast_to(degen, (bad,)))
    if failures:
        row, pos, exc = min(failures, key=lambda f: f[:2])
        raise EngineError(
            f"check {names[pos]} failed at sample {ids[row]}, u={geo.u[row].tolist()}: {exc}"
        ) from exc
    return columns


def _compute_rows(chart: Chart, names: list, samples: np.ndarray, rows) -> list:
    """The columns of each chunk of the given rows, in order: row r is sample
    r % n of the n ``samples`` at scan step r // n, and each chunk is one
    ``geometry`` call of ``_BATCH_POINTS`` rows at the highest jet order of
    the checks in ``names``.  Raises the first error in (step, sample, check)
    order."""
    rows, n = np.asarray(rows, dtype=int), len(samples)
    ids, steps = rows % n, rows // n
    order = max((CHECK_TABLE[c].order for c in names), default=2)
    parts = [slice(first, first + immersion._BATCH_POINTS) for first in range(0, len(rows), immersion._BATCH_POINTS)]
    return [_chunk_columns(ids[p], geometry(chart, samples[ids[p]], steps[p], order), names) for p in parts]


def _pooled_rows(chart: Chart, names: list, samples: np.ndarray, rows, jobs: int):
    """``_compute_rows`` of ``rows`` and the run's ``parallel`` record.  With jobs > 1, a forked child
    computes each of ``jobs`` contiguous blocks of ``rows`` after the first and pipes back its result
    or error.  Children fork from the last block on, so the rows no child took, which this process
    computes, are one head of ``rows``.  Results and errors join in row order: the first error of the
    first block that fails is raised, once every child is waited for."""
    children, pipes, head, reason = [], [], len(rows), None  # children: (pid, read end), until waited for
    try:
        try:
            for block in reversed([b for b in np.array_split(rows, max(jobs, 1))[1:] if len(b)]):
                pipes += [os.fdopen(fd, mode) for fd, mode in zip(os.pipe(), ("rb", "wb"))]
                children.insert(0, (os.fork(), pipes[-2]))
                if children[0][0] == 0:  # the child: it leaves through os._exit on every path
                    try:
                        try:
                            result = _compute_rows(chart, names, samples, block)
                        except Exception as exc:
                            result = exc
                        with pipes[-1] as out:
                            pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                        os._exit(0)  # only once the whole result is written
                    finally:
                        os._exit(1)
                pipes.pop().close()
                head -= len(block)
        except OSError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        parallel = {"requested": jobs, "used": 1 + len(children), "fallback_reason": reason}
        parts = _compute_rows(chart, names, samples, rows[:head])
        for pid, pipe in list(children):
            data, status = pipe.read(), os.waitpid(pid, 0)[1]
            children.remove((pid, pipe))
            how = f"wait status {status}, exit code {os.waitstatus_to_exitcode(status)}"
            part = pickle.loads(data) if status == 0 else EngineError(f"a worker process ended without a result ({how})")
            if isinstance(part, BaseException):
                raise part
            parts += part
    finally:
        for pipe in pipes:
            pipe.close()
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts, parallel


def _points(name: str, samples: np.ndarray, chart: Chart) -> np.ndarray:
    """The points of a check's column: row i of a per-sample check is sample
    i, the one row of a chart-level check the chart center."""
    return chart.center()[None] if CHECK_TABLE[name].chart_level else samples


def _merge_stats(columns: dict, samples: np.ndarray, chart: Chart, names: list, tols: dict):
    """The report entry of each check in ``names`` from its column
    (values, the set of its notes, degenerate) in ``columns``, and whether
    any fails.  The worst row counts a non-finite residual as largest and
    takes the lowest index of equals.  The statistics of the columns of one
    length, all per-sample checks or all chart-level ones, come from one
    pass over their (checks, N) stack."""
    stats, by_len = {}, {}
    for name in names:
        by_len.setdefault(len(columns[name][0]), []).append(name)
    for group in by_len.values():
        V, D = (np.array([columns[name][k] for name in group]) for k in (0, 2))
        finite = np.isfinite(V)
        per_check = (finite.all(axis=1), (~D).any(axis=1), np.where(D, -np.inf, V).max(axis=1),
                     np.where(finite, V, np.inf).argmax(axis=1), np.count_nonzero(D, axis=1), V.max(axis=1), V.mean(axis=1))
        stats.update(zip(group, zip(*(x.tolist() for x in per_check))))
    checks_report = []
    any_fail = False
    for name in names:
        finite, any_live, live_max, worst, degenerate, top, mean = stats[name]
        tol = tols[name] if name in tols else CHECK_TABLE[name].tolerance(chart.space)
        summary = sorted(columns[name][1])
        if not finite:
            verdict = "FAIL"
            summary.append("non-finite residual encountered")
        elif any_live:
            verdict = "PASS" if live_max <= tol else "FAIL"
        else:
            verdict = "DEGENERATE"
        any_fail |= verdict == "FAIL"
        checks_report.append(
            {
                "name": name,
                "samples_evaluated": len(columns[name][0]),
                "samples_degenerate": degenerate,
                "max_residual": top,
                "mean_residual": mean,
                "argmax_index": worst,
                "argmax_u": _points(name, samples, chart)[worst].tolist(),
                "verdict": verdict,
                "tolerance_used": tol,
                "notes": "; ".join(summary),
                "derivative_tier": "jet-exact",
            }
        )
    return checks_report, any_fail


def run_scene(
    scene: dict,
    checks: list | None = None,
    tolerances: dict | None = None,
    sampling_override: dict | None = None,
    jobs: int = 1,
    csv_path: str | None = None,
) -> dict:
    """Execute the scene's checks and return the report mapping.

    Exit-code semantics live in the CLI; here FAIL is only recorded in the
    report.  With ``jobs > 1`` this process computes the first contiguous block
    of samples and a forked child each other one; each sample's residuals
    depend on that sample alone, so verdicts and CSV rows are identical for
    any job count.

    ``scene`` must come from ``load_scene`` or have passed
    ``validate_scene``: only the sampling block merged with
    ``sampling_override`` is checked against the schema here, and a
    malformed scene fails later with whatever error reading it raises.
    ``scan_parameter``, which demos call on scene dicts they build,
    validates its scene itself.
    """
    t0 = time.perf_counter()
    sampling = dict(scene.get("sampling", {}))
    if sampling_override:
        sampling.update(sampling_override)
    _validate(SCENE_SCHEMA["properties"]["sampling"], sampling)  # load_scene has validated the rest
    chart = build_chart(scene)
    report = _run_checks(scene, chart, sampling, checks, tolerances, jobs, csv_path)
    report["wall_time_s"] = round(time.perf_counter() - t0, 6)
    return report


def _run_checks(
    scene: dict,
    chart: Chart,
    sampling: dict,
    checks: list | None,
    tolerances: dict | None,
    jobs: int,
    csv_path: str | None,
) -> dict:
    """The body of ``run_scene`` on an already validated scene and its chart."""
    # a check named twice runs once, where it is first named
    names = list(dict.fromkeys(checks if checks is not None else scene.get("checks", [])))
    if not names:
        raise SceneError("no checks requested")
    unknown = [n for n in names if n not in CHECK_TABLE]
    if unknown:
        raise SceneError(f"unknown checks: {unknown}")
    tols = _tolerances(scene, tolerances)

    samples = sample_points(chart, sampling)
    per_sample = [n for n in names if not CHECK_TABLE[n].chart_level]

    rows = np.arange(len(samples) if per_sample else 0)  # chart-level checks alone take no rows
    chunks, parallel = _pooled_rows(chart, per_sample, samples, rows, jobs)
    columns = {}
    for name in names:
        if CHECK_TABLE[name].chart_level:
            value, note, degen = CHECK_TABLE[name].column(chart)
            columns[name] = (np.array([value], dtype=float), {note} - {None}, np.array([degen]))
        else:
            values, notes, degen = zip(*(c[name] for c in chunks))
            columns[name] = (np.concatenate(values), set().union(*notes), np.concatenate(degen))
    checks_report, any_fail = _merge_stats(columns, samples, chart, names, tols)

    if csv_path:
        _write_csv(csv_path, chart, columns, samples, names)

    return {
        "engine": {"name": "prodsub", "version": __version__},
        "rng": {"name": RNG_NAME, "seed": int(sampling.get("seed", 0))},
        "scene": scene,
        "chart": chart.label,
        "samples": len(samples),
        "checks": checks_report,
        "all_pass": not any_fail,
        "parallel": parallel,
    }


def _write_csv(path: str, chart: Chart, columns: dict, samples: np.ndarray, names: list) -> None:
    """One line per row of each check's column: the per-sample checks in
    sorted name order, sample by sample, then the chart-level checks in the
    order of ``names`` at index 0 and the chart center."""
    lines = ["check,sample_index," + ",".join(chart.var_names) + ",residual"]
    per_sample = [n for n in names if not CHECK_TABLE[n].chart_level]
    for name in sorted(per_sample) + [n for n in names if n not in per_sample]:
        us = _points(name, samples, chart).tolist()
        for idx, (u, value) in enumerate(zip(us, columns[name][0].tolist())):
            lines.append(",".join([name, str(idx)] + [f"{x:.17g}" for x in u] + [f"{value:.17g}"]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# parameter scans


def scan_parameter(
    scene: dict,
    param: str,
    lo: float,
    hi: float,
    steps: int,
    residual: str,
    jobs: int = 1,
) -> dict:
    """Sweep one immersion parameter and record the max residual of one
    check per value.  A biharmonic_normal scan also records the signed
    biharmonic predicate at the chart center (the residual itself is a
    norm), whose sign changes bracket the zeros.

    The scan is one run on the family chart of its values: the samples of
    every step go through ``_pooled_rows`` as the rows of a run do, and
    for the signed predicate the steps' chart centers take one
    ``geometry`` call.  An error names the first step that fails, as the
    step would fail on its own: its chart, a sample (in sample and check
    order) or, after its samples, its center."""
    if residual not in CHECK_TABLE or CHECK_TABLE[residual].chart_level:
        raise SceneError(f"unknown residual {residual!r}")
    if int(steps) < 1:
        raise SceneError(f"a scan needs at least one step, got {steps}")
    for name, bound in (("from", lo), ("to", hi)):
        if not math.isfinite(float(bound)):
            raise SceneError(f"a scan needs finite bounds, got {name}={bound}")
    validate_scene(scene)
    values = [float(v) for v in np.linspace(float(lo), float(hi), int(steps))]
    chart = build_chart(scene, (param, values))
    family = chart.family
    sampling = scene.get("sampling", {})
    samples = sample_points(chart, sampling)
    n = len(samples)
    signed = residual == "biharmonic_normal"
    last = len(family)  # the step of the first center that fails, which ranks after the step's samples
    if signed:
        centers = geometry(chart, np.tile(chart.center(), (len(family), 1)), np.arange(len(family)))
        last = next((s for s, e in enumerate(centers.errors) if e is not None), last)
    rows = np.arange(min(last + 1, len(family)) * n)
    results, _ = _pooled_rows(chart, [residual], samples, rows, jobs)
    if last < len(family):
        raise centers.errors[last]
    if family.error is not None:
        raise family.error

    maxima = np.concatenate([r[residual][0] for r in results]).reshape(len(family), n).max(axis=1)
    scan_rows = [{"value": v, "max_residual": float(x)} for v, x in zip(values, maxima)]
    brackets = []
    if signed:
        for row, p in zip(scan_rows, biharmonic_predicates(centers)[0].tolist()):
            row["signed"] = p
        for a, b in zip(scan_rows, scan_rows[1:]):
            sa, sb = a["signed"], b["signed"]
            if np.isfinite(sa) and np.isfinite(sb) and (sa == 0.0 or (sa < 0) != (sb < 0)):
                brackets.append((a["value"], b["value"]))
    resid = [r["max_residual"] for r in scan_rows]
    i_min = int(np.nanargmin(resid))
    return {
        "param": param,
        "residual": residual,
        "rows": scan_rows,
        "brackets": brackets,
        "min_residual": float(resid[i_min]),
        "min_at": float(scan_rows[i_min]["value"]),
    }


def format_scan_table(scan: dict) -> str:
    lines = [f"# {scan['param']}  max_{scan['residual']}"]
    for row in scan["rows"]:
        lines.append(f"{row['value']:.12g}  {row['max_residual']:.12g}")
    lines += [f"# sign-change bracket: [{a:.12g}, {b:.12g}]" for a, b in scan["brackets"]]
    if not scan["brackets"]:
        lines.append(
            f"# no sign change; min residual {scan['min_residual']:.6g} "
            f"at {scan['param']} = {scan['min_at']:.12g}"
        )
    return "\n".join(lines) + "\n"
