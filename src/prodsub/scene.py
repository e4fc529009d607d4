"""Scene loading, the check registry, the batch runner and parameter scans.

A scene is a JSON document validated against SCENE_SCHEMA: an ambient block,
an immersion (gallery spec or expression list), a sampling spec, the list of
checks to run and optional tolerance overrides.  Residual rows are
deterministic functions of (scene, seed); the worker partitioning never
changes values because per-sample randomness is keyed by (seed, index).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from dataclasses import dataclass
from functools import cached_property

import jsonschema
import numpy as np

from . import __version__
from .ambient import ProductSpace, inner, membership_residual
from .classify import (
    biconservative_residual,
    biharmonic_residual,
    circle_geometry,
    class_A_residual,
    e0_structure,
    splitting_residual,
)
from .errors import EngineError, InvalidFrame, SceneError
from .extrinsic import (
    FieldCache,
    T_eta_residuals,
    codazzi_residual,
    first_layer,
    gauss_residual,
    normal_derivative_H,
    ricci_residual,
)
from .gallery import make_chart
from .immersion import Chart, probe_grid

__all__ = [
    "SCENE_SCHEMA",
    "load_scene",
    "build_chart",
    "run_scene",
    "scan_parameter",
    "CHECKS",
    "DEFAULT_TOLERANCES",
    "RNG_NAME",
]

RNG_NAME = "numpy-PCG64"

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


_VALIDATOR = jsonschema.Draft202012Validator(SCENE_SCHEMA)


def validate_scene(scene: dict) -> None:
    err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(scene))
    if err is not None:
        raise SceneError(f"scene does not match the schema: {err.message}") from err


def build_chart(scene: dict) -> Chart:
    amb = scene["ambient"]
    space = ProductSpace(int(amb["epsilon"]), int(amb["n"]))
    imm = scene["immersion"]
    if "gallery" in imm:
        return make_chart(space, imm["gallery"])
    ex = imm["expressions"]
    if len(ex["coords"]) != space.ambient_dim:
        raise SceneError(
            f"expression immersion needs {space.ambient_dim} coordinates"
        )
    chart = Chart(
        space=space,
        m=int(ex["m"]),
        coords=list(ex["coords"]),
        params=dict(ex.get("params", {})),
        domain=[tuple(iv) for iv in ex["domain"]],
        var_names=list(ex.get("var_names", [])),
        s_index=ex.get("s_index"),
        label=ex.get("label", "expressions"),
    )
    chart.validate_membership()
    return chart


def sample_points(chart: Chart, sampling: dict) -> np.ndarray:
    """Deterministic sample set, inset 2% from the domain boundary so that
    finite-difference stencils stay inside."""
    if sampling.get("mode", "grid") == "grid":
        counts = sampling.get("grid")
        if counts is None:
            counts = max(int(round(sampling.get("counts", 125) ** (1.0 / chart.m))), 2)
        elif len(counts) != chart.m:
            raise SceneError(f"grid needs {chart.m} axis counts")
        return probe_grid(chart.domain, counts)
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    pad = 0.02 * (hi - lo)
    lo, hi = lo + pad, hi - pad
    n = int(sampling.get("counts", 100))
    seed = int(sampling.get("seed", 0))
    rng = np.random.Generator(np.random.PCG64(seed))
    return lo + (hi - lo) * rng.random((n, chart.m))


# --------------------------------------------------------------------------
# check registry


@dataclass
class CheckContext:
    chart: Chart
    u: np.ndarray
    cache: FieldCache
    rng_key: tuple  # (seed, sample index, check id)

    @cached_property
    def rng(self) -> np.random.Generator:
        """The check's own stream, built on first use: most checks draw nothing."""
        return np.random.Generator(np.random.PCG64(self.rng_key))

    def geometry(self):
        return self.cache.geometry(self.u)


def _chk_membership(ctx: CheckContext):
    pg, _ = ctx.geometry()
    return membership_residual(ctx.chart.space, pg.pos), None, False


def _chk_frames(ctx: CheckContext):
    pg, _ = ctx.geometry()
    sp = ctx.chart.space
    frame = pg.tangent_onb + pg.normal_onb
    worst = 0.0
    for i, a in enumerate(frame):
        for j in range(i, len(frame)):
            worst = max(
                worst, abs(inner(sp, a, frame[j]) - (1.0 if i == j else 0.0))
            )
    phat = pg.q_padded()
    for xi in pg.normal_onb:
        worst = max(worst, abs(inner(sp, xi, phat)))
    return worst, None, False


def _chk_unit_norm(ctx: CheckContext):
    pg, _ = ctx.geometry()
    return abs(pg.T_norm**2 + pg.eta_norm**2 - 1.0), None, False


def _chk_h_eta(ctx: CheckContext):
    pg, ed = ctx.geometry()
    return abs(inner(ctx.chart.space, ed.H, pg.eta)), None, False


def _chk_pmc(ctx: CheckContext):
    ws = normal_derivative_H(ctx.chart, ctx.u, ctx.cache)
    return max(float(np.linalg.norm(w)) for w in ws), None, False


def _chk_mean_curvature(ctx: CheckContext):
    _, ed = ctx.geometry()
    return ed.H_norm, "reports |H| itself, not a residual", False


def _chk_biconservative(ctx: CheckContext):
    pg, ed = ctx.geometry()
    r = biconservative_residual(ctx.chart, ctx.u, ctx.cache, pg, ed)
    if pg.T_norm <= 1e-10:
        return r["simple"], "T = 0 (slice-type point)", True
    return r["simple"], None, False


def _chk_biconservative_full(ctx: CheckContext):
    pg, ed = ctx.geometry()
    r = biconservative_residual(ctx.chart, ctx.u, ctx.cache, pg, ed)
    return r["full"], None, False


def _chk_biharmonic_normal(ctx: CheckContext):
    pmc, _, _ = _chk_pmc(ctx)
    assume = pmc <= DEFAULT_TOLERANCES["pmc"]
    r = biharmonic_residual(ctx.chart, ctx.u, assume_pmc=assume, cache=ctx.cache)
    if r["minimal"]:
        return r["normal"], "H = 0 (minimal point)", True
    note = None if assume else "PMC not verified; nested differences (tol_fd2)"
    return r["normal"], note, False


def _chk_biharmonic_predicate(ctx: CheckContext):
    r = biharmonic_residual(ctx.chart, ctx.u, assume_pmc=True, cache=ctx.cache)
    if math.isnan(r["predicate"]):
        return 0.0, "codim-2 frame undefined (H = 0 or wrong codimension)", True
    note = f"eps-explicit candidate {r['predicate_eps']:.6g}"
    return abs(r["predicate"]), note, False


def _chk_class_a(ctx: CheckContext):
    pg, ed = ctx.geometry()
    r = class_A_residual(pg, ed)
    if pg.T_norm <= 1e-8:
        return r, "T = 0 (slice-type point)", True
    return r, None, False


def _random_directions(ctx: CheckContext, k: int = 3) -> np.ndarray:
    v = ctx.rng.standard_normal((k, ctx.chart.m))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _chk_structure(residual):
    def chk(ctx: CheckContext):
        X, Y, Z = _random_directions(ctx)
        pg, _ = ctx.geometry()
        a = int(ctx.rng.integers(0, pg.codim))
        res = residual(ctx.chart, ctx.u, X, Y, Z, a=a, cache=ctx.cache)
        return float(np.linalg.norm(res)), None, False

    return chk


def _chk_vector_t(ctx: CheckContext):
    return T_eta_residuals(ctx.chart, ctx.u, ctx.cache)["vt"], None, False


def _chk_vector_eta(ctx: CheckContext):
    return T_eta_residuals(ctx.chart, ctx.u, ctx.cache)["veta"], None, False


def _chk_e0(ctx: CheckContext):
    pg, ed = ctx.geometry()
    try:
        e0 = e0_structure(ctx.chart, ctx.u, pg, ed)
    except InvalidFrame as exc:
        if "H vanishes" in str(exc):
            return 0.0, str(exc), True
        raise
    val = max(e0.aht, e0.aetat, e0.offblock, e0.traceBS1, abs(e0.a_last))
    note = f"dim_E0={e0.dim_E0}" + ("; eigengap warning" if e0.warn_eigengap else "")
    return val, note, False


def _chk_splitting(chart: Chart):
    return splitting_residual(chart), None, False


def _chk_circle(chart: Chart):
    r = circle_geometry(chart)
    if not math.isfinite(r["radius"]):
        return 0.0, "straight s-curves (radius = inf)", True
    note = f"radius={r['radius']:.9g}, plane_rank={r['plane_rank']}, c={r['c']:.9g}"
    return r["gap"], note, False


def _frames_tol(space: ProductSpace) -> float:
    return 1e-12 if space.epsilon == 1 else 1e-10


DEFAULT_TOLERANCES = {
    "membership": 1e-9,
    "frames": None,  # resolved per space: 1e-12 (eps=+1) / 1e-10 (eps=-1)
    "unit_norm": 1e-10,
    "h_eta": 1e-9,
    "pmc": 1e-6,
    "mean_curvature": math.inf,
    "biconservative": 1e-9,
    "biconservative_full": 1e-5,
    "biharmonic_normal": 1e-4,
    "biharmonic_predicate": 1e-6,
    "class_a": 1e-9,
    "gauss": 1e-5,
    "codazzi": 1e-5,
    "ricci": 1e-5,
    "vector_t": 1e-5,
    "vector_eta": 1e-5,
    "e0": 1e-8,
    "splitting": 1e-12,
    "circle": 1e-8,
}

CHECKS = {
    "membership": _chk_membership,
    "frames": _chk_frames,
    "unit_norm": _chk_unit_norm,
    "h_eta": _chk_h_eta,
    "pmc": _chk_pmc,
    "mean_curvature": _chk_mean_curvature,
    "biconservative": _chk_biconservative,
    "biconservative_full": _chk_biconservative_full,
    "biharmonic_normal": _chk_biharmonic_normal,
    "biharmonic_predicate": _chk_biharmonic_predicate,
    "class_a": _chk_class_a,
    "gauss": _chk_structure(gauss_residual),
    "codazzi": _chk_structure(codazzi_residual),
    "ricci": _chk_structure(ricci_residual),
    "vector_t": _chk_vector_t,
    "vector_eta": _chk_vector_eta,
    "e0": _chk_e0,
}

# checks that difference fields around their sample: a run computes each
# sample's first layer with the samples, not only its center
FIRST_LAYER_CHECKS = frozenset({
    "pmc", "biconservative", "biconservative_full", "biharmonic_normal",
    "gauss", "codazzi", "ricci", "vector_t", "vector_eta",
})

# keys the per-check random streams: (seed, sample index, _CHECK_ID[name])
_CHECK_ID = {name: i for i, name in enumerate(sorted(CHECKS))}

CHART_LEVEL_CHECKS = {
    "splitting": _chk_splitting,
    "circle": _chk_circle,
}


def _resolve_tol(name: str, space: ProductSpace, overrides: dict) -> float:
    if name in overrides:
        return float(overrides[name])
    tol = DEFAULT_TOLERANCES.get(name)
    if tol is None:
        tol = _frames_tol(space)
    return tol


def _compute_rows(chart: Chart, names: list, samples: np.ndarray, indices, seed: int):
    """Residual rows for the given sample indices.

    ``FieldCache.batched`` computes the geometry of the samples, with their
    first layers when a check differences, in one call per up to 1,024
    points; each sample still gets its own cache, dropped after its checks.
    """
    rows = []
    layer = first_layer if FIRST_LAYER_CHECKS.intersection(names) else (lambda u: u[None])
    caches = FieldCache.batched(chart, [layer(samples[idx]) for idx in indices])
    for idx, cache in zip(indices, caches):
        u = samples[idx]
        for name in names:
            if name in CHART_LEVEL_CHECKS:
                continue
            ctx = CheckContext(chart, u, cache, (seed, idx, _CHECK_ID[name]))
            try:
                value, note, degen = CHECKS[name](ctx)
            except EngineError as exc:
                raise EngineError(
                    f"check {name} failed at sample {idx}, u={list(map(float, u))}: {exc}"
                ) from exc
            rows.append((name, int(idx), [float(x) for x in u], float(value), note, degen))
    return rows


_worker_chart: Chart | None = None


def _init_worker(chart: Chart) -> None:
    # Under "fork" the initargs reach the worker without pickling, which a
    # chart of lambdas would not survive.
    global _worker_chart
    _worker_chart = chart


def _worker_rows(names: list, samples: np.ndarray, indices, seed: int):
    return _compute_rows(_worker_chart, names, samples, indices, seed)


def _merge_stats(rows_by_check: dict, chart: Chart, names: list, tols: dict):
    checks_report = []
    any_fail = False
    for name in names:
        rows = rows_by_check.get(name, [])
        tol = _resolve_tol(name, chart.space, tols)
        values = [r[3] for r in rows]
        degen = [r[5] for r in rows]
        notes = sorted({r[4] for r in rows if r[4]})
        n_eval = len(rows)
        live = [v for v, d in zip(values, degen) if not d]
        if not np.all(np.isfinite(values)):
            verdict = "FAIL"
            notes.append("non-finite residual encountered")
        elif live:
            verdict = "PASS" if max(live) <= tol else "FAIL"
        elif n_eval:
            verdict = "DEGENERATE"
        else:
            verdict = "FAIL"
            notes.append("no samples evaluated")
        if verdict == "FAIL":
            any_fail = True
        # the worst row: a non-finite residual counts as largest, and
        # argmax takes the first of equals, so ties go to the lowest index
        worst = rows[int(np.argmax(np.where(np.isfinite(values), values, np.inf)))] if rows else None
        checks_report.append(
            {
                "name": name,
                "samples_evaluated": n_eval,
                "samples_degenerate": sum(degen),
                "max_residual": float(np.max(values)) if values else math.nan,
                "mean_residual": float(np.mean(values)) if values else math.nan,
                "argmax_index": worst[1] if worst else None,
                "argmax_u": worst[2] if worst else None,
                "verdict": verdict,
                "tolerance_used": tol,
                "notes": "; ".join(notes),
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
    report.  With ``jobs > 1`` samples are partitioned over a fork pool; the
    per-sample RNG is keyed by (seed, sample index), so verdicts and CSV rows
    are identical for any job count.
    """
    t0 = time.perf_counter()
    sampling = dict(scene.get("sampling", {}))
    if sampling_override:
        sampling.update(sampling_override)
    validate_scene({**scene, "sampling": sampling})
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
    seed = int(sampling.get("seed", 0))
    names = list(checks if checks is not None else scene.get("checks", []))
    if not names:
        raise SceneError("no checks requested")
    unknown = [n for n in names if n not in CHECKS and n not in CHART_LEVEL_CHECKS]
    if unknown:
        raise SceneError(f"unknown checks: {unknown}")
    tols = dict(scene.get("tolerances", {}))
    if tolerances:
        tols.update(tolerances)

    samples = sample_points(chart, sampling)
    indices = list(range(len(samples)))
    per_sample = [n for n in names if n in CHECKS]

    rows = []
    parallel = {"requested": jobs, "used": 1, "fallback_reason": None}
    if jobs > 1 and len(indices) > 1 and per_sample:
        chunks = [indices[i::jobs] for i in range(jobs)]
        args = [(per_sample, samples, chunk, seed) for chunk in chunks if chunk]
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(len(args), _init_worker, (chart,)) as pool:
                for part in pool.starmap(_worker_rows, args):
                    rows.extend(part)
            parallel["used"] = len(args)
        except (ValueError, OSError) as exc:
            parallel["fallback_reason"] = f"{type(exc).__name__}: {exc}"
            rows = _compute_rows(chart, per_sample, samples, indices, seed)
    elif per_sample:
        rows = _compute_rows(chart, per_sample, samples, indices, seed)
    rows.sort(key=lambda r: (r[0], r[1]))

    center = chart.center()
    for name in names:
        if name in CHART_LEVEL_CHECKS:
            value, note, degen = CHART_LEVEL_CHECKS[name](chart)
            rows.append((name, 0, [float(x) for x in center], float(value), note, degen))

    rows_by_check: dict = {}
    for r in rows:
        rows_by_check.setdefault(r[0], []).append(r)
    checks_report, any_fail = _merge_stats(rows_by_check, chart, names, tols)

    if csv_path:
        _write_csv(csv_path, chart, rows)

    return {
        "engine": {"name": "prodsub", "version": __version__},
        "rng": {"name": RNG_NAME, "seed": seed},
        "scene": scene,
        "chart": chart.label,
        "samples": len(samples),
        "checks": checks_report,
        "all_pass": not any_fail,
        "parallel": parallel,
    }


def _write_csv(path: str, chart: Chart, rows) -> None:
    header = "check,sample_index," + ",".join(chart.var_names) + ",residual"
    lines = [header]
    for name, idx, u, value, _note, _deg in rows:
        cols = [name, str(idx)] + [f"{x:.17g}" for x in u] + [f"{value:.17g}"]
        lines.append(",".join(cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# parameter scans

def _set_scene_param(scene: dict, name: str, value: float) -> dict:
    out = json.loads(json.dumps(scene))
    imm = out["immersion"]
    if "gallery" in imm:
        imm["gallery"][name] = value
        return out
    imm["expressions"].setdefault("params", {})[name] = value
    return out


def _scan_row(scene: dict, param: str, value: float, residual: str):
    """One scan step on its own chart, run serially.  An engine error is
    returned, not raised, so that the caller reports the first failing step
    whichever worker ran it."""
    try:
        sc = _set_scene_param(scene, param, value)
        validate_scene(sc)
        chart = build_chart(sc)
        rep = _run_checks(sc, chart, sc.get("sampling", {}), [residual], None, 1, None)
        row = {"value": value, "max_residual": rep["checks"][0]["max_residual"]}
        if residual == "biharmonic_normal":
            r = biharmonic_residual(chart, chart.center(), assume_pmc=True)
            row["signed"] = float(r["predicate"])
        return row
    except EngineError as exc:
        return exc


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
    norm), whose sign changes bracket the zeros."""
    if residual not in CHECKS:
        raise SceneError(f"unknown residual {residual!r}")
    if int(steps) < 1:
        raise SceneError(f"a scan needs at least one step, got {steps}")
    signed = residual == "biharmonic_normal"
    tasks = [(scene, param, float(v), residual) for v in np.linspace(float(lo), float(hi), int(steps))]
    # the steps, not the samples of a step, go to the pool: one fork per
    # worker for the whole scan
    done = None
    if jobs > 1 and len(tasks) > 1:
        try:
            with multiprocessing.get_context("fork").Pool(min(jobs, len(tasks))) as pool:
                done = pool.starmap(_scan_row, tasks)
        except (ValueError, OSError):
            pass  # run the steps serially below
    rows = []
    for i, task in enumerate(tasks):
        row = done[i] if done is not None else _scan_row(*task)
        if isinstance(row, EngineError):
            raise row
        rows.append(row)

    brackets = []
    if signed:
        for a, b in zip(rows, rows[1:]):
            sa, sb = a["signed"], b["signed"]
            if np.isfinite(sa) and np.isfinite(sb):
                if sa == 0.0 or (sa < 0) != (sb < 0):
                    brackets.append((a["value"], b["value"]))
    resid = [r["max_residual"] for r in rows]
    i_min = int(np.nanargmin(resid))
    return {
        "param": param,
        "residual": residual,
        "rows": rows,
        "brackets": brackets,
        "min_residual": float(resid[i_min]),
        "min_at": float(rows[i_min]["value"]),
    }


def format_scan_table(scan: dict) -> str:
    lines = [f"# {scan['param']}  max_{scan['residual']}"]
    for row in scan["rows"]:
        lines.append(f"{row['value']:.12g}  {row['max_residual']:.12g}")
    if scan["brackets"]:
        for a, b in scan["brackets"]:
            lines.append(f"# sign-change bracket: [{a:.12g}, {b:.12g}]")
    else:
        lines.append(
            f"# no sign change; min residual {scan['min_residual']:.6g} "
            f"at {scan['param']} = {scan['min_at']:.12g}"
        )
    return "\n".join(lines) + "\n"
