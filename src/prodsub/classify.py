"""Classification predicates as residuals: biconservativity, biharmonicity,
parallel mean curvature structure, class A, and the codimension-2 block
forms, together with the splitting and circle diagnostics of the
circle-times-surface family.

All residuals are gauge-invariant: flipping the sign of any normal frame
vector changes alpha^a and <w, xi_a> together, so every quantity below is
even in each xi_a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .ambient import curvature, inner
from .errors import InvalidFrame
from .extrinsic import (
    ExtrinsicData,
    ExtrinsicRows,
    FieldCache,
    _one,
    normal_derivatives_H,
    normal_laplacian_H,
    second_fundamental,
    shape_operator,
)
from .immersion import Chart, PointGeometry, analyze_point, evaluate_jet, probe_grid

__all__ = [
    "CodimTwoFrame",
    "E0Analysis",
    "DEGENERATE",
    "codim_two_frame",
    "codim_two_frames",
    "biconservative_simple",
    "biconservative_full",
    "biconservative_residual",
    "biharmonic_normal",
    "biharmonic_normals",
    "biharmonic_predicates",
    "biharmonic_residual",
    "class_A_residual",
    "class_A_residuals",
    "e0_structure",
    "e0_structures",
    "splitting_residual",
    "circle_geometry",
    "TOL_EIG",
]

TOL_EIG = 1e-7

#: degeneracy thresholds: a point whose quantity is at or below its entry
#: counts as T = 0, H = 0 or eta = 0 for the named use
DEGENERATE = {
    "T_biconservative": 1e-10,  # the biconservative check's slice-type points
    "T_class_a": 1e-8,  # class A is zero by convention
    "H_minimal": 1e-9,  # biharmonic_residual's minimal flag
    "H_frame": 1e-10,  # xi_1 = H/|H| of the codim-2 frame is undefined
    "eta_frame": 1e-8,  # |eta| and |eta_perp|: xi_2 is gauge-fixed instead
    "frame_completion": 1e-10,  # no normal is left to gauge-fix xi_2 with
}


def _sign_fix(v: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Each vector of v (..., k) flipped so that its first entry above tol
    in absolute value is positive."""
    big = np.abs(v) > tol
    lead = np.take_along_axis(v, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    return np.where((big.any(axis=-1) & (lead < 0))[..., None], -v, v)


def _first_row(stacked, errors: list):
    """Row 0 of a dataclass of arrays stacked over a batch (scalars as
    Python numbers), or the error of that row."""
    if errors[0] is not None:
        raise errors[0]
    out = {}
    for f in fields(stacked):
        v = getattr(stacked, f.name)
        if is_dataclass(v):
            out[f.name] = _first_row(v, errors)
        elif v is not None:
            out[f.name] = v[0].item() if np.ndim(v[0]) == 0 else v[0]
    return replace(stacked, **out)


@dataclass
class CodimTwoFrame:
    """The distinguished normal frame xi_1 = H/|H|, xi_2 = eta/|eta| of the
    codimension-2 analysis; when eta = 0 (vertical-cylinder degeneracy) xi_2
    is gauge-fixed as the unit normal orthogonal to xi_1.  The batch form
    stacks every field over the rows."""

    xi1: np.ndarray
    xi2: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    eta_gauge_fixed: bool = False


def codim_two_frames(rows: ExtrinsicRows, tol_h: float = DEGENERATE["H_frame"]):
    """The codim-2 frame of every row of a batch: a stacked CodimTwoFrame
    (None when the codimension is not 2) and a list with the InvalidFrame
    each row raises, else None.  The fields of a failed row mean nothing."""
    b = rows.batch
    sp = b.chart.space
    n_rows, codim = b.normal_onb.shape[:2]
    if codim != 2:
        return None, [InvalidFrame(f"codimension is {codim}, need exactly 2")] * n_rows
    tol_eta = DEGENERATE["eta_frame"]
    xi, all_rows = b.normal_onb, np.arange(n_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi1 = rows.H / rows.H_norm[:, None]
        eta_perp = b.eta - inner(sp, b.eta, xi1)[:, None] * xi1
        perp_norm = np.sqrt(np.maximum(inner(sp, eta_perp, eta_perp), 0.0))
        fixed = ~((b.eta_norm > tol_eta) & (perp_norm > tol_eta))
        # eta = 0 (or eta parallel to H): complete the frame orthogonally
        w = xi - inner(sp, xi, xi1[:, None])[..., None] * xi1[:, None]
        w_norm = np.sqrt(np.maximum(inner(sp, w, w), 0.0))
        best = np.argmax(w_norm, axis=1)
        w_best = w_norm[all_rows, best]
        fill = _sign_fix(w[all_rows, best] / w_best[:, None])
        xi2 = np.where(fixed[:, None], fill, eta_perp / perp_norm[:, None])
        A1, A2 = (shape_operator(sp, xi, rows.alpha, v) for v in (xi1, xi2))
    stuck = fixed & ~(w_best >= DEGENERATE["frame_completion"])
    errors = [
        InvalidFrame("H vanishes; xi_1 = H/|H| is undefined") if h
        else InvalidFrame("cannot complete the codim-2 frame") if s else None
        for h, s in zip((rows.H_norm <= tol_h).tolist(), stuck.tolist())
    ]
    return CodimTwoFrame(xi1, xi2, A1, A2, fixed), errors


def codim_two_frame(
    pg: PointGeometry, ed: ExtrinsicData, tol_h: float = DEGENERATE["H_frame"]
) -> CodimTwoFrame:
    """``codim_two_frames`` at one point; raises its InvalidFrame."""
    return _first_row(*codim_two_frames(ExtrinsicRows.of(pg, ed), tol_h))


def biconservative_simple(rows: ExtrinsicRows) -> np.ndarray:
    """|eps <H, eta> T| of every row, the biconservative criterion under
    parallel mean curvature (jet level)."""
    return np.abs(inner(rows.batch.chart.space, rows.H, rows.batch.eta)) * rows.batch.T_norm


def _curvature_trace(rows: ExtrinsicRows) -> np.ndarray:
    """trace R(., H) . = sum_i R(E_i, H) E_i of every row, (N, n+2)."""
    E = rows.batch.tangent_onb
    return curvature(rows.batch.chart.space, E, rows.H[:, None], E).sum(axis=1)


def biconservative_full(rows: ExtrinsicRows, W: np.ndarray) -> np.ndarray:
    """Norm of the tangential bitension vector
    m grad|H|^2 + 4 trace A_{nab^perp H} + 4 trace (R(., H) .)^T of every
    row, from nabla^perp_{d_p} H (N, m, n+2) in chart directions."""
    b = rows.batch
    sp, m, E = b.chart.space, b.chart.m, b.tangent_onb
    # d_p |H|^2 = 2 <d_p H, H> = 2 <nabla^perp_p H, H>, as H is normal
    grad_hh = b.jet.jac @ b.g_inv @ (2.0 * inner(sp, W, rows.H[:, None]))[..., None]
    # A_{nabla^perp_{E_i} H} for every i, of which trace A takes column i
    A = shape_operator(sp, b.normal_onb[:, None], rows.alpha[:, None], b.tangent_coeffs @ W)
    onb = np.diagonal(A, axis1=1, axis2=3).sum(axis=-1) + inner(sp, E, _curvature_trace(rows)[:, None])
    return np.linalg.norm(m * grad_hh[..., 0] + 4.0 * (onb[:, None] @ E)[:, 0], axis=-1)


def biconservative_residual(
    chart: Chart, u, cache: FieldCache | None = None, pg: PointGeometry | None = None, ed: ExtrinsicData | None = None
) -> dict:
    """simple: ``biconservative_simple``; full: ``biconservative_full``, at
    one point (at ``pg`` and ``ed`` when given)."""
    layer = (cache or FieldCache(chart)).layer(u if pg is None else pg.u)
    W = _one(normal_derivatives_H, layer)
    rows = layer.centers if pg is None or ed is None else ExtrinsicRows.of(pg, ed)
    return {"simple": float(biconservative_simple(rows)[0]), "full": float(biconservative_full(rows, W[None])[0])}


def biharmonic_predicates(rows: ExtrinsicRows) -> tuple[np.ndarray, np.ndarray]:
    """trace A_{xi1}^2 + |T|^2 - m and the eps-explicit candidate
    trace A_{xi1}^2 + eps (|T|^2 - m) of every row, NaN where the codim-2
    frame is undefined."""
    b = rows.batch
    frame, errors = codim_two_frames(rows)
    undefined = np.array([e is not None for e in errors])
    if frame is None:
        return np.full(len(b), math.nan), np.full(len(b), math.nan)
    tr = np.where(undefined, math.nan, np.trace(frame.A1 @ frame.A1, axis1=-2, axis2=-1))
    t2 = b.T_norm**2
    return tr + t2 - b.chart.m, tr + b.chart.space.epsilon * (t2 - b.chart.m)


def biharmonic_normals(rows: ExtrinsicRows, lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm of trace alpha(., A_H .) - lap^perp H + trace (R(., H) .)^perp
    of every row, for the normal Laplacians ``lap`` (N, n+2), and whether H
    vanishes there (|H| at or below DEGENERATE["H_minimal"])."""
    b = rows.batch
    A_H = shape_operator(b.chart.space, b.normal_onb, rows.alpha, rows.H)
    trace_alpha = (np.trace(rows.alpha @ A_H[:, None], axis1=-2, axis2=-1)[:, None] @ b.normal_onb)[:, 0]
    curv = b.proj_normal(_curvature_trace(rows))
    return np.linalg.norm(trace_alpha - lap + curv, axis=-1), rows.H_norm <= DEGENERATE["H_minimal"]


def biharmonic_normal(
    chart: Chart, pg: PointGeometry, ed: ExtrinsicData, assume_pmc: bool = False, cache: FieldCache | None = None
) -> tuple[float, bool]:
    """``biharmonic_normals`` at one point.  The normal Laplacian takes
    nested differences unless ``assume_pmc`` or H = 0."""
    minimal = ed.H_norm <= DEGENERATE["H_minimal"]
    nested = not (assume_pmc or minimal)
    lap = normal_laplacian_H(chart, pg.u, cache or FieldCache(chart)) if nested else np.zeros(chart.space.ambient_dim)
    return float(biharmonic_normals(ExtrinsicRows.of(pg, ed), lap[None])[0][0]), minimal


def biharmonic_residual(
    chart: Chart,
    u,
    assume_pmc: bool = False,
    cache: FieldCache | None = None,
    pg: PointGeometry | None = None,
    ed: ExtrinsicData | None = None,
) -> dict:
    """normal and minimal: ``biharmonic_normal``.

    The curvature trace enters with coefficient one: that is the form whose
    restriction to the parallel-H biconservative case reduces to the
    codimension-2 predicate trace A_{xi1}^2 + |T|^2 = m, and it reproduces
    the classical small-hypersphere locus in the round sphere.  ``predicate``
    and ``predicate_eps`` are ``biharmonic_predicates`` at the point;
    neither is asserted as ground truth for eps = -1, only the direct
    residual is.
    """
    cache = cache or FieldCache(chart)
    if pg is None or ed is None:
        pg, ed = cache.geometry(u)
    normal, minimal = biharmonic_normal(chart, pg, ed, assume_pmc, cache)
    pred, pred_eps = biharmonic_predicates(ExtrinsicRows.of(pg, ed))
    return {
        "normal": normal,
        "minimal": minimal,
        "predicate": float(pred[0]),
        "predicate_eps": float(pred_eps[0]),
    }


def class_A_residuals(rows: ExtrinsicRows, tol_t: float = DEGENERATE["T_class_a"]) -> np.ndarray:
    """Deviation of T from being an eigenvector of every shape operator,
    relative to max(1, |A_xi|), for every row of a batch; zero by
    convention where T vanishes."""
    b = rows.batch
    t = inner(b.chart.space, b.tangent_onb, b.T_ambient[:, None])  # T in the tangent ONB
    At = (rows.alpha @ t[:, None, :, None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (At[..., None, :] @ t[:, None, :, None])[..., 0] / (t[:, None, :] @ t[:, :, None])
        dev = np.linalg.norm(At - coef * t[:, None, :], axis=-1)
    worst = np.max(dev / np.maximum(1.0, np.linalg.norm(rows.alpha, 2, axis=(-2, -1))), axis=-1, initial=0.0)
    return np.where(b.T_norm <= tol_t, 0.0, worst)


def class_A_residual(pg: PointGeometry, ed: ExtrinsicData, tol_t: float = DEGENERATE["T_class_a"]) -> float:
    """``class_A_residuals`` at one point."""
    return float(class_A_residuals(ExtrinsicRows.of(pg, ed), tol_t)[0])


@dataclass
class E0Analysis:
    """Eigenstructure of A_H and the block form of the codim-2 frame, with
    B and S1 the diagonal non-kernel blocks of A_{xi2} and A_{xi1}.  The
    batch form stacks every field over the rows."""

    eigenvalues: np.ndarray  # of A_H, E_0 block first then descending |.|
    eigenvectors: np.ndarray  # columns, tangent-ONB coordinates
    dim_E0: int
    aht: float  # |A_H T|
    aetat: float  # dist(A_eta T, E_0(H))
    offblock: float  # off-diagonal blocks of A_{xi2}
    traceBS1: float  # |trace B S1|
    a_last: float  # A_{xi2} entry on the leading shape direction
    form3_residual: float | None  # m=3 only: gap to diag(0, 0, 3|H|)
    warn_eigengap: bool
    frame: CodimTwoFrame


def _rotate_groups(lam: np.ndarray, V: np.ndarray, A2: np.ndarray, tol_abs: float) -> None:
    """Within near-degenerate eigengroups of A_H, rotate V in place to
    diagonalize A_xi2."""
    start = 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or abs(lam[i] - lam[start]) > 10.0 * tol_abs:
            if i - start > 1:
                sub = V[:, start:i].T @ A2 @ V[:, start:i]
                V[:, start:i] = V[:, start:i] @ np.linalg.eigh(0.5 * (sub + sub.T))[1]
            start = i


def e0_structures(rows: ExtrinsicRows, tol_eig: float = TOL_EIG):
    """Symmetric eigenanalysis of A_H with the kernel split, filling the
    residuals of the codimension-2 biconservative block structure, for
    every row of a batch: a stacked E0Analysis (None when the codimension
    is not 2) and the rows' errors as in ``codim_two_frames``."""
    frame, errors = codim_two_frames(rows)
    if frame is None:
        return None, errors
    b = rows.batch
    m = b.chart.m
    failed = np.array([e is not None for e in errors])[:, None, None]
    A1, A2 = np.where(failed, 0.0, frame.A1), np.where(failed, 0.0, frame.A2)
    A_H = rows.H_norm[:, None, None] * A1
    lam, V = np.linalg.eigh(A_H)
    absl = np.abs(lam)
    tol_abs = tol_eig * np.maximum(np.max(absl, axis=-1), 1e-300)[:, None]
    is_zero = absl <= tol_abs
    warn = np.any((absl > 0.1 * tol_abs) & (absl < 10.0 * tol_abs), axis=-1)

    # order: E_0 block first, then descending |lambda| (stable)
    order = np.lexsort((np.where(is_zero, 0.0, -absl), ~is_zero), axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    V = np.take_along_axis(V, order[:, None, :], axis=-1)
    for r in np.flatnonzero(np.any(np.abs(np.diff(lam, axis=-1)) <= 10.0 * tol_abs, axis=-1)):
        _rotate_groups(lam[r], V[r], A2[r], tol_abs[r, 0])
    V = np.swapaxes(_sign_fix(np.swapaxes(V, -1, -2)), -1, -2)

    k0 = np.sum(is_zero, axis=-1)
    rest = np.arange(m) >= k0[:, None]  # the E_0 columns come first
    Vt = np.swapaxes(V, -1, -2)
    d1 = np.diagonal(Vt @ A1 @ V, axis1=-2, axis2=-1)
    M2 = Vt @ A2 @ V
    d2 = np.diagonal(M2, axis1=-2, axis2=-1)
    cross = ~rest[:, :, None] & rest[:, None, :]  # E_0 rows against the other columns
    within = rest[:, :, None] & rest[:, None, :] & ~np.eye(m, dtype=bool)
    off = np.max([np.sqrt(np.sum(np.where(k, M2 * M2, 0.0), axis=(-2, -1))) for k in (cross, within)], axis=0)

    sp = b.chart.space
    t = inner(sp, b.tangent_onb, b.T_ambient[:, None])
    w = (shape_operator(sp, b.normal_onb, rows.alpha, b.eta) @ t[..., None])[..., 0]
    w0 = ((V * ~rest[:, None, :]) @ (Vt @ w[..., None]))[..., 0]
    form3 = None
    if m == 3:
        want = np.sort(np.stack([0.0 * rows.H_norm, 0.0 * rows.H_norm, 3.0 * rows.H_norm], axis=-1))
        form3 = np.max(np.abs(np.linalg.eigvalsh(A1) - want), axis=-1)
    e0 = E0Analysis(
        eigenvalues=lam,
        eigenvectors=V,
        dim_E0=k0,
        aht=np.linalg.norm((A_H @ t[..., None])[..., 0], axis=-1),
        aetat=np.linalg.norm(w - w0, axis=-1),
        offblock=off,
        traceBS1=np.abs(np.sum(np.where(rest, d1 * d2, 0.0), axis=-1)),
        a_last=np.where(k0 < m, d2[np.arange(len(k0)), np.minimum(k0, m - 1)], 0.0),
        form3_residual=form3,
        warn_eigengap=warn,
        frame=frame,
    )
    return e0, errors


def e0_structure(
    chart: Chart,
    u,
    pg: PointGeometry | None = None,
    ed: ExtrinsicData | None = None,
    tol_eig: float = TOL_EIG,
) -> E0Analysis:
    """``e0_structures`` at one point; raises its InvalidFrame."""
    if pg is None:
        pg = analyze_point(chart, u)
    if ed is None:
        ed = second_fundamental(pg)
    return _first_row(*e0_structures(ExtrinsicRows.of(pg, ed), tol_eig))


def splitting_residual(chart: Chart, per_axis: int = 4) -> float:
    """Max mixed second derivative between the designated s variable and the
    remaining chart variables over a probe grid (jet-exact): zero exactly
    when the chart splits as Gamma_1(s) + Gamma_2(u)."""
    if chart.s_index is None:
        raise InvalidFrame("chart has no designated s variable")
    s = chart.s_index
    d2 = evaluate_jet(chart, probe_grid(chart.domain, per_axis)).d2
    worst = 0.0
    for i in range(chart.m):
        if i != s:
            worst = max(worst, float(np.fmax.reduce(np.linalg.norm(d2[:, :, s, i], axis=-1))))
    return worst


def circle_geometry(chart: Chart, u0=None, n_samples: int = 9) -> dict:
    """Curvature radius and plane rank of the s-curves, and the gap to the
    radius relation 1/sqrt(c^2 + eps) with c = |alpha(E_s, E_s)|, the
    s-curve's normal curvature at the base point (E_s the unit s
    direction); the gap is inf where c^2 + eps <= 0."""
    if chart.s_index is None:
        raise InvalidFrame("chart has no designated s variable")
    s = chart.s_index
    u0 = chart.center() if u0 is None else np.asarray(u0, dtype=float)
    lo, hi = chart.domain[s]
    pad = 0.02 * (hi - lo)
    U = np.repeat(u0[None], 1 + max(n_samples, 8), axis=0)
    U[1:, s] = np.linspace(lo + pad, hi - pad, max(n_samples, 8))
    vj = evaluate_jet(chart, U)
    acc = vj.second(s, s)[0]
    kappa = float(np.linalg.norm(acc))
    radius = math.inf if kappa <= 1e-12 else 1.0 / kappa

    diffs = vj.values[2:] - vj.values[1]
    sv = np.linalg.svd(diffs, compute_uv=False)
    plane_rank = int(np.sum(sv > 1e-8 * max(sv[0], 1e-300)))

    pg = analyze_point(chart, u0)
    c = float(np.linalg.norm(inner(chart.space, np.asarray(pg.normal_onb), acc)) / pg.g[s, s])
    c2 = c * c + chart.space.epsilon
    gap = abs(radius - 1.0 / math.sqrt(c2)) if math.isfinite(radius) and c2 > 0 else math.inf
    return {"radius": radius, "plane_rank": plane_rank, "c": c, "gap": gap}
