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
from dataclasses import dataclass

import numpy as np

from .ambient import curvature, inner
from .errors import InvalidFrame
from .extrinsic import (
    ExtrinsicData,
    FieldCache,
    first_layer,
    normal_derivative_H,
    normal_laplacian_H,
    second_fundamental,
)
from .immersion import Chart, PointGeometry, analyze_point, evaluate_jet, probe_grid
from .jets import fd_gradient

__all__ = [
    "CodimTwoFrame",
    "E0Analysis",
    "codim_two_frame",
    "biconservative_residual",
    "biharmonic_residual",
    "class_A_residual",
    "e0_structure",
    "splitting_residual",
    "circle_geometry",
    "TOL_EIG",
]

TOL_EIG = 1e-7


def _sign_fix(v: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


@dataclass
class CodimTwoFrame:
    """The distinguished normal frame xi_1 = H/|H|, xi_2 = eta/|eta| of the
    codimension-2 analysis; when eta = 0 (vertical-cylinder degeneracy) xi_2
    is gauge-fixed as the unit normal orthogonal to xi_1."""

    xi1: np.ndarray
    xi2: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    eta_gauge_fixed: bool = False


def codim_two_frame(pg: PointGeometry, ed: ExtrinsicData, tol_h: float = 1e-10) -> CodimTwoFrame:
    sp = pg.space
    if pg.codim != 2:
        raise InvalidFrame(f"codimension is {pg.codim}, need exactly 2")
    if ed.H_norm <= tol_h:
        raise InvalidFrame("H vanishes; xi_1 = H/|H| is undefined")
    xi1 = ed.H / ed.H_norm
    eta_perp = pg.eta - inner(sp, pg.eta, xi1) * xi1
    perp_norm = math.sqrt(max(inner(sp, eta_perp, eta_perp), 0.0))
    gauge_fixed = False
    if pg.eta_norm > 1e-8 and perp_norm > 1e-8:
        xi2 = eta_perp / perp_norm
    else:
        # eta = 0 (or eta parallel to H): complete the frame orthogonally
        gauge_fixed = True
        best, best_n = None, 0.0
        for xi in pg.normal_onb:
            w = xi - inner(sp, xi, xi1) * xi1
            n = math.sqrt(max(inner(sp, w, w), 0.0))
            if n > best_n:
                best, best_n = w, n
        if best is None or best_n < 1e-10:
            raise InvalidFrame("cannot complete the codim-2 frame")
        xi2 = _sign_fix(best / best_n)
    return CodimTwoFrame(
        xi1=xi1,
        xi2=xi2,
        A1=ed.shape_in_direction(xi1),
        A2=ed.shape_in_direction(xi2),
        eta_gauge_fixed=gauge_fixed,
    )


def _tangential(pg: PointGeometry, v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    for e in pg.tangent_onb:
        out += inner(pg.space, v, e) * e
    return out


def biconservative_residual(
    chart: Chart,
    u,
    cache: FieldCache | None = None,
    pg: PointGeometry | None = None,
    ed: ExtrinsicData | None = None,
) -> dict:
    """simple: |eps <H, eta> T| (the criterion under parallel mean curvature);
    full: norm of the tangential bitension vector
    m grad|H|^2 + 4 trace A_{nab^perp H} + 4 trace (R(., H) .)^T."""
    cache = cache or FieldCache(chart)
    if pg is None or ed is None:
        pg, ed = cache.geometry(u)
    cache.prefetch(first_layer(pg.u))
    sp = chart.space
    m = chart.m

    simple = abs(inner(sp, ed.H, pg.eta)) * pg.T_norm

    dhh = np.array(
        [
            fd_gradient(lambda v: inner(sp, cache.H_field(v), cache.H_field(v)), pg.u, p)[0]
            for p in range(m)
        ]
    )
    grad_hh = pg.push(pg.g_inv @ dhh)

    Wp = normal_derivative_H(chart, pg.u, cache)
    C = pg.tangent_coeffs
    sumA = np.zeros(sp.ambient_dim)
    sumR = np.zeros(sp.ambient_dim)
    for i in range(m):
        Wi = np.einsum("p,pc->c", C[i], np.array(Wp))
        sumA += pg.from_onb(ed.shape_in_direction(Wi)[:, i])
        sumR += _tangential(pg, curvature(sp, pg.tangent_onb[i], ed.H, pg.tangent_onb[i]))
    vec = m * grad_hh + 4.0 * sumA + 4.0 * sumR
    return {"simple": simple, "full": float(np.linalg.norm(vec))}


def biharmonic_residual(
    chart: Chart,
    u,
    assume_pmc: bool = False,
    cache: FieldCache | None = None,
    pg: PointGeometry | None = None,
    ed: ExtrinsicData | None = None,
) -> dict:
    """normal: norm of trace alpha(., A_H .) - lap^perp H + trace (R(., H) .)^perp.

    The curvature trace enters with coefficient one: that is the form whose
    restriction to the parallel-H biconservative case reduces to the
    codimension-2 predicate trace A_{xi1}^2 + |T|^2 = m, and it reproduces
    the classical small-hypersphere locus in the round sphere.  ``predicate``
    reports trace A_{xi1}^2 + |T|^2 - m and ``predicate_eps`` the
    eps-explicit candidate trace A_{xi1}^2 + eps (|T|^2 - m); neither is
    asserted as ground truth for eps = -1, only the direct residual is.
    """
    cache = cache or FieldCache(chart)
    if pg is None or ed is None:
        pg, ed = cache.geometry(u)
    sp = chart.space
    m = chart.m

    minimal = ed.H_norm <= 1e-9
    trace_alpha = np.zeros(sp.ambient_dim)
    A_H = ed.shape_in_direction(ed.H)
    for a, xi in enumerate(pg.normal_onb):
        trace_alpha += float(np.trace(ed.shape_ops[a] @ A_H)) * xi
    lap = (
        np.zeros(sp.ambient_dim)
        if assume_pmc or minimal
        else normal_laplacian_H(chart, pg.u, cache)
    )
    curvN = np.zeros(sp.ambient_dim)
    for e in pg.tangent_onb:
        curvN += curvature(sp, e, ed.H, e)
    curvN = pg.proj_normal(curvN)
    normal = float(np.linalg.norm(trace_alpha - lap + curvN))

    out = {"normal": normal, "minimal": minimal}
    try:
        fr = codim_two_frame(pg, ed)
        tr = float(np.trace(fr.A1 @ fr.A1))
        t2 = pg.T_norm**2
        out["predicate"] = tr + t2 - m
        out["predicate_eps"] = tr + sp.epsilon * (t2 - m)
    except InvalidFrame:
        out["predicate"] = math.nan
        out["predicate_eps"] = math.nan
    return out


def class_A_residual(pg: PointGeometry, ed: ExtrinsicData, tol_t: float = 1e-8) -> float:
    """Deviation of T from being an eigenvector of every shape operator,
    relative to max(1, |A_xi|); zero by convention when T vanishes."""
    if pg.T_norm <= tol_t:
        return 0.0
    t = pg.onb_coords(pg.T_ambient)
    t2 = float(t @ t)
    worst = 0.0
    for A in ed.shape_ops:
        At = A @ t
        dev = At - (float(At @ t) / t2) * t
        worst = max(worst, float(np.linalg.norm(dev)) / max(1.0, float(np.linalg.norm(A, 2))))
    return worst


@dataclass
class E0Analysis:
    """Eigenstructure of A_H and the block form of the codim-2 frame."""

    eigenvalues: np.ndarray  # of A_H, E_0 block first then descending |.|
    eigenvectors: np.ndarray  # columns, tangent-ONB coordinates
    dim_E0: int
    S1: np.ndarray  # diagonal non-kernel block of A_{xi1}
    B: np.ndarray  # diagonal non-kernel block of A_{xi2}
    S2: np.ndarray  # E_0 block of A_{xi2}
    aht: float  # |A_H T|
    aetat: float  # dist(A_eta T, E_0(H))
    offblock: float  # off-diagonal blocks of A_{xi2}
    traceBS1: float  # |trace B S1|
    a_last: float  # A_{xi2} entry on the leading shape direction
    form3_residual: float | None  # m=3 only: gap to diag(0, 0, 3|H|)
    warn_eigengap: bool
    frame: CodimTwoFrame


def e0_structure(
    chart: Chart,
    u,
    pg: PointGeometry | None = None,
    ed: ExtrinsicData | None = None,
    tol_eig: float = TOL_EIG,
) -> E0Analysis:
    """Symmetric eigenanalysis of A_H with the kernel split, filling the
    residuals of the codimension-2 biconservative block structure."""
    if pg is None:
        pg = analyze_point(chart, u)
    if ed is None:
        ed = second_fundamental(pg)
    fr = codim_two_frame(pg, ed)
    m = chart.m
    A_H = ed.H_norm * fr.A1
    lam, V = np.linalg.eigh(A_H)
    scale = max(float(np.max(np.abs(lam))), 1e-300)
    tol_abs = tol_eig * scale
    is_zero = np.abs(lam) <= tol_abs
    warn = bool(np.any((np.abs(lam) > 0.1 * tol_abs) & (np.abs(lam) < 10.0 * tol_abs)))

    # order: E_0 block first, then descending |lambda|
    idx0 = [i for i in range(m) if is_zero[i]]
    idx1 = sorted(
        [i for i in range(m) if not is_zero[i]], key=lambda i: -abs(lam[i])
    )
    order = idx0 + idx1
    lam = lam[order]
    V = V[:, order]

    # within near-degenerate eigengroups of A_H, rotate to diagonalize A_xi2
    groups = []
    start = 0
    for i in range(1, m + 1):
        if i == m or abs(lam[i] - lam[start]) > 10.0 * tol_abs:
            groups.append((start, i))
            start = i
    A2 = fr.A2
    for s, e in groups:
        if e - s > 1:
            sub = V[:, s:e].T @ A2 @ V[:, s:e]
            _, R = np.linalg.eigh(0.5 * (sub + sub.T))
            V[:, s:e] = V[:, s:e] @ R
    for j in range(m):
        V[:, j] = _sign_fix(V[:, j])

    k0 = len(idx0)
    V0, V1 = V[:, :k0], V[:, k0:]
    A1b = V1.T @ fr.A1 @ V1
    S1 = np.diag(np.diag(A1b))
    Bb = V1.T @ A2 @ V1
    B = np.diag(np.diag(Bb))
    S2 = V0.T @ A2 @ V0
    off = 0.0
    if k0 and k0 < m:
        off = float(np.linalg.norm(V0.T @ A2 @ V1))
    off = max(off, float(np.linalg.norm(Bb - B)))

    t = pg.onb_coords(pg.T_ambient)
    aht = float(np.linalg.norm(A_H @ t))
    w = ed.shape_in_direction(pg.eta) @ t
    aetat = float(np.linalg.norm(w - V0 @ (V0.T @ w))) if k0 else float(np.linalg.norm(w))
    traceBS1 = abs(float(np.trace(B @ S1)))
    a_last = float((V[:, k0] @ A2 @ V[:, k0])) if k0 < m else 0.0

    form3 = None
    if m == 3:
        want = np.sort(np.array([0.0, 0.0, 3.0 * ed.H_norm]))
        have = np.sort(np.linalg.eigvalsh(fr.A1))
        form3 = float(np.max(np.abs(have - want)))

    return E0Analysis(
        eigenvalues=lam,
        eigenvectors=V,
        dim_E0=k0,
        S1=S1,
        B=B,
        S2=S2,
        aht=aht,
        aetat=aetat,
        offblock=off,
        traceBS1=traceBS1,
        a_last=a_last,
        form3_residual=form3,
        warn_eigengap=warn,
        frame=fr,
    )


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
    radius relation 1/sqrt(c^2 + 1) with c = 3 |H| at the base point."""
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
    ed = second_fundamental(pg)
    c = 3.0 * ed.H_norm
    predicted = 1.0 / math.sqrt(c * c + 1.0)
    gap = abs(radius - predicted) if math.isfinite(radius) else math.inf
    return {"radius": radius, "plane_rank": plane_rank, "c": c, "gap": gap}
