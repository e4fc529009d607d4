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
from dataclasses import dataclass, replace

import numpy as np

from .ambient import inner
from .errors import InvalidFrame
from .extrinsic import DEGENERATE, CodimTwoFrame, ExtrinsicRows, codim_two_frame, normal_laplacian_H, pmc_residual, shape_operator
from .immersion import Chart, analyze_point, evaluate_jet, probe_grid

__all__ = [
    "CodimTwoFrame",
    "E0Analysis",
    "DEGENERATE",
    "codim_two_frame",
    "biconservative_simple",
    "biconservative_full",
    "biconservative_residual",
    "biharmonic_predicates",
    "biharmonic_residual",
    "pmc_residual",
    "class_A_residual",
    "e0_structure",
    "splitting_residual",
    "circle_geometry",
    "TOL_EIG",
    "TOL_PMC",
]

TOL_EIG = 1e-7

#: PMC holds where |nabla^perp H| (``pmc_residual``) is at or below this
TOL_PMC = 1e-6


def biconservative_simple(rows: ExtrinsicRows) -> np.ndarray:
    """|eps <H, eta> T| of every row, the biconservative criterion under
    parallel mean curvature (jet level)."""
    return np.abs(inner(rows.chart.space, rows.H, rows.eta)) * rows.T_norm


def biconservative_full(rows: ExtrinsicRows) -> np.ndarray:
    """Norm of the tangential bitension vector
    m grad|H|^2 + 4 trace A_{nab^perp H} + 4 trace (R(., H) .)^T of every
    row, from the rows' nabla^perp_{d_p} H (N, m, n+2) in chart directions."""
    sp, m, E, W = rows.chart.space, rows.chart.m, rows.tangent_onb, rows.nabla_H
    # d_p |H|^2 = 2 <d_p H, H> = 2 <nabla^perp_p H, H>, as H is normal
    grad_hh = rows.jet.jac @ rows.g_inv @ (2.0 * inner(sp, W, rows.H[:, None]))[..., None]
    # A_{nabla^perp_{E_i} H} for every i, of which trace A takes column i
    A = shape_operator(sp, rows.normal_onb[:, None], rows.alpha[:, None], rows.tangent_coeffs @ W)
    onb = np.diagonal(A, axis1=1, axis2=3).sum(axis=-1) + inner(sp, E, rows.curvature_trace[:, None])
    return np.linalg.norm(m * grad_hh[..., 0] + 4.0 * (onb[:, None] @ E)[:, 0], axis=-1)


def biconservative_residual(rows: ExtrinsicRows) -> dict:
    """simple: ``biconservative_simple``; full: ``biconservative_full``, at
    every row of a batch evaluated at order 3."""
    return {"simple": biconservative_simple(rows), "full": biconservative_full(rows)}


def biharmonic_predicates(rows: ExtrinsicRows) -> tuple[np.ndarray, np.ndarray]:
    """trace A_{xi1}^2 + |T|^2 - m and the eps-explicit candidate
    trace A_{xi1}^2 + eps (|T|^2 - m) of every row, NaN where the rows'
    codim-2 frame is undefined (``frame_undefined``)."""
    tr = math.nan if rows.frame is None else np.trace(rows.frame.A1 @ rows.frame.A1, axis1=-2, axis2=-1)
    tr = np.where(rows.frame_undefined, math.nan, tr)
    t2 = rows.T_norm**2
    return tr + t2 - rows.chart.m, tr + rows.chart.space.epsilon * (t2 - rows.chart.m)


def biharmonic_residual(rows: ExtrinsicRows) -> dict:
    """The biharmonic normal residual of every row, from the rows'
    nabla^perp H (N, m, n+2).

    normal: the norm of trace alpha(., A_H .) - lap^perp H
    + trace (R(., H) .)^perp; minimal: whether H vanishes (|H| at or below
    DEGENERATE["H_minimal"]); nested: whether lap^perp H was taken, which
    it is where PMC fails (``pmc_residual`` above TOL_PMC, the default
    tolerance of the pmc check, whatever tolerance a run gives that check)
    and H does not vanish, and is 0 elsewhere, so rows whose ``nabla_H`` is
    zero assume PMC.  The nested rows take one order-4 ``evaluate_jet`` call,
    for the closed-form ``normal_laplacian_H``, and keep their own frames,
    g^-1, alpha and H, which are the same at every jet order bit for bit
    (``analyze_point``).

    The curvature trace enters with coefficient one: that is the form whose
    restriction to the parallel-H biconservative case reduces to the
    codimension-2 predicate trace A_{xi1}^2 + |T|^2 = m
    (``biharmonic_predicates``), and it reproduces the classical
    small-hypersphere locus in the round sphere.
    """
    minimal = rows.H_norm <= DEGENERATE["H_minimal"]
    nested = ~(rows.pmc <= TOL_PMC) & ~minimal
    lap = np.zeros_like(rows.H)
    at = np.flatnonzero(nested)
    if at.size:
        fourth = replace(rows.take(at), jet=evaluate_jet(rows.chart, rows.u[at], rows.steps[at], order=4))
        lap[at] = normal_laplacian_H(fourth, rows.nabla_H[at])
    A_H = shape_operator(rows.chart.space, rows.normal_onb, rows.alpha, rows.H)
    trace_alpha = (np.trace(rows.alpha @ A_H[:, None], axis1=-2, axis2=-1)[:, None] @ rows.normal_onb)[:, 0]
    curv = rows.proj_normal(rows.curvature_trace)
    return {"normal": np.linalg.norm(trace_alpha - lap + curv, axis=-1), "minimal": minimal, "nested": nested}


def class_A_residual(rows: ExtrinsicRows) -> np.ndarray:
    """Deviation of T from being an eigenvector of every shape operator,
    relative to max(1, |A_xi|), for every row of a batch; zero by
    convention where T vanishes.  |A_xi| is the spectral norm of the
    symmetric alpha^a, its largest |eigenvalue|."""
    t = rows.T_onb
    At = (rows.alpha @ t[:, None, :, None])[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = (At[..., None, :] @ t[:, None, :, None])[..., 0] / (t[:, None, :] @ t[:, :, None])
        dev = np.linalg.norm(At - coef * t[:, None, :], axis=-1)
    worst = np.max(dev / np.maximum(1.0, np.max(np.abs(np.linalg.eigvalsh(rows.alpha)), axis=-1)), axis=-1, initial=0.0)
    return np.where(rows.T_norm <= DEGENERATE["T_class_a"], 0.0, worst)


@dataclass
class E0Analysis:
    """Eigenstructure of A_H and the block form of the codim-2 frame, with
    B and S1 the diagonal non-kernel blocks of A_{xi2} and A_{xi1}.  Every
    field is stacked over the rows of a batch."""

    eigenvalues: np.ndarray  # of A_H, E_0 block first then descending |.|
    dim_E0: np.ndarray
    aht: np.ndarray  # |A_H T|
    aetat: np.ndarray  # dist(A_eta T, E_0(H))
    offblock: np.ndarray  # off-diagonal blocks of A_{xi2}
    traceBS1: np.ndarray  # |trace B S1|
    a_last: np.ndarray  # A_{xi2} entry on the leading shape direction
    warn_eigengap: np.ndarray


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


def e0_structure(rows: ExtrinsicRows) -> E0Analysis | None:
    """Symmetric eigenanalysis of A_H with the kernel split at relative
    tolerance ``TOL_EIG``, filling the residuals of the codimension-2
    biconservative block structure, for every row of a batch: a stacked
    E0Analysis, whose rows where the rows' ``codim_two_frame`` failed mean
    nothing, or None when the codimension is not 2."""
    frame = rows.frame
    if frame is None:
        return None
    m = rows.chart.m
    failed = frame.failed[:, None, None]
    A1, A2 = np.where(failed, 0.0, frame.A1), np.where(failed, 0.0, frame.A2)
    A_H = rows.H_norm[:, None, None] * A1
    lam, V = np.linalg.eigh(A_H)
    absl = np.abs(lam)
    tol_abs = TOL_EIG * np.maximum(np.max(absl, axis=-1), 1e-300)[:, None]
    is_zero = absl <= tol_abs
    warn = np.any((absl > 0.1 * tol_abs) & (absl < 10.0 * tol_abs), axis=-1)

    # order: E_0 block first, then descending |lambda| (stable)
    order = np.lexsort((np.where(is_zero, 0.0, -absl), ~is_zero), axis=-1)
    lam = np.take_along_axis(lam, order, axis=-1)
    V = np.take_along_axis(V, order[:, None, :], axis=-1)
    for r in np.flatnonzero(np.any(np.abs(np.diff(lam, axis=-1)) <= 10.0 * tol_abs, axis=-1)):
        _rotate_groups(lam[r], V[r], A2[r], tol_abs[r, 0])
    # the columns of V keep eigh's signs: every residual below is even in each column

    k0 = np.sum(is_zero, axis=-1)
    rest = np.arange(m) >= k0[:, None]  # the E_0 columns come first
    Vt = V.swapaxes(-1, -2)
    d1 = np.diagonal(Vt @ A1 @ V, axis1=-2, axis2=-1)
    M2 = Vt @ A2 @ V
    d2 = np.diagonal(M2, axis1=-2, axis2=-1)
    cross = ~rest[:, :, None] & rest[:, None, :]  # E_0 rows against the other columns
    within = rest[:, :, None] & rest[:, None, :] & ~np.eye(m, dtype=bool)
    off = np.max([np.sqrt(np.sum(np.where(k, M2 * M2, 0.0), axis=(-2, -1))) for k in (cross, within)], axis=0)

    w = (shape_operator(rows.chart.space, rows.normal_onb, rows.alpha, rows.eta) @ rows.T_onb[..., None])[..., 0]
    w0 = ((V * ~rest[:, None, :]) @ (Vt @ w[..., None]))[..., 0]
    return E0Analysis(
        eigenvalues=lam,
        dim_E0=k0,
        aht=np.linalg.norm((A_H @ rows.T_onb[..., None])[..., 0], axis=-1),
        aetat=np.linalg.norm(w - w0, axis=-1),
        offblock=off,
        traceBS1=np.abs(np.sum(np.where(rest, d1 * d2, 0.0), axis=-1)),
        a_last=np.where(k0 < m, d2[np.arange(len(k0)), np.minimum(k0, m - 1)], 0.0),
        warn_eigengap=warn,
    )


def _raise_first(errors: list) -> None:
    """Raise the first error of a batch's rows, if any."""
    for e in errors:
        if e is not None:
            raise e


def splitting_residual(chart: Chart) -> float:
    """Max mixed second derivative between the designated s variable and the
    remaining chart variables over a 4-point-per-axis probe grid (jet-exact): zero exactly
    when the chart splits as Gamma_1(s) + Gamma_2(u)."""
    if chart.s_index is None:
        raise InvalidFrame("chart has no designated s variable")
    s = chart.s_index
    jet = evaluate_jet(chart, probe_grid(chart.domain, 4))
    _raise_first(jet.errors)
    # [:, i] = |d2 f / ds du_i|, over contiguous rows: numpy sums 8 or more strided entries in another order
    mixed = np.linalg.norm(np.ascontiguousarray(np.moveaxis(jet.d2[:, :, s], 1, -1)), axis=-1)
    return float(np.fmax.reduce(np.delete(mixed, s, axis=-1), axis=None, initial=0.0))


def circle_geometry(chart: Chart) -> dict:
    """Curvature radius and plane rank of the s-curve through the chart
    center (read at the center and at 9 points along it), in any
    parametrisation of s, and the gap to
    the radius relation 1/sqrt(c^2 + eps) with c = |alpha(E_s, E_s)|, the
    s-curve's normal curvature at the center (E_s the unit s direction);
    the gap is inf where c^2 + eps <= 0."""
    if chart.s_index is None:
        raise InvalidFrame("chart has no designated s variable")
    s = chart.s_index
    u0 = chart.center()
    lo, hi = chart.domain[s]
    pad = 0.02 * (hi - lo)
    U = np.repeat(u0[None], 10, axis=0)
    U[1:, s] = np.linspace(lo + pad, hi - pad, 9)
    vj = evaluate_jet(chart, U)
    _raise_first(vj.errors)
    vel, acc = vj.jac[0, :, s], vj.d2[0, :, s, s]
    speed2 = vel @ vel  # the curvature of a curve of any speed
    with np.errstate(divide="ignore", invalid="ignore"):  # f_s = 0 is irregular: analyze_point raises below
        kappa = float(np.linalg.norm(acc - (acc @ vel / speed2) * vel) / speed2)
    radius = math.inf if kappa <= 1e-12 else 1.0 / kappa

    diffs = vj.values[2:] - vj.values[1]
    sv = np.linalg.svd(diffs, compute_uv=False)
    plane_rank = int(np.sum(sv > 1e-8 * max(sv[0], 1e-300)))

    b = analyze_point(chart, u0)
    _raise_first(b.errors)
    xi = np.ascontiguousarray(b.normal_onb[0])  # ``inner`` sums a strided row in another order
    c = float(np.linalg.norm(inner(chart.space, xi, acc)) / b.g[0, s, s])
    c2 = c * c + chart.space.epsilon
    gap = abs(radius - 1.0 / math.sqrt(c2)) if math.isfinite(radius) and c2 > 0 else math.inf
    return {"radius": radius, "plane_rank": plane_rank, "c": c, "gap": gap}
