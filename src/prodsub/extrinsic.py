"""Second fundamental form, mean curvature, normal connection and the
residuals of the first-order structure equations.

Derivative depth discipline: quantities built from the position 2-jet are
exact ("jet level"); one finite-difference layer on top of jet-level fields
is accurate to about tol_fd = 1e-6; nested differences (only the normal
Laplacian of H needs them) to about tol_fd2 = 1e-4.  Every differentiated
field is gauge-invariant (H, eta, alpha contractions, the normal projector),
never a frame vector from the pivoted normal Gram-Schmidt.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .ambient import ProductSpace, inner
from .errors import ChartError
from .immersion import Chart, PointBatch, PointGeometry, analyze_point
from .jets import fd_gradient, fd_stencil

__all__ = [
    "ExtrinsicData",
    "ExtrinsicRows",
    "FieldCache",
    "second_fundamental",
    "christoffels",
    "onb_connection",
    "normal_derivative_H",
    "normal_laplacian_H",
    "structure_residuals",
    "gauss_residual",
    "codazzi_residual",
    "ricci_residual",
    "T_eta_residuals",
    "FD_NESTED_STEP",
]

#: outer step for nested finite differences (inner layer carries ~1e-10 noise)
FD_NESTED_STEP = 5e-4

# most points in one batched call of FieldCache.batched: a batch holds about
# 2.4 KiB per point, and past about a thousand points a larger batch barely
# lowers the cost per point (theorem1_cylinder on one core of a 2-vCPU
# Xeon: 8.5 us at 1,024 points, 7.9 us at 4,096, 1 ms for a batch of one)
_BATCH_POINTS = 1024


@dataclass
class ExtrinsicData:
    """Second-fundamental-form data at one point, in the orthonormal frames.

    ``alpha[a][i, j]`` are the components of the second fundamental form
    against normal xi_a over the tangent ONB; in an orthonormal frame these
    matrices are exactly the shape operators, so ``shape_ops`` aliases them.
    """

    pg: PointGeometry
    alpha: list
    shape_ops: list
    H: np.ndarray
    H_norm: float
    conn: np.ndarray | None = None

    def shape_in_direction(self, w: np.ndarray) -> np.ndarray:
        """Shape operator A_w for an ambient normal vector w (ONB matrix)."""
        sp = self.pg.space
        out = np.zeros_like(self.shape_ops[0])
        for a, xi in enumerate(self.pg.normal_onb):
            out += inner(sp, w, xi) * self.shape_ops[a]
        return out


def second_fundamental(pg, with_connection: bool = False):
    """alpha, shape operators and the mean curvature vector at a point.

    alpha^a_{ij} = <d2f/du_i du_j, xi_a>: the normal frame is orthogonal to
    both the tangent space and the quadric position, which removes the
    Christoffel and inclusion-umbilic parts of the flat second derivative.
    ``with_connection`` also fills the ONB connection coefficients, which
    need a finite-difference stencil around the point.

    ``pg`` is one PointGeometry, or a PointBatch, for which the result is an
    ExtrinsicRows sequence with one ExtrinsicData per row (None where the
    row failed).  One point runs as a batch of one.
    """
    if isinstance(pg, PointBatch):
        with np.errstate(invalid="ignore", over="ignore"):  # failed rows hold garbage
            return ExtrinsicRows(pg, *_sff(pg.chart.space, pg.normal_onb, pg.jet.d2, pg.tangent_coeffs))
    alpha, H, H_norm = _sff(
        pg.space, np.array(pg.normal_onb)[None], pg.jet.d2[None], pg.tangent_coeffs[None]
    )
    ed = _extrinsic(pg, alpha[0], H[0], H_norm[0])
    if with_connection:
        ed.conn = onb_connection(pg)
    return ed


class ExtrinsicRows(Sequence):
    """``second_fundamental`` of a PointBatch: alpha (N, r, m, m), H (N, n+2)
    and |H| (N,) stacked, read as a sequence of N ExtrinsicData (None where
    the row failed).  A row's PointGeometry and ExtrinsicData are built when
    the row is read, so a large batch holds only its arrays.  Slices and
    ``+`` give plain lists."""

    def __init__(self, batch: PointBatch, alpha, H, H_norm):
        self.batch = batch
        self.alpha, self.H, self.H_norm = alpha, H, H_norm

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        if self.batch.errors[i] is not None:
            return None
        return _extrinsic(self.batch.point(i), self.alpha[i], self.H[i], self.H_norm[i])

    def __add__(self, other) -> list:
        return list(self) + list(other)


def _extrinsic(pg: PointGeometry, alpha: np.ndarray, H: np.ndarray, H_norm) -> ExtrinsicData:
    alpha = list(alpha)
    return ExtrinsicData(pg=pg, alpha=alpha, shape_ops=alpha, H=H, H_norm=float(H_norm))


def _sff(sp: ProductSpace, xi: np.ndarray, d2: np.ndarray, C: np.ndarray):
    """alpha (N, r, m, m) in the tangent ONB, H (N, n+2) and |H| (N,) from
    the stacked normal frames xi (N, r, n+2), position Hessians d2
    (N, n+2, m, m) and frame coefficients C (N, m, m)."""
    n_rows, k, m, _ = d2.shape
    a_chart = ((sp.signature * xi) @ d2.reshape(n_rows, k, m * m)).reshape(n_rows, -1, m, m)
    a_onb = C[:, None] @ a_chart @ np.swapaxes(C, -1, -2)[:, None]
    alpha = 0.5 * (a_onb + np.swapaxes(a_onb, -1, -2))
    traces = np.diagonal(alpha, axis1=-2, axis2=-1).sum(axis=-1)
    H = (traces[:, None, :] @ xi)[:, 0] / m
    H_norm = np.sqrt(np.maximum(inner(sp, H, H), 0.0))
    return alpha, H, H_norm


def christoffels(pg: PointGeometry) -> np.ndarray:
    """Chart-coordinate Christoffel symbols, exact at jet level.

    Returns G[l, i, j] = Gamma^l_{ij}; the metric first derivatives come from
    the position 2-jet, d_k g_ij = <f_ik, f_j> + <f_i, f_jk>.
    """
    J = pg.jet.jac
    d2 = pg.jet.d2
    sig = pg.space.signature
    # dg[k, i, j] = d_k g_ij
    dg = np.einsum("c,cik,cj->kij", sig, d2, J) + np.einsum(
        "c,ci,cjk->kij", sig, J, d2
    )
    # Gamma_{ij,k} = (d_i g_jk + d_j g_ik - d_k g_ij) / 2
    low = 0.5 * (dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    return np.einsum("lk,ijk->lij", pg.g_inv, low)


def onb_connection(pg: PointGeometry, cache: "FieldCache | None" = None) -> np.ndarray:
    """Connection coefficients in the tangent ONB,
    conn[i, j, k] = <nabla_{E_i} E_j, E_k> (one finite-difference layer)."""
    cache = cache or FieldCache(pg.chart)
    cache.prefetch(first_layer(pg.u))
    sp = pg.space
    m = pg.chart.m
    C = pg.tangent_coeffs

    def frame_field(j):
        return lambda v: cache.geometry(v)[0].tangent_onb[j]

    d_frames = np.array(
        [[fd_gradient(frame_field(j), pg.u, p) for p in range(m)] for j in range(m)]
    )  # (j, p, coord)
    conn = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            dv = np.einsum("p,pc->c", C[i], d_frames[j])
            for k in range(m):
                conn[i, j, k] = inner(sp, dv, pg.tangent_onb[k])
    return conn


def first_layer(u) -> np.ndarray:
    """u followed by the 4m points of its base-step ``fd_stencil`` along each
    chart direction: every point a first-layer difference around u reads."""
    u = np.asarray(u, dtype=float)
    return np.vstack([u[None]] + [fd_stencil(u, i)[1] for i in range(len(u))])


def nested_layer(u) -> np.ndarray:
    """The first layer of u, then for each point of u's ``FD_NESTED_STEP``
    stencils that point's first layer: (1 + 4m)^2 points, all a nested
    difference around u reads."""
    u = np.asarray(u, dtype=float)
    outer = [v for p in range(len(u)) for v in fd_stencil(u, p, FD_NESTED_STEP)[1]]
    return np.vstack([first_layer(u)] + [first_layer(v) for v in outer])


class FieldCache:
    """Memo for point geometry across finite-difference stencils.

    Keys are exact float tuples: ``fd_stencil`` computes the offsets of
    repeated fd calls around the same center identically, so lookups hit.
    ``prefetch`` fills the memo for a whole stencil in one batched call, and
    ``batched`` fills one cache per sample, with one call for many samples.
    """

    def __init__(self, chart: Chart):
        self.chart = chart
        self._memo: dict = {}

    @classmethod
    def batched(cls, chart: Chart, point_sets) -> Iterator["FieldCache"]:
        """One cache per point set (P_s, m) of ``point_sets``, yielded in
        order and holding the geometry of its points.  Consecutive sets of
        up to ``_BATCH_POINTS`` points in all (at least one set) share one
        batched call.  A cache's entries are built when it is yielded and
        belong to it alone, so they go when the caller drops the cache.
        Failed rows and a failed batch store nothing, as in ``prefetch``."""
        sets = [np.asarray(p, dtype=float) for p in point_sets]
        step = max(1, _BATCH_POINTS // max(map(len, sets), default=1))
        for first in range(0, len(sets), step):
            block = sets[first : first + step]
            rows = _geometry_rows(chart, np.vstack(block))
            start = 0
            for points in block:
                cache = cls(chart)
                cache._store(points, rows, start)
                start += len(points)
                yield cache

    def geometry(self, u) -> tuple[PointGeometry, ExtrinsicData]:
        key = tuple(np.asarray(u, dtype=float).tolist())
        hit = self._memo.get(key)
        if hit is None:
            pg = analyze_point(self.chart, np.asarray(u, dtype=float))
            hit = (pg, second_fundamental(pg))
            self._memo[key] = hit
        return hit

    def prefetch(self, points) -> None:
        """Compute the geometry of every point of ``points`` (P, m) that the
        memo lacks with one batched ``analyze_point`` and
        ``second_fundamental`` call.  A row that fails is left out, and an
        error of the whole batch caches nothing, so a later ``geometry``
        call at that point raises what it would have raised without the
        prefetch."""
        todo: dict = {}
        for row in np.asarray(points, dtype=float):
            key = tuple(row.tolist())
            if key not in self._memo:
                todo.setdefault(key, row)
        if todo:
            points = np.array(list(todo.values()))
            self._store(points, _geometry_rows(self.chart, points))

    def _store(self, points: np.ndarray, rows, start: int = 0) -> None:
        """Memo entries for ``points``, rows start, start + 1, ... of the
        batch ``rows``; nothing for a failed row or a failed batch (None)."""
        if rows is None:
            return
        for i, point in enumerate(points, start):
            ed = rows[i]
            if ed is not None:
                self._memo[tuple(point.tolist())] = (ed.pg, ed)

    # -- gauge-invariant fields -------------------------------------------

    def H_field(self, v) -> np.ndarray:
        return self.geometry(v)[1].H

    def eta_field(self, v) -> np.ndarray:
        return self.geometry(v)[0].eta

    def T_chart_field(self, v) -> np.ndarray:
        return self.geometry(v)[0].T_coeffs

    def projector_field(self, v) -> np.ndarray:
        return self.geometry(v)[0].normal_projector().ravel()

    def christoffel_field(self, v) -> np.ndarray:
        return christoffels(self.geometry(v)[0]).ravel()


def _geometry_rows(chart: Chart, points: np.ndarray) -> ExtrinsicRows | None:
    """The geometry of points (P, m) from one batched ``analyze_point`` and
    ``second_fundamental`` call, or None when the whole batch raised."""
    try:
        batch = analyze_point(chart, points)
    except (ChartError, ArithmeticError, ValueError):
        return None
    return second_fundamental(batch)


def normal_derivative_H(
    chart: Chart, u, cache: FieldCache | None = None
) -> list[np.ndarray]:
    """nabla^perp_{d_i} H per chart direction: normal projection of the
    finite-difference ambient derivative of the H field (gauge-free)."""
    cache = cache or FieldCache(chart)
    cache.prefetch(first_layer(u))
    pg, _ = cache.geometry(u)
    out = []
    for i in range(chart.m):
        d = fd_gradient(cache.H_field, pg.u, i)
        out.append(pg.proj_normal(d))
    return out


def normal_laplacian_H(chart: Chart, u, cache: FieldCache | None = None) -> np.ndarray:
    """Trace Laplacian of H in the normal bundle by nested finite differences
    (tol_fd2 accuracy): sum g^{pq} (nabla^perp_p nabla^perp_q H
    - Gamma^k_{pq} nabla^perp_k H)."""
    cache = cache or FieldCache(chart)
    cache.prefetch(nested_layer(u))
    pg, _ = cache.geometry(u)
    m = chart.m
    G = christoffels(pg)

    def w_field(q):
        def field(v):
            pgv, _ = cache.geometry(v)
            d = fd_gradient(cache.H_field, pgv.u, q)
            return pgv.proj_normal(d)

        return field

    W0 = [w_field(q)(pg.u) for q in range(m)]
    out = np.zeros(pg.space.ambient_dim)
    for p in range(m):
        for q in range(m):
            dW = fd_gradient(w_field(q), pg.u, p, step=FD_NESTED_STEP)
            corr = np.einsum("k,kc->c", G[:, p, q], np.array(W0))
            out += pg.g_inv[p, q] * (dW - corr)
    return pg.proj_normal(out)


def _wedge(sp: ProductSpace, a, b, c) -> np.ndarray:
    """(a ^ b) c = <b, c> a - <a, c> b with the signature inner product."""
    return inner(sp, b, c) * a - inner(sp, a, c) * b


def structure_residuals(
    chart: Chart,
    u,
    X,
    Y,
    Z,
    a: int = 0,
    cache: FieldCache | None = None,
) -> dict:
    """Gauss, Codazzi and Ricci residuals (LHS - RHS as ambient vectors) for
    constant-coefficient coordinate fields X, Y, Z and normal index ``a``."""
    cache = cache or FieldCache(chart)
    return {
        name: residual(chart, u, X, Y, Z, a, cache)
        for name, residual in (
            ("gauss", gauss_residual),
            ("codazzi", codazzi_residual),
            ("ricci", ricci_residual),
        )
    }


def _structure_point(chart: Chart, u, cache: FieldCache | None):
    """The cache, with u's first layer prefetched, and the geometry at u."""
    cache = cache or FieldCache(chart)
    cache.prefetch(first_layer(u))
    return (cache,) + cache.geometry(u)


def gauss_residual(chart: Chart, u, X, Y, Z, a: int = 0, cache: FieldCache | None = None) -> np.ndarray:
    """R(X,Y)Z - (A_{alpha(Y,Z)}X - A_{alpha(X,Z)}Y + eps-terms) as an
    ambient vector.  The three residual functions take the arguments of
    ``structure_residuals``; Gauss and Codazzi do not use ``a``."""
    cache, pg, ed = _structure_point(chart, u, cache)
    X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
    sp = chart.space
    m = chart.m
    d2 = pg.jet.d2
    G = christoffels(pg)
    Xa, Ya, Za = pg.push(X), pg.push(Y), pg.push(Z)
    X_onb, Y_onb = pg.onb_coords(Xa), pg.onb_coords(Ya)
    T = pg.T_ambient

    DG = np.array(
        [
            fd_gradient(cache.christoffel_field, pg.u, i).reshape(m, m, m)
            for i in range(m)
        ]
    )  # DG[i, l, j, k] = d_i Gamma^l_{jk}
    t1 = np.einsum("i,iljk,j,k->l", X, DG, Y, Z)
    t2 = np.einsum("j,jlik,i,k->l", Y, DG, X, Z)
    t3 = np.einsum("lim,mjk,i,j,k->l", G, G, X, Y, Z)
    t4 = np.einsum("ljm,mik,i,j,k->l", G, G, X, Y, Z)
    lhs_gauss = pg.push(t1 - t2 + t3 - t4)

    aYZ = pg.proj_normal(np.einsum("cjk,j,k->c", d2, Y, Z))
    aXZ = pg.proj_normal(np.einsum("cjk,j,k->c", d2, X, Z))
    rhs_gauss = pg.from_onb(ed.shape_in_direction(aYZ) @ X_onb) - pg.from_onb(
        ed.shape_in_direction(aXZ) @ Y_onb
    )
    rhs_gauss += sp.epsilon * (
        _wedge(sp, Xa, Ya, Za)
        + inner(sp, Xa, T) * _wedge(sp, Ya, T, Za)
        - inner(sp, Ya, T) * _wedge(sp, Xa, T, Za)
    )
    return lhs_gauss - rhs_gauss


def codazzi_residual(chart: Chart, u, X, Y, Z, a: int = 0, cache: FieldCache | None = None) -> np.ndarray:
    """Codazzi equation LHS - RHS as an ambient vector.  The nabla_X Y terms
    cancel between the two sides because coordinate fields commute, leaving
    P d_X alpha(Y,Z) - P d_Y alpha(X,Z) - alpha(Y, nab_X Z) + alpha(X, nab_Y Z)
    against eps <(X ^ Y) T, Z> eta."""
    cache, pg, _ = _structure_point(chart, u, cache)
    X, Y, Z = (np.asarray(v, dtype=float) for v in (X, Y, Z))
    sp = chart.space
    m = chart.m
    d2 = pg.jet.d2
    G = christoffels(pg)
    P0 = pg.normal_projector()
    Xa, Ya, Za = pg.push(X), pg.push(Y), pg.push(Z)

    def alpha_field(A, B):
        def field(v):
            pgv, _ = cache.geometry(v)
            return pgv.proj_normal(np.einsum("cjk,j,k->c", pgv.jet.d2, A, B))

        return field

    dYZ = sum(X[i] * fd_gradient(alpha_field(Y, Z), pg.u, i) for i in range(m))
    dXZ = sum(Y[j] * fd_gradient(alpha_field(X, Z), pg.u, j) for j in range(m))
    nabXZ = np.einsum("kij,i,j->k", G, X, Z)
    nabYZ = np.einsum("kij,i,j->k", G, Y, Z)
    lhs_cod = (
        P0 @ dYZ
        - P0 @ dXZ
        - pg.proj_normal(np.einsum("cjk,j,k->c", d2, Y, nabXZ))
        + pg.proj_normal(np.einsum("cjk,j,k->c", d2, X, nabYZ))
    )
    rhs_cod = sp.epsilon * inner(sp, _wedge(sp, Xa, Ya, pg.T_ambient), Za) * pg.eta
    return lhs_cod - rhs_cod


def ricci_residual(chart: Chart, u, X, Y, Z, a: int = 0, cache: FieldCache | None = None) -> np.ndarray:
    """Ricci equation LHS - RHS against normal ``a`` as an ambient vector (Z
    is not used).  With the projector field P(u) and the extension
    xi = P xi0, R^perp(X,Y)xi = P [D_X P, D_Y P] xi0 (coordinate fields
    commute)."""
    cache, pg, ed = _structure_point(chart, u, cache)
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    m = chart.m
    d2 = pg.jet.d2
    P0 = pg.normal_projector()
    X_onb, Y_onb = pg.onb_coords(pg.push(X)), pg.onb_coords(pg.push(Y))

    xi = pg.normal_onb[a]
    k = chart.space.ambient_dim
    DP = [fd_gradient(cache.projector_field, pg.u, i).reshape(k, k) for i in range(m)]
    DPX = sum(X[i] * DP[i] for i in range(m))
    DPY = sum(Y[j] * DP[j] for j in range(m))
    lhs_ricci = P0 @ (DPX @ DPY - DPY @ DPX) @ xi

    A_a = ed.shape_ops[a]
    w1 = (A_a @ Y_onb) @ pg.tangent_coeffs  # chart coords of A_xi Y
    w2 = (A_a @ X_onb) @ pg.tangent_coeffs
    rhs_ricci = pg.proj_normal(
        np.einsum("cjk,j,k->c", d2, X, w1)
    ) - pg.proj_normal(np.einsum("cjk,j,k->c", d2, w2, Y))
    return lhs_ricci - rhs_ricci


def T_eta_residuals(chart: Chart, u, cache: FieldCache | None = None) -> dict:
    """Residuals of nabla_X T = A_eta X and alpha(X, T) = -nabla^perp_X eta,
    maximized over the tangent ONB directions."""
    cache = cache or FieldCache(chart)
    cache.prefetch(first_layer(u))
    pg, ed = cache.geometry(u)
    sp = chart.space
    m = chart.m
    G = christoffels(pg)
    C = pg.tangent_coeffs
    P0 = pg.normal_projector()

    dT = np.array(
        [fd_gradient(cache.T_chart_field, pg.u, p) for p in range(m)]
    )  # dT[p, k] = d_p T^k
    d_eta = np.array([fd_gradient(cache.eta_field, pg.u, p) for p in range(m)])

    A_eta = ed.shape_in_direction(pg.eta)
    T_onb = pg.onb_coords(pg.T_ambient)

    vt = 0.0
    veta = 0.0
    for i in range(m):
        nab_chart = np.einsum(
            "p,pk->k", C[i], dT + np.einsum("kpq,q->pk", G, pg.T_coeffs)
        )
        nab_T = pg.push(nab_chart)
        vt = max(vt, float(np.linalg.norm(nab_T - pg.from_onb(A_eta[:, i]))))

        alpha_iT = np.zeros(sp.ambient_dim)
        for aa, xi in enumerate(pg.normal_onb):
            alpha_iT += float(ed.alpha[aa][i] @ T_onb) * xi
        nab_eta = P0 @ np.einsum("p,pc->c", C[i], d_eta)
        veta = max(veta, float(np.linalg.norm(alpha_iT + nab_eta)))
    return {"vt": vt, "veta": veta}
