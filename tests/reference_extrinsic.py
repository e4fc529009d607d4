"""Oracles of the chart derivatives in ``prodsub.extrinsic``.

``DenseJetDerivatives`` forms the derivatives of the normal projector as
dense arrays, ``dP`` (N, m, n+2, n+2) and ``d2P`` (N, m, m, n+2, n+2), and
takes ``dg``, ``trace``, ``dgamma``, ``d2g`` and ``d2H`` by ``np.einsum``:
the forms that ``JetDerivatives`` replaced with products applied to
vectors.  ``deta``, ``dH``, ``d_alpha`` and ``d2H`` multiply the dense
arrays, and ``normal_laplacian_H`` is the kernel of the same name written
against them.  ``gauss_residuals``, ``codazzi_residuals`` and
``ricci_residuals`` are the directional forms of the structure equations
that the ONB tensors of ``prodsub.extrinsic`` replaced: each takes chart
directions X, Y, Z (N, m) (and for Ricci a normal index a (N,)) and gives
the residual as ambient vectors (N, n+2), with the derivatives read from
the dense forms.  ``proj_normal`` is the normal projection by modified
Gram-Schmidt that the matrix P replaced.  ``gauss_curvature_term`` and
``codazzi_curvature_term`` are the ambient curvature terms of the Gauss
and Codazzi equations written through T, the forms that the tangent and
normal parts of ``ambient.curvature`` replaced.
"""

from functools import cached_property

import numpy as np

from prodsub.ambient import curvature, inner
from prodsub.extrinsic import JetDerivatives, shape_operator


def _vec(d2: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d2(v, w) (N, K) for stacked second derivatives d2 (N, K, m, m) and chart vectors v, w (N, m)."""
    return np.einsum("nkij,ni,nj->nk", d2, v, w)


def _wedge(sp, a, b, c) -> np.ndarray:
    """(a ^ b) c = <b, c> a - <a, c> b, signature-weighted, for stacked vectors (N, n+2)."""
    bc, ac = (inner(sp, v, c)[..., None] for v in (b, a))
    return bc * a - ac * b


def gauss_curvature_term(rows, Xa, Ya, Za) -> np.ndarray:
    """eps ((X ^ Y) Z + <X, T> (Y ^ T) Z - <Y, T> (X ^ T) Z) (N, n+2) for
    tangent vectors Xa, Ya, Za (N, n+2): the tangent part of R(X,Y)Z."""
    sp, T = rows.chart.space, rows.T_ambient
    terms = _wedge(sp, Xa, Ya, Za) + inner(sp, Xa, T)[:, None] * _wedge(sp, Ya, T, Za)
    terms -= inner(sp, Ya, T)[:, None] * _wedge(sp, Xa, T, Za)
    return sp.epsilon * terms


def codazzi_curvature_term(rows, Xa, Ya, Za) -> np.ndarray:
    """eps <(X ^ Y) T, Z> eta (N, n+2) for tangent vectors Xa, Ya, Za
    (N, n+2): the normal part of R(X,Y)Z."""
    sp = rows.chart.space
    return sp.epsilon * inner(sp, _wedge(sp, Xa, Ya, rows.T_ambient), Za)[:, None] * rows.eta


def proj_normal(b, v) -> np.ndarray:
    """Vectors v (N, ..., n+2) less their components along p^ and then each
    E_i of the PointBatch ``b``, each read from what the previous step left
    (the modified Gram-Schmidt order)."""
    sp = b.chart.space
    out = np.array(v, dtype=float)
    rows = (slice(None),) + (None,) * (out.ndim - 2)
    phat = sp.q_padded(b.jet.values)[rows]
    out -= sp.epsilon * inner(sp, out, phat)[..., None] * phat
    for e in np.swapaxes(b.tangent_onb, 0, 1):
        e = np.ascontiguousarray(e[rows])
        out -= inner(sp, out, e)[..., None] * e
    return out


class DenseJetDerivatives(JetDerivatives):
    def __init__(self, rows):
        super().__init__(rows)
        self.P = rows.P

    @cached_property
    def dg(self) -> np.ndarray:
        sig, J, d2 = self.space.signature, self.jet.jac, self.jet.d2
        return np.einsum("c,ncik,ncj->nkij", sig, d2, J) + np.einsum("c,nci,ncjk->nkij", sig, J, d2)

    @cached_property
    def dP(self) -> np.ndarray:
        sp, J = self.space, self.jet.jac
        Jt = np.swapaxes(J, -1, -2)
        phat = sp.q_padded(self.jet.values)[:, None, None, :]
        pp = sp.q_padded(Jt)[..., None] * phat  # (d_i p^) p^T
        K = np.moveaxis(self.jet.d2, -1, 1) @ (self.g_inv @ Jt)[:, None]  # (d_i J) g^-1 J^T
        dE = K + np.swapaxes(K, -1, -2) + J[:, None] @ self.dg_inv @ Jt[:, None]
        return -(sp.epsilon * (pp + np.swapaxes(pp, -1, -2)) + dE) * sp.signature

    @cached_property
    def deta(self) -> np.ndarray:
        return self.dP[..., self.space.t_index]

    @cached_property
    def trace(self) -> np.ndarray:
        d2, d3 = self.jet.d2, self.jet.d3
        tr = np.einsum("njl,ncjl->nc", self.g_inv, d2)
        return tr, np.einsum("nijl,ncjl->nic", self.dg_inv, d2) + np.einsum("njl,ncjli->nic", self.g_inv, d3)

    @cached_property
    def dH(self) -> np.ndarray:
        tr, d_tr = self.trace
        return ((self.dP @ tr[:, None, :, None])[..., 0] + (self.P[:, None] @ d_tr[..., None])[..., 0]) / self.jet.m

    @cached_property
    def dgamma(self) -> np.ndarray:
        sig, J, d2, d3 = self.space.signature, self.jet.jac, self.jet.d2, self.jet.d3
        sJ, sd2 = sig[:, None] * J, sig[:, None, None] * d2
        low = np.einsum("ncjk,ncq->njkq", d2, sJ)  # Gamma_{jk,q} = <d2_jk, J_q>
        dlow = np.einsum("ncjki,ncq->nijkq", d3, sJ) + np.einsum("ncjk,ncqi->nijkq", d2, sd2)
        return np.einsum("nilq,njkq->niljk", self.dg_inv, low) + np.einsum("nlq,nijkq->niljk", self.g_inv, dlow)

    def d_alpha(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        d3vw = np.einsum("ncjli,nj,nl->nic", self.jet.d3, v, w)
        return (self.dP @ _vec(self.jet.d2, v, w)[:, None, :, None])[..., 0] + (self.P[:, None] @ d3vw[..., None])[..., 0]

    @cached_property
    def d2g(self) -> np.ndarray:
        sig, J, d2, d3 = self.space.signature, self.jet.jac, self.jet.d2, self.jet.d3
        A = np.einsum("c,ncjpq,ncl->npqjl", sig, d3, J)
        B = np.einsum("c,ncjp,nclq->npqjl", sig, d2, d2)
        return A + np.swapaxes(A, -1, -2) + B + np.swapaxes(B, 1, 2)

    @cached_property
    def d2P(self) -> np.ndarray:
        sp, J, d2 = self.space, self.jet.jac, self.jet.d2
        Jt = np.swapaxes(J, -1, -2)[:, None, None]
        dJ = np.moveaxis(d2, -1, 1)  # dJ[:, p] = d_p J
        ddJ = np.moveaxis(self.jet.d3, (-2, -1), (1, 2))  # ddJ[:, p, q] = d_p d_q J
        dp, dq = dJ[:, :, None], dJ[:, None]
        G, dGp, dGq = self.g_inv[:, None, None], self.dg_inv[:, :, None], self.dg_inv[:, None]
        M = ddJ @ G @ Jt + dp @ dGq @ Jt + dq @ dGp @ Jt + dp @ G @ np.swapaxes(dq, -1, -2)
        d2E = M + np.swapaxes(M, -1, -2) + J[:, None, None] @ self.d2g_inv @ Jt
        phat, dphat = sp.q_padded(self.jet.values)[:, None, None, None, :], sp.q_padded(np.swapaxes(J, -1, -2))
        ddphat = sp.q_padded(np.moveaxis(d2, 1, -1))  # dphat[:, p] = d_p p^, ddphat[:, p, q] = d_p d_q p^
        Q = ddphat[..., None] * phat + dphat[:, :, None, :, None] * dphat[:, None, :, None, :]
        return -(sp.epsilon * (Q + np.swapaxes(Q, -1, -2)) + d2E) * sp.signature

    @cached_property
    def d2H(self) -> np.ndarray:
        (tr, d_tr), jet = self.trace, self.jet
        X = np.einsum("npjl,ncjlq->npqc", self.dg_inv, jet.d3)  # [:, p, q] = d_p g^-1 : d_q d2
        d2_tr = np.einsum("npqjl,ncjl->npqc", self.d2g_inv, jet.d2) + X + np.swapaxes(X, 1, 2)
        d2_tr += np.einsum("njl,ncjlpq->npqc", self.g_inv, jet.d4)
        Y = (self.dP[:, None] @ d_tr[:, :, None, :, None])[..., 0]  # [:, p, q] = d_q P d_p tr
        PX = (self.d2P @ tr[:, None, None, :, None])[..., 0] + (self.P[:, None, None] @ d2_tr[..., None])[..., 0]
        return (PX + Y + np.swapaxes(Y, 1, 2)) / jet.m


def normal_laplacian_H(rows, d: DenseJetDerivatives, nabla_H: np.ndarray) -> np.ndarray:
    """``extrinsic.normal_laplacian_H`` from the dense d_p P, term by term."""
    m = rows.chart.m
    dW = (d.dP[:, :, None] @ d.dH[:, None, :, :, None])[..., 0] + d.d2H  # [:, p, q], less the outer P
    out = np.zeros_like(rows.H)
    for p in range(m):
        for q in range(m):
            corr = np.einsum("nk,nkc->nc", d.gamma[:, :, p, q], nabla_H)
            out += rows.g_inv[:, p, q, None] * (dW[:, p, q] - corr)
    return rows.proj_normal(out)


def gauss_residuals(rows, d: DenseJetDerivatives, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z - (A_{alpha(Y,Z)}X - A_{alpha(X,Z)}Y + the tangent part of the
    ambient curvature) for chart directions X, Y, Z, R from the Christoffels
    and their derivatives d_i Gamma^l_jk = DG[:, i, l, j, k]."""
    sp, DG, G = rows.chart.space, d.dgamma, d.gamma
    curv = np.einsum("ni,nj,nk,niljk->nl", X, Y, Z, DG) - np.einsum("ni,nj,nk,niljk->nl", Y, X, Z, DG)
    curv += np.einsum("nlip,ni,np->nl", G, X, _vec(G, Y, Z)) - np.einsum("nlip,ni,np->nl", G, Y, _vec(G, X, Z))
    E = rows.tangent_onb
    Xa, Ya, Za = (np.einsum("nki,ni->nk", rows.jet.jac, v) for v in (X, Y, Z))
    A_YZ, A_XZ = (shape_operator(sp, rows.normal_onb, rows.alpha, rows.proj_normal(_vec(rows.jet.d2, v, Z))) for v in (Y, X))
    X_onb, Y_onb = (inner(sp, E, v[:, None]) for v in (Xa, Ya))
    rhs = np.einsum("nab,nb,nak->nk", A_YZ, X_onb, E) - np.einsum("nab,nb,nak->nk", A_XZ, Y_onb, E)
    R = curvature(sp, Xa, Ya, Za)
    return np.einsum("nki,ni->nk", rows.jet.jac, curv) - rhs - (R - rows.proj_normal(R))


def codazzi_residuals(rows, d: DenseJetDerivatives, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """P d_X alpha(Y,Z) - P d_Y alpha(X,Z) - alpha(Y, nab_X Z) + alpha(X, nab_Y Z)
    - P R(X,Y)Z for chart directions X, Y, Z held fixed: the nabla_X Y terms
    cancel because coordinate fields commute."""
    dYZ, dXZ = (d.d_alpha(v, Z) for v in (Y, X))
    nab_XZ, nab_YZ = (_vec(d.gamma, v, Z) for v in (X, Y))
    lhs = np.einsum("ni,nik->nk", X, dYZ) - np.einsum("ni,nik->nk", Y, dXZ)
    lhs += _vec(rows.jet.d2, X, nab_YZ) - _vec(rows.jet.d2, Y, nab_XZ)
    Xa, Ya, Za = (np.einsum("nki,ni->nk", rows.jet.jac, v) for v in (X, Y, Z))
    return rows.proj_normal(lhs - curvature(rows.chart.space, Xa, Ya, Za))


def ricci_residuals(rows, d: DenseJetDerivatives, X: np.ndarray, Y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """P [D_X P, D_Y P] xi_a - P d2(X, A_xi Y) + P d2(A_xi X, Y) from the
    dense D_X P and D_Y P, for chart directions X, Y and normal indices a."""
    dP = d.dP
    n_rows, m, k = dP.shape[:3]
    on, C = np.arange(n_rows), rows.tangent_coeffs
    DPX, DPY = ((v[:, None] @ dP.reshape(n_rows, m, k * k)).reshape(n_rows, k, k) for v in (X, Y))
    AX, AY = ((np.swapaxes(C, -1, -2) @ rows.alpha[on, a] @ C @ rows.g @ v[..., None])[..., 0] for v in (X, Y))
    lhs = (DPX @ DPY - DPY @ DPX) @ rows.normal_onb[on, a][..., None]
    vec = lhs[..., 0] - _vec(rows.jet.d2, X, AY) + _vec(rows.jet.d2, AX, Y)
    return rows.proj_normal(vec)
