"""Second fundamental form, mean curvature, normal connection, the
codimension-2 frame and the Gauss, Codazzi and Ricci equations, as array
kernels over an ``ExtrinsicRows``: a PointBatch with its alpha, H and |H|,
whose fields every kernel reads directly.

Derivative depth discipline: every quantity is exact ("jet level") and
taken in closed form from the position jet of a batch (``JetDerivatives``).
The metric, Christoffels, normal projector, T and eta come from the 2-jet,
and so do their first chart derivatives; H and the Christoffels take their
first derivatives from the 3-jet of a batch evaluated at order 3.  So the
structure equations, the T/eta rules and nabla^perp H are jet-exact at the
sample itself.  The Gauss, Codazzi and Ricci residuals are full tensors in
the tangent and normal ONBs, one component per frame index, so no residual
depends on a chosen direction, and every residual vector is taken by its
ONB components, <v, xi_s> for a normal vector v, so that its norm is the
metric's for either sign of eps.  The normal Laplacian of H reads the second
derivatives of g, g^-1, P and H from the 4-jet of a batch evaluated at
order 4.  No kernel differences.  The normal projector P is the batch's,
formed once; its chart derivatives are applied to the vectors they act on
and never formed as matrices, and every contraction is a matmul stacked per
row, so that a row's value does not depend on its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .ambient import ProductSpace, curvature, inner
from .immersion import Chart, PointBatch, analyze_point, project

__all__ = [
    "CodimTwoFrame",
    "DEGENERATE",
    "ExtrinsicRows",
    "FieldCache",
    "JetDerivatives",
    "geometry",
    "second_fundamental",
    "shape_operator",
    "codim_two_frame",
    "codim_two_mismatch",
    "christoffels",
    "normal_derivative_H",
    "normal_laplacian_H",
    "pmc_residual",
    "structure_residuals",
    "gauss_residuals",
    "codazzi_residuals",
    "ricci_residuals",
    "T_eta_residuals",
]


def shape_operator(sp: ProductSpace, xi: np.ndarray, alpha: np.ndarray, w) -> np.ndarray:
    """A_w = sum_a <w, xi_a> alpha^a in the tangent ONB, for normal frames xi
    (..., r, n+2), alpha (..., r, m, m) and normal vectors w (..., n+2)."""
    c = inner(sp, xi, np.asarray(w)[..., None, :])
    return (c[..., None, None] * alpha).sum(axis=-3)


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


@dataclass
class CodimTwoFrame:
    """The distinguished normal frame xi_1 = H/|H|, xi_2 = eta/|eta| of the
    codimension-2 analysis; when eta = 0 (vertical-cylinder degeneracy) xi_2
    is gauge-fixed as the unit normal orthogonal to xi_1.  Every field is
    stacked over the rows of a batch.  ``vanish`` marks the rows where H
    vanishes (|H| at or below DEGENERATE["H_frame"]) and ``failed`` the rows
    whose frame is undefined: those and the rows where no normal is left to
    complete it.  The other fields of a failed row mean nothing."""

    xi1: np.ndarray
    xi2: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    eta_gauge_fixed: np.ndarray
    vanish: np.ndarray
    failed: np.ndarray


def codim_two_mismatch(rows: ExtrinsicRows) -> str | None:
    """Why the rows have no codim-2 frame, or None when their codimension is 2."""
    codim = rows.normal_onb.shape[1]
    return None if codim == 2 else f"codimension is {codim}, need exactly 2"


def codim_two_frame(rows: ExtrinsicRows) -> CodimTwoFrame | None:
    """The codim-2 frame of every row of a batch, stacked, or None when the
    codimension is not 2."""
    if codim_two_mismatch(rows):
        return None
    sp, xi, all_rows = rows.chart.space, rows.normal_onb, np.arange(len(rows.normal_onb))
    tol_eta = DEGENERATE["eta_frame"]
    with np.errstate(divide="ignore", invalid="ignore"):
        xi1 = rows.H / rows.H_norm[:, None]
        eta_perp = rows.eta - inner(sp, rows.eta, xi1)[:, None] * xi1
        perp_norm = np.sqrt(np.maximum(inner(sp, eta_perp, eta_perp), 0.0))
        fixed = ~((rows.eta_norm > tol_eta) & (perp_norm > tol_eta))
        # eta = 0 (or eta parallel to H): complete the frame orthogonally
        w = xi - inner(sp, xi, xi1[:, None])[..., None] * xi1[:, None]
        w_norm = np.sqrt(np.maximum(inner(sp, w, w), 0.0))
        best = np.argmax(w_norm, axis=1)
        w_best = w_norm[all_rows, best]
        fill = _sign_fix(w[all_rows, best] / w_best[:, None])
        xi2 = np.where(fixed[:, None], fill, eta_perp / perp_norm[:, None])
        A1, A2 = (shape_operator(sp, xi, rows.alpha, v) for v in (xi1, xi2))
    vanish = rows.H_norm <= DEGENERATE["H_frame"]
    failed = vanish | (fixed & ~(w_best >= DEGENERATE["frame_completion"]))
    return CodimTwoFrame(xi1, xi2, A1, A2, fixed, vanish, failed)


def second_fundamental(batch: PointBatch) -> "ExtrinsicRows":
    """alpha, shape operators and the mean curvature vector at every row
    of a PointBatch (rows that failed hold garbage), computed from the
    batch's fields, also where ``batch`` is an ExtrinsicRows already.

    alpha^a_{ij} = <d2f/du_i du_j, xi_a>: the normal frame is orthogonal to
    both the tangent space and the quadric position, which removes the
    Christoffel and inclusion-umbilic parts of the flat second derivative.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # failed rows hold garbage
        alpha, H, H_norm = _sff(batch.chart.space, batch.normal_onb, batch.jet.d2, batch.tangent_coeffs)
    return ExtrinsicRows(**{f.name: getattr(batch, f.name) for f in fields(PointBatch)}, alpha=alpha, H=H, H_norm=H_norm)


@dataclass
class ExtrinsicRows(PointBatch):
    """A PointBatch with its ``second_fundamental``: alpha (N, r, m, m),
    H (N, n+2) and |H| (N,) stacked.  In an orthonormal frame alpha[:, a] is
    the shape operator A_{xi_a} in the tangent ONB.  A run's chunk is one
    ExtrinsicRows, the one argument of every check kernel, and the
    intermediates that several kernels read are cached properties of it,
    each computed on first use; the copies ``take`` and ``replace`` make
    compute their own, and a test may assign one to inject its value."""

    alpha: np.ndarray
    H: np.ndarray
    H_norm: np.ndarray

    @cached_property
    def derivatives(self) -> "JetDerivatives":
        """The rows' ``JetDerivatives``, shared by the kernels that read them."""
        return JetDerivatives(self)

    @cached_property
    def d_normals(self) -> np.ndarray:
        """(d_i P) xi_s (N, m, r, n+2), which Codazzi and Ricci share."""
        return self.derivatives.dP_apply(self.normal_onb)

    @cached_property
    def nabla_H(self) -> np.ndarray:
        """``normal_derivative_H`` (N, m, n+2), which pmc, the full
        biconservative check and the biharmonic normal part share."""
        return normal_derivative_H(self)

    @cached_property
    def pmc(self) -> np.ndarray:
        """``pmc_residual`` (N,), which the pmc check and the nesting rule
        of the biharmonic normal part share."""
        return pmc_residual(self)

    @cached_property
    def curvature_trace(self) -> np.ndarray:
        """trace R(., H) . = sum_i R(E_i, H) E_i (N, n+2), which the full
        biconservative check and the biharmonic normal part share."""
        E = self.tangent_onb
        return curvature(self.chart.space, E, self.H[:, None], E).sum(axis=1)

    @cached_property
    def t_eta(self) -> tuple[np.ndarray, np.ndarray]:
        """``T_eta_residuals``, which vector_t and vector_eta share."""
        return T_eta_residuals(self)

    @cached_property
    def frame(self) -> CodimTwoFrame | None:
        """``codim_two_frame``, which e0 and biharmonic_predicate share."""
        return codim_two_frame(self)

    @cached_property
    def frame_undefined(self) -> np.ndarray:
        """The rows with no codim-2 frame (N,): ``frame.failed``, or every row without a frame."""
        return np.ones(len(self), dtype=bool) if self.frame is None else self.frame.failed


def _sff(sp: ProductSpace, xi: np.ndarray, d2: np.ndarray, C: np.ndarray):
    """alpha (N, r, m, m) in the tangent ONB, H (N, n+2) and |H| (N,) from
    the stacked normal frames xi (N, r, n+2), position Hessians d2
    (N, n+2, m, m) and frame coefficients C (N, m, m)."""
    n_rows, k, m, _ = d2.shape
    a_chart = ((sp.signature * xi) @ d2.reshape(n_rows, k, m * m)).reshape(n_rows, -1, m, m)
    a_onb = C[:, None] @ a_chart @ C.swapaxes(-1, -2)[:, None]
    alpha = 0.5 * (a_onb + a_onb.swapaxes(-1, -2))
    traces = np.diagonal(alpha, axis1=-2, axis2=-1).sum(axis=-1)
    H = (traces[:, None, :] @ xi)[:, 0] / m
    H_norm = np.sqrt(np.maximum(inner(sp, H, H), 0.0))
    return alpha, H, H_norm


class JetDerivatives:
    """Chart derivatives of the jet-level fields at every row of a
    PointBatch, in closed form from its jet (J = df (N, k, m), d2
    (N, k, m, m) and, at order 3 and 4, d3 and d4) and g^-1.  Each array is
    computed on first use and carries the directions of differentiation
    (i, or p and q) on the axes after the batch axis:

    - dg[:, i, j, l] = d_i g_jl = <d2_ji, J_l> + <J_j, d2_li>
    - gamma[:, l, i, j] = Gamma^l_ij
    - dg_inv[:, i] = d_i g^-1 = -g^-1 (d_i g) g^-1
    - ``dP_apply(v)``[:, i] = (d_i P) v for the normal projector
      P = I - (eps p^ p^T + J g^-1 J^T) S, where d_i p^ = q_padded(J_i)
    - dT[:, i] = d_i T_coeffs = (d_i g^-1) J_t + g^-1 d_i J_t
    - deta[:, i] = d_i eta = (d_i P) e_t, as eta = P e_t

    from the 3-jet:

    - dH[:, i] = d_i H for H = P tr / m, with tr = g^jl d2_jl
    - dgamma[:, i, l, j, k] = d_i Gamma^l_jk, with
      Gamma^l_jk = g^lq <d2_jk, J_q>
    - d2g[:, p, q] = d_p d_q g, d2g_inv[:, p, q] = d_p d_q g^-1 and
      ``d2P_apply(v)``[:, p, q] = (d_p d_q P) v

    and from the 4-jet d2H[:, p, q] = d_p d_q H.  ``dP_apply`` and
    ``d2P_apply`` take P's derivatives in closed form applied to the vectors
    v, from J^T S v, d_i J^T S v, <p^, S v> and <d_i p^, S v>, so that no
    (N, m, n+2, n+2) array is formed; P itself is the rows' ``P``.  It holds
    no reference to the rows, which cache it: a cycle would keep both alive
    until the garbage collector found it.
    """

    def __init__(self, rows: PointBatch):
        self.space, self.jet, self.g_inv, self._P = rows.chart.space, rows.jet, rows.g_inv, rows.P
        self.n, self.k, self.m = rows.jet.jac.shape

    def _flat(self, a: np.ndarray) -> np.ndarray:
        """A jet slot (N, k, m, ..., m) with its chart axes flattened into one."""
        return a.reshape(self.n, self.k, -1)

    def _inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """<a_I, b_K> (N, I, K) of two jet slots, each with its chart axes flattened."""
        return self._flat(a).swapaxes(-1, -2) @ (self.space.signature[:, None] * self._flat(b))

    @cached_property
    def dg(self) -> np.ndarray:
        A = self._inner(self.jet.d2, self.jet.jac).reshape(self.n, self.m, self.m, -1).swapaxes(1, 2)  # [:, k, i, j] = <d2_ik, J_j>
        return A + A.swapaxes(-1, -2)

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffels(self.dg, self.g_inv)

    @cached_property
    def dg_inv(self) -> np.ndarray:
        return -(self.g_inv[:, None] @ self.dg @ self.g_inv[:, None])

    @cached_property
    def _cols(self) -> np.ndarray:
        """[J, d_i J, d_i p^, p^] (N, k, 2m + m*m + 1), (i, j) flattened in
        d_i J: row vectors w times it give J^T w, d_i J^T w, <d_i p^, w> and <p^, w>."""
        C = np.concatenate([self.jet.jac, self._flat(self.jet.d2.swapaxes(-1, -2)), self.jet.jac, self.jet.values[..., None]], -1)
        C[:, self.space.t_index, -self.m - 1 :] = 0.0  # d_i p^ = q_padded(J_i) and p^ = q_padded(p)
        return C

    def _parts(self, v: np.ndarray) -> tuple:
        """w = S v (N, L, k), R = w ``_cols``, x = g^-1 J^T w (N, L, m) and
        u[:, :, i] = (g^-1 d_i J^T + (d_i g^-1) J^T) w (N, L, m, m)."""
        n, m = self.n, self.m
        w = (v * self.space.signature).reshape(n, -1, self.k)
        R = w @ self._cols
        G = _rmul(R[..., : m + m * m].reshape(n, -1, m), self.g_inv).reshape(n, -1, m + 1, m)
        return w, R, G[:, :, 0], G[:, :, 1:] + _rmul(R[..., :m], self.dg_inv)

    def dP_apply(self, v: np.ndarray) -> np.ndarray:
        """(d_i P) v (N, m, ..., n+2) for vectors v (N, ..., n+2), with the w, x
        and u of ``_parts``: -[eps (<p^, w> d_i p^ + <d_i p^, w> p^) + (d_i J) x + J u_i]."""
        n, m, C = self.n, self.m, self._cols
        _, R, x, u = self._parts(v)
        dphat, phat = C[:, None, :, -m - 1 : -1].swapaxes(-1, -2), C[:, None, None, :, -1]
        eps = R[..., -1:, None] * dphat + R[..., -m - 1 : -1, None] * phat
        out = _rmul(x, self.jet.d2.transpose(0, 3, 1, 2)) + _rmul(u.reshape(n, -1, m), self.jet.jac).reshape(eps.shape)
        return -np.moveaxis(out + self.space.epsilon * eps, 2, 1).reshape(n, m, *np.shape(v)[1:])

    def d2P_apply(self, v: np.ndarray) -> np.ndarray:
        """(d_p d_q P) v (N, m, m, ..., n+2) for vectors v (N, ..., n+2), from
        the 3-jet, with the w, x and u of ``_parts``: -[eps (<p^, w> d_pq p^
        + <d_pq p^, w> p^ + <d_q p^, w> d_p p^ + <d_p p^, w> d_q p^) + (d_pq J) x
        + (d_p J) u_q + (d_q J) u_p + J (g^-1 d_pq J^T + (d_q g^-1) d_p J^T
        + (d_p g^-1) d_q J^T + (d_pq g^-1) J^T) w]."""
        n, m, k, J, C = self.n, self.m, self.k, self.jet.jac, self._cols
        w, R, x, u = self._parts(v)
        D = np.concatenate([self._flat(np.moveaxis(self.jet.d3, 2, -1)), self._flat(self.jet.d2)], -1)  # d_pq J, d_pq p^
        D[:, self.space.t_index, m**3 :] = 0.0  # d_pq p^ = q_padded(d2_pq)
        R2, shape = w @ D, (n, w.shape[1], m, m)
        Z = _rmul(R[..., m : m + m * m].reshape(n, -1, m), self.dg_inv).reshape(shape + (m,))  # [:, :, p, q] = (d_q g^-1) d_p J^T w
        y = _rmul(R2[..., : m**3].reshape(n, -1, m), self.g_inv).reshape(Z.shape) + _rmul(R[..., :m], self.d2g_inv)
        y += Z + Z.swapaxes(2, 3)
        # [:, :, q, p] = (d_p J) u_q, which enters with its (p, q) transpose
        half = _rmul(u.reshape(n, -1, m), self.jet.d2.transpose(0, 3, 1, 2)).reshape(shape + (k,))
        r, dphat = R[..., -m - 1 : -1], C[..., -m - 1 : -1].swapaxes(-1, -2)
        half += self.space.epsilon * r[:, :, None, :, None] * dphat[:, None, :, None]  # eps <d_q p^, w> d_p p^
        ddphat = D[..., m**3 :].swapaxes(-1, -2).reshape(n, 1, m, m, k)
        eps = R[..., -1, None, None, None] * ddphat + R2[..., m**3 :].reshape(shape + (1,)) * C[:, None, None, None, :, -1]
        out = _rmul(x, self.jet.d3.transpose(0, 3, 4, 1, 2)) + _rmul(y.reshape(n, -1, m), J).reshape(half.shape)
        out += self.space.epsilon * eps + half + half.swapaxes(2, 3)
        return -np.moveaxis(out, 1, 3).reshape(n, m, m, *np.shape(v)[1:])

    @cached_property
    def dT(self) -> np.ndarray:
        t = self.space.t_index
        J_t, d2_t = self.jet.jac[:, t], self.jet.d2[:, t]
        return (self.dg_inv @ J_t[:, None, :, None])[..., 0] + (self.g_inv[:, None] @ d2_t[..., None])[..., 0]

    @cached_property
    def deta(self) -> np.ndarray:
        return self.dP_apply(np.broadcast_to(self.space.t_axis(), (self.n, self.k)))

    @cached_property
    def trace(self) -> np.ndarray:
        """tr = g^jl d2_jl (N, k) and its chart derivatives d_i tr (N, m, k)."""
        n, m, d2 = self.n, self.m, self._flat(self.jet.d2)
        G = self.g_inv.reshape(n, 1, m * m)
        return _rmul(G, d2)[:, 0], _rmul(self.dg_inv.reshape(n, m, m * m), d2) + _rmul(G, self._dd2)[:, 0]

    @cached_property
    def _dd2(self) -> np.ndarray:
        """d_i d2 (N, m, k, m*m), [:, i, c, (j, l)] = d3[:, c, j, l, i]."""
        return np.ascontiguousarray(np.moveaxis(self.jet.d3, -1, 1)).reshape(self.n, self.m, self.k, -1)

    @cached_property
    def dH(self) -> np.ndarray:
        tr, d_tr = self.trace
        return (self.dP_apply(tr) + project(self._P, d_tr)) / self.m

    @cached_property
    def dgamma(self) -> np.ndarray:
        shape, J, d2 = (self.n,) + (self.m,) * 4, self.jet.jac, self.jet.d2
        dlow = self._inner(self.jet.d3, J).reshape(shape) + self._inner(d2, d2).reshape(shape).swapaxes(-1, -2)  # d_i Gamma_{jk,q}
        out = _rmul(self._inner(d2, J), self.dg_inv).reshape(shape) + _rmul(dlow.reshape(self.n, -1, self.m), self.g_inv).reshape(shape)
        return out.transpose(0, 3, 4, 1, 2)  # [:, j, k, i, l] -> [:, i, l, j, k]

    @cached_property
    def d2g(self) -> np.ndarray:
        # <d_pq J_j, J_l> + <d_p J_j, d_q J_l>, and the same with j, l (and then p, q) swapped
        shape, d2 = (self.n,) + (self.m,) * 4, self.jet.d2
        A = self._inner(self.jet.d3, self.jet.jac).reshape(shape).transpose(0, 2, 3, 1, 4)  # [:, p, q, j, l]
        B = self._inner(d2, d2).reshape(shape).transpose(0, 2, 4, 1, 3)
        return A + A.swapaxes(-1, -2) + B + B.swapaxes(1, 2)

    @cached_property
    def d2g_inv(self) -> np.ndarray:
        G, dG, dg = self.g_inv[:, None, None], self.dg_inv[:, :, None], self.dg[:, None]
        return -(dG @ dg @ G + G @ self.d2g @ G + G @ dg @ dG)

    @cached_property
    def d2H(self) -> np.ndarray:
        (tr, d_tr), n, m, k = self.trace, self.n, self.m, self.k
        X = _rmul(self.dg_inv.reshape(n, m, m * m), self._dd2)  # [:, p, q] = d_p g^-1 : d_q d2
        d2_tr = _rmul(self.d2g_inv.reshape(n, m * m, m * m), self._flat(self.jet.d2)).reshape(X.shape) + X + X.swapaxes(1, 2)
        d2_tr += _rmul(self.g_inv.reshape(n, 1, m * m), np.moveaxis(self.jet.d4, (-2, -1), (1, 2)).reshape(n, m, m, k, -1))[:, 0]
        Y = self.dP_apply(d_tr)  # [:, q, p] = d_q P d_p tr
        PX = self.d2P_apply(tr) + project(self._P, d2_tr)
        return (PX + Y + Y.swapaxes(1, 2)) / m


def christoffels(dg: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Chart-coordinate Christoffel symbols G[:, l, i, j] = Gamma^l_{ij} of
    every row from the metric derivatives dg[:, i, j, l] = d_i g_jl and
    g^-1 (N, m, m)."""
    low = 0.5 * (dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1))  # Gamma_{ij,k}
    return np.einsum("nlk,nijk->nlij", g_inv, low)


def geometry(chart: Chart, U, steps=0, order: int = 2) -> ExtrinsicRows:
    """The ExtrinsicRows of the points U (N, m), at the scan steps ``steps``
    (N,) or one step for all, from one batched ``analyze_point`` and
    ``second_fundamental`` call, with jets of ``order`` 2, 3 or 4.  It does
    not raise for a point that fails: ``errors`` holds the error of
    each row."""
    return second_fundamental(analyze_point(chart, U, steps, order))


class FieldCache:
    """Memo of the geometry of point batches, keyed by the exact floats of
    the points U (N, m): ``geometry(U)`` gives their ExtrinsicRows at order
    3, so that every kernel can read them, computed on first use."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self._memo: dict = {}

    def geometry(self, U) -> ExtrinsicRows:
        U = np.asarray(U, dtype=float).reshape(-1, self.chart.m)
        key = U.tobytes()
        if key not in self._memo:
            self._memo[key] = geometry(self.chart, U, order=3)
        return self._memo[key]


def normal_derivative_H(rows: ExtrinsicRows) -> np.ndarray:
    """nabla^perp_{d_i} H (N, m, n+2) at every row of a batch evaluated at
    order 3: the normal projection of the exact chart derivatives of H
    (gauge-free)."""
    return rows.proj_normal(rows.derivatives.dH)


def pmc_residual(rows: ExtrinsicRows) -> np.ndarray:
    """|nabla^perp H| of every row, from the rows' nabla^perp H (N, m, n+2)
    in chart directions: the root sum of squares of its components
    <nabla^perp_{E_a} H, xi_s> over the tangent and normal ONBs, which is
    the same in every ONB and so in every chart and under every isometry."""
    comps = inner(rows.chart.space, (rows.tangent_coeffs @ rows.nabla_H)[:, :, None], rows.normal_onb[:, None])
    return np.linalg.norm(comps.reshape(len(rows), -1), axis=-1)


def normal_laplacian_H(rows: ExtrinsicRows, nabla_H: np.ndarray) -> np.ndarray:
    """Trace Laplacian of H in the normal bundle (N, n+2) at every row of a
    batch evaluated at order 4, given nabla^perp H (N, m, n+2) there, in
    closed form: with nabla^perp_q H = P d_q H,
    P sum g^{pq} ((d_p P)(d_q H) + d_p d_q H - Gamma^k_{pq} nabla^perp_k H)."""
    d = rows.derivatives
    n, m, k = d.n, d.m, d.k
    dW = d.dP_apply(d.dH) + d.d2H  # [:, p, q], less the outer P
    corr = d.gamma.reshape(n, m, m * m).swapaxes(-1, -2) @ nabla_H  # [:, (p, q)] = Gamma^k_pq nabla^perp_k H
    return rows.proj_normal((rows.g_inv.reshape(n, 1, m * m) @ (dW.reshape(n, m * m, k) - corr))[:, 0])


def structure_residuals(rows: ExtrinsicRows) -> dict:
    """The Gauss, Codazzi and Ricci tensors of every row of a batch
    evaluated at order 3, by name."""
    return {"gauss": gauss_residuals(rows), "codazzi": codazzi_residuals(rows), "ricci": ricci_residuals(rows)}


def _frame(t: np.ndarray, *mats: np.ndarray) -> np.ndarray:
    """t (N, ..., i, j, ...) with its last len(mats) axes taken to a frame by
    one matrix (N, a, i) per axis, out[..., a, b, ...] = sum M0[a, i]
    M1[b, j] ... t[..., i, j, ...]: one matmul per row and axis."""
    n, lead = len(t), t.ndim - len(mats)
    for M in reversed(mats):
        t = np.moveaxis((t.reshape(n, -1, M.shape[-1]) @ M.swapaxes(-1, -2)).reshape(*t.shape[:-1], -1), -1, lead)
    return t


def gauss_residuals(rows: ExtrinsicRows) -> np.ndarray:
    """The Gauss equation in the tangent ONB E, (N, m, m, m, m):
    R_abcd - (<alpha_bc, alpha_ad> - <alpha_ac, alpha_bd>) - Rbar_abcd with
    R_abcd = <R(E_a, E_b)E_c, E_d> from the Christoffels and their exact
    derivatives, and Rbar_abcd = eps (h_bc h_ad - h_ac h_bd) with
    h = I - T T^T, as the t component drops out of the ambient curvature."""
    d, C, T = rows.derivatives, rows.tangent_coeffs, rows.T_onb
    n, m = T.shape
    G = d.gamma
    # K[:, i, l, j, k] = d_i Gamma^l_jk + Gamma^l_ip Gamma^p_jk, so R^l_ijk = K[i, l, j, k] - K[j, l, i, k]
    K = d.dgamma + (G.swapaxes(1, 2).reshape(n, m * m, m) @ G.reshape(n, m, m * m)).reshape(d.dgamma.shape)
    R = _frame(K - K.transpose(0, 3, 2, 1, 4), C, C @ rows.g, C, C)  # [:, a, d, b, c] = R_abcd
    F = rows.alpha.reshape(n, -1, m * m)
    h = (np.eye(m) - T[:, :, None] * T[:, None]).reshape(n, m * m, 1)
    Q = (F.swapaxes(-1, -2) @ F + rows.chart.space.epsilon * h * h.swapaxes(-1, -2)).reshape(R.shape)
    # Q[:, x, y, z, w] = <alpha_xy, alpha_zw> + eps h_xy h_zw, and the right side is Q[b, c, a, d] - Q[a, c, b, d]
    return (R - Q + Q.transpose(0, 1, 4, 3, 2)).transpose(0, 1, 3, 4, 2)


def codazzi_residuals(rows: ExtrinsicRows) -> np.ndarray:
    """The Codazzi equation in the tangent and normal ONBs, (N, m, m, m, r):
    (nabla_a alpha)_bc - (nabla_b alpha)_ac - <Rbar(E_a, E_b)E_c, xi_s>.
    In chart directions <xi_s, d_i (P d2_jk)> = <(d_i P) xi_s, d2_jk>
    + <xi_s, d3_ijk>, as P is self-adjoint and fixes xi_s; the third
    derivatives and the alpha(nabla_i f_j, f_k) terms are symmetric in i, j
    and cancel, leaving D_ijk = <(d_i P) xi_s, d2_jk> - Gamma^l_ik
    <xi_s, d2_jl> to antisymmetrize, so the 2-jet suffices.  The normal
    part of Rbar(E_a, E_b)E_c is eps (delta_ac T_b - delta_bc T_a) eta."""
    C, T, xi = rows.tangent_coeffs, rows.T_onb, rows.normal_onb
    n, m = T.shape
    r, sp, d2 = xi.shape[1], rows.chart.space, rows.jet.d2.reshape(n, -1, m * m)
    a = ((xi * sp.signature) @ d2).reshape(n, r * m, m)  # [:, (s, j), l] = <xi_s, d2_jl>
    dxi = (rows.d_normals * sp.signature).swapaxes(1, 2).reshape(n, r * m, -1)  # [:, (s, i)] = S (d_i P) xi_s
    D = (dxi @ d2).reshape(n, r, m, m, m) - (a @ rows.derivatives.gamma.reshape(n, m, m * m)).reshape(n, r, m, m, m).swapaxes(2, 3)
    eta = inner(sp, xi, rows.eta[:, None])[:, :, None, None, None]
    W = _frame(D, C, C, C) - sp.epsilon * eta * np.eye(m)[:, None] * T[:, None, None, :, None]  # [:, s, a, b, c]
    return np.moveaxis(W - W.swapaxes(2, 3), 1, -1)


def ricci_residuals(rows: ExtrinsicRows) -> np.ndarray:
    """The Ricci equation in the tangent and normal ONBs, (N, m, m, r, r):
    <R^perp(E_a, E_b)xi_s, xi_t> - <[A_s, A_t]E_a, E_b>.  With the
    projector field P, R^perp(X, Y)xi = P [D_X P, D_Y P] xi, so
    <R^perp(E_a, E_b)xi_s, xi_t> = <V_at, V_bs> - <V_bt, V_as> with
    V_as = (d_{E_a} P) xi_s.  The ambient <Rbar(E_a, E_b)xi_s, xi_t> is
    eps T_a T_b (eta_s eta_t - eta_t eta_s) = 0."""
    sp, alpha = rows.chart.space, rows.alpha
    n, r, m, _ = alpha.shape
    V = (rows.tangent_coeffs @ rows.d_normals.reshape(n, m, -1)).reshape(n, m * r, -1)
    M = ((V * sp.signature) @ V.swapaxes(-1, -2)).reshape(n, m, r, m, r).transpose(0, 1, 3, 4, 2)  # [:, a, b, s, t] = <V_at, V_bs>
    AA = alpha[:, :, None] @ alpha[:, None]  # [:, s, t] = A_s A_t, whose (b, a) entry is <A_s A_t E_a, E_b>
    return M - M.swapaxes(1, 2) + (AA - AA.swapaxes(1, 2)).transpose(0, 3, 4, 1, 2)


def _rmul(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """M x over the last axis of M, (N, L) + M.shape[1:-1], for row vectors
    x (N, L, m) and stacked arrays M (N, ..., m): one matmul per row."""
    n, L = x.shape[:2]
    return (x @ M.reshape(n, -1, M.shape[-1]).swapaxes(-1, -2)).reshape(n, L, *M.shape[1:-1])


def T_eta_residuals(rows: ExtrinsicRows) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (vt, veta) of nabla_X T = A_eta X and
    alpha(X, T) = -nabla^perp_X eta for every row, maximized over the
    tangent ONB directions, exact at jet level.  Each residual vector is
    taken by its components in the tangent or normal ONB, so its norm is
    the metric's."""
    d, sp, C = rows.derivatives, rows.chart.space, rows.tangent_coeffs
    # row i: nabla_{E_i} T - A_eta E_i and alpha(E_i, T) + nabla^perp_{E_i} eta
    GT = (d.gamma.transpose(0, 2, 1, 3) @ rows.T_coeffs[:, None, :, None])[..., 0]  # [p, k]: Gamma^k_pq T^q
    # <nabla_{E_i} T, E_a> = C (nabla T) g C^T, as E_a = C[a, l] f_l
    nab_T = C @ (d.dT + GT) @ (C @ rows.g).swapaxes(-1, -2)
    vt = nab_T - shape_operator(sp, rows.normal_onb, rows.alpha, rows.eta).swapaxes(-1, -2)
    alpha_T = (rows.alpha @ rows.T_onb[:, None, :, None])[..., 0].swapaxes(-1, -2)  # [i, s] = <alpha(E_i, T), xi_s>
    veta = alpha_T + inner(sp, (C @ d.deta)[:, :, None], rows.normal_onb[:, None])  # <P v, xi_s> = <v, xi_s>
    return tuple(np.max(np.linalg.norm(v, axis=-1), axis=-1) for v in (vt, veta))
