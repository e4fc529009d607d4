"""Second fundamental form, mean curvature, normal connection and the
residuals of the first-order structure equations, as array kernels over
batches of points.

Derivative depth discipline: quantities built from the position 2-jet are
exact ("jet level"), and so are the first chart derivatives the 2-jet gives
in closed form (``JetDerivatives``: metric, Christoffels, normal projector,
T and eta), so Ricci, the T/eta rules and the ONB connection are jet-exact.
Derivatives of H, alpha and the Christoffels need the 3-jet and take one
finite-difference layer (tol_fd = 1e-6): kernels over a batch's
``FirstLayer`` that difference along its stencil axis.  Only the normal
Laplacian of H nests differences (tol_fd2 = 1e-4): nabla^perp H on the
first layers of the outer stencils, differenced along them.  Every
differenced field is gauge-invariant, never a frame vector.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .ambient import ProductSpace, inner
from .errors import RowFailure
from .immersion import Chart, PointBatch, analyze_point
from .jets import VecJet2, fd_difference, fd_steps, first_layer, nonfinite_error

__all__ = [
    "ExtrinsicRows",
    "FieldCache",
    "FirstLayer",
    "JetDerivatives",
    "geometry",
    "second_fundamental",
    "shape_operator",
    "christoffels",
    "onb_connection",
    "normal_derivative_H",
    "normal_laplacian_H",
    "structure_residuals",
    "gauss_residuals",
    "codazzi_residuals",
    "ricci_residuals",
    "T_eta_residuals",
    "FD_NESTED_STEP",
]

#: outer step for nested finite differences (inner layer carries ~1e-10 noise)
FD_NESTED_STEP = 5e-4

# most points in one call of the nested Laplacian's stencil geometry, in
# whole rows (two at m = 3): larger calls run no faster and raise peak memory
_NESTED_POINTS = 384


def shape_operator(sp: ProductSpace, xi: np.ndarray, alpha: np.ndarray, w) -> np.ndarray:
    """A_w = sum_a <w, xi_a> alpha^a in the tangent ONB, for normal frames xi
    (..., r, n+2), alpha (..., r, m, m) and normal vectors w (..., n+2)."""
    c = inner(sp, xi, np.asarray(w)[..., None, :])
    return (c[..., None, None] * alpha).sum(axis=-3)


def second_fundamental(batch: PointBatch) -> "ExtrinsicRows":
    """alpha, shape operators and the mean curvature vector at every row
    of a PointBatch (rows that failed hold garbage).

    alpha^a_{ij} = <d2f/du_i du_j, xi_a>: the normal frame is orthogonal to
    both the tangent space and the quadric position, which removes the
    Christoffel and inclusion-umbilic parts of the flat second derivative.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # failed rows hold garbage
        return ExtrinsicRows(batch, *_sff(batch.chart.space, batch.normal_onb, batch.jet.d2, batch.tangent_coeffs))


class ExtrinsicRows:
    """``second_fundamental`` of a PointBatch: alpha (N, r, m, m), H (N, n+2)
    and |H| (N,) stacked.  In an orthonormal frame alpha[:, a] is the shape
    operator A_{xi_a} in the tangent ONB.  The batch kernels of the checks
    read the arrays."""

    def __init__(self, batch: PointBatch, alpha, H, H_norm):
        self.batch = batch
        self.alpha, self.H, self.H_norm = alpha, H, H_norm

    def take(self, rows) -> "ExtrinsicRows":
        """The rows given by a slice or an index array."""
        return ExtrinsicRows(self.batch.take(rows), self.alpha[rows], self.H[rows], self.H_norm[rows])

    @cached_property
    def derivatives(self) -> "JetDerivatives":
        """The rows' ``JetDerivatives``, shared by the kernels that read them."""
        return JetDerivatives(self.batch.chart.space, self.batch.jet, self.batch.g_inv)

    def __len__(self) -> int:
        return len(self.batch)


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


class JetDerivatives:
    """First chart derivatives of the jet-level fields at every row of a
    batch, in closed form from its 2-jet (J = df (N, k, m), d2 (N, k, m, m))
    and g^-1.  Each array is computed on first use and carries the direction
    of differentiation i on the axis after the batch axis:

    - dg[:, i, j, l] = d_i g_jl = <d2_ji, J_l> + <J_j, d2_li>
    - gamma[:, l, i, j] = Gamma^l_ij
    - dg_inv[:, i] = d_i g^-1 = -g^-1 (d_i g) g^-1
    - dP[:, i] = d_i P for the normal projector
      P = I - (eps p^ p^T + J g^-1 J^T) S, where d_i p^ = q_padded(J_i)
    - dT[:, i] = d_i T_coeffs = (d_i g^-1) J_t + g^-1 d_i J_t
    - deta[:, i] = d_i eta = (d_i P) e_t, as eta = P e_t
    """

    def __init__(self, space: ProductSpace, jet: VecJet2, g_inv: np.ndarray):
        self.space, self.jet, self.g_inv = space, jet, g_inv

    @cached_property
    def dg(self) -> np.ndarray:
        sig, J, d2 = self.space.signature, self.jet.jac, self.jet.d2
        return np.einsum("c,ncik,ncj->nkij", sig, d2, J) + np.einsum("c,nci,ncjk->nkij", sig, J, d2)

    @cached_property
    def gamma(self) -> np.ndarray:
        return christoffels(self.dg, self.g_inv)

    @cached_property
    def dg_inv(self) -> np.ndarray:
        return -(self.g_inv[:, None] @ self.dg @ self.g_inv[:, None])

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
    def dT(self) -> np.ndarray:
        t = self.space.t_index
        J_t, d2_t = self.jet.jac[:, t], self.jet.d2[:, t]
        return (self.dg_inv @ J_t[:, None, :, None])[..., 0] + (self.g_inv[:, None] @ d2_t[..., None])[..., 0]

    @cached_property
    def deta(self) -> np.ndarray:
        return self.dP[..., self.space.t_index]


def christoffels(dg: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Chart-coordinate Christoffel symbols G[:, l, i, j] = Gamma^l_{ij} of
    every row from the metric derivatives dg[:, i, j, l] = d_i g_jl and
    g^-1 (N, m, m)."""
    low = 0.5 * (dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1))  # Gamma_{ij,k}
    return np.einsum("nlk,nijk->nlij", g_inv, low)


def onb_connection(rows: ExtrinsicRows) -> np.ndarray:
    """Connection coefficients in the tangent ONB of every row,
    conn[:, i, j, k] = <nabla_{E_i} E_j, E_k>, exact at jet level.

    The tangent Gram-Schmidt is unpivoted, so E = C J^T with C = L^-1 for
    g = L L^T, and d_q C = -Phi(C d_q g C^T) C, where Phi keeps the strict
    lower triangle and half the diagonal.  Then
    nabla_{f_q} E_j = sum_p (d_q C + C Gamma_q^T)[j, p] f_p with
    Gamma_q[p, r] = Gamma^p_{qr}, and <f_p, E_k> = (g C^T)[p, k]."""
    b, d = rows.batch, rows.derivatives
    C = b.tangent_coeffs[:, None]
    Ct = np.swapaxes(C, -1, -2)
    B = C @ d.dg @ Ct
    dC = -(np.tril(B, -1) + 0.5 * B * np.eye(b.chart.m)) @ C
    M = dC + C @ d.gamma.transpose(0, 2, 3, 1)  # M[:, q, j, p]
    return np.einsum("niq,nqjk->nijk", b.tangent_coeffs, M @ (b.g[:, None] @ Ct))


def geometry(chart: Chart, U, steps=0) -> ExtrinsicRows:
    """The ExtrinsicRows of the points U (N, m), at the scan steps ``steps``
    (N,) or one step for all, from one batched ``analyze_point`` and
    ``second_fundamental`` call.  It does not raise for a point that
    fails: ``batch.errors`` holds the error of each row."""
    return second_fundamental(analyze_point(chart, U, steps))


class FieldCache:
    """Memo of the geometry of point batches, keyed by the exact floats of
    the points U (N, m): ``geometry(U)`` gives their ExtrinsicRows and
    ``layer(U)`` their FirstLayer, each computed on first use."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self._memo: dict = {}

    def _memoized(self, make, U):
        U = np.asarray(U, dtype=float).reshape(-1, self.chart.m)
        key = (make, U.tobytes())
        if key not in self._memo:
            self._memo[key] = make(self.chart, U)
        return self._memo[key]

    def geometry(self, U) -> ExtrinsicRows:
        return self._memoized(geometry, U)

    def layer(self, U) -> "FirstLayer":
        return self._memoized(FirstLayer.at, U)


class FirstLayer:
    """The geometry of N centers and of the 4m points of their base-step
    ``fd_stencil``s: k = 1 + 4m ``rows`` per center, in ``first_layer``
    order.  ``diff`` differences jet-level fields along the stencil axis,
    so the first-layer residuals are array kernels over the centers."""

    def __init__(self, rows: ExtrinsicRows):
        self.rows = rows
        self.k = 1 + 4 * rows.batch.u.shape[1]

    @classmethod
    def at(cls, chart: Chart, U, steps=0) -> "FirstLayer":
        """The first layers of the points U (N, m), at the scan steps
        ``steps`` (N,) or one step for all, in one ``geometry`` call."""
        U = np.asarray(U, dtype=float).reshape(-1, chart.m)
        steps = np.repeat(np.broadcast_to(steps, len(U)), 1 + 4 * chart.m)
        return cls(geometry(chart, first_layer(U).reshape(-1, chart.m), steps))

    def __len__(self) -> int:
        return len(self.rows) // self.k

    @cached_property
    def centers(self) -> ExtrinsicRows:
        # an index array copies the rows: ``inner`` may sum strided rows in another order
        return self.rows.take(np.arange(0, len(self.rows), self.k))

    def take(self, samples: slice) -> "FirstLayer":
        r = range(len(self))[samples]
        return FirstLayer(self.rows.take(slice(r.start * self.k, r.stop * self.k)))

    def diff(self, *fields) -> list[np.ndarray]:
        """The first-layer derivatives (N, m, ...) of fields given at every row
        (N k, ...), by ``fd_difference`` with the steps of ``fd_stencil``.
        Raises RowFailure for the first center that fails, with the error
        ``fd_gradient`` meets first there, taking the fields in turn."""
        n, k, m = len(self), self.k, (self.k - 1) // 4
        errors = self.rows.batch.errors
        values = [np.reshape(f, (n, k, -1))[:, 1:].reshape(n, m, 4, -1) for f in fields]
        bad = np.reshape([e is not None for e in errors], (n, k))
        # pairs of stencil points, in fd_gradient's order: a non-finite value or (first field) a failed point
        pairs = np.concatenate([~np.isfinite(v.reshape(n, 2 * m, -1)).all(axis=-1) for v in values], axis=1)
        pairs[:, : 2 * m] |= bad[:, 1:].reshape(n, 2 * m, 2).any(axis=-1)
        failed = bad[:, 0] | pairs.any(axis=1)
        if failed.any():
            s = int(np.argmax(failed))
            q = int(np.argmax(pairs[s])) % (2 * m)  # the pair, of direction q // 2
            p = s * k + 1 + 2 * q
            first = [e for e in errors[s * k : s * k + 1] + errors[p : p + 2] if e is not None]
            raise RowFailure(s, first[0] if first else nonfinite_error(self.centers.batch.u[s], q // 2))
        h = fd_steps(self.centers.batch.u)
        return [fd_difference(v, h).reshape((n, m) + np.shape(f)[1:]) for v, f in zip(values, fields)]


def normal_derivative_H(layer: FirstLayer) -> np.ndarray:
    """nabla^perp_{d_i} H (N, m, n+2) at every center of a first layer: the normal
    projection of the first-layer derivative of the H field (gauge-free)."""
    (dH,) = layer.diff(layer.rows.H)
    return layer.centers.batch.proj_normal(dH)


def normal_laplacian_H(centers: ExtrinsicRows, nabla_H: np.ndarray) -> np.ndarray:
    """Trace Laplacian of H in the normal bundle (K, n+2) at every row of
    ``centers`` by nested finite differences (tol_fd2 accuracy):
    sum g^{pq} (nabla^perp_p nabla^perp_q H - Gamma^k_{pq} nabla^perp_k H),
    given nabla^perp H (K, m, n+2) there.  nabla^perp_q H is differenced
    along p over the rows' ``FD_NESTED_STEP`` stencils, whose first layers
    are computed in calls of whole rows of at most ``_NESTED_POINTS``
    points.  Raises RowFailure for the first row whose stencils fail."""
    b = centers.batch
    K, m = b.u.shape
    outer = first_layer(b.u, FD_NESTED_STEP)[:, 1:]  # (K, 4m, m), no centers
    step = max(1, _NESTED_POINTS // (4 * m * (1 + 4 * m)))
    W = []
    for first in range(0, K, step):
        at = np.repeat(b.steps[first : first + step], 4 * m)
        try:
            W.append(normal_derivative_H(FirstLayer.at(b.chart, outer[first : first + step], at)))
        except RowFailure as f:  # from an outer point to its row
            raise RowFailure(first + f.args[0] // (4 * m), f.args[1]) from None
    W = np.concatenate(W).reshape(K, m, 4, -1)  # [row, p, stencil point, (q, c)]
    bad = ~np.isfinite(W).reshape(K, m, -1).all(axis=-1)
    if bad.any():
        s, p = np.unravel_index(np.argmax(bad), bad.shape)
        raise RowFailure(int(s), nonfinite_error(b.u[s], int(p)))
    dW = fd_difference(W, FD_NESTED_STEP).reshape(K, m, m, -1)
    G = centers.derivatives.gamma
    out = np.zeros_like(centers.H)
    for p in range(m):  # term by term, the order of a sum at one point
        for q in range(m):
            corr = np.einsum("nk,nkc->nc", G[:, :, p, q], nabla_H)
            out += b.g_inv[:, p, q, None] * (dW[:, p, q] - corr)
    return b.proj_normal(out)


def _wedge(sp: ProductSpace, a, b, c) -> np.ndarray:
    """(a ^ b) c = <b, c> a - <a, c> b, signature-weighted, for vectors (n+2,) or stacked (N, n+2)."""
    bc, ac = (np.asarray(inner(sp, v, c))[..., None] for v in (b, a))
    return bc * a - ac * b


def structure_residuals(layer: FirstLayer, X: np.ndarray, Y: np.ndarray, Z: np.ndarray, a: np.ndarray) -> dict:
    """Gauss, Codazzi and Ricci residuals (LHS - RHS as ambient vectors
    (N, n+2)) at every center of a first layer, for chart directions X, Y, Z
    (N, m) and normal indices a (N,); Gauss and Codazzi do not use ``a``,
    Ricci does not use Z."""
    return {
        "gauss": gauss_residuals(layer, X, Y, Z),
        "codazzi": codazzi_residuals(layer, X, Y, Z),
        "ricci": ricci_residuals(layer.centers, X, Y, a),
    }


def _alpha(b: PointBatch, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """alpha(v, w) = P d2f(v, w) (N, n+2) at every row, for chart vectors v, w (N, m)."""
    return b.proj_normal(_d2(b.jet.d2, v, w)[..., 0])


def gauss_residuals(layer: FirstLayer, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z - (A_{alpha(Y,Z)}X - A_{alpha(X,Z)}Y + eps-terms) as ambient
    vectors (N, n+2) for chart directions X, Y, Z (N, m) at every center of
    a first layer.  R comes from the Christoffels and their first-layer
    derivatives DG[:, i, l, j, k] = d_i Gamma^l_jk."""
    c = layer.centers
    b, sp = c.batch, c.batch.chart.space
    n, m = X.shape
    (DG,) = layer.diff(layer.rows.derivatives.gamma)
    G = c.derivatives.gamma
    DX, DY = ((v[:, None] @ DG.reshape(n, m, -1)).reshape(n, m, m, m) for v in (X, Y))
    GX, GY = ((v[:, None, None] @ G)[:, :, 0] for v in (X, Y))  # GX[l, p] = Gamma^l_ip X^i
    curv = _d2(DX, Y, Z) - _d2(DY, X, Z) + GX @ _d2(G, Y, Z) - GY @ _d2(G, X, Z)
    E, T = b.tangent_onb, b.T_ambient
    Xa, Ya, Za = np.moveaxis(b.jet.jac @ np.stack([X, Y, Z], axis=-1), -1, 0)  # pushed forward
    A_YZ, A_XZ = (shape_operator(sp, b.normal_onb, c.alpha, _alpha(b, v, Z)) for v in (Y, X))
    X_onb, Y_onb = (inner(sp, E, v[:, None])[..., None] for v in (Xa, Ya))
    rhs = np.swapaxes(A_YZ @ X_onb - A_XZ @ Y_onb, -1, -2) @ E
    eps_terms = _wedge(sp, Xa, Ya, Za) + inner(sp, Xa, T)[:, None] * _wedge(sp, Ya, T, Za)
    eps_terms -= inner(sp, Ya, T)[:, None] * _wedge(sp, Xa, T, Za)
    return (b.jet.jac @ curv)[..., 0] - rhs[:, 0] - sp.epsilon * eps_terms


def codazzi_residuals(layer: FirstLayer, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Codazzi equation LHS - RHS as ambient vectors (N, n+2) for chart
    directions X, Y, Z (N, m) at every center of a first layer.  The
    nabla_X Y terms cancel between the two sides because coordinate fields
    commute, leaving P d_X alpha(Y,Z) - P d_Y alpha(X,Z) - alpha(Y, nab_X Z)
    + alpha(X, nab_Y Z) against eps <(X ^ Y) T, Z> eta, where d_X alpha is
    the first-layer derivative of the field P d2f(Y, Z)."""
    c, k = layer.centers, layer.k
    b, sp = c.batch, c.batch.chart.space
    dYZ, dXZ = layer.diff(*(_alpha(layer.rows.batch, *np.repeat([v, Z], k, axis=1)) for v in (Y, X)))
    nab_XZ, nab_YZ = (_d2(c.derivatives.gamma, v, Z)[..., 0] for v in (X, Y))
    lhs = b.proj_normal((X[:, None] @ dYZ - Y[:, None] @ dXZ)[:, 0]) - _alpha(b, Y, nab_XZ) + _alpha(b, X, nab_YZ)
    Xa, Ya, Za = np.moveaxis(b.jet.jac @ np.stack([X, Y, Z], axis=-1), -1, 0)
    return lhs - sp.epsilon * inner(sp, _wedge(sp, Xa, Ya, b.T_ambient), Za)[:, None] * b.eta


def ricci_residuals(rows: ExtrinsicRows, X: np.ndarray, Y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Ricci equation LHS - RHS against normal a[r] as ambient vectors
    (N, n+2), for chart directions X, Y (N, m) and normal indices a (N,) of
    every row, exact at jet level.  With the projector field P and the
    extension xi = P xi0, R^perp(X,Y)xi = P [D_X P, D_Y P] xi0 (coordinate
    fields commute); the right side is P d2(X, A_xi Y) - P d2(A_xi X, Y)."""
    b, dP = rows.batch, rows.derivatives.dP
    n_rows, m, k = dP.shape[:3]
    on, C = np.arange(n_rows), b.tangent_coeffs
    DPX, DPY = ((v[:, None] @ dP.reshape(n_rows, m, k * k)).reshape(n_rows, k, k) for v in (X, Y))
    # A_xi on chart coordinates: chart -> ONB is C g, ONB -> chart is C^T
    AX, AY = ((np.swapaxes(C, -1, -2) @ rows.alpha[on, a] @ C @ b.g @ v[..., None])[..., 0] for v in (X, Y))
    lhs = (DPX @ DPY - DPY @ DPX) @ b.normal_onb[on, a][..., None]
    vec = lhs - _d2(b.jet.d2, X, AY) + _d2(b.jet.d2, AX, Y)
    return (b.normal_projector() @ vec)[..., 0]


def _d2(d2: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d2f(v, w) as columns (N, n+2, 1) for chart vectors v, w (N, m)."""
    return (v[:, None, None, :] @ d2 @ w[:, None, :, None])[..., 0]


def T_eta_residuals(rows: ExtrinsicRows) -> tuple[np.ndarray, np.ndarray]:
    """Residuals (vt, veta) of nabla_X T = A_eta X and
    alpha(X, T) = -nabla^perp_X eta for every row, maximized over the
    tangent ONB directions, exact at jet level."""
    b, d = rows.batch, rows.derivatives
    sp, C = b.chart.space, b.tangent_coeffs
    # row i: nabla_{E_i} T - A_eta E_i and alpha(E_i, T) + nabla^perp_{E_i} eta
    GT = (d.gamma.transpose(0, 2, 1, 3) @ b.T_coeffs[:, None, :, None])[..., 0]  # [p, k]: Gamma^k_pq T^q
    nab_T = C @ (d.dT + GT) @ np.swapaxes(b.jet.jac, -1, -2)
    A_eta = shape_operator(sp, b.normal_onb, rows.alpha, b.eta)
    vt = nab_T - np.swapaxes(A_eta, -1, -2) @ b.tangent_onb
    t = inner(sp, b.tangent_onb, b.T_ambient[:, None])  # T in the tangent ONB
    alpha_T = np.swapaxes((rows.alpha @ t[:, None, :, None])[..., 0], -1, -2) @ b.normal_onb
    veta = alpha_T + C @ d.deta @ np.swapaxes(b.normal_projector(), -1, -2)
    return tuple(np.max(np.linalg.norm(v, axis=-1), axis=-1) for v in (vt, veta))
