"""Charts into the product, per-point frames and the T/eta split of d_t.

A chart is an m-parameter immersion into Q^n_eps x R given by one coordinate
map per ambient slot.  Coordinate maps are either expression ASTs or plain
Python callables over jets (the gallery generators use the latter, giving
analytic 2-jets with no parse step).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import exprlang, jets
from .ambient import ProductSpace, inner, membership_residual
from .errors import ChartError, IrregularPoint, NullFrame
from .jets import Jet2, VecJet2

__all__ = [
    "Chart",
    "PointGeometry",
    "PointBatch",
    "evaluate_jet",
    "analyze_point",
    "pushforward",
    "gram_schmidt",
    "probe_grid",
]


def wrap_expr(src, params: dict, var_names: Sequence[str]) -> Callable:
    """Jet closure of one coordinate given as an expression AST or source."""
    ast = exprlang.parse(src) if isinstance(src, str) else src
    names = list(var_names)

    def coord(us: Sequence[Jet2]) -> Jet2:
        return exprlang.eval_jet(ast, dict(zip(names, us)), params)

    return coord


@dataclass
class Chart:
    """An m-dimensional parametrized immersion into Q^n_eps x R."""

    space: ProductSpace
    m: int
    coords: list  # callables jets -> Jet2, or ExprAst / source strings
    params: dict = field(default_factory=dict)
    domain: list = field(default_factory=list)  # [(lo, hi)] per variable
    var_names: list = field(default_factory=list)
    s_index: int | None = None  # designated s variable, when the chart has one
    label: str = ""

    def __post_init__(self):
        if not self.var_names:
            self.var_names = [f"u{i + 1}" for i in range(self.m)]
        if len(self.var_names) != self.m:
            raise ChartError("var_names length does not match m")
        if len(self.coords) != self.space.ambient_dim:
            raise ChartError(
                f"need {self.space.ambient_dim} coordinate maps, got {len(self.coords)}"
            )
        if len(self.domain) != self.m:
            raise ChartError("domain must give one interval per chart variable")
        self.coords = [
            c if callable(c) else wrap_expr(c, self.params, self.var_names)
            for c in self.coords
        ]

    def center(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.domain])

    def validate_membership(self, tol: float = 1e-9, per_axis: int = 5) -> float:
        """Worst membership residual on a probe grid; raises past ``tol``.

        The grid is one batched jet evaluation.  A non-finite residual at
        any probe point counts as the worst and raises as well."""
        values = evaluate_jet(self, probe_grid(self.domain, per_axis)).values
        worst = float(np.max(membership_residual(self.space, values), initial=0.0))
        if not worst <= tol:
            raise ChartError(
                f"chart {self.label or '<unnamed>'} leaves the product: "
                f"membership residual {worst:.3e} > {tol:.1e}"
            )
        return worst


def probe_grid(domain, counts=5):
    """Regular grid over the domain box, inset 2% from each edge.

    ``counts`` is one point count for every axis or a list with one per axis;
    an axis with count 1 takes the midpoint of its inset interval.
    """
    if np.ndim(counts) == 0:
        counts = [counts] * len(domain)
    axes = []
    for (lo, hi), k in zip(domain, counts):
        pad = 0.02 * (hi - lo)
        lo, hi = lo + pad, hi - pad
        axes.append(np.linspace(lo, hi, int(k)) if k > 1 else np.array([0.5 * (lo + hi)]))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def evaluate_jet(chart: Chart, u) -> VecJet2:
    """2-jet of all ambient coordinates at the chart point ``u`` (m,), or at
    every row of a batch ``u`` (N, m) in one pass through the coordinate maps.

    A single point runs as a batch of one, so its jet is bit for bit the
    matching row of any batch.  When a coordinate map fails on a batch, the
    rows are replayed one by one, so the error is the one the first failing
    point raises on its own.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, chart.m)
    seeds = tuple(jets.jet_var(i, U[:, i], chart.m) for i in range(chart.m))
    comps = []
    # inf and NaN arise silently, as they do in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        for k, coord in enumerate(chart.coords):
            try:
                c = coord(seeds)
            except (ValueError, ZeroDivisionError, OverflowError, exprlang.EvalError) as exc:
                if u.ndim == 1:
                    raise ChartError(f"coordinate {k} failed at u={u.tolist()}: {exc}") from exc
                for row in U:
                    evaluate_jet(chart, row)
                raise ChartError(f"coordinate {k} failed on a batch: {exc}") from exc
            # a coordinate that ignores the seeds comes back without the batch axis
            comps.append(c if c.value.ndim else Jet2(np.full(len(U), c.value), c.grad, c.hess))
    vj = VecJet2(comps)
    return vj if u.ndim > 1 else vj.row(0)


def _mgs(space: ProductSpace, vectors: np.ndarray, pivot: bool, drop_tol):
    """Signature-aware modified Gram-Schmidt on every row of a stack (N, c, k).

    Returns (basis, coeffs, count, errors): the first count[r] vectors of
    basis[r] are the selected unit vectors, coeffs[r, i] expresses basis
    vector i over the inputs (without pivoting only), and errors[r] is the
    NullFrame row r raises, else None.  Without ``pivot`` the inputs are
    taken in order and one with <v,v> <= drop_tol fails its row.  With
    ``pivot`` each row takes its own largest remaining |<v,v>| (argmax,
    first index on ties), stops once that falls below ``drop_tol`` and
    fails if the vector taken is timelike.  Rows never mix, and the values
    of a failed row mean nothing (callers silence numpy's warnings for them).
    """
    work = np.array(vectors, dtype=float)
    n_rows, c, _ = work.shape
    drop_tol = np.broadcast_to(np.asarray(drop_tol, dtype=float), (n_rows,))
    errors = [None] * n_rows

    def fail(bad, nrm2, kind) -> None:
        for r in np.flatnonzero(bad):
            if errors[r] is None:
                if kind == "pivot":
                    msg = f"pivoted Gram-Schmidt selected <v,v>={nrm2[r]:.3e} < 0"
                elif nrm2[r] > -drop_tol[r]:
                    msg = f"Gram-Schmidt hit a near-null vector (<v,v>={nrm2[r]:.3e})"
                else:
                    msg = f"Gram-Schmidt hit a timelike vector (<v,v>={nrm2[r]:.3e})"
                errors[r] = NullFrame(msg)

    if not pivot:
        coeffs = np.tile(np.eye(c), (n_rows, 1, 1))
        for j in range(c):
            v = work[:, j]
            nrm2 = inner(space, v, v)
            bad = nrm2 <= drop_tol
            if bad.any():
                fail(bad, nrm2, "order")
            s = np.sqrt(np.abs(nrm2))[:, None]
            e = v / s
            ce = coeffs[:, j] / s
            work[:, j] = e
            coeffs[:, j] = ce
            if j + 1 < c:
                cc = inner(space, work[:, j + 1 :], e[:, None])[..., None]
                work[:, j + 1 :] -= cc * e[:, None]
                coeffs[:, j + 1 :] -= cc * ce[:, None]
        return work, coeffs, np.full(n_rows, c), errors

    rows = np.arange(n_rows)
    basis = np.zeros_like(work)
    count = np.zeros(n_rows, dtype=int)
    alive = np.ones((n_rows, c), dtype=bool)
    active = np.ones(n_rows, dtype=bool)
    for _ in range(c):
        n2 = inner(space, work, work)
        j = np.argmax(np.where(alive, np.abs(n2), -np.inf), axis=1)
        nrm2 = n2[rows, j]
        active &= ~(np.abs(nrm2) < drop_tol)
        bad = active & (nrm2 < 0.0)
        if bad.any():
            fail(bad, nrm2, "pivot")
            active &= ~bad
        if not active.any():
            break
        e = work[rows, j] / np.sqrt(np.abs(nrm2))[:, None]
        sel = rows[active]
        basis[sel, count[sel]] = e[sel]
        count += active
        alive[rows, j] = False
        work -= inner(space, work, e[:, None])[..., None] * e[:, None]
    return basis, None, count, errors


def gram_schmidt(
    space: ProductSpace,
    vectors: Sequence[np.ndarray],
    pivot: bool = False,
    drop_tol: float = 1e-8,
):
    """Signature-aware modified Gram-Schmidt.

    Returns (basis, coeffs) where basis[i] are unit spacelike vectors and
    coeffs[i] expresses basis[i] over the input vectors (None with
    pivoting).  With ``pivot`` the largest remaining |<v,v>| is taken each
    round and vectors with squared norm below ``drop_tol`` in absolute value
    are discarded; a selected vector that is not spacelike raises NullFrame.
    This is ``_mgs`` on a batch of one.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        basis, coeffs, count, errors = _mgs(space, np.asarray(vectors, dtype=float)[None], pivot, drop_tol)
    if errors[0] is not None:
        raise errors[0]
    return list(basis[0, : count[0]]), None if coeffs is None else list(coeffs[0])


@dataclass
class PointGeometry:
    """Frame-bundle sample of a chart at one regular point."""

    chart: Chart
    u: np.ndarray
    jet: VecJet2
    pos: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    tangent_onb: list  # ambient vectors E_1..E_m
    tangent_coeffs: np.ndarray  # C[i, p]: E_i = sum_p C[i,p] f_p
    normal_onb: list  # ambient vectors xi_a, a = 1..n+1-m
    T_ambient: np.ndarray
    T_coeffs: np.ndarray  # chart-basis components of T
    T_norm: float
    eta: np.ndarray
    eta_norm: float
    theta: float
    nu: float | None

    @property
    def space(self) -> ProductSpace:
        return self.chart.space

    @property
    def codim(self) -> int:
        return len(self.normal_onb)

    def q_padded(self) -> np.ndarray:
        return self.space.q_padded(self.pos)

    def push(self, v) -> np.ndarray:
        """Pushforward of chart-tangent coefficients to an ambient vector."""
        return self.jet.jac @ np.asarray(v, dtype=float)

    def onb_coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of a tangent ambient vector in the tangent ONB."""
        return np.array([inner(self.space, v, e) for e in self.tangent_onb])

    def from_onb(self, c) -> np.ndarray:
        out = np.zeros(self.space.ambient_dim)
        for ci, e in zip(c, self.tangent_onb):
            out += ci * e
        return out

    def chart_coords(self, v: np.ndarray) -> np.ndarray:
        """Chart-basis components of a tangent ambient vector."""
        return self.onb_coords(v) @ self.tangent_coeffs

    def proj_normal(self, v: np.ndarray) -> np.ndarray:
        """Projection onto the normal space of f inside T(Q^n_eps x R)."""
        sp = self.space
        phat = self.q_padded()
        out = np.array(v, dtype=float)
        out -= sp.epsilon * inner(sp, out, phat) * phat
        for e in self.tangent_onb:
            out -= inner(sp, out, e) * e
        return out

    def normal_projector(self) -> np.ndarray:
        """The projection above as an (n+2, n+2) matrix; depends only on the
        normal subspace, not on the frame, so it is a smooth field."""
        sp = self.space
        sig = sp.signature
        phat = self.q_padded()
        P = np.eye(sp.ambient_dim)
        P -= sp.epsilon * np.outer(phat, sig * phat)
        for e in self.tangent_onb:
            P -= np.outer(e, sig * e)
        return P

    def with_flipped_normals(self, signs) -> "PointGeometry":
        """Copy with normal frame vectors flipped by the given +-1 signs;
        used to exercise gauge invariance of the classifier residuals."""
        from dataclasses import replace

        flipped = [s * xi for s, xi in zip(signs, self.normal_onb)]
        return replace(self, normal_onb=flipped)


@dataclass
class PointBatch:
    """Frame-bundle samples of a chart at N points, stacked on a leading axis.

    ``errors[i]`` is the IrregularPoint or NullFrame that point i raises on
    its own, else None; the array rows of a failed point mean nothing.
    ``point(i)`` gives one row as a PointGeometry or raises its error.
    """

    chart: Chart
    u: np.ndarray  # (N, m)
    jet: VecJet2
    g: np.ndarray
    g_inv: np.ndarray
    tangent_onb: np.ndarray  # (N, m, n+2)
    tangent_coeffs: np.ndarray
    normal_onb: np.ndarray  # (N, n+1-m, n+2)
    T_ambient: np.ndarray
    T_coeffs: np.ndarray
    T_norm: np.ndarray
    eta: np.ndarray
    eta_norm: np.ndarray
    theta: np.ndarray
    nu: np.ndarray | None
    errors: list

    def __len__(self) -> int:
        return len(self.u)

    def point(self, i: int) -> PointGeometry:
        if self.errors[i] is not None:
            raise self.errors[i]
        return PointGeometry(
            chart=self.chart,
            u=self.u[i],
            jet=self.jet.row(i),
            pos=self.jet.values[i],
            g=self.g[i],
            g_inv=self.g_inv[i],
            tangent_onb=list(self.tangent_onb[i]),
            tangent_coeffs=self.tangent_coeffs[i],
            normal_onb=list(self.normal_onb[i]),
            T_ambient=self.T_ambient[i],
            T_coeffs=self.T_coeffs[i],
            T_norm=float(self.T_norm[i]),
            eta=self.eta[i],
            eta_norm=float(self.eta_norm[i]),
            theta=float(self.theta[i]),
            nu=None if self.nu is None else float(self.nu[i]),
        )


def analyze_point(chart: Chart, u):
    """Metric, orthonormal frames and the d_t = f_* T + eta decomposition.

    ``u`` (m,) gives a PointGeometry and raises where the point is irregular
    or a frame degenerates; ``u`` (N, m) gives a PointBatch that records
    those errors per row.  A single point runs as a batch of one, so its
    geometry is bit for bit the matching row of any batch.
    """
    u = np.array(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that fail may divide by 0
        batch = _analyze(chart, u.reshape(-1, chart.m))
    return batch if u.ndim > 1 else batch.point(0)


def _analyze(chart: Chart, U: np.ndarray) -> PointBatch:
    sp = chart.space
    m = chart.m
    n_rows = len(U)
    jet = evaluate_jet(chart, U)
    pos = jet.values
    errors: list = [None] * n_rows

    def fail(bad, make) -> None:
        if np.any(bad):
            for r in np.flatnonzero(bad):
                if errors[r] is None:
                    errors[r] = make(r)

    sig = sp.signature
    J = jet.jac  # (N, n+2, m)
    g = np.swapaxes(J * sig[:, None], -1, -2) @ J
    g = 0.5 * (g + np.swapaxes(g, -1, -2))

    scale = np.fmax(1.0, np.max(np.abs(np.diagonal(g, axis1=-2, axis2=-1)), axis=-1))
    det = np.linalg.det(g)
    fail(det <= 1e-12 * scale**m, lambda r: IrregularPoint(f"det g = {det[r]:.3e} at u={U[r].tolist()}"))
    eigmin = np.linalg.eigvalsh(g)[:, 0]
    fail(eigmin <= 0.0, lambda r: IrregularPoint(f"induced metric not positive definite at u={U[r].tolist()}"))
    irregular = np.array([e is not None for e in errors])
    g_inv = np.linalg.inv(np.where(irregular[:, None, None], np.eye(m), g))

    E, C, _, gs_errors = _mgs(sp, np.swapaxes(J, -1, -2), False, 1e-12 * scale)
    fail(np.array([e is not None for e in gs_errors]), lambda r: gs_errors[r])

    # normal frame: project the canonical basis onto the complement of
    # span(tangent) + span(p_Q), then pivoted MGS.  The tangent projection
    # runs twice: one pass leaves tangent components of up to 2.5 ulp in
    # the normals, the second brings the frame defect back under 2 ulp.
    phat = sp.q_padded(pos)
    cands = np.eye(sp.ambient_dim) - (sp.epsilon * (sig * phat))[:, :, None] * phat[:, None, :]
    Et = np.swapaxes(E, -1, -2)
    for _ in range(2):
        cands = cands - ((cands * sig) @ Et) @ E
    xi, _, count, nf_errors = _mgs(sp, cands, True, 1e-8)
    fail(np.array([e is not None for e in nf_errors]), lambda r: nf_errors[r])
    want = sp.n + 1 - m
    fail(count != want, lambda r: NullFrame(f"normal frame has {count[r]} vectors, expected {want}"))
    xi = xi[:, :want]

    t_onb = E[:, :, sp.t_index]  # <d_t, E_i>
    T = (t_onb[:, None, :] @ E)[:, 0]
    T_coeffs = (t_onb[:, None, :] @ C)[:, 0]
    T_norm = np.sqrt(np.maximum(inner(sp, T, T), 0.0))
    eta = sp.t_axis() - T
    eta_norm = np.sqrt(np.maximum(inner(sp, eta, eta), 0.0))
    return PointBatch(
        chart=chart,
        u=U,
        jet=jet,
        g=g,
        g_inv=g_inv,
        tangent_onb=E,
        tangent_coeffs=C,
        normal_onb=xi,
        T_ambient=T,
        T_coeffs=T_coeffs,
        T_norm=T_norm,
        eta=eta,
        eta_norm=eta_norm,
        theta=np.arctan2(eta_norm, T_norm),
        nu=inner(sp, eta, xi[:, 0]) if want == 1 else None,
        errors=errors,
    )


def pushforward(chart: Chart, u, v) -> np.ndarray:
    """Jacobian applied to chart-tangent coefficients at a regular point."""
    pg = analyze_point(chart, u)
    return pg.push(v)
