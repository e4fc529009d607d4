"""Charts into the product, per-point frames and the T/eta split of d_t.

A chart is an m-parameter immersion into Q^n_eps x R given by one coordinate
map per ambient slot.  Coordinate maps are either expression ASTs or plain
Python callables over jets (the gallery generators use the latter, giving
analytic 2-jets with no parse step).
"""

from __future__ import annotations

import math
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
        """Worst membership residual on a probe grid; raises past ``tol``."""
        worst = 0.0
        for u in probe_grid(self.domain, per_axis):
            r = membership_residual(self.space, evaluate_jet(self, u).values)
            worst = max(worst, r)
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
    """2-jet of all ambient coordinates at the chart point ``u``."""
    u = np.asarray(u, dtype=float)
    seeds = tuple(jets.jet_var(i, u[i], chart.m) for i in range(chart.m))
    comps = []
    for k, coord in enumerate(chart.coords):
        try:
            comps.append(coord(seeds))
        except (ValueError, ZeroDivisionError, exprlang.EvalError) as exc:
            raise ChartError(f"coordinate {k} failed at u={u.tolist()}: {exc}") from exc
    return VecJet2(comps)


def gram_schmidt(
    space: ProductSpace,
    vectors: Sequence[np.ndarray],
    pivot: bool = False,
    drop_tol: float = 1e-8,
):
    """Signature-aware modified Gram-Schmidt.

    Returns (basis, coeffs) where basis[i] are unit spacelike vectors and
    coeffs[i] expresses basis[i] over the input vectors (only meaningful
    without pivoting).  With ``pivot`` the largest remaining |<v,v>| is taken
    each round and vectors with squared norm below ``drop_tol`` in absolute
    value are discarded; a selected vector that is not spacelike raises
    NullFrame.
    """
    work = [np.array(v, dtype=float) for v in vectors]
    k = len(work)
    coeffs = [np.eye(k)[i] for i in range(k)]
    basis = []
    alive = list(range(k))
    while alive:
        if pivot:
            norms = [abs(inner(space, work[i], work[i])) for i in alive]
            j = alive[int(np.argmax(norms))]
            if norms[int(np.argmax(norms))] < drop_tol:
                break
        else:
            j = alive[0]
        v = work[j]
        nrm2 = inner(space, v, v)
        if not pivot and nrm2 <= drop_tol:
            if nrm2 > -drop_tol:
                raise NullFrame(
                    f"Gram-Schmidt hit a near-null vector (<v,v>={nrm2:.3e})"
                )
            raise NullFrame(f"Gram-Schmidt hit a timelike vector (<v,v>={nrm2:.3e})")
        if pivot and nrm2 < 0.0:
            raise NullFrame(f"pivoted Gram-Schmidt selected <v,v>={nrm2:.3e} < 0")
        s = math.sqrt(abs(nrm2))
        e = v / s
        ce = coeffs[j] / s
        basis.append(e)
        coeffs[j] = ce
        alive.remove(j)
        for i in alive:
            c = inner(space, work[i], e)
            work[i] = work[i] - c * e
            coeffs[i] = coeffs[i] - c * ce
    return basis, coeffs


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


def analyze_point(chart: Chart, u) -> PointGeometry:
    """Metric, orthonormal frames and the d_t = f_* T + eta decomposition."""
    sp = chart.space
    u = np.asarray(u, dtype=float)
    jet = evaluate_jet(chart, u)
    pos = jet.values
    m = chart.m

    sig = sp.signature
    J = jet.jac
    g = (J * sig[:, None]).T @ J
    g = 0.5 * (g + g.T)

    scale = max(1.0, float(np.max(np.abs(np.diag(g)))))
    det = float(np.linalg.det(g))
    if det <= 1e-12 * scale**m:
        raise IrregularPoint(f"det g = {det:.3e} at u={u.tolist()}")
    eigmin = float(np.linalg.eigvalsh(g)[0])
    if eigmin <= 0.0:
        raise IrregularPoint(f"induced metric not positive definite at u={u.tolist()}")
    g_inv = np.linalg.inv(g)

    cols = [J[:, i] for i in range(m)]
    tangent_onb, coeffs = gram_schmidt(sp, cols, pivot=False, drop_tol=1e-12 * scale)
    C = np.array(coeffs)

    # normal frame: project the canonical basis onto the complement of
    # span(tangent) + span(p_Q), then pivoted MGS
    phat = sp.q_padded(pos)
    cands = []
    for k in range(sp.ambient_dim):
        e = np.zeros(sp.ambient_dim)
        e[k] = 1.0
        w = e - sp.epsilon * inner(sp, e, phat) * phat
        for t in tangent_onb:
            w -= inner(sp, w, t) * t
        cands.append(w)
    normal_onb, _ = gram_schmidt(sp, cands, pivot=True, drop_tol=1e-8)
    want = sp.n + 1 - m
    if len(normal_onb) != want:
        raise NullFrame(
            f"normal frame has {len(normal_onb)} vectors, expected {want}"
        )

    dt = sp.t_axis()
    t_onb = np.array([inner(sp, dt, e) for e in tangent_onb])
    T = np.zeros(sp.ambient_dim)
    for c, e in zip(t_onb, tangent_onb):
        T += c * e
    T_coeffs = t_onb @ C
    T_norm = math.sqrt(max(inner(sp, T, T), 0.0))
    eta = dt - T
    eta_norm = math.sqrt(max(inner(sp, eta, eta), 0.0))
    theta = math.atan2(eta_norm, T_norm)
    nu = inner(sp, eta, normal_onb[0]) if want == 1 else None

    return PointGeometry(
        chart=chart,
        u=u,
        jet=jet,
        pos=pos,
        g=g,
        g_inv=g_inv,
        tangent_onb=tangent_onb,
        tangent_coeffs=C,
        normal_onb=normal_onb,
        T_ambient=T,
        T_coeffs=T_coeffs,
        T_norm=T_norm,
        eta=eta,
        eta_norm=eta_norm,
        theta=theta,
        nu=nu,
    )


def pushforward(chart: Chart, u, v) -> np.ndarray:
    """Jacobian applied to chart-tangent coefficients at a regular point."""
    pg = analyze_point(chart, u)
    return pg.push(v)
