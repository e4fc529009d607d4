"""Charts into the product, per-point frames and the T/eta split of d_t.

A chart is an m-parameter immersion into Q^n_eps x R given by one
expression per ambient slot (exprlang source or AST, the gallery's
templates included), whose jets ``exprlang.eval_jet`` evaluates.  Every
chart holds a ``Family``: the steps of a parameter scan, or one step for a
chart of one parameter value.  Each batch row carries its step, step 0
unless given, and the expressions read the parameters of the row's step,
so a run and a scan take one path.  A chart builds when
``Chart.validate_membership`` passes at step 0.
A ``PointBatch`` holds the frames of a batch of points, T in the chart
basis and the tangent ONB, and forms its normal projector once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import exprlang, jets
from .ambient import ProductSpace, inner, membership_residual
from .errors import ChartError, IrregularPoint, NullFrame, SceneError
from .jets import Jet2, VecJet2

__all__ = [
    "Chart",
    "Family",
    "PointBatch",
    "evaluate_jet",
    "analyze_point",
    "gram_schmidt",
    "probe_grid",
    "regular_metric",
]

# most points in one geometry call: a run slices its samples into calls of
# at most this many.  Past a few hundred points a larger call barely lowers
# the cost per point, while its arrays take a few KiB per point, more with the
# 3-jet.  On theorem1_cylinder, one core of a 2-vCPU Xeon: 0.8 ms for a batch
# of one, 9.9 us per point at 512 (14 us with the 3-jet); 3,000 samples of pmc
# and biconservative_full take 0.063 s at 512 against 0.059 to 0.062 s at
# 1,024, at a peak RSS of 43.8 against 48.8 MiB.  No benchmark workload sends
# more than 488 points (the 61-step criterion-4a scan) to one call.
_BATCH_POINTS = 512

# most probe points in one call of a build's checks, which take blocks of
# whole steps within it.  A geometry row holds a 3-jet, k (1 + m + m^2 + m^3)
# floats (240 for k = 6, m = 3), and its frames; a membership probe point
# holds one float per coordinate and a surface-factor probe point a 2-jet of 4
# coordinates in 2 variables (28 floats).  So the 61 steps of the
# criterion-4a scan take one membership call (7,625 points, 0.4 MiB of
# values) and one surface-factor call (1,525 points), and a call's cost is
# mostly its fixed overhead.
_PROBE_POINTS = 8192

_MEMBERSHIP_TOL = 1e-9  # the largest membership residual a build allows on its probe grid
_PROBES = 5  # probe grid points per axis of the membership check
_DROP_TOL = 1e-8  # the pivoted Gram-Schmidt stops where the largest remaining |<v,v>| is below this


def parse_coordinate(src, bound=None, what: str = "coordinate"):
    """The AST of a coordinate's source, or the AST itself.  Source that
    does not parse, and with ``bound`` given an expression that reads an
    identifier neither ``bound`` nor the constants bind, is a SceneError
    that quotes it."""
    try:
        ast = exprlang.parse(src) if isinstance(src, str) else src
    except exprlang.ParseError as exc:
        raise SceneError(f"cannot parse coordinate {src!r}: {exc}") from exc
    unbound = set() if bound is None else exprlang.free_vars(ast) - set(bound)
    if unbound:
        source = src if isinstance(src, str) else exprlang.to_source(ast)
        raise SceneError(f"cannot evaluate {what} {source!r}: unbound identifiers {sorted(unbound)}")
    return ast


@dataclass
class Chart:
    """An m-dimensional parametrized immersion into Q^n_eps x R."""

    space: ProductSpace
    m: int
    coords: list  # ExprAst or source strings, one per ambient slot
    params: dict = field(default_factory=dict)
    domain: list = field(default_factory=list)  # [(lo, hi)] per variable
    var_names: list = field(default_factory=list)
    s_index: int | None = None  # designated s variable, when the chart has one
    label: str = ""
    family: Family = field(init=False)  # the steps of a parameter scan; one step for one value

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
        self.coords = [parse_coordinate(c, [*self.var_names, *self.params]) for c in self.coords]
        self.family = Family({}, [self.label])

    def center(self) -> np.ndarray:
        return np.array([0.5 * (lo + hi) for lo, hi in self.domain])

    def with_family(self, params: dict, labels: list, error=None, checks=()) -> Chart:
        """This chart of the first step, built as the family chart of the steps
        before ``error`` whose chart-level checks pass (``params``, ``labels``
        and ``checks`` as in ``Family``); raises where the first step fails."""
        params = {name: np.array(v, dtype=float) for name, v in params.items()}
        self.family = Family(params, labels, list(checks), error)
        self.validate_membership()
        return self

    def validate_membership(self) -> None:
        """Run the family's chart-level checks and then the membership check
        over the probe grids of all its steps, in blocks of whole steps of
        at most ``_PROBE_POINTS`` probe points, each check on the steps that
        passed the ones before it; the probe grid is the same for every
        step.  The family stops at the first step that fails, with the error
        that step gives on its own; raises that error when step 0 fails."""
        family = self.family
        grid = probe_grid(self.domain, _PROBES)
        for points, check in [*family.checks, (len(grid), lambda steps: self.membership_failure(steps, grid))]:
            per = max(1, _PROBE_POINTS // points)
            for first in range(0, len(family), per):
                block = np.arange(first, min(first + per, len(family)))
                failure = check(block)
                if failure is not None:
                    family.stop(int(block[failure[0]]), failure[1])
                    break
        if not len(family):
            raise family.error

    def membership_failure(self, steps, grid):
        """The membership check at the scan steps ``steps``: (position in
        ``steps``, error) of the first step whose probe grid ``grid`` (P, m)
        leaves the product past ``_MEMBERSHIP_TOL``, else None.  Membership
        reads no derivative, so the grids are evaluated for values only.
        The grids of several steps are one batched evaluation; when a
        coordinate map raises on it, the steps are split in halves, first
        half first, until the first failing step stands alone.  A single
        step is one ``evaluate_jet`` call, in which a step with a probe
        point whose coordinates fail takes the error of the first such
        point.  A non-finite residual at any probe point counts as the worst
        and fails as well."""
        count = len(steps)
        U, at = np.tile(grid, (count, 1)), np.repeat(steps, len(grid))
        if count == 1:
            jet = evaluate_jet(self, U, at, order=0)
            error = next((e for e in jet.errors if e is not None), None)
            if error is not None:
                return 0, error
        else:
            jet, half = _coordinates(self, U, at, 0), count // 2
            if isinstance(jet, ChartError):
                head = self.membership_failure(steps[:half], grid)
                if head is not None:
                    return head
                tail = self.membership_failure(steps[half:], grid)
                return None if tail is None else (half + tail[0], tail[1])
        # a step past the first failure may overflow; its residual is then not finite
        with np.errstate(over="ignore", invalid="ignore"):
            worst = np.max(membership_residual(self.space, jet.values).reshape(count, -1), axis=1, initial=0.0)
        over = np.flatnonzero(~(worst <= _MEMBERSHIP_TOL))
        if not over.size:
            return None
        i = int(over[0])
        label = self.family.labels[steps[i]] or "<unnamed>"
        return i, ChartError(f"chart {label} leaves the product: membership residual {worst[i]:.3e} > {_MEMBERSHIP_TOL:.1e}")


@dataclass
class Family:
    """The steps of a parameter scan, all on one chart; a chart of one
    parameter value is a family of one step.

    ``params`` maps each parameter that varies with the step to its value
    at every step (an array): a batch row at step s evaluates the chart's
    coordinates with ``params[name][s]`` in place of ``Chart.params``.
    ``labels[s]`` is the label of step s's chart, one per step.  ``checks``
    are the chart-level checks of a build that run before the membership
    check, in order, as (probe points per step, check): ``check(steps)``
    gives (position in ``steps``, error) of the first step of ``steps``
    that fails, else None.  The family keeps the steps before the first one
    whose chart does not build, and ``error`` is the error of that step.
    """

    params: dict
    labels: list
    checks: list = field(default_factory=list)
    error: Exception | None = None

    def __len__(self) -> int:
        return len(self.labels)

    def stop(self, step: int, error: Exception) -> None:
        """Keep the steps before ``step``, whose chart raises ``error``."""
        self.labels, self.error = self.labels[:step], error


def probe_grid(domain, counts=5):
    """Regular grid over the domain box, inset 2% from each edge: the one
    inset of every probe set and sample box.

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


def evaluate_jet(chart: Chart, u, steps=0, order: int = 2) -> VecJet2:
    """Jet of all ambient coordinates at every row of a batch ``u`` (N, m),
    in one pass through the coordinate maps.  ``steps`` gives the scan step
    of each row (N,), or one step for all.  The jet has the ``order`` of the
    seeds (``jets.jet_var``): order 2 gives the 2-jet, orders 3 and 4 add
    ``d3`` (N, k, m, m, m) and ``d4``, and order 0 takes the jet over no
    derivative direction (``jac`` (N, k, 0) and ``d2`` (N, k, 0, 0) are
    empty).  At every order the values, the derivatives of lower order and
    the errors are those of the 2-jet bit for bit.

    A point's jet is bit for bit its row of any batch.  Only when a
    coordinate map raises on the batch are the rows replayed one by one:
    a row that fails on its own holds NaN, and ``errors[r]`` of the jet is
    the ChartError point r raises on its own, else None.  A single point
    u (m,) is a batch of one that raises its error.
    """
    u = np.asarray(u, dtype=float)
    U = u.reshape(-1, chart.m)
    n = len(U)
    steps = np.broadcast_to(steps, n)
    jet, errors = _coordinates(chart, U, steps, order), [None] * n
    if isinstance(jet, ChartError):
        alone = [_coordinates(chart, U[r : r + 1], steps[r : r + 1], order) for r in range(n)]
        jet = VecJet2([jets.jet_var(0, U[:, 0], chart.m, order)] * len(chart.coords))
        for x in jet.d:
            x.fill(np.nan)
        for r, one in enumerate(alone):
            if not isinstance(one, ChartError):
                for x, y in zip(jet.d, one.d):
                    x[r] = y[0]
        errors = [one if isinstance(one, ChartError) else None for one in alone]
    jet.errors = errors
    if u.ndim == 1 and errors[0] is not None:
        raise errors[0]
    return jet if u.ndim > 1 else jet.row(0)


def _coordinates(chart: Chart, U: np.ndarray, steps, order: int) -> VecJet2 | ChartError:
    """The jet of the rows U (N, m) at the steps ``steps`` (N,) at ``order``,
    or the error of the first coordinate map that raises, which names the
    first point when N is 1."""
    seeds = {name: jets.jet_var(i, U[:, i], chart.m, order) for i, name in enumerate(chart.var_names)}
    params = {**chart.params, **{name: v[steps] for name, v in chart.family.params.items()}}
    comps = []
    # inf and NaN arise silently, as they do in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        for k, ast in enumerate(chart.coords):
            try:
                c = exprlang.eval_jet(ast, seeds, params)
            except exprlang.EvalError as exc:
                return ChartError(f"coordinate {k} failed at u={U[0].tolist()}: {exc}")
            # a coordinate that ignores the seeds comes back without the batch axis
            comps.append(c if c.value.ndim else Jet2(np.full(len(U), c.value), *c.d[1:]))
    return VecJet2(comps)


def gram_schmidt(space: ProductSpace, vectors: np.ndarray, pivot: bool = False):
    """Signature-aware modified Gram-Schmidt on every row of a stack (N, c, k).

    Returns (basis, coeffs, count, errors): the first count[r] vectors of
    basis[r] are the selected unit vectors, coeffs[r, i] expresses basis
    vector i over the inputs (without pivoting only), and errors[r] is the
    NullFrame row r raises, else None.  Without ``pivot`` the inputs are
    taken in order and no row fails: the caller has checked that they span
    a positive definite space (``analyze_point``'s det g test), and a row
    where they do not holds values that mean nothing.  With ``pivot`` each
    row takes its own largest remaining |<v,v>| (argmax, first index on
    ties), stops once that falls below ``_DROP_TOL`` and fails if the vector
    taken is timelike.  Rows never mix, and the values of a failed row mean
    nothing (callers silence numpy's warnings for them).
    """
    work = np.array(vectors, dtype=float)
    n_rows, c, _ = work.shape
    errors = [None] * n_rows
    if not pivot:
        coeffs = np.tile(np.eye(c), (n_rows, 1, 1))
        for j in range(c):
            v = work[:, j]
            s = np.sqrt(np.abs(inner(space, v, v)))[:, None]
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
        active &= ~(np.abs(nrm2) < _DROP_TOL)
        bad = active & (nrm2 < 0.0)
        for r in np.flatnonzero(bad):
            if errors[r] is None:
                errors[r] = NullFrame(f"pivoted Gram-Schmidt selected <v,v>={nrm2[r]:.3e} < 0")
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


def project(P: np.ndarray, v) -> np.ndarray:
    """P v (N, ..., n+2) for stacked matrices P (N, n+2, n+2) and vectors
    v (N, ..., n+2): one matmul per row."""
    v = np.asarray(v, dtype=float)
    return (v.reshape(len(P), -1, v.shape[-1]) @ P.swapaxes(-1, -2)).reshape(v.shape)


@dataclass
class PointBatch:
    """Frame-bundle samples of a chart at N points, stacked on a leading axis.

    ``errors[i]`` is the IrregularPoint or NullFrame that point i raises on its own, else None;
    the array rows of a failed point mean nothing.  ``g_inv`` is C^T C from the tangent
    coefficients C, so ``det g`` is all ``analyze_point`` asks LAPACK for.  ``P`` is formed on
    first use, and the copies ``take`` and ``replace`` make form their own.
    """

    chart: Chart
    u: np.ndarray  # (N, m)
    jet: VecJet2
    g: np.ndarray
    g_inv: np.ndarray
    tangent_onb: np.ndarray  # (N, m, n+2)
    tangent_coeffs: np.ndarray  # C[:, i, p]: E_i = sum_p C[i,p] f_p
    normal_onb: np.ndarray  # (N, n+1-m, n+2)
    T_ambient: np.ndarray
    T_onb: np.ndarray  # (N, m) tangent-ONB components of T, <d_t, E_i>
    T_coeffs: np.ndarray  # chart-basis components of T
    T_norm: np.ndarray
    eta: np.ndarray
    eta_norm: np.ndarray
    errors: list
    steps: np.ndarray  # (N,) the scan step of each row

    def __len__(self) -> int:
        return len(self.u)

    @cached_property
    def P(self) -> np.ndarray:
        """The normal projection of every row as an (N, n+2, n+2) matrix,
        I - (eps p^ p^T + E^T E) S with S the signature; it depends only on
        the normal subspace, not on the frame, so it is a smooth field."""
        sp, E = self.chart.space, self.tangent_onb
        phat = sp.q_padded(self.jet.values)
        EtE = E.swapaxes(-1, -2) @ E
        return np.eye(sp.ambient_dim) - (sp.epsilon * phat[:, :, None] * phat[:, None, :] + EtE) * sp.signature

    def proj_normal(self, v: np.ndarray) -> np.ndarray:
        """Vectors v (N, ..., n+2) projected onto the normal space of f
        inside T(Q^n_eps x R) at every row: P v, one matmul per row."""
        return project(self.P, v)

    def with_flipped_normals(self, signs) -> "PointBatch":
        """Copy with normal frame vector a of every row flipped by signs[a]
        = +-1; used to exercise gauge invariance of the classifier residuals."""
        return replace(self, normal_onb=np.asarray(signs, dtype=float)[:, None] * self.normal_onb)

    def take(self, rows) -> "PointBatch":
        """The batch of the given rows (a slice or an index array)."""
        arrays = {
            f.name: getattr(self, f.name)[rows]
            for f in fields(self)
            if f.name not in ("chart", "jet", "errors")
        }
        errors = self.errors[rows] if isinstance(rows, slice) else [self.errors[i] for i in np.arange(len(self))[rows]]
        return replace(self, jet=self.jet.row(rows), errors=errors, **arrays)


def regular_metric(det: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Whether each metric g (N, m, m) = J^T S J with determinant ``det``
    (N,) is regular: det g > 1e-12 prod g_ii with every g_ii > 0, so g is
    positive definite (it has at most one negative eigenvalue, Sylvester).
    det g / prod g_ii is unit-free, at most 1 (Hadamard), and bounds every
    tangent MGS pivot p_j, as prod p_j = det g and p_j <= g_jj: each p_j is
    above 1e-12 g_jj on a row that passes, whatever the chart's scale."""
    diag = np.diagonal(g, axis1=-2, axis2=-1)
    return (det > 1e-12 * np.prod(diag, axis=-1)) & np.all(diag > 0.0, axis=-1)


def analyze_point(chart: Chart, u, steps=0, order: int = 2) -> PointBatch:
    """Metric, orthonormal frames and the d_t = f_* T + eta decomposition
    at every row of ``u`` (N, m); a single point (m,) is a batch of one.
    The batch records per row the error a point raises where its
    coordinates fail (``evaluate_jet``), its metric is not finite or
    regular, or a frame degenerates, and each row is bit for bit what the
    point gives in any other batch.  ``steps`` gives the scan step of each
    row (N,), or one step for all.  The batch's jet has the ``order`` (2, 3
    or 4) of ``evaluate_jet``, which changes none of the other fields.
    """
    U = np.array(u, dtype=float).reshape(-1, chart.m)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that fail may divide by 0
        return _analyze(chart, U, np.broadcast_to(steps, len(U)), order)


def _analyze(chart: Chart, U: np.ndarray, steps, order: int) -> PointBatch:
    sp = chart.space
    m = chart.m
    jet = evaluate_jet(chart, U, steps, order)
    pos = jet.values
    errors = list(jet.errors)

    def fail(bad, make) -> None:
        for r in np.flatnonzero(bad):
            if errors[r] is None:
                errors[r] = make(r)

    sig = sp.signature
    J = jet.jac  # (N, n+2, m)
    g = (J * sig[:, None]).swapaxes(-1, -2) @ J
    g = 0.5 * (g + g.swapaxes(-1, -2))

    finite = np.isfinite(g).all(axis=(-2, -1))
    fail(~finite, lambda r: IrregularPoint(f"induced metric not finite at u={U[r].tolist()}"))
    det = np.linalg.det(g)  # the tangent frame's only regularity test, and its only LAPACK call
    regular = regular_metric(det, g)
    fail(~regular, lambda r: IrregularPoint(f"det g = {det[r]:.3e} at u={U[r].tolist()}"))
    # E = C J^T is orthonormal, so C g C^T = I and g^-1 = C^T C (inf or NaN on irregular rows)
    E, C, _, _ = gram_schmidt(sp, J.swapaxes(-1, -2))
    g_inv = C.swapaxes(-1, -2) @ C

    # normal frame: project the canonical basis onto the complement of
    # span(tangent) + span(p_Q), then pivoted MGS.  The tangent projection
    # runs twice: one pass leaves tangent components of up to 2.5 ulp in
    # the normals, the second brings the frame defect back under 2 ulp.
    phat = sp.q_padded(pos)
    cands = np.eye(sp.ambient_dim) - (sp.epsilon * (sig * phat))[:, :, None] * phat[:, None, :]
    Et = E.swapaxes(-1, -2)
    for _ in range(2):
        cands = cands - ((cands * sig) @ Et) @ E
    xi, _, count, nf_errors = gram_schmidt(sp, cands, True)
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
        T_onb=t_onb,
        T_coeffs=T_coeffs,
        T_norm=T_norm,
        eta=eta,
        eta_norm=eta_norm,
        errors=errors,
        steps=steps,
    )

