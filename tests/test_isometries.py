"""Every check is invariant under an isometry of the ambient product.

A chart's coordinate ASTs are composed with an isometry x -> L x + c of
Q^n_eps x R: a rotation (eps = +1) or a boost (eps = -1) of the quadric
slots (0, 1) or (0, 3), the t-translation t -> t + 0.4 or the t-reflection
t -> -t.  The moved chart meets the isometric image of the same points at
the same chart coordinates, so every residual that is a metric quantity
stays the same, and one that takes a Euclidean norm of E^{n+2} vectors
moves under a boost.  Every gallery kind at both signs of eps runs every
per-sample check, and where it designates an s variable the chart-level
``splitting`` and ``circle`` checks and the circle radius: a residual of
at least 1e-6 (inf included) agrees within 1e-9 relative, a smaller one
stays within the check's tolerance, and the radius agrees within 1e-9
relative (inf and NaN included).  ``class_a`` and ``splitting`` keep only
their verdicts (``VERDICT_ONLY``).
"""

import math

import numpy as np
import pytest

from prodsub import ProductSpace, exprlang
from prodsub.classify import circle_geometry
from prodsub.immersion import Chart
from prodsub.scene import CHECK_TABLE
from conftest import check_columns, gallery_charts, num, random_interior_points

RAPIDITY = 0.3
# only whether these residuals are within tolerance is invariant: class_a's
# is a maximum over the vectors of the normal ONB, which an isometry turns,
# and splitting's the Euclidean norm of the mixed derivatives in E^{n+2}
VERDICT_ONLY = {"class_a", "splitting"}


def _moved(chart: Chart, L: np.ndarray, c: np.ndarray) -> Chart:
    """The chart u -> L f(u) + c, with every other field as in ``chart``."""
    term = lambda w, ast: ast if w == 1.0 else exprlang.Neg(ast) if w == -1.0 else exprlang.BinOp("*", num(w), ast)  # noqa: E731
    coords = []
    for row, shift in zip(L, c):
        terms = [term(w, ast) for w, ast in zip(row, chart.coords) if w != 0.0]
        expr = terms[0]
        for extra in terms[1:] + ([num(shift)] if shift else []):
            expr = exprlang.BinOp("+", expr, extra)
        coords.append(expr)
    return Chart(
        space=chart.space,
        m=chart.m,
        coords=coords,
        params=dict(chart.params),
        domain=list(chart.domain),
        var_names=list(chart.var_names),
        s_index=chart.s_index,
        label=f"{chart.label} moved",
    )


def _columns(chart: Chart, samples: np.ndarray) -> dict:
    """Each per-sample check's residuals and degenerate mask, and with a
    designated s variable each chart-level check's residual and flag."""
    out = {name: (values, degen) for name, (values, _, degen) in check_columns(chart, samples).items()}
    if chart.s_index is not None:
        for name in ("splitting", "circle"):
            value, _, degen = CHECK_TABLE[name].column(chart)
            out[name] = (np.array([value]), np.array([degen]))
    return out


def _isometries(space: ProductSpace) -> list:
    """(name, L, c): a rotation or boost of slots (0, 1) and (0, 3), the
    t-translation by 0.4 and the t-reflection."""
    k, t = space.ambient_dim, space.t_index
    out = []
    for j in (1, 3):
        L = np.eye(k)
        if space.epsilon == 1:
            cs, sn = math.cos(RAPIDITY), math.sin(RAPIDITY)
            L[[0, 0, j, j], [0, j, 0, j]] = cs, -sn, sn, cs
        else:
            ch, sh = math.cosh(RAPIDITY), math.sinh(RAPIDITY)
            L[[0, 0, j, j], [0, j, 0, j]] = ch, sh, sh, ch
        out.append((f"slots (0, {j})", L, np.zeros(k)))
    out.append(("t + 0.4", np.eye(k), 0.4 * np.eye(k)[t]))
    out.append(("-t", np.diag(np.where(np.arange(k) == t, -1.0, 1.0)), np.zeros(k)))
    return out


def _charts():
    return [(ch.label + f" eps={eps:+d}", ch) for eps in (1, -1) for ch in gallery_charts(eps)]


@pytest.mark.parametrize("label, chart", _charts(), ids=[label for label, _ in _charts()])
def test_every_check_is_invariant_under_ambient_isometries(label, chart):
    samples = random_interior_points(chart, 6, seed=61)
    want = _columns(chart, samples)
    radius = circle_geometry(chart)["radius"] if chart.s_index is not None else None
    for what, L, c in _isometries(chart.space):
        moved = _moved(chart, L, c)
        got = _columns(moved, samples)
        for name, (values, degen) in want.items():
            where, tol = (label, what, name), CHECK_TABLE[name].tolerance(chart.space)
            assert np.array_equal(got[name][1], degen), where
            if name in VERDICT_ONLY:
                assert np.array_equal(got[name][0] <= tol, values <= tol), where
                continue
            big = values >= 1e-6
            assert np.all(np.isclose(got[name][0][big], values[big], rtol=1e-9, atol=0.0)), where
            assert np.all(got[name][0][~big] <= tol), where
        if radius is not None:
            assert np.isclose(circle_geometry(moved)["radius"], radius, rtol=1e-9, atol=0.0, equal_nan=True), (label, what)
