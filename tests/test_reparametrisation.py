"""Every per-sample check is invariant under a reparametrisation u = L v + c.

A chart's coordinate ASTs have each chart-variable ``Ident`` replaced by
the expression of u in v, so the mapped chart meets the same points of the
same submanifold at v = L^-1 (u - c).  L = 10^k R, for k in {-3, -1, 1, 3}
and a rotation R, scales the metric by 10^(2k) and turns the coordinate
frame, so a residual in chart units, or read along coordinate vectors,
would move.  Every gallery kind at both signs of eps and the corpus
expression scenes run every per-sample check on the same points in both
charts: each verdict and degenerate count is the same, a residual above
1e-10 agrees within 1e-12 relative, and a rounding-level residual stays
below 1e-13.  The chart-level checks read the designated s coordinate,
which a rotation mixes, and are not part of the suite.
"""

from pathlib import Path

import numpy as np
import pytest

from prodsub import exprlang
from prodsub.immersion import Chart
from prodsub.scene import _merge_stats, build_chart, load_scene
from conftest import check_columns, gallery_charts, num, random_interior_points

SCENES = Path(__file__).resolve().parent.parent / "scenes"
EXPR_SCENES = ("theorem1_cylinder_expr.json", "slice_expr.json", "vertical_cylinder_expr.json")
SCALES = (-3, -1, 1, 3)


def _substitute(ast, mapping: dict):
    """``ast`` with every ``Ident`` named in ``mapping`` replaced by its AST."""
    if isinstance(ast, exprlang.Ident):
        return mapping.get(ast.name, ast)
    if isinstance(ast, exprlang.Neg):
        return exprlang.Neg(_substitute(ast.arg, mapping))
    if isinstance(ast, exprlang.Call):
        return exprlang.Call(ast.fn, _substitute(ast.arg, mapping))
    if isinstance(ast, exprlang.BinOp):
        return exprlang.BinOp(ast.op, _substitute(ast.left, mapping), _substitute(ast.right, mapping))
    return ast


def _mapped(chart: Chart, L: np.ndarray, c: np.ndarray) -> Chart:
    """The chart v -> f(L v + c), whose domain is the box around the image of f's."""
    mapping = {}
    for i, name in enumerate(chart.var_names):
        expr = num(c[i])
        for j, var in enumerate(chart.var_names):
            expr = exprlang.BinOp("+", expr, exprlang.BinOp("*", num(L[i, j]), exprlang.Ident(var)))
        mapping[name] = expr
    corners = np.stack(np.meshgrid(*chart.domain, indexing="ij"), -1).reshape(-1, chart.m)
    V = np.linalg.solve(L, (corners - c).T).T
    return Chart(
        space=chart.space,
        m=chart.m,
        coords=[_substitute(ast, mapping) for ast in chart.coords],
        params=dict(chart.params),
        domain=list(zip(V.min(axis=0).tolist(), V.max(axis=0).tolist())),
        var_names=list(chart.var_names),
        label=f"{chart.label} mapped",
    )


def _run(chart: Chart, samples: np.ndarray):
    """Each check's column (values, notes, degenerate) and its report entry."""
    columns = check_columns(chart, samples)
    report, _ = _merge_stats(columns, samples, chart, list(columns), {})
    return columns, {r["name"]: r for r in report}


def _rotation(m: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _charts():
    return [(ch.label, ch) for eps in (1, -1) for ch in gallery_charts(eps)] + [
        (name, build_chart(load_scene(str(SCENES / name)))) for name in EXPR_SCENES
    ]


@pytest.mark.parametrize("label, chart", _charts(), ids=[label for label, _ in _charts()])
def test_every_check_is_invariant_under_reparametrisation(label, chart):
    samples = random_interior_points(chart, 6, seed=43)
    columns, report = _run(chart, samples)
    for k in SCALES:
        L = 10.0**k * _rotation(chart.m, seed=k + 50)
        c = np.linspace(0.1, 0.3, chart.m)
        mapped = _mapped(chart, L, c)
        got_columns, got_report = _run(mapped, np.linalg.solve(L, (samples - c).T).T)
        for name in columns:
            want, got = columns[name][0], got_columns[name][0]
            where = (label, k, name)
            assert got_report[name]["verdict"] == report[name]["verdict"], where
            assert np.array_equal(got_columns[name][2], columns[name][2]), where
            big = want > 1e-10
            assert np.all(np.abs(got[big] - want[big]) <= 1e-12 * want[big]), where
            assert np.all(got[~big] <= 1e-13), where
