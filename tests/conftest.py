import math

import numpy as np
import pytest

from prodsub import ProductSpace, exprlang


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                name = nodeid.split("::")[-1].replace("test_", "").upper()
                rows.append((name, outcome.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(rows):
            terminalreporter.write_line(f"{name}: {'PASS' if outcome == 'PASSED' else 'FAIL'}")
from prodsub.scene import CHECKS, _compute_rows
from prodsub.gallery import (
    make_cmc_product,
    make_partial_tube,
    make_slice,
    make_theorem1,
    make_vertical_cylinder,
)


@pytest.fixture(scope="session")
def s4():
    return ProductSpace(1, 4)


@pytest.fixture(scope="session")
def h4():
    return ProductSpace(-1, 4)


@pytest.fixture(scope="session")
def theorem1_cyl(s4):
    return make_theorem1(s4, a=0.8)


@pytest.fixture(scope="session")
def theorem1_heli(s4):
    return make_theorem1(s4, a=0.8, phi_kind="helicoid", phi_params={"pitch": 0.5})


@pytest.fixture(scope="session")
def slice_s4(s4):
    return make_slice(s4, 0.25)


@pytest.fixture(scope="session")
def vcyl_geodesic(s4):
    return make_vertical_cylinder(s4)


@pytest.fixture(scope="session")
def vcyl_circle(s4):
    return make_vertical_cylinder(s4, {"kind": "circle", "r": 0.7})


@pytest.fixture(scope="session")
def cmc_s3():
    return make_cmc_product(ProductSpace(1, 3), 0.7)


@pytest.fixture(scope="session")
def tube_s3():
    return make_partial_tube(ProductSpace(1, 3))


def gallery_charts(eps: int):
    """One chart of every gallery kind for the given sign."""
    if eps == 1:
        sp, sp3 = ProductSpace(1, 4), ProductSpace(1, 3)
        return [
            make_slice(sp, 0.25),
            make_vertical_cylinder(sp),
            make_vertical_cylinder(sp, {"kind": "circle", "r": 0.7}),
            make_theorem1(sp, a=0.8),
            make_theorem1(sp, a=0.8, phi_kind="helicoid", phi_params={"pitch": 0.5}),
            make_partial_tube(sp3),
            make_cmc_product(sp3, 0.7),
        ]
    sp, sp3 = ProductSpace(-1, 4), ProductSpace(-1, 3)
    return [
        make_slice(sp, 0.25),
        make_vertical_cylinder(sp),
        make_vertical_cylinder(sp, {"kind": "circle", "r": 0.7}),
        make_theorem1(sp, a=1.25),
        make_theorem1(sp, a=1.25, phi_kind="helicoid", phi_params={"pitch": 0.5}),
        make_partial_tube(sp3),
        make_cmc_product(sp3, 0.7),
    ]


@pytest.fixture(scope="session")
def all_gallery_charts():
    return gallery_charts(1) + gallery_charts(-1)


def random_interior_points(chart, n, seed=0):
    rng = np.random.default_rng(seed)
    lo = np.array([d[0] for d in chart.domain])
    hi = np.array([d[1] for d in chart.domain])
    pad = 0.05 * (hi - lo)
    return lo + pad + (hi - lo - 2 * pad) * rng.random((n, chart.m))


def theorem1_closed_forms(a: float, eps: int = 1) -> dict:
    """Independent closed forms for the circle-times-geodesic-cylinder chart,
    derived by hand from the explicit parametrization (the test oracle)."""
    if eps == 1:
        b = math.sqrt(1 - a * a)
        h = abs(a * a - b * b) / (3 * a * b)
        eig = sorted([-b / a, 0.0, a / b])
        if a * a < b * b:  # H flips orientation when the circle dominates
            eig = sorted([b / a, 0.0, -a / b])
    else:
        # trace A_{xi1'} = -(a/b + b/a) < 0, so xi1 = H/|H| = -xi1' and both
        # nonzero eigenvalues of A_{xi1} come out positive
        b = math.sqrt(a * a - 1)
        h = (a * a + b * b) / (3 * a * b)
        eig = sorted([b / a, 0.0, a / b])
    return {
        "b": b,
        "H_norm": h,
        "eig_A1": np.array(eig),
        "trace_A1_sq": (a / b) ** 2 + (b / a) ** 2,
    }


def num(x) -> exprlang.Num:
    """The AST of the number ``x``."""
    return exprlang.Num(float(x), False)


def per_sample_checks(chart) -> list:
    """The per-sample checks, less e0 where the codimension is not 2, which it raises on."""
    return [n for n in sorted(CHECKS) if n != "e0" or chart.space.n + 1 - chart.m == 2]


def check_columns(chart, samples: np.ndarray) -> dict:
    """Each per-sample check's column (values, the set of its notes,
    degenerate) over ``samples``."""
    names = per_sample_checks(chart)
    chunks = _compute_rows(chart, names, samples, np.arange(len(samples)))
    return {
        name: (np.concatenate([c[name][0] for c in chunks]), set().union(*(c[name][1] for c in chunks)),
               np.concatenate([c[name][2] for c in chunks]))
        for name in names
    }
