"""Build one chart of every gallery kind, for both ambient signs, and print
the frame-bundle data at a sample point: |T|, |eta|, the angle theta, the
mean curvature and the codimension."""

import numpy as np

from prodsub import ProductSpace, analyze_point
from prodsub.extrinsic import second_fundamental
from prodsub.gallery import (
    make_cmc_product,
    make_partial_tube,
    make_slice,
    make_theorem1,
    make_vertical_cylinder,
)

table = []
for eps in (1, -1):
    sp4, sp3 = ProductSpace(eps, 4), ProductSpace(eps, 3)
    a = 0.8 if eps == 1 else 1.25
    charts = [
        make_slice(sp4, 0.25),
        make_vertical_cylinder(sp4),
        make_vertical_cylinder(sp4, {"kind": "circle", "r": 0.7}),
        make_theorem1(sp4, a=a),
        make_theorem1(sp4, a=a, phi_kind="helicoid", phi_params={"pitch": 0.5}),
        make_partial_tube(sp3),
        make_cmc_product(sp3, 0.7),
    ]
    for ch in charts:
        rows = second_fundamental(analyze_point(ch, ch.center() + 0.07))  # a batch of one point
        codim = rows.normal_onb.shape[1]
        theta = np.arctan2(rows.eta_norm, rows.T_norm)[0]
        table.append((eps, ch.label, rows.T_norm[0], rows.eta_norm[0], theta, rows.H_norm[0], codim))

print(f"{'eps':>4} {'chart':38} {'|T|':>8} {'|eta|':>8} {'theta':>8} {'|H|':>9} {'codim':>5}")
for eps, label, t, e, th, h, c in table:
    print(f"{eps:+4d} {label:38} {t:8.4f} {e:8.4f} {th:8.4f} {h:9.5f} {c:5d}")

print(
    "\nSlices have T = 0 (theta = pi/2); vertical products have eta = 0"
    " (theta = 0); the helicoid fiber mixes both."
)
