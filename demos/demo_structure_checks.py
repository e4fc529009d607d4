"""Residuals of the structure equations on two charts: the parallel
mean curvature circle-times-cylinder chart (everything closes at jet or
finite-difference precision) and its helicoid sibling, whose mean curvature
is provably not parallel."""

import numpy as np

from prodsub import ProductSpace
from prodsub.classify import biconservative_residual, class_A_residual
from prodsub.extrinsic import (
    FieldCache,
    T_eta_residuals,
    normal_derivative_H,
    structure_residuals,
)
from prodsub.gallery import make_theorem1

rng = np.random.default_rng(0)

for kind, params in (("geodesic_cylinder", {}), ("helicoid", {"pitch": 0.5})):
    ch = make_theorem1(ProductSpace(1, 4), a=0.8, phi_kind=kind, phi_params=params)
    cache = FieldCache(ch)
    print(f"\n== {ch.label}")
    worst = {"gauss": 0.0, "codazzi": 0.0, "ricci": 0.0, "pmc": 0.0}
    for _ in range(10):
        u = np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in ch.domain])
        X, Y, Z = rng.standard_normal((3, 3))
        res = structure_residuals(ch, u, X, Y, Z, a=int(rng.integers(0, 2)), cache=cache)
        for k in ("gauss", "codazzi", "ricci"):
            worst[k] = max(worst[k], float(np.linalg.norm(res[k])))
        ws = normal_derivative_H(ch, u, cache)
        worst["pmc"] = max(worst["pmc"], max(float(np.linalg.norm(w)) for w in ws))
    for k, v in worst.items():
        print(f"  max {k:8s} residual: {v:.3e}")
    u = ch.center() + 0.05
    te = T_eta_residuals(ch, u, cache)
    print(f"  T/eta derivative rules: vt={te['vt']:.2e} veta={te['veta']:.2e}")
    pg, ed = cache.geometry(u)
    bc = biconservative_residual(ch, u, cache, pg, ed)
    print(f"  biconservative: simple={bc['simple']:.2e} full={bc['full']:.2e}")
    print(f"  class-A deviation: {class_A_residual(pg, ed):.2e}")

print(
    "\nThe Gauss/Codazzi/Ricci and T/eta identities hold on every immersion."
    "\nRicci and T/eta are jet-exact and close to rounding; Gauss and Codazzi"
    "\ndifference the Christoffels and alpha and stay at finite-difference noise."
    "\nOnly the parallel-mean-curvature residual separates the two fibers."
)
