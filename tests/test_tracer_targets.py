"""The benchmark's span tracer (``perfbench/tracer.py``) wraps prodsub
functions by name.  Every name it lists must resolve, so that a refactor
which drops or moves one fails here rather than in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """The tracer module, loaded from its file without installing it."""
    spec = importlib.util.spec_from_file_location("prodsub_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_prodsub():
    tracer = _load_tracer()
    targets = tracer.SPANS + tracer.COUNTS
    missing = []
    for module, path in targets:
        owner = importlib.import_module(f"prodsub.{module}")
        *cls, attr = path.split(".")
        if cls:  # the tracer swaps the attribute in the class's own namespace
            owner = vars(owner).get(cls[0])
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module}.{path}")
    assert len(targets) >= 20 and missing == []


KERNELS = [
    "extrinsic.normal_derivative_H",
    "extrinsic.normal_laplacian_H",
    "extrinsic.christoffels",
    "extrinsic.T_eta_residuals",
    "immersion.gram_schmidt",
    "classify.class_A_residual",
    "classify.codim_two_frame",
    "classify.e0_structure",
]


def test_a_traced_run_observes_its_kernels():
    # a structure run on the helicoid takes the nested normal Laplacian; a
    # pointwise run takes the class A, codim-2 frame and E_0 kernels
    from prodsub import extrinsic
    from prodsub.scene import load_scene, run_scene

    scenes = Path(__file__).resolve().parent.parent / "scenes"
    runs = [
        ("theorem1_helicoid.json", ["gauss", "codazzi", "ricci", "vector_t", "vector_eta", "pmc", "biharmonic_normal"]),
        ("theorem1_cylinder.json", ["membership", "frames", "class_a", "e0", "biharmonic_predicate"]),
    ]
    original = extrinsic.normal_derivative_H
    tracer = _load_tracer().Tracer()
    mark = tracer.mark()
    tracer.install()
    try:
        for name, checks in runs:
            run_scene(load_scene(str(scenes / name)), checks=checks, sampling_override={"mode": "random", "counts": 3})
    finally:
        tracer.uninstall()
    stats = tracer.stats(mark)
    assert extrinsic.normal_derivative_H is original
    assert {k: stats[f"{k}.calls"] for k in KERNELS if not stats[f"{k}.calls"] > 0} == {}
