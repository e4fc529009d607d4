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
