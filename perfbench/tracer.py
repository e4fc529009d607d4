"""Span tracer that instruments prodsub from outside, without edits to src/.

``Tracer.install()`` replaces each public function named in ``SPANS`` and
``COUNTS`` with a wrapper.  Modules import many of these names directly
(``extrinsic`` holds its own ``analyze_point``, ``classify`` its own
``evaluate_jet``), so the original object is rebound in every loaded
``prodsub.*`` namespace that holds it, not only in its defining module.  The
entries of ``scene.CHECKS`` and the class attributes ``Chart.validate_membership``
and ``FieldCache.geometry`` are wrapped as well.  ``uninstall()`` puts every
original back.

A span is ``[name_id, start, end, parent_id]`` with ``perf_counter`` times,
kept in memory and written out by ``write_spans``.  Functions called at
microsecond scale (``COUNTS``) only count calls: a span there would mostly
time the wrapper.

Spans made in forked pool workers stay in the workers and are not collected.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every function timed with a span.
SPANS = [
    ("cli", "main"),
    ("scene", "validate_scene"),
    ("scene", "build_chart"),
    ("scene", "sample_points"),
    ("scene", "run_scene"),
    ("gallery", "make_chart"),
    ("immersion", "Chart.validate_membership"),
    ("immersion", "evaluate_jet"),
    ("immersion", "analyze_point"),
    ("immersion", "gram_schmidt"),
    ("exprlang", "eval_jet"),
    ("jets", "fd_gradient"),
    ("extrinsic", "FieldCache.geometry"),
    ("extrinsic", "second_fundamental"),
    ("extrinsic", "christoffels"),
    ("extrinsic", "normal_derivative_H"),
    ("extrinsic", "normal_laplacian_H"),
    ("extrinsic", "structure_residuals"),
    ("extrinsic", "T_eta_residuals"),
    ("classify", "biconservative_residual"),
    ("classify", "biharmonic_residual"),
    ("classify", "class_A_residual"),
    ("classify", "e0_structure"),
    ("classify", "codim_two_frame"),
]

# (module, attribute path) of every function whose calls are only counted.
COUNTS = [
    ("exprlang", "parse"),
    ("ambient", "inner"),
    ("ambient", "membership_residual"),
    ("ambient", "curvature"),
]

GEOMETRY = "extrinsic.FieldCache.geometry"
ANALYZE = "immersion.analyze_point"


def _module(name: str):
    return sys.modules[f"prodsub.{name}"]


def _prodsub_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "prodsub" or key.startswith("prodsub."))
    ]


class Tracer:
    """Owns the span list, the call counters and the installed wrappers."""

    def __init__(self):
        import prodsub.cli  # noqa: F401  (loads every module the targets live in)

        scene = _module("scene")
        self.names: list[str] = [f"{m}.{a}" for m, a in SPANS]
        self.names += [f"scene.check.{c}" for c in scene.CHECKS]
        self.count_names = [f"{m}.{a}" for m, a in COUNTS]
        self.spans: list[list] = []
        self.counts = [0] * len(COUNTS)
        self._stack = [-1]
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, idx: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _swap(self, owner, key: str, value) -> None:
        """Set ``owner.key`` (or ``owner[key]`` for a dict), remembering the original."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _rebind(self, module: str, path: str, make) -> None:
        owner = _module(module)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            self._swap(owner, attr, make(owner.__dict__[attr]))
            return
        original = owner.__dict__[attr]
        wrapped = make(original)
        for mod in _prodsub_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, key, wrapped)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for i, (module, path) in enumerate(SPANS):
            self._rebind(module, path, functools.partial(self._span_wrapper, i))
        for i, (module, path) in enumerate(COUNTS):
            self._rebind(module, path, functools.partial(self._count_wrapper, i))
        checks = _module("scene").CHECKS
        for i, name in enumerate(checks, start=len(SPANS)):
            self._swap(checks, name, self._span_wrapper(i, checks[name]))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def mark(self) -> tuple[int, list[int]]:
        """Position to aggregate from: (first span id, counter snapshot)."""
        return len(self.spans), list(self.counts)

    def stats(self, since: tuple[int, list[int]]) -> dict:
        """Per-function statistics of the spans and counts made after ``since``.

        ``<name>.calls``, ``<name>.self_s`` (span time minus its direct
        children) and ``<name>.total_s`` (outermost spans of that name only)
        for every span target and check; hits, misses and hit ratio of
        ``FieldCache.geometry`` (a miss has an ``analyze_point`` child);
        ``<name>.calls`` for every counted target.
        """
        first, counts0 = since
        spans = self.spans
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        child_s: dict = {}
        enclosing: dict = {}  # span id -> frozenset of names of its ancestors
        geom = self.names.index(GEOMETRY)
        analyze = self.names.index(ANALYZE)
        missed: set = set()
        for sid in range(first, len(spans)):
            name_id, start, end, parent = spans[sid]
            dur = end - start
            if parent >= first:
                child_s[parent] = child_s.get(parent, 0.0) + dur
                outer = enclosing[parent] | {spans[parent][0]}
                if name_id == analyze and spans[parent][0] == geom:
                    missed.add(parent)
            else:
                outer = frozenset()
            enclosing[sid] = outer
            calls[name_id] += 1
            if name_id not in outer:
                total_s[name_id] += dur
        for sid in range(first, len(spans)):
            name_id, start, end, _ = spans[sid]
            self_s[name_id] += end - start - child_s.get(sid, 0.0)

        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.total_s"] = total_s[i]
        hits = calls[geom] - len(missed)
        out[f"{GEOMETRY}.hits"] = hits
        out[f"{GEOMETRY}.misses"] = len(missed)
        out[f"{GEOMETRY}.hit_ratio"] = hits / calls[geom] if calls[geom] else 0.0
        for i, name in enumerate(self.count_names):
            out[f"{name}.calls"] = self.counts[i] - counts0[i]
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as ``id name start end parent`` (tab-separated)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")
