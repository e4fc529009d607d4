"""One benchmark workload in one process: set-up, timed passes, output checks.

Started by ``run.py`` with the BLAS thread pools already pinned to one
thread.  Every pass calls the public entry point ``prodsub.cli.main`` once
per invocation of the workload, with ``--out`` pointed at a file in a private
directory under ``perfbench/.run``, then checks that file against
``reference.json``.  Prints one JSON object with the raw measurements.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"

STRUCTURE_CHECKS = [
    "gauss", "codazzi", "ricci", "vector_t", "vector_eta",
    "pmc", "biconservative_full", "biharmonic_normal",
]
POINTWISE_CHECKS = ["membership", "frames", "unit_norm", "h_eta", "mean_curvature", "class_a"]
CODIM_TWO_CHECKS = ["e0", "biharmonic_predicate"]

# Random samples per scene and pass: (full run, smoke run).
STRUCTURE_SCENES = {
    "theorem1_cylinder": (24, 2),
    "theorem1_cylinder_expr": (24, 2),
    "biharmonic_scan_eps-1": (24, 2),
    "vertical_cylinder_expr": (24, 2),
    "slice_expr": (24, 2),
    "theorem1_helicoid": (8, 1),
}
POINTWISE_SCENES = {
    "theorem1_cylinder": (300, 3),
    "theorem1_cylinder_expr": (300, 3),
    "biharmonic_scan_eps-1": (300, 3),
    "vertical_cylinder_expr": (300, 3),
    "slice_expr": (300, 3),
}
CODIM_TWO_SCENES = {"theorem1_cylinder", "theorem1_cylinder_expr", "biharmonic_scan_eps-1"}

SWEEP_SCENE = "biharmonic_scan_eps1"
SWEEP = {"param": "a2", "from": 0.3, "to": 0.9, "residual": "biharmonic_normal"}
SWEEP_STEPS = (61, 7)  # the smoke steps are every tenth full step
SWEEP_MARGIN_AT = 0.5

MARGIN_CAP = 16.0


@dataclass
class Invocation:
    """One ``prodsub`` command of a pass."""

    scene: str
    argv: list
    checks: list  # checks whose verdicts the report holds; empty for a scan
    steps: int = 0  # scan steps; 0 for a run


def scene_path(name: str) -> str:
    return str(ROOT / "scenes" / f"{name}.json")


def invocations(workload: str, seed: int, smoke: bool) -> list[Invocation]:
    """The commands of one pass; the inputs depend only on (workload, seed, smoke)."""
    size = 1 if smoke else 0
    if workload == "sweep":
        steps = SWEEP_STEPS[size]
        argv = [
            "scan", "--scene", scene_path(SWEEP_SCENE), "--param", SWEEP["param"],
            "--from", str(SWEEP["from"]), "--to", str(SWEEP["to"]),
            "--steps", str(steps), "--residual", SWEEP["residual"],
        ]
        return [Invocation(SWEEP_SCENE, argv, [], steps)]
    if workload in ("structure", "pool"):
        plan = [(sc, n[size], STRUCTURE_CHECKS) for sc, n in STRUCTURE_SCENES.items()]
    elif workload == "pointwise":
        plan = [
            (sc, n[size], POINTWISE_CHECKS + (CODIM_TWO_CHECKS if sc in CODIM_TWO_SCENES else []))
            for sc, n in POINTWISE_SCENES.items()
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for scene, samples, checks in plan:
        argv = ["run", "--scene", scene_path(scene), "--samples", str(samples), "--seed", str(seed)]
        for c in checks:
            argv += ["--check", c]
        if workload == "pool":
            argv += ["--jobs", "2"]
        out.append(Invocation(scene, argv, list(checks)))
    return out


def reference_for(workload: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["structure" if workload == "pool" else workload]


def sweep_samples() -> int:
    with open(scene_path(SWEEP_SCENE), encoding="utf-8") as fh:
        grid = json.load(fh)["sampling"]["grid"]
    return math.prod(grid)


# --------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    """Operations attempted and failed, evaluations and the accuracy margin,
    summed over the passes of a run."""

    attempted: int = 0
    failed: int = 0
    evaluations: int = 0
    margin: float = MARGIN_CAP
    problems: list = field(default_factory=list)  # the first few failures

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)


def _margin(tol: float, residual: float) -> float:
    if residual <= 0.0 or math.isinf(tol):
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tol / residual))


def check_run(inv: Invocation, rc: int, out_path: Path, ref: dict, outcome: Outcome) -> None:
    """One operation per (scene, check) verdict."""
    expected = ref[inv.scene]
    if rc not in (0, 1) or not out_path.exists():
        outcome.fail(f"{inv.scene}: exit code {rc}", len(inv.checks))
        return
    with open(out_path, encoding="utf-8") as fh:
        report = json.load(fh)
    got = {c["name"]: c for c in report["checks"]}
    for name in inv.checks:
        c = got.get(name)
        if c is None or c["verdict"] != expected[name]:
            verdict = c and c["verdict"]
            outcome.fail(f"{inv.scene}/{name}: {verdict} != {expected[name]}")
            continue
        outcome.attempted += 1
        outcome.evaluations += c["samples_evaluated"]
        if expected[name] == "PASS":
            outcome.margin = min(outcome.margin, _margin(c["tolerance_used"], c["max_residual"]))


def _parse_scan(text: str) -> tuple[list, list, float | None]:
    rows, brackets, min_at = [], [], None
    for line in text.splitlines()[1:]:
        if line.startswith("# sign-change bracket:"):
            a, b = line.split("[", 1)[1].rstrip("]").split(",")
            brackets.append([float(a), float(b)])
        elif line.startswith("# no sign change;"):
            min_at = float(line.rsplit("=", 1)[1])
        else:
            value, residual = line.split()
            rows.append((float(value), float(residual)))
    return rows, brackets, min_at


def check_scan(inv: Invocation, rc: int, out_path: Path, ref: dict, outcome: Outcome) -> None:
    """One operation per table row plus one for the summary line
    (no sign-change bracket, minimum at the reference parameter value)."""
    if rc != 0 or not out_path.exists():
        outcome.fail(f"scan: exit code {rc}", inv.steps + 1)
        return
    rows, brackets, min_at = _parse_scan(out_path.read_text(encoding="utf-8"))
    ref_rows = {round(v, 9): r for v, r in ref["rows"]}
    samples = sweep_samples()
    for i in range(inv.steps):
        if i >= len(rows):
            outcome.fail(f"scan: row {i} missing")
            continue
        value, residual = rows[i]
        want = ref_rows.get(round(value, 9))
        if want is None or abs(residual - want) > ref["abs_tol"] + ref["rel_tol"] * abs(want):
            outcome.fail(f"scan: row {value}: {residual} != {want}")
            continue
        outcome.attempted += 1
        outcome.evaluations += samples
        if abs(value - SWEEP_MARGIN_AT) < 1e-9:
            outcome.margin = min(outcome.margin, _margin(ref["tolerance"], residual))
    min_ok = min_at is not None and abs(min_at - ref["min_at"]) < 1e-9
    if brackets != ref["brackets"] or not min_ok:
        outcome.fail(f"scan: brackets {brackets}, min at {min_at}")
    else:
        outcome.attempted += 1


# --------------------------------------------------------------------------
# set-up and passes


# Seconds per calibration round on the reference host (Intel Xeon at 2.0 GHz,
# 2 vCPUs, Python 3.11.7, numpy 2.4.6), set so that reference-host pass times
# match the raw pass times measured there while the host was idle.
CALIB_REF_ROUND_S = 75e-6
# While a call runs, every PROBE_INTERVAL_S of wall time the probe spends
# PROBE_CHUNK_S on calibration rounds (5% of the call).
PROBE_INTERVAL_S = 0.25
PROBE_CHUNK_S = 0.0125
SETUP_PROBE_S = 0.1


class SpeedProbe:
    """Host speed factor, in reference-host seconds per second.

    The host's speed drifts by up to 2x over minutes as other tenants load
    it.  The probe times rounds of a fixed loop of small numpy operations and
    Python float arithmetic, the instruction mix of the checks, using no
    prodsub code.  A time multiplied by the factor measured over the same
    stretch is in reference-host seconds, which drift far less.

    Inside ``with probe.armed():`` a SIGALRM every PROBE_INTERVAL_S runs a
    chunk of rounds, so the samples spread evenly over the call.  ``seconds``
    and ``cpu_s`` add up the chunks, for callers to subtract from what they
    time.  A call that runs worker processes is sampled after it ends
    instead, because a chunk during the call would share the cores with the
    workers and read the host as slower than it is.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._vecs = rng.random((8, 6))
        self._sig = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
        self._mat = rng.random((3, 3)) + 3.0 * np.eye(3)
        self._round(0)  # warm-up, not counted
        self.rounds = 0
        self.seconds = 0.0
        self.cpu_s = 0.0

    def _round(self, k: int) -> float:
        np = self._np
        acc = float(np.linalg.solve(self._mat, self._vecs[k % 8, :3]).sum())
        for x in self._vecs:
            acc += float(x @ self._sig @ x)
            acc += float(np.linalg.norm(np.outer(x, x)[:3, :3] @ self._mat))
        return acc

    def sample(self, seconds: float) -> "SpeedProbe":
        """Run calibration rounds for about ``seconds``."""
        c0 = time.thread_time()
        t0 = time.perf_counter()
        n = 0
        while True:
            for _ in range(10):
                self._round(n)
                n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.rounds += n
        self.seconds += elapsed
        self.cpu_s += time.thread_time() - c0
        return self

    def factor(self) -> float:
        """Speed factor for wall times."""
        return CALIB_REF_ROUND_S * self.rounds / self.seconds

    def cpu_factor(self) -> float:
        """Speed factor for CPU times: reference seconds per CPU second of
        the rounds, which leaves out time the probe waited for a core."""
        return CALIB_REF_ROUND_S * self.rounds / self.cpu_s

    def _on_alarm(self, signum, frame) -> None:
        self.sample(PROBE_CHUNK_S)

    @contextlib.contextmanager
    def armed(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            # Ignored, not the default action: an alarm raised just before the
            # timer stopped must not end the process.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)


def setup(workload: str, seed: int, smoke: bool) -> tuple[float, object]:
    """Import prodsub, load every scene of the workload and build its chart
    once; returns (seconds since process start, the cli module)."""
    from prodsub import cli
    from prodsub.scene import build_chart, load_scene

    for inv in invocations(workload, seed, smoke):
        build_chart(load_scene(scene_path(inv.scene)))
    return time.perf_counter() - T_START, cli


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, smoke: bool, cli, workdir: Path):
        self.workload = workload
        self.cli = cli
        self.invs = invocations(workload, seed, smoke)
        self.ref = reference_for(workload)
        self.out_path = workdir / "out"
        self.outcome = Outcome()

    def one_pass(self, probe: SpeedProbe | None = None) -> dict:
        """Wall and CPU time of the ``cli.main`` calls of one pass, without
        the probe's chunks, and the probe's speed factor over the pass."""
        wall = parent_cpu = child_cpu = 0.0
        evals0 = self.outcome.evaluations
        for inv in self.invs:
            with contextlib.suppress(FileNotFoundError):
                self.out_path.unlink()
            argv = inv.argv + ["--out", str(self.out_path)]
            pooled = "--jobs" in argv
            arm = probe.armed() if probe and not pooled else contextlib.nullcontext()
            p0, pc0 = (probe.seconds, probe.cpu_s) if probe else (0.0, 0.0)
            c0, k0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            with arm, contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
            t1 = time.perf_counter()
            c1, k1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            p1, pc1 = (probe.seconds, probe.cpu_s) if probe else (0.0, 0.0)
            wall += t1 - t0 - (p1 - p0)
            parent_cpu += c1 - c0 - (pc1 - pc0)
            child_cpu += k1 - k0
            if probe and pooled:
                probe.sample(PROBE_CHUNK_S / PROBE_INTERVAL_S * (t1 - t0))
            check = check_scan if inv.steps else check_run
            check(inv, rc, self.out_path, self.ref, self.outcome)
        if probe and not probe.rounds:  # a pass shorter than one interval
            probe.sample(PROBE_CHUNK_S)
        if self.workload == "pool":
            # A pool pass whose workers used no CPU fell back to the serial path.
            if child_cpu > 0.0:
                self.outcome.attempted += 1
            else:
                self.outcome.fail("pool: no CPU time in worker processes")
        return {
            "scale": probe.factor() if probe else None,
            "cpu_scale": probe.cpu_factor() if probe else None,
            "pass_s": wall,
            "parent_cpu_s": parent_cpu,
            "child_cpu_s": child_cpu,
            "evaluations": self.outcome.evaluations - evals0,
        }


def versions() -> dict:
    import importlib.metadata

    import numpy

    return {"numpy": numpy.__version__, "jsonschema": importlib.metadata.version("jsonschema")}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _time_left(t0: float, seconds: float, step: float) -> bool:
    """Whether a step of the given length, started now, ends before half of
    it is past ``seconds``: runs end at ``seconds`` on average."""
    return time.perf_counter() - t0 + 0.5 * step < seconds


def measure(runner: Runner, seconds: float) -> list[dict]:
    """Untraced passes for about ``seconds``, at least one."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(runner.one_pass(SpeedProbe()))
        if not _time_left(t0, seconds, statistics.median(p["pass_s"] for p in passes)):
            return passes


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[list, list, list]:
    """Alternating untraced and traced passes for about ``seconds``, each
    traced pass aggregated on its own; returns (untraced passes, traced
    passes, per-pass stats).  The probe stays out of traced passes, whose
    spans it would lengthen; a traced pass takes the speed factor of the
    untraced pass before it."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, stats = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(runner.one_pass(SpeedProbe()))
        mark = tracer.mark()
        tracer.install()
        try:
            traced.append(runner.one_pass())
        finally:
            tracer.uninstall()
        traced[-1]["scale"] = plain[-1]["scale"]
        stats.append(tracer.stats(mark))
        pair = statistics.median(p["pass_s"] for p in plain) + statistics.median(
            p["pass_s"] for p in traced
        )
        if not _time_left(t0, seconds, pair):
            break
    tracer.write_spans(str(spans_path))
    return plain, traced, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s, cli = setup(args.workload, args.seed, args.smoke)
    setup_scale = SpeedProbe().sample(SETUP_PROBE_S).factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    runner = Runner(args.workload, args.seed, args.smoke, cli, workdir)
    try:
        result = {"setup_s": setup_s, "setup_scale": setup_scale}
        if args.trace:
            spans = RUN_DIR / f"spans-{args.workload}.tsv"
            plain, traced, stats = measure_traced(runner, args.seconds, spans)
            result.update(plain=plain, traced=traced, stats=stats)
        else:
            result["passes"] = measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    o = runner.outcome
    result.update(
        attempted=o.attempted,
        failed=o.failed,
        problems=o.problems,
        margin_digits=o.margin,
        peak_rss_mb=peak_rss_mb(),
        versions=versions(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
