"""prodsub benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  Workloads (see README.md beside
this file): sweep, structure, pointwise, pool.  Each workload runs in its
own process (``workload.py``), with OpenBLAS/OpenMP pinned to one thread
before numpy loads.  With ``--trace 0`` the last stdout line is the JSON
result holding every end-to-end metric of BENCHMARK.json; with ``--trace 1``
it holds every per-layer metric.  The line before it records the
environment.  Exits non-zero without a result when the checkout has no
``src/prodsub`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "structure", "pointwise", "pool")

# Fresh processes that only set up, on top of the measuring one: set-up time
# is the median of 1 + SETUP_REPEATS samples.
SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 60
# Slack past --seconds for the measuring process: set-up plus the last pass.
RUN_TIMEOUT_SLACK_S = 100

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def run_child(args: list, timeout: float) -> dict:
    """Run ``workload.py`` and return its result.  It stays in this process
    group, so whoever stops this process group stops the workload and its
    pool workers too; on a timeout ``subprocess.run`` kills it and waits."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workload.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **versions,
        "threads": PINNED_THREADS,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(main: dict, setups: list) -> dict:
    """Times in reference-host seconds: each raw time times the calibration
    factor measured over the same pass (see ``workload.SpeedProbe``)."""
    passes = main["passes"]
    return {
        "setup_s": median(s["setup_s"] * s["setup_scale"] for s in setups),
        "pass_s": median(p["pass_s"] * p["scale"] for p in passes),
        "evals_per_s": median(p["evaluations"] / (p["pass_s"] * p["scale"]) for p in passes),
        "cpu_s": median((p["parent_cpu_s"] + p["child_cpu_s"]) * p["cpu_scale"] for p in passes),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": 1.0 - main["failed"] / main["attempted"],
        "margin_digits": main["margin_digits"],
    }


def raw_times(main: dict, setups: list) -> dict:
    """The uncalibrated medians, for the record line."""
    passes = main["passes"]
    return {
        "setup_s": median(s["setup_s"] for s in setups),
        "pass_s": median(p["pass_s"] for p in passes),
        "cpu_s": median(p["parent_cpu_s"] + p["child_cpu_s"] for p in passes),
        "scale": median(p["scale"] for p in passes),
        "cpu_scale": median(p["cpu_scale"] for p in passes),
    }


def per_layer(main: dict) -> dict:
    """Medians over the traced passes; times in reference-host seconds."""
    out = {}
    for key, first in main["stats"][0].items():
        if key.endswith("_s"):
            out[key] = median(s[key] * p["scale"] for s, p in zip(main["stats"], main["traced"]))
        elif isinstance(first, int):  # a count: the same in every pass
            out[key] = median_low(s[key] for s in main["stats"])
        else:
            out[key] = median(s[key] for s in main["stats"])
    plain = main["plain"]
    out["scene.pool.child_cpu_s"] = median(p["child_cpu_s"] * p["cpu_scale"] for p in plain)
    out["scene.pool.parent_cpu_s"] = median(p["parent_cpu_s"] * p["cpu_scale"] for p in plain)
    traced_s = median(p["pass_s"] * p["scale"] for p in main["traced"])
    out["trace.overhead_frac"] = traced_s / median(p["pass_s"] * p["scale"] for p in plain) - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="prodsub benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "prodsub" / "__init__.py").is_file():
        print(f"no prodsub sources under {SRC}", file=sys.stderr)
        return 2

    spec = load_spec()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                setups.append(run_child(common + ["--seconds", "0", "--setup-only"], SETUP_TIMEOUT_S))
        main_run = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + RUN_TIMEOUT_SLACK_S,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"workload process failed: {exc}", file=sys.stderr)
        return 1
    for problem in main_run["problems"]:
        print(f"output mismatch: {problem}", file=sys.stderr)

    record = {"env": environment(main_run["versions"])}
    if args.trace:
        values = per_layer(main_run)
        wanted = spec["per_layer"]
    else:
        setups.append(main_run)
        values = end_to_end(main_run, setups)
        record["raw"] = raw_times(main_run, setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": main_run["failed"] == 0,
                "attempted": main_run["attempted"],
                "failed": main_run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
