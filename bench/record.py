"""Record a BENCH file: the benchmark's end-to-end metrics before and after a change.

    python bench/record.py --pr N --base REV

Exports the committed files of ``REV`` and of ``HEAD`` with ``git
archive`` into a temporary directory, and runs each export's own,
unchanged ``perfbench/run.py --trace 0`` on every workload of its
BENCHMARK.json, for the ``run_seconds`` that file fixes, ``PAIRS`` times:
as pairs of one base and one change run that alternate which side runs
first, so that drift of the host load falls on both alike.  Writes
``BENCH_<N>.json`` at the repository root: per revision, workload and
metric the median and quartiles over the pairs, per workload and metric
the number of pairs in which the change reads better (by the direction
BENCHMARK.json gives), and the git SHAs, the machine and the numpy
version the runs reported.  Times are the benchmark's reference-host
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 11
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """The committed files of ``rev`` under ``dest``; returns its full SHA."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its environment line and its metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True)
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise RuntimeError(f"{checkout.name} {workload}: {result['failed']} of {result['attempted']} failed")
    return record["env"], {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number of the BENCH file")
    ap.add_argument("--base", required=True, help="the revision the change is measured against")
    args = ap.parse_args(argv)
    revs = {"base": args.base, "change": "HEAD"}

    work = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        shas = {side: export(revs[side], work / side) for side in SIDES}
        spec = json.loads((work / "change" / "BENCHMARK.json").read_text())
        seconds, workloads = spec["run_seconds"], [w["name"] for w in spec["workloads"]]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs = {side: {w: [] for w in workloads} for side in SIDES}
        env = {}
        for pair in range(PAIRS):
            for workload in workloads:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    env, metrics = run_once(work / side, workload, seconds, SEED)
                    runs[side][workload].append(metrics)
                    print(f"{pair + 1}/{PAIRS} {workload} {side}: pass_s {metrics['pass_s']:.4f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bench = {
        "pr": args.pr,
        "harness": {
            "command": "python3 perfbench/run.py --trace 0",
            "seconds": seconds,
            "seed": SEED,
            "pairs": PAIRS,
            "units": "reference-host seconds for times",
        },
        "machine": {
            "cpu_model": env.get("cpu_model"),
            "nproc": env.get("nproc", os.cpu_count()),
            "platform": platform.platform(),
            "python": env.get("python"),
        },
        "numpy": env.get("numpy"),
    }
    for side in SIDES:
        bench[side] = {
            "rev": revs[side],
            "git_sha": shas[side],
            "workloads": {
                w: {name: summary([r[name] for r in rs]) for name in rs[0]} for w, rs in runs[side].items()
            },
        }
    bench["change_better_pairs"] = {
        w: {
            name: sum(
                (c[name] < b[name]) if better[name] == "lower" else (c[name] > b[name])
                for b, c in zip(runs["base"][w], runs["change"][w])
            )
            for name in better
        }
        for w in workloads
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
