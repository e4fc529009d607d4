"""Self-test of the benchmark: smoke runs of every workload and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402
from workload import SWEEP_STEPS, invocations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    m = smoke(workload, 0)
    assert m["ok_frac"] == 1.0
    assert all(v > 0 for v in m.values()), m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    m = smoke(workload, 1)
    fd_calls = m["jets.fd_gradient.calls"]
    if workload == "sweep":
        steps = SWEEP_STEPS[1]
        assert m["scene.build_chart.calls"] == 3 * steps
        assert m["scene.validate_scene.calls"] == steps + 1
    elif workload == "pointwise":
        assert fd_calls == 0
    else:
        assert fd_calls > 0
    if workload == "pool":
        assert m["scene.pool.child_cpu_s"] > 0


def _run_cli(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _outputs(cli, tmp: Path, inv) -> tuple:
    out, csv = tmp / "out", tmp / "out.csv"
    argv = inv.argv + ["--out", str(out)]
    if not inv.steps:
        argv += ["--csv", str(csv)]
    rc = _run_cli(cli, argv)
    text = out.read_text(encoding="utf-8")
    if inv.steps:
        return rc, text, None
    report = json.loads(text)
    report.pop("wall_time_s")
    return rc, report, csv.read_bytes()


def test_traced_pass_matches_untraced(tmp_path):
    from prodsub import cli, extrinsic, scene

    tracer = Tracer()
    originals = (cli.main, scene.build_chart, dict(scene.CHECKS), extrinsic.analyze_point,
                 extrinsic.FieldCache.__dict__["geometry"])
    invs = invocations("structure", 3, smoke=True) + invocations("sweep", 3, smoke=True)
    for inv in invs:
        plain = _outputs(cli, tmp_path, inv)
        mark = tracer.mark()
        tracer.install()
        try:
            traced = _outputs(cli, tmp_path, inv)
        finally:
            tracer.uninstall()
        assert traced == plain, inv.scene
        assert tracer.stats(mark)["cli.main.calls"] == 1
    assert originals == (cli.main, scene.build_chart, dict(scene.CHECKS), extrinsic.analyze_point,
                         extrinsic.FieldCache.__dict__["geometry"])


def test_fails_without_program(tmp_path):
    """A directory with only the benchmark's own files gives no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
