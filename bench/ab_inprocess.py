"""In-process A/B pairs of one benchmark workload: a base revision against a change.

    python bench/ab_inprocess.py --base REV [--change REV] --workload NAME --rounds K [--seed N]

Exports the committed files of both revisions (``--change`` defaults to
``HEAD``) with ``record.py``'s ``export`` and imports each export's
``src/prodsub`` under its own package name into this one process, with the
BLAS thread pools pinned to one thread before numpy loads.  The base is
exported to a directory ``a`` and imported as ``prodsub_a``, the change to
``b`` and ``prodsub_b``: names of equal length, so that neither side's paths
and module names are longer than the other's.  ``--base REV --change REV``
is an A/A run: both sides export one commit, so every difference it reports
is noise, and a claim the rule below would accept from it shows that the
harness, not the code, decides.  After one warm-up pass of each side, every
round runs one pass of each: ``cli.main`` on every invocation of the workload
that the side's own ``perfbench/workload.py`` lists (``invocations``), with
``--out`` in a temporary directory.  The side that runs first switches from
round to round, so that drift of the host's speed falls on both alike.
Prints each side's median pass time and CPU time (this process and its
children) with their quartiles, and in how many rounds the change took less.
For each it then applies the rule by which a benchmark claim is judged: the
change must take less in at least nine tenths of the pairs (ties count for
neither side), and the base's median must exceed the change's by more than
the base's interquartile range.  Times are raw seconds of this host, not the
benchmark's reference-host seconds; the pairs only compare the two sides.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

from record import export  # noqa: E402

SIDES = ("base", "change")
TAGS = {"base": "a", "change": "b"}  # each side's export directory, package and output name, of equal lengths


def _load(name: str, path: Path, package: bool = False):
    """The module (or package, from its ``__init__.py``) at ``path``, imported as ``name``."""
    init = path / "__init__.py" if package else path
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cpu() -> float:
    return sum(ru.ru_utime + ru.ru_stime for ru in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


class Side:
    """One exported revision: its ``cli`` and the invocations of the workload."""

    def __init__(self, tag: str, checkout: Path, workload: str, seed: int, out: Path):
        _load(f"prodsub_{tag}", checkout / "src" / "prodsub", package=True)
        self.cli = importlib.import_module(f"prodsub_{tag}.cli")
        work = _load(f"workload_{tag}", checkout / "perfbench" / "workload.py")
        self.argvs = [inv.argv + ["--out", str(out / f"{tag}.out")] for inv in work.invocations(workload, seed, False)]
        self.wall, self.cpu = [], []

    def one_pass(self) -> tuple[float, float]:
        c0, t0 = _cpu(), time.perf_counter()
        for argv in self.argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
            if rc not in (0, 1):
                raise RuntimeError(f"{' '.join(argv)}: exit code {rc}")
        return time.perf_counter() - t0, _cpu() - c0


def _summary(values: list) -> str:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return f"median {median(values):.5f} s  (q1 {q1:.5f}, q3 {q3:.5f})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision the change is measured against")
    ap.add_argument("--change", default="HEAD", help="the revision of the change (default HEAD)")
    ap.add_argument("--workload", required=True, help="sweep, structure, pointwise or pool")
    ap.add_argument("--rounds", type=int, default=20, help="pairs of passes (default 20)")
    ap.add_argument("--seed", type=int, default=11, help="the benchmark seed (default 11)")
    args = ap.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        sides, shas = {}, set()
        for side in SIDES:
            shas.add(export(getattr(args, side), work / TAGS[side]))
            sides[side] = Side(TAGS[side], work / TAGS[side], args.workload, args.seed, work)
        for s in sides.values():
            s.one_pass()  # warm-up
        for r in range(args.rounds):
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                wall, cpu = sides[side].one_pass()
                sides[side].wall.append(wall)
                sides[side].cpu.append(cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    base, change = sides["base"], sides["change"]
    kind = "A/A" if len(shas) == 1 else "A/B"
    print(f"{args.workload}: {args.rounds} in-process {kind} pairs, {args.base} against {args.change}")
    for metric in ("wall", "cpu"):
        for side in SIDES:
            print(f"  {metric:4} {side:6} {_summary(getattr(sides[side], metric))}")
        b, c = getattr(base, metric), getattr(change, metric)
        wins = sum(y < x for x, y in zip(b, c))
        ratio = median(c) / median(b) - 1.0
        print(f"  {metric:4} change took less in {wins} of {args.rounds} pairs, median {ratio:+.1%}")
        q1, _, q3 = quantiles(b, n=4, method="inclusive")
        most, gap = wins >= 0.9 * args.rounds, median(b) - median(c)
        print(
            f"  {metric:4} claim rule: at least 9/10 pairs {'yes' if most else 'no'}; median gap {gap:.5f} s"
            f" {'>' if gap > q3 - q1 else '<='} base IQR {q3 - q1:.5f} s; gain {'met' if most and gap > q3 - q1 else 'not met'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
