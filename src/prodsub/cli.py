"""Command-line entry points: run, scan, list-gallery.

Exit codes: 0 all checks PASS or DEGENERATE, 1 any FAIL, 2 scene error,
3 computation error (message carries the failing sample coordinates).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import EngineError, SceneError
from .gallery import GALLERY
from .scene import (
    format_scan_table,
    load_scene,
    run_scene,
    scan_parameter,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCENE = 2
EXIT_COMPUTE = 3


def _parse_tols(pairs) -> dict:
    """The NAME=VALUE pairs of --tol; ``run_scene`` checks the names and values."""
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise SceneError(f"--tol expects NAME=VALUE, got {p!r}")
        name, _, val = p.partition("=")
        out[name.strip()] = val
    return out


def _parse_grid(text: str) -> list:
    try:
        return [int(x) for x in text.lower().split("x")]
    except ValueError as exc:
        raise SceneError(f"--grid expects AxBxC, got {text!r}") from exc


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built on first use and kept: parsing
    leaves it as it was."""
    ap = argparse.ArgumentParser(
        prog="prodsub",
        description="Residual checks for submanifolds of S^n x R and H^n x R.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scene's checks and write a report")
    run.add_argument("--scene", required=True, help="scene JSON path")
    run.add_argument(
        "--check", action="append", default=None, help="check name (repeatable)"
    )
    run.add_argument("--samples", type=int, default=None, help="random sample count")
    run.add_argument("--grid", default=None, help="grid counts, e.g. 10x10x10")
    run.add_argument("--seed", type=int, default=None, help="sampling seed")
    run.add_argument(
        "--tol", action="append", default=None, metavar="NAME=VAL", help="tolerance override"
    )
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--csv", default=None, help="write per-sample residual CSV here")
    run.add_argument("--jobs", type=int, default=1, help="processes that compute samples, this one included")
    run.add_argument("--format", choices=["text", "json"], default="text")

    scan = sub.add_parser("scan", help="sweep a parameter and track one residual")
    scan.add_argument("--scene", required=True)
    scan.add_argument("--param", required=True, help="immersion parameter name")
    scan.add_argument("--from", dest="lo", type=float, required=True)
    scan.add_argument("--to", dest="hi", type=float, required=True)
    scan.add_argument("--steps", type=int, required=True)
    scan.add_argument("--residual", required=True, help="check name to track")
    scan.add_argument("--out", default=None, help="write plot data here")
    scan.add_argument("--jobs", type=int, default=1)

    lst = sub.add_parser("list-gallery", help="list gallery kinds and constraints")
    lst.add_argument("--format", choices=["text", "json"], default="text")
    return ap


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    sampling_override = {}
    if args.samples is not None:
        sampling_override.update({"mode": "random", "counts": args.samples})
    if args.grid is not None:
        sampling_override.update({"mode": "grid", "grid": _parse_grid(args.grid)})
    if args.seed is not None:
        sampling_override["seed"] = args.seed
    report = run_scene(
        scene,
        checks=args.check,
        tolerances=_parse_tols(args.tol),
        sampling_override=sampling_override or None,
        jobs=max(1, args.jobs),
        csv_path=args.csv,
    )
    text = json.dumps(report, indent=2) if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        print(f"scene: {args.scene}  chart: {report['chart']}  samples: {report['samples']}")
        for c in report["checks"]:
            line = (
                f"{c['verdict']:10s} {c['name']:22s} max={c['max_residual']:.3e} "
                f"mean={c['mean_residual']:.3e} tol={c['tolerance_used']:.1e}"
            )
            if c["notes"]:
                line += f"  [{c['notes']}]"
            print(line)
    return EXIT_OK if report["all_pass"] else EXIT_FAIL


def _cmd_scan(args) -> int:
    scene = load_scene(args.scene)
    scan = scan_parameter(
        scene,
        param=args.param,
        lo=args.lo,
        hi=args.hi,
        steps=args.steps,
        residual=args.residual,
        jobs=max(1, args.jobs),
    )
    table = format_scan_table(scan)
    print(table, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    return EXIT_OK


def _cmd_list_gallery(args) -> int:
    if args.format == "json":
        out = {
            kind: {"params": info["params"], "constraints": info["constraints"]}
            for kind, info in GALLERY.items()
        }
        print(json.dumps(out, indent=2))
        return EXIT_OK
    for kind, info in GALLERY.items():
        print(kind)
        for name, doc in info["params"].items():
            print(f"  {name}: {doc}")
        print(f"  constraints: {info['constraints']}")
    return EXIT_OK


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_list_gallery(args)
    except SceneError as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return EXIT_SCENE
    except EngineError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
