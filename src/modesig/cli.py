"""Command-line entry points: test, persist, bandwidth, simulate.

Each command reads points from a CSV file (or draws them from a named
generator spec), runs the corresponding pipeline, and writes report.json
plus SVG figures into the output directory.  All randomness is governed
by --seed, and a fixed seed reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bandwidth import default_grid, scan
from .datasets import FAMILIES, GeneratorSpec, generate
from .kde import as_points
from .modetest import ModeTestConfig, run_mode_test
from .persist import run_persistence, significant_pairs
from .report import emit_report

__all__ = ["main", "load_csv"]


def load_csv(path: str, has_header: bool = False) -> np.ndarray:
    """Read an (n, d) point matrix from a headerless CSV file.

    Errors carry 1-based file row numbers: ragged rows, non-numeric
    cells, and empty files are all rejected explicitly.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    start = 1 if has_header else 0
    rows = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"ragged row {lineno}: expected {width} columns, got {len(cells)}")
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValueError(f"non-numeric value at row {lineno}, column {col}: {cell.strip()!r}") from None
        rows.append(parsed)
    if not rows:
        raise ValueError(f"empty file: {path}")
    return as_points(np.asarray(rows))


def _load_spec(family: str, spec_path: str) -> GeneratorSpec:
    with open(spec_path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("generator spec must be a JSON object")
    return GeneratorSpec.from_dict(family, payload)


def _resolve_points(args) -> tuple[np.ndarray, dict]:
    """Apply the exactly-one-source rule and return (points, config-echo)."""
    has_input = args.input is not None
    has_gen = args.family is not None or args.spec is not None
    if has_input == has_gen:
        raise ValueError("provide exactly one data source: --input, or --family with --spec")
    if has_input:
        return load_csv(args.input, args.header), {"input": args.input}
    if args.family is None or args.spec is None:
        raise ValueError("--family and --spec must be given together")
    gen = _load_spec(args.family, args.spec)
    echo = {"family": gen.family, "n": gen.n, "generator_seed": gen.seed}
    return generate(gen), echo


def _add_source_args(sub):
    sub.add_argument("--input", help="CSV file of points, one row per observation")
    sub.add_argument("--header", action="store_true", help="skip the first CSV row")
    sub.add_argument("--family", choices=FAMILIES, help="generator family (with --spec)")
    sub.add_argument("--spec", help="JSON file of generator parameters incl. n")


def _add_common_args(sub, with_h: bool = True):
    if with_h:
        sub.add_argument("--h", type=float, required=True, help="bandwidth")
    sub.add_argument("--alpha", type=float, default=0.10)
    sub.add_argument("--B", type=int, default=500, help="bootstrap replicates")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default="results", help="output directory")
    sub.add_argument("--no-plots", action="store_true", help="write report.json only")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modesig",
        description="Find density modes and test their significance.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_test = subs.add_parser("test", help="two-stage local mode significance test")
    _add_source_args(p_test)
    _add_common_args(p_test)

    p_persist = subs.add_parser("persist", help="superlevel-set persistence diagram with bootstrap band")
    _add_source_args(p_persist)
    _add_common_args(p_persist)
    p_persist.add_argument("--grid-res", type=int, default=None, help="grid points per axis")

    p_bw = subs.add_parser("bandwidth", help="scan bandwidths, maximizing significant modes")
    _add_source_args(p_bw)
    _add_common_args(p_bw, with_h=False)
    p_bw.add_argument("--grid-min", type=float, default=None)
    p_bw.add_argument("--grid-max", type=float, default=None)
    p_bw.add_argument("--grid-count", type=int, default=30)

    p_sim = subs.add_parser("simulate", help="draw a synthetic dataset to CSV")
    p_sim.add_argument("--family", choices=FAMILIES, required=True)
    p_sim.add_argument("--spec", required=True, help="JSON file of generator parameters incl. n")
    p_sim.add_argument("--out", default=None, help="CSV path (default: stdout)")

    return parser


def _cmd_test(args) -> int:
    points, source = _resolve_points(args)
    cfg = ModeTestConfig(h=args.h, alpha=args.alpha, B=args.B,
                         split_seed=args.seed, boot_seed=args.seed)
    report = run_mode_test(points, cfg)
    config = {
        "command": "test", **source,
        "h": args.h, "alpha": args.alpha, "B": args.B, "seed": args.seed,
        "emit_plots": not args.no_plots,
    }
    emit_report(args.out, config=config, report=report, emit_plots=not args.no_plots)
    print(f"{report.k} candidate(s), {report.significant_count} significant -> {args.out}/report.json")
    return 0


def _cmd_persist(args) -> int:
    points, source = _resolve_points(args)
    diagram = run_persistence(points, args.h, args.alpha, args.B, args.seed, args.grid_res)
    retained = significant_pairs(diagram).shape[0]
    config = {
        "command": "persist", **source,
        "h": args.h, "alpha": args.alpha, "B": args.B, "seed": args.seed,
        "grid_res": args.grid_res, "emit_plots": not args.no_plots,
    }
    emit_report(args.out, config=config, diagram=diagram, emit_plots=not args.no_plots)
    print(f"{diagram.pairs.shape[0]} pair(s), {retained} above the band -> {args.out}/report.json")
    return 0


def _cmd_bandwidth(args) -> int:
    points, source = _resolve_points(args)
    if args.grid_min is not None and args.grid_max is not None:
        grid = np.geomspace(args.grid_min, args.grid_max, args.grid_count)
    elif args.grid_min is None and args.grid_max is None:
        grid = default_grid(points, count=args.grid_count)
    else:
        raise ValueError("--grid-min and --grid-max must be given together")
    cfg = ModeTestConfig(h=float(grid[0]), alpha=args.alpha, B=args.B,
                         split_seed=args.seed, boot_seed=args.seed)
    result = scan(points, grid, cfg)
    best = result.reports[int(np.flatnonzero(result.grid == result.h_hat)[0])]
    config = {
        "command": "bandwidth", **source,
        "alpha": args.alpha, "B": args.B, "seed": args.seed,
        "grid_min": float(result.grid[0]), "grid_max": float(result.grid[-1]),
        "grid_count": int(result.grid.size),
        "emit_plots": not args.no_plots,
    }
    emit_report(args.out, config=config, report=best, scan=result, emit_plots=not args.no_plots)
    print(f"h_hat = {result.h_hat:.6g} with N = {result.m} -> {args.out}/report.json")
    return 0


def _cmd_simulate(args) -> int:
    gen = _load_spec(args.family, args.spec)
    points = generate(gen)
    lines = [",".join(format(v, ".17g") for v in row) for row in points]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        print(f"{points.shape[0]} x {points.shape[1]} sample -> {args.out}")
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "persist": _cmd_persist,
    "bandwidth": _cmd_bandwidth,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
