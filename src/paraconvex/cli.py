"""Command-line entry points.

Three subcommands: `solve` minimizes a stored model over the symmetric
unit box for one condition, `check` runs the property suites and exits
nonzero on any failure, `benchmark` drives the experiment harness and
writes its report files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    ExperimentConfig,
    _parse_list,
    export_artifacts,
    load_experiment_config,
    parse_dims,
    parse_kinds,
    run_benchmark,
)
from .exceptions import ConfigError
from .networks import load_model
from .numerics import BoxDomain
from .solver import SolveOptions, minimize
from .verification import SUITES, run_check_suite


def _parse_vector(text: str) -> np.ndarray:
    try:
        vals = _parse_list(text, float)
    except ValueError:
        raise ConfigError(f"bad vector {text!r}, expected comma-separated floats")
    if not vals:
        raise ConfigError("empty condition vector")
    return np.asarray(vals, dtype=np.float64)


def _cmd_solve(args) -> int:
    net = load_model(args.model)
    x = _parse_vector(args.x)
    opts = SolveOptions(
        max_iters=args.max_iters,
        grad_tolerance=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = minimize(net, x, BoxDomain.symmetric(net.m), opts)
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    reports = run_check_suite(args.suite, seed=args.seed)
    print(json.dumps([r.to_json() for r in reports], sort_keys=True, indent=1))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_benchmark(args) -> int:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.full:
        overrides["full"] = True
    if args.kinds is not None:
        overrides["kinds"] = parse_kinds(args.kinds)
    if args.dims is not None:
        overrides["dims"] = parse_dims(args.dims)
    if args.out is not None:
        overrides["outdir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    report = run_benchmark(cfg)
    export_artifacts(report, cfg, cfg.outdir)
    print(json.dumps({"outdir": cfg.outdir, "cells": len(report.cells)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraconvex",
        description="Parameterized-convex approximators: solve, check, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize a stored model for one condition")
    p_solve.add_argument("--model", required=True, help="model JSON path")
    p_solve.add_argument("--x", required=True, help="condition, comma-separated")
    p_solve.add_argument("--tol", type=float, default=SolveOptions.grad_tolerance)
    p_solve.add_argument("--max-iters", type=int, default=SolveOptions.max_iters)
    p_solve.add_argument("--restarts", type=int, default=SolveOptions.restarts)
    p_solve.add_argument("--seed", type=int, default=SolveOptions.seed)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="run property check suites")
    p_check.add_argument("--suite", choices=SUITES, default="all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_bench = sub.add_parser("benchmark", help="train, solve, and report")
    p_bench.add_argument("--config", default=None, help="key=value config file")
    p_bench.add_argument("--full", action="store_true",
                         help="full budget for high-dimensional cells")
    p_bench.add_argument("--kinds", default=None, help="e.g. plse,pma")
    p_bench.add_argument("--dims", default=None, help="e.g. 1x1,61x20")
    p_bench.add_argument("--out", default=None, help="output directory")
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def _attach_condition(argv: list) -> list:
    """`--x -0.1,0.08` as `--x=-0.1,0.08`: argparse takes a value that
    starts with '-' and is not a plain number for an option string."""
    out = []
    for arg in argv:
        if out and out[-1] == "--x" and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = f"--x={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_condition(argv))
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
