"""Command-line harness: solve, convergence, compare, adapt, cost, mesh-dump."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .assembly import StabilizationConfig
from .bench import (
    ADAPT_COLUMNS,
    CONV_COLUMNS,
    COST_COLUMNS,
    make_benchmark,
    run_adapt,
    run_compare,
    run_convergence,
    run_cost,
    rows_to_csv,
)
from .mesh import build_structured_macro_mesh, export_text, export_vtk
from .schur_solver import (
    SingularCoarseOperator,
    SingularFaceBlock,
    SingularLocalBlock,
    SolverConfig,
    solve,
)


class CliParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for
    # non-convergence and uses 1 for input errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_common(sp):
    sp.add_argument("--config", help="key=value config file; flags override it")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--kappa", type=float, default=0.4)
    sp.add_argument("--advect", default="1,1", help="advection velocity 'ax,ay'")
    sp.add_argument("--case", default="tanh",
                    help="benchmark name: tanh | poly1 | poly2 | poly3")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--mode", choices=("mf", "mb"), default="mf")
    sp.add_argument("--supg", choices=("on", "off", "paper-plus"), default="off")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", help="output path (default: stdout)")


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _apply_config(parser, args, argv):
    """Each `key = value` line of the config file is parsed by the command's
    parser as the flag `--key=value`, so a value that the flag refuses exits
    1 naming the flag, as does a key that names no flag of the command; then
    the command-line flags are parsed again on top."""
    if not getattr(args, "config", None):
        return args
    sub = parser.commands[args.command]
    values = _load_config(args.config)
    flags = vars(sub.parse_args([]))
    unknown = [key for key in values if key not in flags]
    if unknown:
        sub.error(f"unknown config key {unknown[0]!r}")
    sub.parse_args([f"--{key.replace('_', '-')}={raw}" for key, raw in values.items()],
                   namespace=args)
    sub.parse_args(argv[argv.index(args.command) + 1:], namespace=args)
    return args


def _stab(args) -> StabilizationConfig:
    if args.supg == "off":
        return StabilizationConfig(supg=False)
    variant = "paper-plus" if args.supg == "paper-plus" else "classical-minus"
    return StabilizationConfig(supg=True, supg_variant=variant)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, mode=args.mode, workers=args.workers)


def _case(args):
    a = np.array([float(v) for v in args.advect.split(",")])
    if a.size != 2:
        raise ValueError("--advect expects 'ax,ay'")
    return make_benchmark(args.case, args.kappa, a)


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(raw: str) -> list:
    return [int(v) for v in raw.split(",") if v.strip()]


def build_parser() -> CliParser:
    parser = CliParser(prog="mehdg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="single solve; prints a JSON stats record")
    _add_common(sp)

    sp = subs.add_parser("convergence", help="uniform-refinement study (CSV)")
    _add_common(sp)
    sp.add_argument("--p-list", default=None, help="e.g. '1,2,3' (default: --p)")
    sp.add_argument("--n-list", default="2,4,8,16")

    sp = subs.add_parser("compare", help="matrix-based vs matrix-free (CSV)")
    _add_common(sp)
    sp.add_argument("--tols", default="1e-2,1e-6")

    sp = subs.add_parser("adapt", help="adaptive refinement study (CSV)")
    _add_common(sp)
    sp.add_argument("--levels", type=int, default=5)
    sp.add_argument("--theta", type=float, default=0.5)

    sp = subs.add_parser("cost", help="cost-model sweep at fixed n*m (CSV)")
    _add_common(sp)
    sp.add_argument("--nm", type=int, default=8)
    sp.add_argument("--arith", choices=("dense", "sparse"), default="dense")

    sp = subs.add_parser("mesh-dump", help="plain-text mesh export")
    _add_common(sp)
    sp.add_argument("--vtk", help="also write a legacy-VTK file to this path")
    parser.commands = subs.choices  # command name -> its parser
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(parser, args, argv)
        if args.dim != 2 and args.command != "cost":
            raise ValueError("only --dim 2 is solvable; d=3 is supported by cost only")

        if args.command == "solve":
            case = _case(args)
            mesh = build_structured_macro_mesh(2, args.n, args.m)
            solution, _ = solve(mesh, case.problem(), _stab(args),
                                _solver_config(args), args.p)
            _emit(json.dumps(solution.report.to_record(), indent=2) + "\n", args.out)
            return 0 if solution.report.converged else 2

        if args.command == "convergence":
            case = _case(args)
            p_list = _parse_int_list(args.p_list) if args.p_list else [args.p]
            rows = run_convergence(
                case, p_list, args.m, _parse_int_list(args.n_list),
                config=_solver_config(args), stab=_stab(args),
            )
            _emit(rows_to_csv(rows, CONV_COLUMNS), args.out)
            return 0

        if args.command == "compare":
            case = _case(args)
            tols = [float(v) for v in args.tols.split(",") if v.strip()]
            rows = run_compare(
                case, args.p, args.n, args.m, tolerances=tols,
                config=_solver_config(args), stab=_stab(args),
            )
            cols = ["p", "m", "n", "tol", "mode", "iterations", "converged", "t_solve_s"]
            _emit(rows_to_csv(rows, cols), args.out)
            return 0

        if args.command == "adapt":
            case = _case(args)
            rows = run_adapt(
                case, args.p, args.m, args.n, args.levels, args.theta,
                config=_solver_config(args), stab=_stab(args),
            )
            _emit(rows_to_csv(rows, ADAPT_COLUMNS), args.out)
            return 0

        if args.command == "cost":
            rows = run_cost(args.dim, args.nm, args.p, args.arith)
            _emit(rows_to_csv(rows, COST_COLUMNS), args.out)
            return 0

        if args.command == "mesh-dump":
            mesh = build_structured_macro_mesh(2, args.n, args.m)
            if args.vtk:
                export_vtk(mesh, args.vtk)
            _emit(export_text(mesh), args.out)
            return 0

        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, SingularLocalBlock, SingularFaceBlock,
            SingularCoarseOperator) as exc:
        print(f"mehdg: error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # e.g. overflow in a benchmark's closed form
        print(f"mehdg: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
