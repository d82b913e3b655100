"""Command-line interface.

Exit codes: 0 success (and feasible where that applies), 1 usage or I/O
error (single-line diagnostic on stderr), 2 infeasible result.  Output
files are written atomically (temp file + rename) so a failing run never
leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .exact import solve_exact
from .geometry import DEFAULT_TOL, Instance, orientation_set
from .heuristic import solve_heuristic
from .instance_io import (
    bundled_instance_names,
    load_bundled,
    load_instance_arg,
    parse_packing,
    write_packing,
)
from .lp_format import emit_lp, emit_mps
from .metrics import RunReport, gap_vs_bound
from .model import build_model
from .solvers import SolverConfig
from .svg_render import VIEWS, render_svg
from .validate import validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit-1 diagnostics."""

    def error(self, message: str):
        raise _CliError(message)


def _atomic_write(path: str, write) -> None:
    """Call ``write`` on an open text file that replaces ``path`` only once
    ``write`` returns; if it raises, ``path`` is untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Counted:
    """A text stream that passes writes on to ``fh``; ``len()`` is the
    number of characters written, as it would be of the text itself."""

    def __init__(self, fh) -> None:
        self.fh, self.chars = fh, 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return self.fh.write(text)

    def __len__(self) -> int:
        return self.chars


def _add_instance_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--instance", required=True,
                     help="instance file path or bundled:<1..15>")


def _add_solver_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--time-limit", type=float, default=60.0,
                     help="seconds (iteration budget under --deterministic)")
    sub.add_argument("--support-threshold", type=float, default=None,
                     help="minimum supported footprint fraction in [0,1]")
    sub.add_argument("--orientations", type=int, choices=(2, 6), default=6)
    sub.add_argument("--deterministic", action="store_true",
                     help="replace wall-clock limits with a fixed step budget")
    sub.add_argument("--restarts", type=int, default=4)


def build_parser() -> _Parser:
    parser = _Parser(prog="binpack3d",
                     description="3D case packing: solve, export, validate, report, render")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="pack an instance")
    _add_instance_arg(solve)
    _add_solver_args(solve)
    solve.add_argument("--solver", choices=("heuristic", "exact"), default="heuristic")
    solve.add_argument("--out", help="packing document path")
    solve.add_argument("--trace", help="improvement trace path (seconds objective)")

    export = commands.add_parser("export", help="emit the model as LP or MPS text")
    _add_instance_arg(export)
    export.add_argument("--out", required=True)
    export.add_argument("--format", choices=("lp", "mps"), default=None,
                        help="defaults to the --out extension")
    export.add_argument("--mode", choices=("linearized", "quadratic"),
                        default="linearized")
    export.add_argument("--support-threshold", type=float, default=None)
    export.add_argument("--big-m", choices=("paper", "tight"), default="paper")
    export.add_argument("--mccormick-pieces", type=int, default=4)
    export.add_argument("--orientations", type=int, choices=(2, 6), default=6)

    check = commands.add_parser("validate", help="judge a packing document")
    _add_instance_arg(check)
    check.add_argument("--packing", required=True)
    check.add_argument("--support-threshold", type=float, default=None)
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    check.add_argument("--out", help="write the audit report here instead of stdout")

    report = commands.add_parser("report", help="metrics for a packing document")
    _add_instance_arg(report)
    report.add_argument("--packing", required=True)
    report.add_argument("--bound", type=float, default=None,
                        help="external best bound for the relative gap")
    report.add_argument("--time-limit", type=float, default=0.0)
    report.add_argument("--out")

    render = commands.add_parser("render", help="draw a packing as SVG")
    _add_instance_arg(render)
    render.add_argument("--packing", required=True)
    render.add_argument("--view", choices=VIEWS, default="top")
    render.add_argument("--out", required=True)

    commands.add_parser("instances", help="list the bundled benchmark instances")
    return parser


def _load_packing_file(path: str, inst: Instance):
    with open(path, "rb") as fh:
        return parse_packing(fh.read(), inst)


def _cmd_solve(args) -> int:
    inst = load_instance_arg(args.instance)
    cfg = SolverConfig(
        time_limit=args.time_limit, seed=args.seed,
        support_threshold=args.support_threshold,
        restarts=args.restarts, orientations=args.orientations,
        deterministic=args.deterministic)
    if args.solver == "exact":
        result = solve_exact(inst, cfg)
        trace = []
        solver_id = "exact"
    else:
        result = solve_heuristic(inst, cfg)
        trace = result.trace
        solver_id = "heuristic"

    if result.packing is None:
        report = RunReport(inst.name, solver_id, args.time_limit, feasible=False)
        sys.stdout.write(report.to_json())
        return EXIT_INFEASIBLE

    audit = validate(inst, result.packing, support=cfg.support_threshold)
    report = RunReport(inst.name, solver_id, args.time_limit,
                       feasible=audit.feasible, objective=result.objective,
                       utilization=audit.utilization)
    if args.out:
        _atomic_write(args.out, lambda fh: fh.write(write_packing(inst, result.packing)))
    if args.trace:
        _atomic_write(args.trace, lambda fh: fh.writelines(
            f"{t:.2f} {obj!r}\n" for t, obj in trace))
    sys.stdout.write(report.to_json())
    return EXIT_OK if audit.feasible else EXIT_INFEASIBLE


def _cmd_export(args) -> int:
    inst = load_instance_arg(args.instance)
    fmt = args.format
    if fmt is None:
        ext = os.path.splitext(args.out)[1].lower().lstrip(".")
        if ext not in ("lp", "mps"):
            raise _CliError(f"cannot infer format from {args.out!r}; pass --format")
        fmt = ext
    allowed = orientation_set(args.orientations)
    threshold = (args.support_threshold if args.support_threshold is not None
                 else inst.support_threshold)
    model = build_model(
        inst, support=threshold, mode=args.mode, big_m=args.big_m,
        mccormick_pieces=args.mccormick_pieces, allowed_orientations=allowed)
    # emit_* returns the stream it was given; _Counted gives that stream the
    # len() the returned text had, which perfbench's traced run records
    emit = emit_lp if fmt == "lp" else emit_mps
    _atomic_write(args.out, lambda fh: emit(model, _Counted(fh)))
    sys.stdout.write(json.dumps({
        "instance": inst.name, "format": fmt, "mode": args.mode,
        "variables": model.num_variables, "constraints": model.num_constraints,
        "out": args.out}, indent=2) + "\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    inst = load_instance_arg(args.instance)
    pack = _load_packing_file(args.packing, inst)
    audit = validate(inst, pack, tol=args.tol, support=args.support_threshold)
    text = json.dumps(audit.to_dict(), indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)
    return EXIT_OK if audit.feasible else EXIT_INFEASIBLE


def _cmd_report(args) -> int:
    if not (math.isfinite(args.time_limit) and args.time_limit >= 0):
        raise _CliError("--time-limit must be a finite number >= 0")
    if args.bound is not None and not math.isfinite(args.bound):
        raise _CliError("--bound must be a finite number")
    inst = load_instance_arg(args.instance)
    pack = _load_packing_file(args.packing, inst)
    audit = validate(inst, pack)
    gap = None
    if args.bound is not None:
        gap = gap_vs_bound(audit.objective, args.bound)
    report = RunReport(inst.name, "imported", args.time_limit,
                       feasible=audit.feasible, objective=audit.objective,
                       utilization=audit.utilization, relative_gap=gap)
    text = report.to_json()
    if args.out:
        _atomic_write(args.out, lambda fh: fh.write(text))
    else:
        sys.stdout.write(text)
    return EXIT_OK if audit.feasible else EXIT_INFEASIBLE


def _cmd_render(args) -> int:
    inst = load_instance_arg(args.instance)
    pack = _load_packing_file(args.packing, inst)
    _atomic_write(args.out, lambda fh: fh.write(render_svg(inst, pack, view=args.view)))
    return EXIT_OK


def _cmd_instances(_args) -> int:
    rows = []
    for number, name in enumerate(bundled_instance_names(), start=1):
        inst = load_bundled(number)
        bn = inst.bins[0]
        rows.append({
            "ref": f"bundled:{number}", "name": name,
            "cases": inst.num_cases, "bins": inst.num_bins,
            "bin_dims": [bn.length, bn.width, bn.height]})
    sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


_DISPATCH = {
    "solve": _cmd_solve,
    "export": _cmd_export,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "render": _cmd_render,
    "instances": _cmd_instances,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except _CliError as e:
        print(f"binpack3d: error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, ArithmeticError) as e:
        print(f"binpack3d: error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
