#!/usr/bin/env python3
"""binpack3d benchmark: end-to-end and per-layer numbers from outside.

    python3 perfbench/run.py --workload {solve,solve-support,export,audit,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from this checkout's ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric by name with its unit, plus the run context.

Workloads (see BENCHMARK.json for why each was chosen):

* ``solve`` / ``solve-support``: one ``python -m binpack3d solve`` child per
  bundled instance, ``--deterministic`` at a 20 s nominal budget, without
  support and at support 0.8.  ``--seed`` is the heuristic seed.
* ``export``: three ``python -m binpack3d export`` children.
* ``audit``: in-process judging of seeded perturbations of reference
  packings (validate, packing round trip, SVG, model rows).  ``--seed``
  drives the perturbations.

Children run one at a time, on the one CPU the benchmark pins itself to.
With ``--trace 0`` a run times five fresh imports of the package and sets
up three times (reporting the medians), then starts whole passes over the
workload until ``--seconds`` have passed, and reports medians over passes.
Times are scaled to a reference machine speed (``common.SpeedClock``).
With ``--trace 1`` it makes one untraced pass and one traced pass, in which
every call into a package module is a span, and reports the per-layer
metrics listed in BENCHMARK.json (0 for a layer the workload does not use).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from common import (
    ROOT,
    SRC,
    SetupError,
    SpeedClock,
    Tracer,
    import_package,
    lower_bound,
    untraced_call,
)

WORKLOADS = ("solve", "solve-support", "export", "audit")

SUPPORT = 0.8
SOLVE_INSTANCES = {"solve": (1, 6, 8, 10, 15), "solve-support": (1, 2, 6, 8, 12, 15)}
TIME_LIMIT = 20
RESTARTS = 2
SOLVE_FLAGS = ("--deterministic", "--time-limit", str(TIME_LIMIT), "--restarts",
               str(RESTARTS), "--orientations", "6")

# (bundled number, mode, format, sha256 and size of the output at support 0.8).
# The hashes pin the byte-identical export contract: a change that alters
# the emitted text fails the benchmark's correctness check.
EXPORTS = (
    (15, "linearized", "mps",
     "661dad61fc4d95a71711eac140d1e34f15d03f0dfc12a125924f818801760e3d", 131743255),
    (10, "linearized", "lp",
     "2a909e0be62f64b8819f1bd26a1f575cf4a88fc3b517381c3e80404c2e4e7e4e", 21112838),
    (8, "quadratic", "lp",
     "88b0601bf4bdc1ab5a5695c363a004e5ef9e9c91f898cd77ad4144ed8473d630", 9290120),
)

AUDIT_INSTANCES = tuple(range(1, 16))
AUDIT_MODEL_INSTANCES = tuple(range(1, 8))
AUDIT_SUPPORTS = (None, SUPPORT)
VALIDATE_FAMILIES = ("orientation", "assignment", "overlap", "boundary",
                     "bin_gap", "support")

# Reference packings (audit inputs; export's gap) come from construction
# alone at this fixed heuristic seed, so they do not move with --seed.
REFERENCE_SEED = 7

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Calibration-loop seconds after each timed stretch: child operations take
# seconds, audit instances a fraction of one.
CHILD_PROBE_S = 0.2
AUDIT_PROBE_S = 0.1
CHILD_TIMEOUT_S = 150.0
OBJECTIVE_TOL = 1e-9


@dataclasses.dataclass
class Op:
    """One attempted operation and what its checks found."""

    name: str
    ok: bool
    wrong: bool = False       # an output failed a check (not just "no result")
    wall: float = 0.0
    ref_wall: float = 0.0     # wall at the reference machine speed
    rss_mb: float = 0.0
    gap: float | None = None
    facts: dict | None = None


@dataclasses.dataclass
class Pass:
    """One pass over a workload's operations."""

    ops: list[Op]
    wall: float          # summed wall time of the operations
    ref_wall: float      # the same at the reference machine speed


# --- child processes -----------------------------------------------------

@dataclasses.dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], workdir: str) -> Child:
    """Run one child to completion; its own peak RSS comes from wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def cli_argv() -> list[str]:
    return ["-m", "binpack3d"]


def traced_argv(spans_path: str) -> list[str]:
    return [os.path.join(ROOT, "perfbench", "traced_op.py"), spans_path]


# --- fixtures -------------------------------------------------------------

def reference_packing(bp, inst):
    """Construction-only heuristic packing at support 0.8, or without
    support where construction finds none at 0.8 (bench-11).  A 5 s nominal
    budget is enough for bench-08's rescue restarts at 0.8."""
    for support in (SUPPORT, None):
        cfg = bp.SolverConfig(time_limit=5, seed=REFERENCE_SEED, restarts=1,
                              deterministic=True, neighborhood={},
                              support_threshold=support)
        result = bp.solve_heuristic(inst, cfg)
        if result.packing is not None:
            return result.packing, support
    raise SetupError(f"{inst.name}: no reference packing")


def perturbations(bp, pack, rng: random.Random) -> list:
    """Shifted, lifted and re-oriented copies of a packing (1/8 of cases)."""
    placements = pack.placements
    m = len(placements)
    out = []
    for kind in ("shift", "lift", "turn"):
        moved = list(placements)
        for i in rng.sample(range(m), max(1, m // 8)):
            p = moved[i]
            if kind == "shift":
                p = dataclasses.replace(p, x=max(0.0, p.x + rng.uniform(-3.0, 3.0)),
                                        y=max(0.0, p.y + rng.uniform(-3.0, 3.0)))
            elif kind == "lift":
                p = dataclasses.replace(p, z=p.z + rng.uniform(0.5, 3.0))
            else:
                p = dataclasses.replace(p, orientation=rng.choice(
                    [k for k in bp.ORIENTATIONS if k != p.orientation]))
            moved[i] = p
        out.append((kind, bp.Packing(tuple(moved))))
    return out


@dataclasses.dataclass
class AuditCase:
    number: int
    text: str
    lb: float
    packings: list          # (label, packing); "base" first
    base_support: float | None
    models: dict            # support -> Model, bench-01..07 only


def setup(bp, workload: str, seed: int, lap=lambda: None) -> dict:
    """Everything a pass needs that is not itself measured.  ``lap`` is
    called between the slow steps, so each can be timed on its own."""
    fx: dict = {}
    if workload in SOLVE_INSTANCES:
        fx["instances"] = {n: bp.load_bundled(n) for n in SOLVE_INSTANCES[workload]}
        fx["lb"] = {n: lower_bound(inst) for n, inst in fx["instances"].items()}
    elif workload == "export":
        fx["instances"] = {n: bp.load_bundled(n) for n, *_ in EXPORTS}
        fx["gaps"] = []
        for inst in fx["instances"].values():
            pack, _ = reference_packing(bp, inst)
            obj = bp.objective_value(inst, pack)
            fx["gaps"].append((obj - lower_bound(inst)) / obj)
            lap()
    else:
        cases = []
        for n in AUDIT_INSTANCES:
            path = os.path.join(SRC, "binpack3d", "data", f"bench_{n:02d}.json")
            with open(path) as fh:
                text = fh.read()
            inst = bp.parse_instance(text)
            base, base_support = reference_packing(bp, inst)
            rng = random.Random(f"{seed}:{n}")
            packings = [("base", base)] + perturbations(bp, base, rng)
            models = {}
            if n in AUDIT_MODEL_INSTANCES:
                models = {s: bp.build_model(inst, support=s) for s in AUDIT_SUPPORTS}
            cases.append(AuditCase(n, text, lower_bound(inst), packings,
                                   base_support, models))
            lap()
        fx["cases"] = cases
    return fx


# --- correctness checks -----------------------------------------------------

class CheckFailed(Exception):
    """An output is wrong."""


class NoPacking(Exception):
    """The solver found no packing and said so: a failed operation whose
    output is still correct."""


# Gap reported when no operation of a pass produced a packing.  A failed
# operation otherwise counts in ``failed`` only: the gaps are over the
# instances that have an objective.
FAILED_GAP = 1.0


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def check_solve(bp, inst, lb: float, support, child: Child, out_path: str) -> float:
    """Gate for one solve; returns the gap to the volume bound."""
    report = json.loads(child.stdout) if child.stdout else {}
    if child.code == 2 and report.get("feasible") is False \
            and report.get("objective") is None:
        raise NoPacking("no packing within the budget")
    require(child.code == 0, f"exit {child.code}: {child.stderr.strip()[-200:]}")
    with open(out_path, "rb") as fh:
        pack = bp.parse_packing(fh.read(), inst)
    audit = bp.validate(inst, pack, support=support)
    require(audit.feasible and report["feasible"], "packing is infeasible")
    objective = bp.objective_value(inst, pack)
    require(abs(report["objective"] - objective) <= OBJECTIVE_TOL,
            f"report objective {report['objective']!r} != recomputed {objective!r}")
    require(objective >= lb - OBJECTIVE_TOL, f"objective {objective} below bound {lb}")
    return (objective - lb) / objective


def check_export(bp, inst, mode: str, sha: str, size: int, child: Child,
                 out_path: str) -> None:
    require(child.code == 0, f"exit {child.code}: {child.stderr.strip()[-200:]}")
    summary = json.loads(child.stdout)
    m, n = inst.num_cases, inst.num_bins
    sizes = tuple(spec.quantity for spec in inst.bin_specs)
    want_vars = bp.expected_variable_count(m, n, support=True, mode=mode)
    want_rows = bp.expected_constraint_count(m, n, sizes, support=True, mode=mode)
    require(summary["variables"] == want_vars,
            f"{summary['variables']} variables, expected {want_vars}")
    require(summary["constraints"] == want_rows,
            f"{summary['constraints']} rows, expected {want_rows}")
    digest = hashlib.sha256()
    with open(out_path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    require(os.path.getsize(out_path) == size and digest.hexdigest() == sha,
            "output differs from the reference bytes")


def checked(name: str, fn, *args) -> Op:
    """Run a check; any failure becomes a failed operation, not a crash."""
    try:
        return Op(name, True, gap=fn(*args))
    except NoPacking as e:
        print(f"FAILED {name}: {e}", file=sys.stderr)
        return Op(name, False)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as e:
        print(f"FAILED {name}: {type(e).__name__}: {e}", file=sys.stderr)
        return Op(name, False, wrong=True)


# --- passes ---------------------------------------------------------------

def solve_argv(workload: str, n: int, seed: int, out_path: str) -> list[str]:
    argv = ["solve", "--instance", f"bundled:{n}", *SOLVE_FLAGS, "--seed", str(seed)]
    if workload == "solve-support":
        argv += ["--support-threshold", str(SUPPORT)]
    return argv + ["--out", out_path]


def export_argv(n: int, mode: str, fmt: str, out_path: str) -> list[str]:
    return ["export", "--instance", f"bundled:{n}", "--support-threshold",
            str(SUPPORT), "--mode", mode, "--format", fmt, "--out", out_path]


def child_pass(bp, workload: str, fx: dict, seed: int, workdir: str,
               clock: SpeedClock, spans_dir: str | None = None) -> Pass:
    """One pass of CLI children, traced ones when ``spans_dir`` is set."""
    ops = []
    if workload == "export":
        jobs = [(f"export-{n}", n, export_argv(n, mode, fmt,
                                               os.path.join(workdir, f"model-{n}.{fmt}")),
                 (mode, sha, size)) for n, mode, fmt, sha, size in EXPORTS]
    else:
        jobs = [(f"solve-{n}", n, solve_argv(workload, n, seed,
                                             os.path.join(workdir, f"pack-{n}.json")),
                 None) for n in SOLVE_INSTANCES[workload]]
    for name, n, argv, extra in jobs:
        out_path = argv[-1]
        spans_path = os.path.join(spans_dir, f"{name}.json") if spans_dir else None
        prefix = traced_argv(spans_path) if spans_dir else cli_argv()
        child = run_child(prefix + argv, workdir)
        inst = fx["instances"][n]
        if workload == "export":
            mode, sha, size = extra
            op = checked(name, check_export, bp, inst, mode, sha, size, child, out_path)
        else:
            support = SUPPORT if workload == "solve-support" else None
            op = checked(name, check_solve, bp, inst, fx["lb"][n], support, child,
                         out_path)
        op.wall, op.rss_mb = child.wall, child.rss_mb
        op.ref_wall = clock.scale(op.wall)
        if spans_path and op.ok:
            with open(spans_path) as fh:
                op.facts = json.load(fh)
        if os.path.exists(out_path):
            os.remove(out_path)
        ops.append(op)
    return Pass(ops, sum(op.wall for op in ops), sum(op.ref_wall for op in ops))


def audit_pass(bp, fx: dict, call, clock: SpeedClock,
               counts: dict | None = None) -> Pass:
    """Judge every audit packing in-process; ``call`` wraps each package call."""
    ops = []
    wall = ref_wall = 0.0
    for case in fx["cases"]:
        start = time.perf_counter()
        judge_case(bp, case, call, counts, ops)
        case_wall = time.perf_counter() - start
        wall += case_wall
        ref_wall += clock.scale(case_wall)
    return Pass(ops, wall, ref_wall)


def judge_case(bp, case: AuditCase, call, counts: dict | None, ops: list[Op]) -> None:
    """Judge one instance's packings, appending one operation per packing."""
    inst = call("instance_io.parse_instance", bp.parse_instance, case.text)
    for label, pack in case.packings:
        name = f"audit-{case.number}-{label}"
        try:
            doc = call("instance_io.write_packing", bp.write_packing, inst, pack)
            back = call("instance_io.parse_packing", bp.parse_packing, doc, inst)
            require(back == pack, "packing changed in a write/parse round trip")
            verdicts = {s: call("validate.validate", bp.validate, inst, back,
                                support=s) for s in AUDIT_SUPPORTS}
            audit = verdicts[AUDIT_SUPPORTS[-1]]
            report = call("metrics.report", _report_json, bp, inst, audit, case.lb)
            require(json.loads(report)["objective"] == audit.objective,
                    "report objective differs from the validator's")
            for view in ("top", "layers"):
                svg = call("svg_render.render", bp.render_svg, inst, back, view=view)
                require(svg.startswith("<svg") and svg.endswith("</svg>\n")
                        and svg.count("<rect") >= inst.num_bins + 1,
                        f"malformed {view} SVG")
            disagreements = 0
            for s, model in case.models.items():
                values = call("model.to_assignment", bp.packing_to_assignment,
                              model, back)
                rows = call("model.check", bp.check_assignment, model, values)
                disagreements += (not rows) != verdicts[s].feasible
            gap = None
            if label == "base":
                require(verdicts[case.base_support].feasible,
                        "reference packing judged infeasible")
                gap = (audit.objective - case.lb) / audit.objective
            if counts is not None:
                counts["model.verdict_disagreements"] += disagreements
                for a in verdicts.values():
                    for v in a.violations:
                        counts[f"validate.violations.{v.family}"] += 1
            require(disagreements == 0, "model rows disagree with validate")
            ops.append(Op(name, True, gap=gap))
        except (CheckFailed, ValueError, KeyError, TypeError) as e:
            print(f"FAILED {name}: {type(e).__name__}: {e}", file=sys.stderr)
            ops.append(Op(name, False, wrong=True))


def _report_json(bp, inst, audit, lb: float) -> str:
    return bp.RunReport(inst.name, "imported", 0.0, feasible=audit.feasible,
                        objective=audit.objective, utilization=audit.utilization,
                        relative_gap=bp.gap_vs_bound(audit.objective, lb)).to_json()


def run_pass(bp, workload: str, fx: dict, seed: int, workdir: str,
             clock: SpeedClock) -> Pass:
    if workload == "audit":
        return audit_pass(bp, fx, untraced_call, clock)
    return child_pass(bp, workload, fx, seed, workdir, clock)


# --- metrics --------------------------------------------------------------

def gaps_of(workload: str, fx: dict, p: Pass) -> list[float]:
    if workload == "export":
        return fx["gaps"]
    return [op.gap for op in p.ops if op.gap is not None]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(workload: str, fx: dict, passes: list[Pass], setup_s: float) -> dict:
    gap_sets = [gaps_of(workload, fx, p) for p in passes]
    gap_sets = [g for g in gap_sets if g] or [[FAILED_GAP]]
    if workload == "audit":
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    else:
        rss = [max(op.rss_mb for op in p.ops) for p in passes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.ref_wall for p in passes),
        "peak_rss_mb": statistics.median(rss),
        "gap_geomean": statistics.median(geomean(g) for g in gap_sets),
        "gap_max": statistics.median(max(g) for g in gap_sets),
    }


def construct_only(bp, workload: str, fx: dict, seed: int) -> dict:
    """In-process construct-only solves: same config, improvement skipped."""
    out = {}
    for n, inst in fx["instances"].items():
        cfg = bp.SolverConfig(
            time_limit=TIME_LIMIT, seed=seed, restarts=RESTARTS, orientations=6,
            deterministic=True,
            support_threshold=SUPPORT if workload == "solve-support" else None,
            neighborhood={})
        start = time.perf_counter()
        result = bp.solve_heuristic(inst, cfg)
        out[n] = (time.perf_counter() - start, result)
    return out


def import_time(workdir: str, clock: SpeedClock) -> float:
    """Median reference seconds for a fresh interpreter to import the package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        child = run_child(["-c", "import binpack3d"], workdir)
        if child.code != 0:
            raise SetupError(f"binpack3d does not import: {child.stderr.strip()[-200:]}")
        times.append(clock.scale(child.wall))
    return statistics.median(times)


def startup_probe(workdir: str) -> float:
    return statistics.median(
        run_child(cli_argv() + ["instances"], workdir).wall for _ in range(3))


def span_cost(spans: int, calls: int = 20000) -> float:
    """Extra time ``spans`` traced calls cost over untraced ones, from
    timing both wrappers around an empty call."""
    def noop():
        return None

    start = time.perf_counter()
    for _ in range(calls):
        untraced_call("noop", noop)
    plain = time.perf_counter() - start
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(calls):
        tracer.call("noop", noop)
    traced = time.perf_counter() - start
    return spans * max(0.0, traced - plain) / calls


def span_total(ops: list[Op], name: str) -> float:
    return sum(end - start for op in ops if op.facts
               for n, start, end in op.facts["spans"] if n == name)


def span_count(ops: list[Op], name: str) -> int:
    return sum(1 for op in ops if op.facts
               for n, *_ in op.facts["spans"] if n == name)


def layer_metrics_children(bp, workload: str, fx: dict, seed: int,
                           cli: Pass, traced: Pass, workdir: str) -> dict:
    ops = traced.ops
    spans_sum = sum(end - start for op in ops if op.facts
                    for _, start, end in op.facts["spans"])
    # The traced children run the CLI's own code, so their wall time minus
    # their spans is what the CLI adds (start-up, parsing, atomic write,
    # exit) without the run-to-run noise of comparing two solves.
    met = {
        "cli.startup_s": startup_probe(workdir),
        "cli.overhead_s": sum(op.wall for op in ops if op.facts) - spans_sum,
        "trace.overhead_s": traced.ref_wall - cli.ref_wall,
        "trace.span_cost_s": span_cost(sum(len(op.facts["spans"])
                                           for op in ops if op.facts)),
        "instance_io.parse_instance_s": span_total(ops, "instance_io.parse_instance"),
        "metrics.report_s": span_total(ops, "metrics.report"),
        "instance_io.write_packing_s": span_total(ops, "instance_io.write_packing"),
        "validate.validate_s": span_total(ops, "validate.validate"),
        "validate.calls": span_count(ops, "validate.validate"),
    }
    if workload == "export":
        met.update({
            "model.build_s": span_total(ops, "model.build"),
            "lp_format.emit_lp_s": span_total(ops, "lp_format.emit_lp"),
            "lp_format.emit_mps_s": span_total(ops, "lp_format.emit_mps"),
            "lp_format.bytes": sum(op.facts["facts"]["bytes"] for op in ops if op.facts),
            "model.variables": sum(op.facts["facts"]["variables"] for op in ops if op.facts),
            "model.rows": sum(op.facts["facts"]["rows"] for op in ops if op.facts),
        })
        return met
    for op in ops:
        if op.facts:
            for family, count in op.facts["facts"].get("violations", {}).items():
                key = f"validate.violations.{family}"
                met[key] = met.get(key, 0) + count
    base = construct_only(bp, workload, fx, seed)
    solve_s = span_total(ops, "heuristic.solve")
    met["heuristic.op_share"] = solve_s / spans_sum if spans_sum else 0.0
    totals = dict.fromkeys(("construct_s", "improve_s", "restarts",
                            "improvements", "improve_gain"), 0.0)
    hits = 0
    for op, n in zip(ops, fx["instances"]):
        if not op.facts:
            continue
        name = fx["instances"][n].name
        construct_s, construct = base[n]
        full_s = sum(e - s for k, s, e in op.facts["spans"] if k == "heuristic.solve")
        facts = op.facts["facts"]
        per = {
            "construct_s": construct_s,
            "improve_s": full_s - construct_s,
            "restarts": facts["restarts"],
            "improvements": facts["trace_len"] - len(construct.trace),
            "improve_gain": construct.objective - facts["objective"],
        }
        hits += facts["objective"] < construct.objective
        for key, value in per.items():
            met[f"heuristic.{key}.{name}"] = value
            totals[key] += value
    for key, value in totals.items():
        met[f"heuristic.{key}"] = value
    met["heuristic.instances"] = len(fx["instances"])
    met["heuristic.improve_hit_frac"] = hits / len(fx["instances"])
    return met


def layer_metrics_audit(untraced: Pass, traced: Pass, tracer: Tracer,
                        counts: dict) -> dict:
    met = dict(counts)
    met["trace.overhead_s"] = traced.ref_wall - untraced.ref_wall
    met["trace.span_cost_s"] = span_cost(len(tracer.spans))
    met["validate.calls"] = sum(1 for n, *_ in tracer.spans if n == "validate.validate")
    for span in ("validate.validate", "model.to_assignment", "model.check",
                 "svg_render.render", "instance_io.write_packing",
                 "instance_io.parse_packing", "instance_io.parse_instance",
                 "metrics.report"):
        met[f"{span}_s"] = tracer.total(span)
    return met


# --- run context ---------------------------------------------------------

def context(bp) -> dict:
    import numpy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    lines = 0
    for folder, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(folder, fname)) as fh:
                    lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "binpack3d": bp.__version__,
            "commit": commit, "src_py_lines": lines}


# --- entry point -------------------------------------------------------------

def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(bp, workload: str, seed: int, seconds: float,
            workdir: str) -> tuple[dict, list[Op], dict]:
    """Untraced run: end-to-end metrics at the reference machine speed."""
    clock = SpeedClock(AUDIT_PROBE_S if workload == "audit" else CHILD_PROBE_S)
    setup_times, fx = [], None
    for _ in range(SETUP_REPEATS):
        fx = None   # drop the previous fixtures so peak memory holds one set
        laps: list[float] = []
        clock.start()
        fx = setup(bp, workload, seed, lambda: laps.append(clock.lap()))
        laps.append(clock.lap())
        setup_times.append(sum(laps))
    setup_s = import_time(workdir, clock) + statistics.median(setup_times)

    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(bp, workload, fx, seed, workdir, clock))
    ops = [op for p in passes for op in p.ops]
    measured = {"wall_measured_s": statistics.median(p.wall for p in passes),
                "machine_speed": statistics.median(p.ref_wall / p.wall for p in passes)}
    return end_to_end(workload, fx, passes, setup_s), ops, measured


def measure_traced(bp, workload: str, seed: int,
                   workdir: str) -> tuple[dict, list[Op], dict]:
    """Traced run: per-layer metrics, as measured."""
    fx = setup(bp, workload, seed)

    if workload == "audit":
        clock = SpeedClock(AUDIT_PROBE_S)
        untraced = audit_pass(bp, fx, untraced_call, clock)
        tracer = Tracer()
        counts = {"model.verdict_disagreements": 0}
        counts.update({f"validate.violations.{f}": 0 for f in VALIDATE_FAMILIES})
        traced = audit_pass(bp, fx, tracer.call, clock, counts)
        met = layer_metrics_audit(untraced, traced, tracer, counts)
        return met, untraced.ops + traced.ops, {}
    spans_dir = os.path.join(workdir, "spans")
    os.makedirs(spans_dir)
    clock = SpeedClock(CHILD_PROBE_S)
    cli = child_pass(bp, workload, fx, seed, workdir, clock)
    traced = child_pass(bp, workload, fx, seed, workdir, clock, spans_dir)
    met = layer_metrics_children(bp, workload, fx, seed, cli, traced, workdir)
    return met, cli.ops + traced.ops, {}


def print_table(workload: str, metrics: dict, units: dict, ops: list[Op],
                measured: dict) -> None:
    failed = sum(not op.ok for op in ops)
    print(f"== {workload}: {len(ops)} operations, {failed} failed")
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {failed / len(ops):>16.6g} fraction")
    for name, value in measured.items():
        print(f"  ({name:42s} {value:>16.6g})")


def run_all(args) -> int:
    """Run every workload as its own benchmark process and print each table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": attempted, "failed": failed,
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # One CPU for this process and the children it starts, so the speed
    # probes run on the CPU that ran the work they scale.  The CPUs of a
    # shared virtual machine drift in speed independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        bp = import_package()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.trace:
            values, ops, measured = measure_traced(bp, args.workload, args.seed,
                                                   workdir)
        else:
            values, ops, measured = measure(bp, args.workload, args.seed,
                                            args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    unknown = set(values) - set(units)
    if unknown:
        raise SystemExit(f"perfbench: undeclared metrics {sorted(unknown)}")
    metrics = {name: values.get(name, 0) for name in units}

    print("context: " + json.dumps(context(bp)))
    print_table(args.workload, metrics, units, ops, measured)
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
