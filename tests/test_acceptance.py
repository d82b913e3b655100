"""Acceptance suite: the toolkit's exit criteria.

Each test prints one PASS/FAIL line so a full run reads as a checklist.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from binpack3d.exact import solve_exact
from binpack3d.geometry import (
    ORIENTATIONS,
    CaseSpec,
    effective_dims,
    footprint_area,
)
from binpack3d.heuristic import solve_heuristic
from binpack3d.instance_io import load_bundled
from binpack3d.metrics import gap_vs_bound, utilization
from binpack3d.model import (
    build_model,
    check_assignment,
    expected_constraint_count,
    expected_variable_count,
    import_solution,
    packing_to_assignment,
)
from binpack3d.solvers import SolverConfig
from binpack3d.validate import validate

from conftest import child_env, make_instance, random_packing, stacked_packing

BUNDLED_CASE_COUNTS = [16, 36, 41, 43, 52, 53, 60, 76, 82, 90, 96, 130, 141, 153, 158]

_produced_feasible = []  # packings collected by criteria 5-7 for criterion 8


def _report(number, description, passed):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {marker} - {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_model_geometry_equivalence():
    """Validator verdict and generated rows agree on randomized instances."""
    rng = random.Random(20240811)
    start = time.monotonic()
    checked = 0
    for trial in range(200):
        inst = make_instance(trial, rng, max_cases=4, max_bins=2)
        for support in (None, 0.7):
            mode = "quadratic" if support is not None else "linearized"
            model = build_model(inst, support=support, mode=mode)
            packs = [random_packing(inst, rng) for _ in range(3)]
            packs.append(stacked_packing(inst))
            heur = solve_heuristic(inst, SolverConfig(
                time_limit=0.5, seed=trial, restarts=2, deterministic=True,
                support_threshold=support))
            if heur.packing is not None:
                packs.append(heur.packing)
            for pack in packs:
                geo_ok = validate(inst, pack, support=support).feasible
                values = packing_to_assignment(model, pack)
                rows_ok = not check_assignment(model, values, tol=1e-6)
                # feasible packing -> all rows hold
                assert geo_ok == rows_ok, (inst.name, support, geo_ok, rows_ok)
                # row-satisfying assignment -> rebuilt packing is feasible
                if rows_ok:
                    rebuilt, _ = import_solution(model, values)
                    assert validate(inst, rebuilt, support=support).feasible
                checked += 1
    elapsed = time.monotonic() - start
    _report(1, f"equivalence held on {checked} packings over 200 instances "
               f"(both support settings) in {elapsed:.0f}s",
            checked >= 800 and elapsed < 300)


def test_criterion_2_orientation_algebra():
    rng = random.Random(1234)
    failures = 0
    for _ in range(1000):
        dims = tuple(round(rng.uniform(0.05, 99.0), 4) for _ in range(3))
        case = CaseSpec(0, *dims)
        pair_area = {
            frozenset({1, 3}): dims[0] * dims[1],
            frozenset({2, 5}): dims[0] * dims[2],
            frozenset({4, 6}): dims[1] * dims[2],
        }
        for k in ORIENTATIONS:
            eff = effective_dims(case, k)
            if sorted(eff) != sorted(case.dims):
                failures += 1
            if math.prod(sorted(eff)) != math.prod(sorted(case.dims)):
                failures += 1
            expected = next(v for ks, v in pair_area.items() if k in ks)
            if footprint_area(case, k) != pytest.approx(expected, rel=1e-12):
                failures += 1
    _report(2, "orientation permutation, exact volume and footprint expansion "
               "over 1000 random triples x 6 orientations", failures == 0)


def test_criterion_3_bundled_instance_fidelity():
    counts = [load_bundled(i).num_cases for i in range(1, 16)]
    inst1 = load_bundled(1)
    inst3 = load_bundled(3)
    case0 = inst1.cases[0]
    bin3 = inst3.bins[0]
    ok = (counts == BUNDLED_CASE_COUNTS
          and (case0.length, case0.width, case0.height) == (10.88, 9.82, 10.87)
          and (bin3.length, bin3.width, bin3.height) == (38.10, 38.10, 22.00))
    # byte accuracy: the shipped documents carry the catalogue's decimals
    from importlib import resources
    raw1 = resources.files("binpack3d.data").joinpath("bench_01.json").read_text()
    raw3 = resources.files("binpack3d.data").joinpath("bench_03.json").read_text()
    ok = ok and '"length": 10.88, "width": 9.82, "height": 10.87' in raw1
    ok = ok and '"length": 38.10, "width": 38.10, "height": 22.00' in raw3
    _report(3, f"15 bundled instances parse to {counts} cases with "
               "byte-accurate spot dimensions", ok)


def test_criterion_4_constraint_count_formulas():
    ok = True
    details = []
    for number in range(1, 16):
        inst = load_bundled(number)
        m, n = inst.num_cases, inst.num_bins
        sizes = tuple(s.quantity for s in inst.bin_specs)
        model = build_model(inst, mode="linearized")
        ok &= model.num_constraints == expected_constraint_count(m, n, sizes)
        ok &= model.num_variables == expected_variable_count(m, n)
        if number == 1:
            details.append(f"bench-01 rows={model.num_constraints}")
            ok &= model.num_constraints == 1016
        del model
        sup = build_model(inst, support=0.8, mode="linearized")
        ok &= sup.num_constraints == expected_constraint_count(
            m, n, sizes, support=True, mode="linearized")
        ok &= sup.num_variables == expected_variable_count(
            m, n, support=True, mode="linearized")
        del sup
        if number <= 5:
            quad = build_model(inst, support=0.8, mode="quadratic")
            ok &= quad.num_constraints == expected_constraint_count(
                m, n, sizes, support=True, mode="quadratic")
            ok &= quad.num_variables == expected_variable_count(
                m, n, support=True, mode="quadratic")
            del quad
    _report(4, "generated row/variable counts equal the closed forms on all "
               f"bundled instances, both support settings ({details[0]})", ok)


def test_criterion_5_exact_oracle_anchor_and_heuristic_tightness():
    from binpack3d.geometry import BinSpec, Instance
    inst = Instance("anchor", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 50, 50, 50),))
    res = solve_exact(inst)
    anchor_ok = (res.optimal and res.objective == pytest.approx(52.0)
                 and effective_dims(inst.cases[0],
                                    res.packing.placements[0].orientation)[2] == 1.0)
    _produced_feasible.append((inst, res.packing))

    rng = random.Random(55)
    total = hits = 0
    while total < 50:
        inst = make_instance(f"tight{total}", rng, max_cases=3, max_bins=1)
        exact = solve_exact(inst)
        if exact.packing is None:
            continue
        heur = solve_heuristic(inst, SolverConfig(
            time_limit=2.0, seed=total, restarts=8, deterministic=True))
        total += 1
        if heur.feasible and heur.objective <= exact.objective + 1e-6:
            hits += 1
            _produced_feasible.append((inst, heur.packing))
    _report(5, f"exact anchor objective 52 with flattest orientation; heuristic "
               f"matched the exact-grid optimum on {hits}/{total} instances",
            anchor_ok and hits / total >= 0.8)


def test_criterion_6_feasibility_at_benchmark_scale():
    budget = 60.0  # well under the 800 s bar
    failures = []
    times = []
    for number in range(1, 16):
        inst = load_bundled(number)
        start = time.monotonic()
        res = solve_heuristic(inst, SolverConfig(
            time_limit=budget, seed=7, restarts=2, orientations=6))
        elapsed = time.monotonic() - start
        times.append(elapsed)
        if not (res.feasible and validate(inst, res.packing).feasible
                and elapsed <= 800.0):
            failures.append(number)
        else:
            _produced_feasible.append((inst, res.packing))
    _report(6, f"heuristic produced validator-feasible packings for all 15 "
               f"bundled instances (max {max(times):.0f}s, limit 800s)",
            not failures)


def test_criterion_7_support_constrained_anchor():
    inst = load_bundled(1)
    start = time.monotonic()
    res = solve_heuristic(inst, SolverConfig(
        time_limit=60.0, seed=7, restarts=4, support_threshold=0.8))
    elapsed = time.monotonic() - start
    ok = (res.feasible
          and validate(inst, res.packing, support=0.8).feasible
          and elapsed <= 300.0)
    if ok:
        _produced_feasible.append((inst, res.packing))
    _report(7, f"16-case instance packed with support threshold 0.8 "
               f"in {elapsed:.1f}s (limit 300s)", ok)


def test_criterion_8_gap_and_utilization_formulas():
    from binpack3d.geometry import BinSpec, Instance, Packing, Placement
    gap_ok = gap_vs_bound(100.0, 90.0) == pytest.approx(0.10)

    tiled = Instance("tiled", (CaseSpec(0, 5, 5, 2, quantity=4),),
                     (BinSpec(0, 10, 10, 8),))
    pack = Packing(tuple(Placement(i, 0, 5 * (i % 2), 5 * (i // 2), 0, 1)
                         for i in range(4)))
    tiled_ok = utilization(tiled, pack, 0) == 1.0

    assert _produced_feasible, "criteria 5-7 must run before this one"
    bounded = True
    for inst, packing in _produced_feasible:
        for j in packing.used_bins():
            value = utilization(inst, packing, j)
            bounded &= value is not None and value <= 1.0 + 1e-9
    _report(8, f"gap(100, 90) = 0.10, tiled-bin utilization exactly 1.0, and "
               f"utilization <= 1 on {len(_produced_feasible)} produced packings",
            gap_ok and tiled_ok and bounded)


def test_criterion_9_cli_determinism(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        proc = subprocess.run(
            [sys.executable, "-m", "binpack3d", "solve",
             "--instance", "bundled:1", "--deterministic", "--seed", "7",
             "--time-limit", "2", "--restarts", "2", "--out", str(out)],
            capture_output=True, text=True, timeout=600, env=child_env())
        assert proc.returncode == 0, proc.stderr
    identical = out_a.read_bytes() == out_b.read_bytes()
    report_a = json.loads(
        subprocess.run([sys.executable, "-m", "binpack3d", "solve",
                        "--instance", "bundled:1", "--deterministic",
                        "--seed", "7", "--time-limit", "2", "--restarts", "2"],
                       capture_output=True, text=True, timeout=600, env=child_env()).stdout)
    _report(9, "deterministic solve wrote byte-identical packing documents "
               "across consecutive runs", identical and report_a["feasible"])
