import dataclasses
import math
import random
import re
import tracemalloc
import warnings

import pytest

from binpack3d.exact import solve_exact
from binpack3d.geometry import (
    ORIENTATIONS,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    Placement,
    effective_dims,
    objective_value,
)
from binpack3d.heuristic import solve_heuristic
from binpack3d.instance_io import load_bundled
from binpack3d.model import (
    BINARY,
    CONTINUOUS,
    RowViolation,
    SolutionImportError,
    Variable,
    VariableRegistry,
    audit_big_m,
    build_model,
    check_assignment,
    expected_constraint_count,
    expected_variable_count,
    import_solution,
    packing_to_assignment,
    parse_value_file,
)
from binpack3d.solvers import SolverConfig
from binpack3d.validate import validate

from conftest import make_instance, random_packing, stacked_packing


def independent_row_count(m, n, type_sizes, support, mode, pieces=4):
    """Counting oracle: walks the families with explicit loops, no algebra."""
    rows = 0
    for _i in range(m):
        rows += 1              # one orientation each
        rows += 3              # three effective-dimension equalities
        rows += 1              # one bin each
    for _i in range(m):
        for _j in range(n):
            rows += 1          # assignment needs the bin open
    for size in type_sizes:
        for _ in range(size - 1):
            rows += 1          # same-type bins open in order
    for i in range(m):
        for _i2 in range(i + 1, m):
            for _j in range(n):
                rows += 6      # six separating relations
            rows += 1          # exactly one relation chosen
    for _i in range(m):
        for _j in range(n):
            rows += 5          # x window (2), y, z, topmost height
    if support:
        for _i in range(m):
            rows += 1          # minimum support
            rows += 2          # floor touch + floor credit cap
        for i in range(m):
            for i2 in range(m):
                if i2 == i:
                    continue
                rows += 6      # z touch band (2) + xy meet gates (4)
                rows += 1      # credit capped by max overlap area
                rows += 8      # overlap width bounds, x and y
                if mode == "quadratic":
                    rows += 1  # bilinear credit cap
                else:
                    rows += 3 + 2 * pieces  # segment pick/link + envelopes
    return rows


def small_instance(m_bins=1):
    return Instance(
        "small",
        (CaseSpec(0, 4, 3, 2), CaseSpec(1, 2, 2, 2), CaseSpec(2, 3, 1, 1)),
        (BinSpec(0, 8, 8, 8, quantity=m_bins),),
    )


class TestCounts:
    def test_bench_one_row_count(self):
        from binpack3d.instance_io import load_bundled
        inst = load_bundled(1)
        model = build_model(inst)
        assert model.num_constraints == 1016
        assert model.num_constraints == independent_row_count(
            16, 1, (1,), support=False, mode="linearized")

    @pytest.mark.parametrize("support", [False, True])
    @pytest.mark.parametrize("mode", ["linearized", "quadratic"])
    def test_formula_matches_independent_count(self, support, mode):
        rng = random.Random(3)
        for trial in range(6):
            inst = make_instance(trial, rng, max_cases=4, max_bins=2)
            m, n = inst.num_cases, inst.num_bins
            type_sizes = tuple(s.quantity for s in inst.bin_specs)
            model = build_model(inst, support=0.8 if support else None, mode=mode)
            expected = expected_constraint_count(
                m, n, type_sizes, support=support, mode=mode)
            assert model.num_constraints == expected
            assert expected == independent_row_count(m, n, type_sizes, support, mode)
            assert model.num_variables == expected_variable_count(
                m, n, support=support, mode=mode)

    def test_mode_contract_shared_structure(self):
        inst = small_instance()
        lin = build_model(inst, mode="linearized")
        quad = build_model(inst, mode="quadratic")
        assert lin.registry.names == quad.registry.names
        assert [c.name for c in lin.constraints] == [c.name for c in quad.constraints]
        assert lin.num_constraints == quad.num_constraints
        assert all(c.qterms is None for c in lin.constraints)
        assert any(c.qterms for c in quad.constraints)

    def test_degenerate_instances_rejected(self):
        inst = Instance("none", (), (BinSpec(0, 5, 5, 5),))
        with pytest.raises(ValueError):
            build_model(inst)

    def test_variable_bounds(self):
        inst = small_instance(m_bins=2)
        model = build_model(inst, support=0.9)
        reg = model.registry
        assert reg[reg.index("x[0]")].ub == inst.total_length
        assert reg[reg.index("y[0]")].ub == inst.max_width
        assert reg[reg.index("z[0]")].ub == inst.max_height
        assert reg[reg.index("g[1]")].ub == inst.bins[1].height
        # support credit capped by the smaller of the two max footprints
        assert reg[reg.index("s[0,1]")].ub == pytest.approx(min(4 * 3, 2 * 2) * 1.0)
        assert reg[reg.index("ox[0,1]")].ub == pytest.approx(2.0)
        assert reg[reg.index("xp[0]")] == Variable("xp[0]", CONTINUOUS, 2.0, 4.0)
        assert reg[reg.index("sg[1]")] == Variable("sg[1]", CONTINUOUS, 0.0, 4.0)
        assert reg[reg.index("u[2,1]")] == Variable("u[2,1]", BINARY, 0.0, 1.0)

    def test_restricted_orientations_fix_bounds_not_counts(self):
        inst = small_instance()
        full = build_model(inst)
        limited = build_model(inst, allowed_orientations=(1, 3))
        assert limited.registry.names == full.registry.names
        reg = limited.registry
        assert reg[reg.index("r[0,2]")].ub == 0
        assert reg[reg.index("r[0,1]")].ub == 1


def test_build_memory_stays_near_the_model():
    """Building bench-10 at 0.8 allocates at its peak less than 3 times the
    finished model's term and row arrays (``cols``, ``coefs``, ``indptr``,
    ``rhs``).  It peaks at about 2.7 times them, with the variable names and
    the support block's families as given; a write that stacks a block's
    families into one copy before appending it peaked at about 3.35."""
    inst = load_bundled(10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model = build_model(inst, support=0.8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    rows = model.constraints
    own = sum(memoryview(part).nbytes for part in (rows.cols, rows.coefs, rows.indptr, rows.rhs))
    assert peak < 3 * own, peak / own


BINARY_FAMILIES = {"e", "u", "b", "r", "f", "fg", "lam"}


class TestRegistry:
    @pytest.mark.parametrize("number", [1, 2])
    @pytest.mark.parametrize("support", [None, 0.8])
    @pytest.mark.parametrize("mode", ["linearized", "quadratic"])
    def test_names_unique_and_indexed(self, number, support, mode):
        model = build_model(load_bundled(number), support=support, mode=mode)
        reg = model.registry
        assert len(set(reg.names)) == len(reg.names) == model.num_variables
        assert len(set(model.constraints.names)) == model.num_constraints
        for pos, name in enumerate(reg.names):
            assert reg.index(name) == pos and name in reg
            var = reg[pos]
            kind = BINARY if name.split("[")[0] in BINARY_FAMILIES else CONTINUOUS
            assert var == Variable(name, kind, reg.lb[pos], reg.ub[pos])
            assert type(var.lb) is float and type(var.ub) is float
        assert "nope[0]" not in reg
        assert [v.name for v in reg] == reg.names

    @pytest.mark.parametrize("support,mode", [
        (None, "linearized"), (0.8, "linearized"), (0.8, "quadratic")])
    def test_recorded_families_tile_the_model(self, support, mode):
        inst = Instance("tile", (CaseSpec(0, 4, 3, 2, quantity=2), CaseSpec(1, 2, 2, 5)),
                        (BinSpec(0, 8, 8, 8, quantity=3), BinSpec(1, 6, 7, 9)))
        model = build_model(inst, support=support, mode=mode, mccormick_pieces=3)
        reg, rows = model.registry, model.constraints
        assert [name.split("[")[0] for name in reg.names] == [
            family for family, block in reg.families.items() for _ in block]
        owner, names = [None] * len(rows), rows.names
        for key, (first, stride, count) in rows.families.items():
            family, _, suffix = key.partition(",")
            for row in range(first, first + stride * count, stride):
                assert owner[row] is None
                owner[row] = key
                assert names[row].startswith(family + "[")
                assert names[row].endswith(f",{suffix}]" if suffix else "]")
        assert None not in owner

    @pytest.mark.parametrize("lb,ub,bad", [
        (0.0, [1.0, math.inf, 2.0], "v[1]"),
        ([0.0, 0.0, -math.inf], 1.0, "v[2]"),
        ([math.nan, 0.0, 0.0], 1.0, "v[0]")])
    def test_non_finite_bound_names_the_variable(self, lb, ub, bad):
        reg = VariableRegistry()
        with pytest.raises(ArithmeticError, match=re.escape(f"non-finite bound for {bad}")):
            reg.add("v", ["0", "1", "2"], CONTINUOUS, lb, ub)
        assert len(reg) == 0 and reg.names == []

    def test_overflowing_footprint_bound_raises(self):
        # finite volume, but the footprint in orientation 4 is 1e200 * 1e200
        inst = Instance("flat", (CaseSpec(0, 1e-300, 1e200, 1e200),),
                        (BinSpec(0, 5, 5, 5),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning
            assert build_model(inst).num_variables == expected_variable_count(1, 1)
            with pytest.raises(ArithmeticError,
                               match=re.escape("non-finite bound for sg[0]")):
                build_model(inst, support=0.5)

    def test_duplicate_name_rejected_on_lookup(self):
        reg = VariableRegistry()
        reg.add("v", ["0", "0"], BINARY, 0, 1)
        with pytest.raises(ValueError, match="duplicate"):
            reg.index("v[0]")


class TestObjective:
    def test_single_case_objective_terms(self):
        inst = Instance("o", (CaseSpec(0, 3, 2, 1),), (BinSpec(0, 10, 10, 10),))
        model = build_model(inst)
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        values = packing_to_assignment(model, pack)
        assert model.objective_at(values) == pytest.approx(
            objective_value(inst, pack))

    def test_model_optimum_is_flattest_orientation(self):
        # exhaustive oracle over the assignment grid: min over orientation k
        # of the evaluated objective picks the smallest height dimension
        inst = Instance("flat", (CaseSpec(0, 3, 2, 1),), (BinSpec(0, 10, 10, 10),))
        model = build_model(inst)
        best = None
        for k in ORIENTATIONS:
            pack = Packing((Placement(0, 0, 0, 0, 0, k),))
            values = packing_to_assignment(model, pack)
            assert not check_assignment(model, values)
            obj = model.objective_at(values)
            best = obj if best is None else min(best, obj)
        assert best == pytest.approx(1 + 1 + 10)  # z' = min dim, g, bin height

    def test_objective_matches_geometry_on_random_feasible(self):
        rng = random.Random(11)
        hits = 0
        for trial in range(10):
            inst = make_instance(trial, rng, max_cases=3, max_bins=1)
            res = solve_exact(inst, SolverConfig())
            if res.packing is None:
                continue
            model = build_model(inst)
            values = packing_to_assignment(model, res.packing)
            assert model.objective_at(values) == pytest.approx(
                objective_value(inst, res.packing))
            hits += 1
        assert hits >= 5


class TestAssignmentTransfer:
    @pytest.mark.parametrize("support,mode", [
        (None, "linearized"), (None, "quadratic"), (0.7, "quadratic")])
    def test_feasible_packings_satisfy_all_rows(self, support, mode):
        rng = random.Random(29)
        checked = 0
        for trial in range(12):
            inst = make_instance(trial, rng, max_cases=3, max_bins=2)
            res = solve_exact(inst, SolverConfig(support_threshold=support))
            if res.packing is None:
                continue
            assert validate(inst, res.packing, support=support).feasible
            model = build_model(inst, support=support, mode=mode)
            violations = check_assignment(model, packing_to_assignment(model, res.packing))
            assert violations == [], violations[:5]
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("support,mode", [
        (None, "linearized"), (0.7, "quadratic")])
    def test_infeasible_packings_violate_some_row(self, support, mode):
        rng = random.Random(31)
        checked = 0
        for trial in range(20):
            inst = make_instance(trial, rng, max_cases=4, max_bins=2)
            pack = random_packing(inst, rng)
            report = validate(inst, pack, support=support)
            if report.feasible:
                continue
            model = build_model(inst, support=support, mode=mode)
            assert check_assignment(model, packing_to_assignment(model, pack))
            checked += 1
        assert checked >= 10

    def test_stacked_column_supported(self):
        inst = Instance("tower", (CaseSpec(0, 2, 2, 1, quantity=3),),
                        (BinSpec(0, 6, 6, 6),))
        pack = stacked_packing(inst)
        assert validate(inst, pack, support=1.0).feasible
        model = build_model(inst, support=1.0, mode="quadratic")
        assert not check_assignment(model, packing_to_assignment(model, pack))
        lin = build_model(inst, support=1.0, mode="linearized")
        assert not check_assignment(lin, packing_to_assignment(lin, pack))

    def test_floor_credit_relaxation_stays_consistent(self):
        # The model caps floor credit by the largest footprint over all
        # orientations, which can exceed the actual one; a floor-resting
        # case is fully supported anyway, so inflating the credit never
        # admits a packing the validator rejects.
        inst = Instance("floor", (CaseSpec(0, 1, 1, 4),), (BinSpec(0, 6, 6, 6),))
        model = build_model(inst, support=1.0, mode="quadratic")
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))  # upright: footprint 1
        values = packing_to_assignment(model, pack)
        values["sg[0]"] = 4.0  # claim the max-footprint bound instead
        assert not check_assignment(model, values)
        rebuilt, _ = import_solution(model, values)
        assert validate(inst, rebuilt, support=1.0).feasible

    def test_bin_order_prefix_fill(self):
        inst = Instance("pair-bins", (CaseSpec(0, 2, 2, 2),),
                        (BinSpec(0, 6, 6, 6, quantity=2),))
        model = build_model(inst)
        pack = Packing((Placement(0, 1, 6.0, 0, 0, 1),))  # second bin only
        values = packing_to_assignment(model, pack)
        assert values["e[0]"] == 1.0 and values["e[1]"] == 1.0
        assert not check_assignment(model, values)

    def test_bin_permutation_symmetry(self):
        # permuting identical bins and renumbering to a prefix keeps the
        # assignment feasible
        inst = Instance("sym", (CaseSpec(0, 2, 2, 2), CaseSpec(1, 3, 2, 1)),
                        (BinSpec(0, 6, 6, 6, quantity=2),))
        model = build_model(inst)
        width = inst.bins[1].length
        pack = Packing((Placement(0, 1, 6.0, 0, 0, 1), Placement(1, 1, 6 + 3, 0, 0, 1)))
        assert not check_assignment(model, packing_to_assignment(model, pack))
        swapped = Packing((Placement(0, 0, 0.0, 0, 0, 1), Placement(1, 0, 3.0, 0, 0, 1)))
        assert not check_assignment(model, packing_to_assignment(model, swapped))


def reference_violations(model, values, tol=1e-6):
    """``check_assignment`` as a plain loop over ``model.constraints``.

    Each row's terms are added in stored order from 0.0, the quadratic
    products likewise, then the two sums are added.
    """
    vec = [values.get(v.name, 0.0) for v in model.registry]
    out = []
    for pos, var in enumerate(model.registry):
        if vec[pos] < var.lb - tol:
            out.append(RowViolation(f"lb:{var.name}", var.lb - vec[pos]))
        elif not vec[pos] <= var.ub + tol:
            out.append(RowViolation(f"ub:{var.name}", vec[pos] - var.ub))
    for con in model.constraints:
        lhs = 0.0
        for idx, coef in con.terms:
            lhs += coef * vec[idx]
        if con.qterms:
            qsum = 0.0
            for a, b, coef in con.qterms:
                qsum += coef * vec[a] * vec[b]
            lhs += qsum
        gap = lhs - con.rhs
        if con.sense == "<=" and not gap <= tol:
            out.append(RowViolation(con.name, gap))
        elif con.sense == ">=" and not -gap <= tol:
            out.append(RowViolation(con.name, -gap))
        elif con.sense == "=" and not abs(gap) <= tol:
            out.append(RowViolation(con.name, abs(gap)))
    return out


class TestCheckAgainstRowLoop:
    @pytest.mark.parametrize("mode", ["linearized", "quadratic"])
    def test_bench_one_perturbed_packings(self, mode):
        inst = load_bundled(1)
        base = solve_heuristic(inst, SolverConfig(
            time_limit=5, seed=7, restarts=1, deterministic=True, neighborhood={},
            support_threshold=0.8)).packing
        rng = random.Random(2024)
        packings = [base]
        for _ in range(6):
            moved = list(base.placements)
            for i in rng.sample(range(len(moved)), 3):
                p = moved[i]
                moved[i] = dataclasses.replace(
                    p, x=max(0.0, p.x + rng.uniform(-3.0, 3.0)),
                    z=p.z + rng.choice((0.0, rng.uniform(0.5, 3.0))),
                    orientation=rng.choice(ORIENTATIONS))
            packings.append(Packing(tuple(moved)))
        violated = 0
        for support in (None, 0.8):
            model = build_model(inst, support=support, mode=mode)
            for pack in packings:
                values = packing_to_assignment(model, pack)
                rows = check_assignment(model, values)
                assert rows == reference_violations(model, values)
                violated += bool(rows)
        assert violated >= 6


def _named(rows):
    """Violations as (name, repr of amount): a NaN amount equals no float."""
    return [(r.name, repr(r.amount)) for r in rows]


class TestNonFiniteValues:
    """A NaN value violates its bound and every row it enters: comparisons
    with NaN are all False, so each check must fail unless it passes."""

    def test_all_nan_map_violates_everything(self):
        model = build_model(load_bundled(1), support=0.8)
        values = {v.name: float("nan") for v in model.registry}
        rows = check_assignment(model, values)
        assert [r.name for r in rows] == (
            [f"ub:{v.name}" for v in model.registry] + list(model.constraints.names))
        assert _named(rows) == _named(reference_violations(model, values))

    @pytest.mark.parametrize("name", ["x[3]", "z[0]", "u[5,0]"])
    def test_one_nan_in_a_feasible_map(self, name):
        model = build_model(load_bundled(1), support=0.8)
        pack = solve_heuristic(model.instance, SolverConfig(
            time_limit=1.0, seed=7, deterministic=True, neighborhood={},
            support_threshold=0.8)).packing
        values = packing_to_assignment(model, pack)
        assert not check_assignment(model, values)
        values[name] = float("nan")
        rows = check_assignment(model, values)
        assert rows[0].name == f"ub:{name}" and len(rows) > 1
        assert _named(rows) == _named(reference_violations(model, values))


def bigm_instance():
    return Instance(
        "bigm",
        (CaseSpec(0, 4, 3, 2), CaseSpec(1, 2, 2, 5), CaseSpec(2, 1, 6, 1)),
        (BinSpec(0, 8, 8, 8, quantity=2), BinSpec(1, 6, 7, 9)),
    )


class TestBigM:
    @pytest.mark.parametrize("support,mode,policy", [
        (None, "linearized", "paper"), (None, "linearized", "tight"),
        (0.8, "linearized", "paper"), (0.8, "quadratic", "paper"),
        (0.8, "linearized", "tight")])
    def test_constants_cover_their_rows(self, support, mode, policy):
        model = build_model(bigm_instance(), support=support, mode=mode, big_m=policy)
        assert audit_big_m(model) == []

    def test_bench_fifteen_constants_cover_their_rows(self):
        assert audit_big_m(build_model(load_bundled(15), support=0.8)) == []

    # One row of each audited family of bigm_instance, the activator whose
    # coefficient is its constant, and the constant it needs.  The frame
    # is 22 x 8 x 9; bin 0 is 8 x 8 x 8, bin 2 is 6 x 7 x 9; the smallest
    # sides are 2, 2 and 1, the largest footprints 12, 10 and 6, the
    # largest sides 4, 5 and 6.
    AUDITED_ROWS = [
        ("sep[0,1,2,3]", "b[0,1,3]", 22), ("sep[1,2,0,5]", "b[1,2,5]", 9),
        ("bound_xhi[0,0]", "u[0,0]", 22 - 8), ("bound_yhi[1,2]", "u[1,2]", 8 - 7),
        ("bound_zhi[2,0]", "u[2,0]", 9 - 8), ("top_height[1,1]", "u[1,1]", 9),
        ("touch_zlo[0,1]", "f[0,1]", 9), ("touch_zhi[1,0]", "f[1,0]", 9),
        ("touch_xlo[2,1]", "f[2,1]", 22), ("touch_xhi[0,2]", "f[0,2]", 22),
        ("touch_ylo[1,2]", "f[1,2]", 8), ("touch_yhi[2,0]", "f[2,0]", 8),
        ("ovx_a[0,1]", "f[0,1]", 22 - 2), ("ovx_b[1,2]", "f[1,2]", 22 - 1),
        ("ovy_a[2,1]", "f[2,1]", 8 - 1), ("ovy_b[2,0]", "f[2,0]", 8 - 2),
        ("sup_cap[1,2]", "f[1,2]", 6), ("ground_cap[0]", "fg[0]", 12),
        ("ground_touch[2]", "fg[2]", 9),
        ("mc_ub1[0,1,0]", "lam[0,1,0]", 10), ("mc_ub1[2,0,3]", "lam[2,0,3]", 6),
        ("mc_ub2[1,0,0]", "lam[1,0,0]", 10), ("mc_ub2[2,1,3]", "lam[2,1,3]", 6 + 5 * 3 / 4 * 5)]

    @pytest.mark.parametrize("row,activator,needed,mode", [
        (*audited, mode) for audited in AUDITED_ROWS
        for mode in ("linearized", "quadratic") if mode == "linearized" or audited[0][:3] != "mc_"])
    def test_shrunk_constant_fails_its_row_only(self, row, activator, needed, mode):
        model = build_model(bigm_instance(), support=0.8, mode=mode)
        rows = model.constraints
        pos = rows.names.index(row)
        start, stop = rows.indptr[pos], rows.indptr[pos + 1]
        term = start + list(rows.cols[start:stop]).index(model.registry.index(activator))
        # the audit allows a shortfall of up to its slack, 1e-9
        for have, failures in ((needed - 0.5e-9, []), (needed - 2e-9, [row])):
            rows.coefs[term] = math.copysign(have, rows.coefs[term])
            assert audit_big_m(model) == failures

    def test_tight_policy_shrinks_boundary_rows(self):
        inst = small_instance(m_bins=2)
        paper = build_model(inst, big_m="paper")
        tight = build_model(inst, big_m="tight")
        by_name = {c.name: c for c in paper.constraints}
        shrunk = 0
        for con in tight.constraints:
            if con.name.startswith("bound_xhi"):
                if con.rhs < by_name[con.name].rhs:
                    shrunk += 1
        assert shrunk > 0


class TestImport:
    def one_case_model(self):
        inst = Instance("imp", (CaseSpec(0, 3, 2, 1),), (BinSpec(0, 10, 10, 10),))
        return build_model(inst)

    def test_hand_written_map(self):
        model = self.one_case_model()
        values = {"u[0,0]": 1.0, "x[0]": 0.0, "y[0]": 0.0, "z[0]": 0.0}
        values.update({f"r[0,{k}]": 1.0 if k == 1 else 0.0 for k in range(1, 7)})
        pack, report = import_solution(model, values)
        assert report.clean
        placement = pack.placements[0]
        assert placement.bin_index == 0 and placement.orientation == 1
        assert (placement.x, placement.y, placement.z) == (0.0, 0.0, 0.0)

    def test_fractional_binaries_flagged_but_imported(self):
        model = self.one_case_model()
        values = {"u[0,0]": 1.0, "x[0]": 0.0, "y[0]": 0.0, "z[0]": 0.0,
                  "r[0,1]": 0.5, "r[0,2]": 0.5}
        values.update({f"r[0,{k}]": 0.0 for k in range(3, 7)})
        pack, report = import_solution(model, values)
        assert not report.clean
        assert "r[0,1]" in report.integrality_violations
        assert pack.placements[0].orientation == 1  # argmax, lowest k wins ties

    def test_missing_variable_named(self):
        model = self.one_case_model()
        values = {"u[0,0]": 1.0}
        values.update({f"r[0,{k}]": 0.0 for k in range(1, 7)})
        with pytest.raises(SolutionImportError, match=r"x\[0\]"):
            import_solution(model, values)

    def test_solver_noise_clamped_and_reported(self):
        model = build_model(load_bundled(1))
        pack = solve_heuristic(model.instance, SolverConfig(
            time_limit=1.0, seed=7, deterministic=True, neighborhood={})).packing
        values = packing_to_assignment(model, pack)
        origin = next(p.case_index for p in pack.placements if p.x == 0.0)
        values[f"x[{origin}]"] = -9.8e-12
        rebuilt, report = import_solution(model, values)
        assert report.clamped == (f"x[{origin}]",)
        assert rebuilt == pack

    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf")])
    def test_bad_coordinate_named(self, value):
        model = self.one_case_model()
        values = {"u[0,0]": 1.0, "x[0]": 0.0, "y[0]": value, "z[0]": 0.0}
        values.update({f"r[0,{k}]": 1.0 if k == 1 else 0.0 for k in range(1, 7)})
        with pytest.raises(SolutionImportError, match=r"y\[0\]"):
            import_solution(model, values)

    @pytest.mark.parametrize("name", ["u[0,0]", "r[0,1]", "r[0,4]"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_binary_named(self, name, value):
        model = self.one_case_model()
        values = {"u[0,0]": 1.0, "x[0]": 0.0, "y[0]": 0.0, "z[0]": 0.0}
        values.update({f"r[0,{k}]": 1.0 if k == 1 else 0.0 for k in range(1, 7)})
        values[name] = value
        with pytest.raises(SolutionImportError, match=re.escape(name)):
            import_solution(model, values)

    def test_oracle_cross_check(self):
        inst = Instance(
            "cross",
            (CaseSpec(0, 3, 2, 2), CaseSpec(1, 2, 2, 2), CaseSpec(2, 4, 1, 1)),
            (BinSpec(0, 6, 6, 6),))
        res = solve_exact(inst, SolverConfig())
        model = build_model(inst)
        values = packing_to_assignment(model, res.packing)
        pack, report = import_solution(model, values)
        assert report.clean
        assert validate(inst, pack).feasible
        assert pack == res.packing


class TestValueFile:
    def test_parse_pairs(self):
        text = "x[0] 1.5\n# comment\n\nu[0,0] 1\n"
        assert parse_value_file(text) == {"x[0]": 1.5, "u[0,0]": 1.0}

    def test_bad_line_reported(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_value_file("x[0] 1\nbroken line here\n")

    @pytest.mark.parametrize("number", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_number_rejected(self, number):
        with pytest.raises(ValueError, match=f"line 2: non-finite number '{number}'"):
            parse_value_file(f"x[0] 1\nx[1] {number}\n")

    def test_name_given_twice_rejected(self):
        with pytest.raises(ValueError, match=r"line 3: 'x\[0\]' given twice"):
            parse_value_file("x[0] 1\n# comment\nx[0] 2\n")
