import random

import pytest

from binpack3d.exact import solve_exact
from binpack3d.geometry import BinSpec, CaseSpec, Instance
from binpack3d.solvers import SolverConfig
from binpack3d.validate import validate

from conftest import make_instance


class TestAnchors:
    def test_unit_case_in_big_bin(self):
        inst = Instance("one", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 50, 50, 50),))
        res = solve_exact(inst)
        assert res.optimal and res.feasible
        assert res.objective == pytest.approx(52.0)
        p = res.packing.placements[0]
        assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)

    def test_flattest_orientation_wins(self):
        inst = Instance("flat", (CaseSpec(0, 5, 4, 2),), (BinSpec(0, 9, 9, 9),))
        res = solve_exact(inst)
        # effective height at the optimum is the smallest dimension
        from binpack3d.geometry import effective_dims
        p = res.packing.placements[0]
        assert effective_dims(inst.cases[0], p.orientation)[2] == 2
        assert res.objective == pytest.approx(2 + 2 + 9)

    def test_stacked_cubes_with_full_support(self):
        inst = Instance("stack", (CaseSpec(0, 1, 1, 1, quantity=2),),
                        (BinSpec(0, 1, 1, 2),))
        res = solve_exact(inst, SolverConfig(support_threshold=1.0))
        assert res.feasible and res.optimal
        zs = sorted(p.z for p in res.packing.placements)
        assert zs == [0.0, 1.0]
        assert validate(inst, res.packing, support=1.0).feasible

    def test_oversized_case_proven_infeasible(self):
        inst = Instance("big", (CaseSpec(0, 5, 5, 5),), (BinSpec(0, 2, 2, 2),))
        res = solve_exact(inst)
        assert res.packing is None and res.objective is None
        assert res.optimal  # enumeration completed: a proof, not a timeout

    def test_time_limit_past_the_node_rate_runs_to_completion(self):
        """A limit whose node budget overflows a float is an infinite budget:
        the enumeration finishes, and it finds the optimum."""
        inst = Instance("one", (CaseSpec(0, 1, 2, 3),), (BinSpec(0, 5, 5, 5),))
        res = solve_exact(inst, SolverConfig(time_limit=1e305, deterministic=True))
        assert res.optimal and res.feasible
        assert res.objective == solve_exact(inst).objective == pytest.approx(5 + 1 + 1)

    def test_cap_enforced(self):
        inst = Instance("cap", (CaseSpec(0, 1, 1, 1, quantity=5),),
                        (BinSpec(0, 9, 9, 9),))
        with pytest.raises(ValueError, match="capped"):
            solve_exact(inst)


class TestSearchBehavior:
    def test_deterministic_results(self):
        rng = random.Random(1)
        inst = make_instance("det", rng, max_cases=3, max_bins=2)
        a = solve_exact(inst)
        b = solve_exact(inst)
        assert a.packing == b.packing and a.objective == b.objective

    def test_solutions_always_validate(self):
        rng = random.Random(2)
        found = 0
        for trial in range(10):
            inst = make_instance(trial, rng, max_cases=3, max_bins=2)
            for support in (None, 0.8):
                res = solve_exact(inst, SolverConfig(support_threshold=support))
                if res.packing is not None:
                    assert validate(inst, res.packing, support=support).feasible
                    found += 1
        assert found >= 8

    def test_second_bin_used_only_when_needed(self):
        inst = Instance("two-bins", (CaseSpec(0, 4, 4, 4, quantity=2),),
                        (BinSpec(0, 4, 4, 4, quantity=2),))
        res = solve_exact(inst)
        assert res.feasible
        assert sorted({p.bin_index for p in res.packing.placements}) == [0, 1]

    def test_grid_contains_stacking_positions(self):
        # optimum for two flat cases in a narrow bin is side by side on the
        # floor; with a footprint-width bin they must stack at z = height
        inst = Instance("narrow", (CaseSpec(0, 2, 2, 1, quantity=2),),
                        (BinSpec(0, 2, 2, 4),))
        res = solve_exact(inst)
        zs = sorted(p.z for p in res.packing.placements)
        assert zs == [0.0, 1.0]

    def test_support_prunes_floaters(self):
        # without support the best spot for the small case may be anywhere;
        # with full support it must rest on the floor or the big case
        inst = Instance("float", (CaseSpec(0, 3, 3, 1), CaseSpec(1, 1, 1, 1)),
                        (BinSpec(0, 4, 4, 4),))
        res = solve_exact(inst, SolverConfig(support_threshold=1.0))
        assert res.feasible
        report = validate(inst, res.packing, support=1.0)
        assert report.feasible
