import json
import random
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from binpack3d import exact, heuristic
from binpack3d.geometry import (
    DEFAULT_TOL,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    placed_box,
    separating_relations,
    support_credit,
    support_deficit,
    support_pairs,
)
from binpack3d.metrics import bin_utilizations
from binpack3d.model import build_model, check_assignment, packing_to_assignment
from binpack3d.solvers import SolverConfig
from binpack3d.svg_render import render_svg
from binpack3d.validate import Violation, validate

from conftest import (
    dense_overlaps,
    judged_packings,
    make_instance,
    random_packing,
    seam_packing,
    stacked_packing,
)


def single_bin(width=10.0, height=10.0, length=10.0):
    return (BinSpec(0, length, width, height),)


class TestVerdicts:
    def test_two_cubes_at_origin_overlap(self):
        inst = Instance("ov", (CaseSpec(0, 1, 1, 1, quantity=2),), single_bin())
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 0, 0, 0, 1)))
        report = validate(inst, pack)
        assert not report.feasible
        assert [v.family for v in report.violations] == ["overlap"]
        assert report.violations[0].magnitude == pytest.approx(1.0)
        assert report.violations[0].cases == (0, 1)

    @pytest.mark.parametrize("support", [None, 0.8])
    def test_three_bins_with_an_unused_middle_bin(self, support):
        """Seams in order per case, boundary spill by its worst axis, and
        the pair that overlaps across bins in the frame not reported."""
        inst, pack = seam_packing()
        report = validate(inst, pack, support=support)
        assert [(v.family, v.cases, v.magnitude) for v in report.violations] == [
            ("overlap", (1, 2), 0.5),
            ("boundary", (0,), 8.0 - 7.5), ("boundary", (2,), 2.5 + 6 - 4.0),
            ("bin_gap", (0,), 8.0 - 7.5),
            ("bin_gap", (2,), 4.0 - 2.5), ("bin_gap", (2,), 2.5 + 6 - 8.0)]
        assert all(type(v.magnitude) is float for v in report.violations)
        assert report.support_coverage == ({} if support is None else dict.fromkeys(range(6), 1.0))
        assert report.utilization == bin_utilizations(inst, pack)
        assert set(report.utilization) == {0, 2}

    def test_straddling_case_reports_boundary_and_gap(self):
        inst = Instance("straddle", (CaseSpec(0, 4, 1, 1),),
                        (BinSpec(0, 6, 6, 6, quantity=2),))
        # case assigned to bin 0 but reaching into bin 1 across the seam at 6
        pack = Packing((Placement(0, 0, 4.0, 0, 0, 1),))
        report = validate(inst, pack)
        families = {v.family for v in report.violations}
        assert families == {"boundary", "bin_gap"}

    def test_support_ledge_below_threshold(self):
        # 2x2 case resting on a 1x2 ledge: coverage 0.5 < 0.8
        inst = Instance("ledge", (CaseSpec(0, 1, 2, 1), CaseSpec(1, 2, 2, 1)),
                        single_bin())
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 0, 0, 1.0, 1)))
        report = validate(inst, pack, support=0.8)
        assert [v.family for v in report.violations] == ["support"]
        assert report.support_coverage[1] == pytest.approx(0.5)
        assert report.violations[0].magnitude == pytest.approx(0.8 * 4 - 2)

    def test_support_credits_from_distinct_supporters_sum(self):
        # bridge resting on two pillars, each covering half the base
        inst = Instance(
            "bridge",
            (CaseSpec(0, 2, 2, 1, quantity=2), CaseSpec(1, 4, 2, 1)),
            single_bin())
        pack = Packing((
            Placement(0, 0, 0, 0, 0, 1),
            Placement(1, 0, 2, 0, 0, 1),
            Placement(2, 0, 0, 0, 1.0, 1),
        ))
        report = validate(inst, pack, support=1.0)
        assert report.feasible
        assert report.support_coverage[2] == pytest.approx(1.0)

    def test_edge_contact_earns_no_support(self):
        inst = Instance("edge", (CaseSpec(0, 2, 2, 1), CaseSpec(1, 4, 2, 1)),
                        single_bin())
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2, 0, 1.0, 1)))
        report = validate(inst, pack, support=0.5)
        assert not report.feasible
        assert report.support_coverage[1] == pytest.approx(0.0)

    def test_tower_fully_supported(self):
        inst = Instance("tower", (CaseSpec(0, 2, 2, 1, quantity=3),), single_bin())
        report = validate(inst, stacked_packing(inst), support=1.0)
        assert report.feasible
        assert all(c == pytest.approx(1.0) for c in report.support_coverage.values())

    def test_feasible_layout_metrics(self):
        inst = Instance("ok", (CaseSpec(0, 2, 2, 2, quantity=2),), single_bin())
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2, 0, 0, 1)))
        report = validate(inst, pack)
        assert report.feasible and report.overall == "feasible"
        assert report.objective == pytest.approx(2 + 2 + 10)
        assert report.utilization[0] == pytest.approx(16 / (10 * 10 * 2))

    def test_touching_faces_are_legal(self):
        inst = Instance("touch", (CaseSpec(0, 2, 2, 2, quantity=2),), single_bin())
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2.0, 0, 0, 1)))
        assert validate(inst, pack).feasible

    def test_out_of_range_index_raises(self):
        inst = Instance("bad", (CaseSpec(0, 1, 1, 1),), single_bin())
        with pytest.raises(ValueError):
            validate(inst, Packing((Placement(0, 5, 0, 0, 0, 1),)))

    def test_violations_sorted_by_family_then_cases(self):
        inst = Instance(
            "multi",
            (CaseSpec(0, 3, 3, 3, quantity=2), CaseSpec(1, 20, 1, 1)),
            single_bin())
        pack = Packing((
            Placement(0, 0, 0, 0, 0, 1),
            Placement(1, 0, 0, 0, 0, 1),      # overlaps case 0
            Placement(2, 0, 0, 8, 0, 1),      # pokes out of the bin in x and y
        ))
        report = validate(inst, pack)
        families = [v.family for v in report.violations]
        assert families == sorted(families, key=["orientation", "assignment",
                                                 "overlap", "boundary", "bin_gap",
                                                 "support"].index)

    def test_report_serialization_shape(self):
        inst = Instance("ser", (CaseSpec(0, 1, 1, 1),), single_bin())
        report = validate(inst, Packing((Placement(0, 0, 0, 0, 0, 1),)), support=0.5)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["overall"] == "feasible"
        assert doc["metrics"]["support_coverage"]["0"] == 1.0


class TestRelationCompleteness:
    def test_disjoint_boxes_have_a_relation(self):
        rng = random.Random(17)
        tested = 0
        while tested < 200:
            a = PlacedBox(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8),
                          rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            b = PlacedBox(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 8),
                          rng.uniform(0.5, 3), rng.uniform(0.5, 3), rng.uniform(0.5, 3))
            overlapping = (a.x < b.x + b.dx and b.x < a.x + a.dx
                           and a.y < b.y + b.dy and b.y < a.y + a.dy
                           and a.z < b.z + b.dz and b.z < a.z + a.dz)
            relations = separating_relations(a, b, tol=0.0)
            if overlapping:
                assert relations == ()
            else:
                assert relations, (a, b)
                # each claimed relation is a true axis separation
                for q in relations:
                    axis = q % 3
                    lo, hi = (a, b) if q < 3 else (b, a)
                    lo_start = (lo.x, lo.y, lo.z)[axis]
                    lo_ext = (lo.dx, lo.dy, lo.dz)[axis]
                    hi_start = (hi.x, hi.y, hi.z)[axis]
                    assert lo_start + lo_ext <= hi_start
            tested += 1


class TestOracleAgreement:
    @pytest.mark.parametrize("support", [None, 0.7])
    def test_verdicts_match_model_rows(self, support):
        rng = random.Random(4242)
        agree = 0
        for trial in range(25):
            inst = make_instance(trial, rng, max_cases=4, max_bins=2)
            mode = "quadratic" if support is not None else "linearized"
            model = build_model(inst, support=support, mode=mode)
            for _ in range(4):
                pack = random_packing(inst, rng)
                geo = validate(inst, pack, support=support).feasible
                rows = check_assignment(model, packing_to_assignment(model, pack))
                assert geo == (not rows)
                agree += 1
        assert agree == 100

    def test_support_coverage_capped(self):
        rng = random.Random(77)
        for trial in range(10):
            inst = make_instance(trial, rng, max_cases=4, max_bins=1)
            pack = random_packing(inst, rng)
            report = validate(inst, pack, support=1.0)
            if report.feasible:
                for cov in report.support_coverage.values():
                    assert cov <= 1.0 + 1e-6


class TestSolverAgreement:
    """The solvers decide bin boundaries and support by the validator's rules,
    so they agree with it also within one rounding of the tolerance."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("extra", [0.0, 1e-6])
    def test_solved_packings_validate_at_the_bin_edge(self, axis, extra):
        # a side of 1/7 + 1e-6 in a bin side of 1/7 overhangs by 1.000000000001e-06
        side = 1 / 7
        case, bin_dims = [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]
        case[axis], bin_dims[axis] = side + extra, side
        inst = Instance("edge", (CaseSpec(0, *case),), (BinSpec(0, *bin_dims),))
        cfg = SolverConfig(orientations=2, time_limit=1.0, deterministic=True)
        for solve in (heuristic.solve_heuristic, exact.solve_exact):
            pack = solve(inst, cfg).packing
            assert pack is not None or extra
            assert pack is None or validate(inst, pack).feasible

    @pytest.mark.parametrize("credit", [0.7, 0.7 - 1e-6])
    def test_support_verdicts_agree(self, credit):
        # case 2 (1 x 1) rests on case 0 with credit 1 - x against 0.7; a
        # credit of 0.7 - 1e-6 leaves a deficit of 1.0000000000287557e-06
        x = 1 - credit
        inst = Instance("ledge", (CaseSpec(0, 1, 1, 1, quantity=3),),
                        (BinSpec(0, 4, 4, 4),))
        spots = {0: (0.0, 0.0, 0.0), 1: (2.5, 2.5, 0.0), 2: (x, 0.0, 1.0)}
        pack = Packing(tuple(Placement(i, 0, *xyz, 1) for i, xyz in spots.items()))
        verdict = validate(inst, pack, support=0.7).feasible

        state = heuristic._WorkState(inst, 0.7)
        for i in (0, 1):
            state.commit(i, heuristic._Spot(0.0, 0.0, spots[i][1], spots[i][0], 0, 1,
                                            (1.0, 1.0, 1.0)))
        bs = state.bins[0]
        z, fit = state._settle(bs, bs.arrays(), np.array([x]), np.array([0.0]),
                               1.0, 1.0, 1.0)
        assert z.tolist() == [1.0] and bool(fit[0]) == verdict

        boxes = [PlacedBox(*spots[i], 1.0, 1.0, 1.0) for i in (0, 2)]
        assert exact._stable(boxes, (0, 0), 0.7) == verdict
        assert verdict == (credit == 0.7)


def _dense_verdicts(inst, pack, support):
    """Overlap and support violations and coverage by dense reference
    kernels: all pairs' depths, and support pairs over all bases at once."""
    want, coverage = [], {}
    for j in sorted(set(p.bin_index for p in pack.placements)):
        members = [p.case_index for p in pack.placements if p.bin_index == j]
        arr = np.array([astuple(placed_box(inst.cases[i], pack.placements[i])) for i in members])
        a, b, depth = dense_overlaps(arr, DEFAULT_TOL)
        want += [Violation("overlap", (members[x], members[y]), d)
                 for x, y, d in zip(a.tolist(), b.tolist(), depth.tolist())]
        if support is None:
            continue
        x, y, z, dx, dy = arr[:, :5].T
        base, box, area = support_pairs(arr, x, y, z, dx, dy)
        others = base != box
        credit = support_credit(z, dx, dy, base[others], area[others])
        deficit = support_deficit(support, dx, dy, credit)
        want += [Violation("support", (i,), d)
                 for i, d in zip(members, deficit.tolist()) if d > DEFAULT_TOL]
        coverage.update(zip(members, (credit / (dx * dy)).tolist()))
    want.sort(key=lambda v: (v.family == "support", v.cases))
    return want, coverage


class TestDenseReference:
    """The sparse pair kernels judge as the dense matrices they replaced."""

    @pytest.mark.parametrize("support", [None, 0.8])
    def test_verdicts_match_dense_kernels(self, support):
        overlaps = 0
        for inst, pack in judged_packings():
            report = validate(inst, pack, support=support)
            want, coverage = _dense_verdicts(inst, pack, support)
            assert [v for v in report.violations if v.family in ("overlap", "support")] == want
            assert report.support_coverage == coverage
            overlaps += sum(v.family == "overlap" for v in want)
        assert overlaps > 500

    def test_judging_a_tall_stack_traces_bounded_memory(self):
        # 2,000 unit cubes in one column meet pairwise along x: the dense
        # (k, k, 3) depth matrix traced 276 MiB here, the chunked pair
        # kernels trace about 15 MiB (numpy 2.4)
        k = 2000
        inst = Instance("stack", (CaseSpec(0, 1, 1, 1, quantity=k),), (BinSpec(0, 1, 1, k),))
        pack = stacked_packing(inst)
        judges = (lambda: validate(inst, pack).feasible,
                  lambda: validate(inst, pack, support=0.8).feasible,
                  lambda: "violation" not in render_svg(inst, pack, view="top"))
        for judge in judges:
            tracemalloc.start()
            try:
                assert judge()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40 * 2**20
