import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpack3d.geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    box_array,
    effective_dims,
    footprint_area,
    ground_support,
    interval_overlap,
    objective_value,
    penetration_depth,
    penetration_matrix,
    placed_box,
    rest_heights,
    support_area,
    support_credit,
    support_pairs,
)


class TestEffectiveDims:
    def test_identity_orientation(self):
        case = CaseSpec(0, 10.88, 9.82, 10.87)
        assert effective_dims(case, 1) == (10.88, 9.82, 10.87)

    def test_cube_invariant_under_rotation(self):
        cube = CaseSpec(0, 2, 2, 2)
        for k in ORIENTATIONS:
            assert effective_dims(cube, k) == (2, 2, 2)

    def test_orientation_five_swaps_axes(self):
        case = CaseSpec(0, 10.88, 9.82, 10.87)
        assert effective_dims(case, 5) == (10.87, 10.88, 9.82)

    def test_all_six_orientations_distinct_permutations(self):
        case = CaseSpec(0, 3, 5, 7)
        seen = {effective_dims(case, k) for k in ORIENTATIONS}
        assert len(seen) == 6
        for triple in seen:
            assert sorted(triple) == [3, 5, 7]

    def test_invalid_orientation_rejected(self):
        with pytest.raises(ValueError):
            effective_dims(CaseSpec(0, 1, 1, 1), 7)

    def test_permutation_property_random(self):
        rng = random.Random(7)
        for _ in range(200):
            dims = tuple(round(rng.uniform(0.1, 40), 3) for _ in range(3))
            case = CaseSpec(0, *dims)
            for k in ORIENTATIONS:
                eff = effective_dims(case, k)
                assert sorted(eff) == sorted(dims)
                assert eff[0] * eff[1] * eff[2] == pytest.approx(
                    dims[0] * dims[1] * dims[2], rel=1e-12)


class TestFootprint:
    def test_base_orientation(self):
        assert footprint_area(CaseSpec(0, 3, 2, 1), 1) == 6

    def test_width_height_footprint(self):
        assert footprint_area(CaseSpec(0, 3, 2, 1), 4) == 2

    def test_unit_cube(self):
        for k in ORIENTATIONS:
            assert footprint_area(CaseSpec(0, 1, 1, 1), k) == 1

    def test_matches_effective_dims_product(self):
        rng = random.Random(13)
        for _ in range(100):
            case = CaseSpec(0, *[round(rng.uniform(0.5, 9), 3) for _ in range(3)])
            for k in ORIENTATIONS:
                dx, dy, _ = effective_dims(case, k)
                assert footprint_area(case, k) == dx * dy

    def test_pairing_of_orientations(self):
        # footprint is l*w for k in {1,3}, l*h for {2,5}, w*h for {4,6}
        case = CaseSpec(0, 3, 5, 7)
        assert footprint_area(case, 1) == footprint_area(case, 3) == 15
        assert footprint_area(case, 2) == footprint_area(case, 5) == 21
        assert footprint_area(case, 4) == footprint_area(case, 6) == 35


class TestIntervalOverlap:
    def test_half_shifted_unit_intervals(self):
        assert interval_overlap(0, 1, 0.5, 1) == 0.5

    def test_disjoint_clamps_to_zero(self):
        assert interval_overlap(0, 1, 5, 1) == 0

    def test_containment_gives_inner_length(self):
        assert interval_overlap(0, 4, 1, 2) == 2

    def test_symmetry_and_bounds(self):
        rng = random.Random(99)
        for _ in range(300):
            a0, b0 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            al, bl = rng.uniform(0, 4), rng.uniform(0, 4)
            v = interval_overlap(a0, al, b0, bl)
            assert v == interval_overlap(b0, bl, a0, al)
            assert 0 <= v <= min(al, bl) + 1e-12

    def test_monotone_as_intervals_separate(self):
        prev = math.inf
        for shift in (0.0, 0.5, 1.0, 1.5, 2.5):
            v = interval_overlap(0, 2, shift, 2)
            assert v <= prev
            prev = v


class TestSupportArea:
    def test_full_footprint_rest(self):
        lower = PlacedBox(0, 0, 0, 2, 2, 1)
        upper = PlacedBox(0, 0, 1, 2, 2, 1)
        assert support_area(lower, upper) == 4

    def test_floating_case_gets_nothing(self):
        lower = PlacedBox(0, 0, 0, 2, 2, 1)
        upper = PlacedBox(0, 0, 2, 2, 2, 1)
        assert support_area(lower, upper) == 0

    def test_corner_overlap(self):
        lower = PlacedBox(0, 0, 0, 4, 4, 1)
        upper = PlacedBox(3, 3, 1, 2, 2, 1)
        assert support_area(lower, upper) == 1

    def test_never_exceeds_either_footprint(self):
        rng = random.Random(5)
        for _ in range(200):
            lower = PlacedBox(rng.uniform(0, 3), rng.uniform(0, 3), 0,
                              rng.uniform(0.5, 3), rng.uniform(0.5, 3), 1)
            upper = PlacedBox(rng.uniform(0, 3), rng.uniform(0, 3), 1,
                              rng.uniform(0.5, 3), rng.uniform(0.5, 3), 1)
            area = support_area(lower, upper)
            assert area <= min(lower.footprint, upper.footprint) + 1e-12


class TestGroundSupport:
    def test_on_floor(self):
        assert ground_support(PlacedBox(0, 0, 0, 3, 2, 1)) == 6

    def test_above_floor(self):
        assert ground_support(PlacedBox(0, 0, 5, 3, 2, 1)) == 0

    def test_within_tolerance(self):
        tol = 1e-6
        assert ground_support(PlacedBox(0, 0, tol / 2, 3, 2, 1), tol) == 6


class TestObjectiveValue:
    def test_unit_case_in_large_bin(self):
        inst = Instance("o", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 50, 50, 50),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        assert objective_value(inst, pack) == pytest.approx(52.0)

    def test_empty_everything(self):
        inst = Instance("empty", (), ())
        assert objective_value(inst, Packing(())) == 0.0

    def test_two_identical_cases_side_by_side(self):
        h_bin = 7.0
        inst = Instance("pair", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 10, 10, h_bin),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2, 0, 0, 1)))
        assert objective_value(inst, pack) == pytest.approx(4.0 + h_bin)

    def test_unknown_bin_rejected(self):
        inst = Instance("o", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 5, 5, 5),))
        with pytest.raises(ValueError):
            objective_value(inst, Packing((Placement(0, 3, 0, 0, 0, 1),)))

    def test_raising_any_case_never_decreases_objective(self):
        rng = random.Random(21)
        inst = Instance(
            "mono",
            (CaseSpec(0, 2, 2, 2), CaseSpec(1, 3, 1, 2), CaseSpec(2, 1, 1, 4)),
            (BinSpec(0, 12, 12, 12),))
        for _ in range(50):
            placements = [
                Placement(i, 0, rng.uniform(0, 5), rng.uniform(0, 5),
                          rng.uniform(0, 5), rng.randint(1, 6))
                for i in range(3)
            ]
            base = objective_value(inst, Packing(tuple(placements)))
            victim = rng.randrange(3)
            delta = rng.uniform(0.01, 2.0)
            p = placements[victim]
            placements[victim] = Placement(p.case_index, 0, p.x, p.y,
                                           p.z + delta, p.orientation)
            raised = objective_value(inst, Packing(tuple(placements)))
            assert raised >= base - 1e-12


class TestTypes:
    def test_case_spec_validation(self):
        with pytest.raises(ValueError):
            CaseSpec(0, 0, 1, 1)
        with pytest.raises(ValueError):
            CaseSpec(0, 1, 1, 1, quantity=0)

    def test_duplicate_case_ids_rejected(self):
        with pytest.raises(ValueError):
            Instance("dup", (CaseSpec(0, 1, 1, 1), CaseSpec(0, 2, 2, 2)),
                     (BinSpec(0, 5, 5, 5),))

    def test_instance_expansion_and_envelope(self):
        inst = Instance(
            "env",
            (CaseSpec(0, 1, 1, 1, quantity=3), CaseSpec(1, 2, 2, 2, quantity=2)),
            (BinSpec(0, 4, 5, 6, quantity=2), BinSpec(1, 10, 3, 2)),
        )
        assert inst.num_cases == 5
        assert [c.spec_id for c in inst.cases] == [0, 0, 0, 1, 1]
        assert inst.num_bins == 3
        assert inst.cum_lengths == (4.0, 8.0, 18.0)
        assert inst.total_length == 18.0
        assert inst.max_width == 5.0
        assert inst.max_height == 6.0
        assert inst.bin_window(1) == (4.0, 8.0)

    def test_cum_lengths_strictly_increasing(self):
        inst = Instance("inc", (CaseSpec(0, 1, 1, 1),),
                        (BinSpec(0, 3, 3, 3, quantity=4),))
        ledger = inst.cum_lengths
        assert all(b > a for a, b in zip(ledger, ledger[1:]))

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            Placement(0, 0, -1, 0, 0, 1)
        with pytest.raises(ValueError):
            Placement(0, 0, 0, 0, 0, 0)

    def test_packing_one_placement_per_case(self):
        with pytest.raises(ValueError):
            Packing((Placement(0, 0, 0, 0, 0, 1), Placement(0, 0, 1, 0, 0, 1)))

    def test_top_heights(self):
        inst = Instance("tops", (CaseSpec(0, 1, 1, 2, quantity=2),),
                        (BinSpec(0, 5, 5, 5, quantity=2),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 1, 0, 1.5, 1)))
        assert pack.top_heights(inst) == (3.5, 0.0)
        assert pack.used_bins() == (0,)

    def test_penetration_depth(self):
        a = PlacedBox(0, 0, 0, 1, 1, 1)
        assert penetration_depth(a, PlacedBox(0, 0, 0, 1, 1, 1)) == 1
        assert penetration_depth(a, PlacedBox(1, 0, 0, 1, 1, 1)) == 0
        assert penetration_depth(a, PlacedBox(0.5, 0, 0, 1, 1, 1)) == 0.5

    def test_placed_box(self):
        case = CaseSpec(0, 3, 2, 1)
        box = placed_box(case, Placement(0, 0, 1, 1, 1, 5))
        assert (box.dx, box.dy, box.dz) == (1, 3, 2)
        assert box.top == 3


# Coordinates on a 0.5 grid, so touching faces and shared edges occur often.
_coord = st.integers(0, 12).map(lambda v: v / 2)
_length = st.integers(1, 6).map(lambda v: v / 2)
_boxes = st.lists(st.builds(PlacedBox, _coord, _coord, _coord, _length, _length, _length),
                  max_size=8)
_anchors = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8)
_property = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _credit(upper, lowers):
    """Scalar support credit: the floor, then each lower box in order."""
    credit = ground_support(upper)
    for lower in lowers:
        credit += support_area(lower, upper)
    return credit


class TestVectorKernel:
    """The vector kernel equals the scalar reference predicates."""

    @_property
    @given(_boxes)
    def test_penetration_matrix(self, boxes):
        got = penetration_matrix(box_array(boxes))
        assert got.tolist() == [[penetration_depth(a, b) for b in boxes] for a in boxes]

    @_property
    @given(_boxes)
    def test_box_on_box_support_credit(self, boxes):
        arr = box_array(boxes)
        x, y, z, dx, dy = arr[:, :5].T
        base, box, area = support_pairs(arr, x, y, z, dx, dy)
        dense = np.zeros((len(boxes), len(boxes)))
        dense[base, box] = area
        assert dense.tolist() == [[support_area(lower, upper) for lower in boxes]
                                  for upper in boxes]
        others = base != box
        credit = support_credit(z, dx, dy, base[others], area[others])
        assert credit.tolist() == [
            _credit(upper, [lower for j, lower in enumerate(boxes) if j != i])
            for i, upper in enumerate(boxes)]

    @_property
    @given(_boxes, _anchors, _length, _length)
    def test_rest_height_and_credit_at_anchors(self, boxes, anchors, a, b):
        arr = box_array(boxes)
        xs, ys = np.array(anchors, dtype=float).T
        z = rest_heights(arr, xs, ys, a, b)
        assert z.tolist() == [
            max((lower.top for lower in boxes
                 if interval_overlap(lower.x, lower.dx, x, a) > DEFAULT_TOL
                 and interval_overlap(lower.y, lower.dy, y, b) > DEFAULT_TOL),
                default=0.0)
            for x, y in anchors]
        base, _, area = support_pairs(arr, xs, ys, z, a, b)
        credit = support_credit(z, a, b, base, area)
        assert credit.tolist() == [_credit(PlacedBox(x, y, zi, a, b, 1.0), boxes)
                                   for (x, y), zi in zip(anchors, z.tolist())]

    @_property
    @given(_boxes, st.lists(st.tuples(_coord, _coord, _length, _length), min_size=1, max_size=8))
    def test_per_anchor_dims_match_scalar_dims(self, boxes, rows):
        arr = box_array(boxes)
        xs, ys, a, b = np.array(rows, dtype=float).T
        z = rest_heights(arr, xs, ys, a, b)
        base, box, area = support_pairs(arr, xs, ys, z, a, b)
        credit = support_credit(z, a, b, base, area)
        for i, (x, y, ai, bi) in enumerate(rows):
            xi, yi = np.array([x]), np.array([y])
            zi = rest_heights(arr, xi, yi, ai, bi)
            assert zi.tolist() == [z[i]]
            base_i, box_i, area_i = support_pairs(arr, xi, yi, zi, ai, bi)
            assert box_i.tolist() == box[base == i].tolist()
            assert area_i.tolist() == area[base == i].tolist()
            assert support_credit(zi, ai, bi, base_i, area_i).tolist() == [credit[i]]
