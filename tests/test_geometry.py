import math
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpack3d import geometry
from binpack3d.geometry import (
    DEFAULT_TOL,
    ORIENTATIONS,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    PlacedBox,
    Placement,
    box_credit,
    effective_dims,
    footprint_area,
    ground_support,
    interval_overlap,
    objective_value,
    overlap_pairs,
    packing_boxes,
    penetration_depth,
    placed_box,
    rest_heights,
    support_area,
    support_credit,
    support_pairs,
)

from conftest import seam_packing


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_placement_rejects_non_finite_coordinates(self, value, axis):
        corner = [0.0, 0.0, 0.0]
        corner[axis] = value
        with pytest.raises(ValueError, match="finite"):
            Placement(0, 0, *corner, 1)

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


def _rows(boxes) -> np.ndarray:
    """``(k, 6)`` array of ``PlacedBox`` values."""
    return np.array([astuple(b) for b in boxes], dtype=float).reshape(-1, 6)


def _credit(upper, lowers):
    """Scalar support credit: the floor, then each lower box in order."""
    credit = ground_support(upper)
    for lower in lowers:
        credit += support_area(lower, upper)
    return credit


def _scalar_objective(inst, pack):
    """``objective_value`` term by term over scalar boxes: the case tops
    in case order, then each bin's top and height."""
    tops = [0.0] * inst.num_bins
    total = 0.0
    for p in pack.placements:
        top = placed_box(inst.cases[p.case_index], p).top
        total += top * inst.case_weights[p.case_index]
        tops[p.bin_index] = max(tops[p.bin_index], top)
    for j, b in enumerate(inst.bins):
        total += tops[j]
        if j in pack.used_bins():
            total += b.height
    return total, tuple(tops)


class TestPackingBoxes:
    """A packing's one box array equals its scalar boxes."""

    def test_rows_are_placed_boxes_in_all_six_orientations(self):
        inst = Instance("turns", (CaseSpec(0, 1.5, 2.25, 3.75, quantity=6), CaseSpec(1, 1, 2, 3)),
                        (BinSpec(0, 9, 9, 9, quantity=2), BinSpec(1, 8, 9, 9)))
        pack = Packing(tuple(Placement(i, i % 3, inst.bin_window(i % 3)[0] + i / 4, i / 8,
                                       i / 2, i % 6 + 1) for i in range(7)))
        boxes, bins = packing_boxes(inst, pack)
        assert boxes.tolist() == [list(astuple(placed_box(inst.cases[p.case_index], p)))
                                  for p in pack.placements]
        assert bins.tolist() == [p.bin_index for p in pack.placements]
        assert {p.orientation for p in pack.placements} == set(ORIENTATIONS)

    def test_empty_packing(self):
        boxes, bins = packing_boxes(Instance("none", (), (BinSpec(0, 1, 1, 1),)), Packing(()))
        assert boxes.shape == (0, 6) and bins.shape == (0,)

    @pytest.mark.parametrize("placements,message", [
        ((Placement(0, 0, 0, 0, 0, 1),), "packing has 1 placements, instance has 2 cases"),
        ((Placement(0, 0, 0, 0, 0, 1), Placement(2, 0, 0, 0, 0, 1)), "unknown case index 2"),
        ((Placement(0, 0, 0, 0, 0, 1), Placement(1, 3, 0, 0, 0, 1)), "unknown bin index 3"),
    ])
    def test_raises_check_packing_errors(self, placements, message):
        inst = Instance("two", (CaseSpec(0, 1, 1, 1, quantity=2),), (BinSpec(0, 5, 5, 5),))
        with pytest.raises(ValueError, match=message):
            packing_boxes(inst, Packing(placements))

    def test_objective_and_tops_match_the_scalar_sums(self):
        inst, pack = seam_packing()
        objective, tops = _scalar_objective(inst, pack)
        assert repr(objective_value(inst, pack)) == repr(objective)
        assert type(objective_value(inst, pack)) is float
        assert pack.top_heights(inst) == tops == (3.9000000000000004, 0.0, 2.0)


class TestVectorKernel:
    """The vector kernel equals the scalar reference predicates."""

    @_property
    @given(_boxes, st.sampled_from([0.0, DEFAULT_TOL, 0.5, 1.0]))
    def test_overlap_pairs(self, boxes, tol):
        a, b, depth = overlap_pairs(_rows(boxes), tol)
        want = [(i, j, penetration_depth(boxes[i], boxes[j]))
                for i in range(len(boxes)) for j in range(i + 1, len(boxes))]
        assert list(zip(a.tolist(), b.tolist(), depth.tolist())) == [
            pair for pair in want if pair[2] > tol]

    @_property
    @given(_boxes)
    def test_box_on_box_support_credit(self, boxes):
        arr = _rows(boxes)
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
        assert box_credit(arr).tolist() == credit.tolist()

    @_property
    @given(_boxes, _anchors, _length, _length)
    def test_rest_height_and_credit_at_anchors(self, boxes, anchors, a, b):
        arr = _rows(boxes)
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
        arr = _rows(boxes)
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


def _pairs(boxes, tol=DEFAULT_TOL):
    return [tuple(part.tolist()) for part in overlap_pairs(_rows(boxes), tol)]


class TestOverlapPairs:
    """Edge cases of the sort-and-sweep pair kernel."""

    def test_touching_faces_do_not_overlap(self):
        boxes = [PlacedBox(0, 0, 0, 1, 1, 1), PlacedBox(1, 0, 0, 1, 1, 1),
                 PlacedBox(0, 1, 0, 1, 1, 1), PlacedBox(0, 0, 1, 1, 1, 1)]
        assert _pairs(boxes) == [(), (), ()]

    def test_depth_of_exactly_tol_is_not_an_overlap(self):
        boxes = [PlacedBox(0, 0, 0, 1, 1, 1), PlacedBox(1 - 1e-6, 0, 0, 1, 1, 1)]
        depth = penetration_depth(*boxes)
        assert _pairs(boxes, depth) == [(), (), ()]
        # one rounding below the depth: the pair overlaps by more than tol
        assert _pairs(boxes, math.nextafter(depth, 0.0)) == [(0,), (1,), (depth,)]

    def test_identical_boxes_overlap_by_their_smallest_side(self):
        boxes = [PlacedBox(2, 3, 4, 3, 2, 5)] * 3
        assert _pairs(boxes) == [(0, 0, 1), (1, 2, 2), (2.0, 2.0, 2.0)]

    def test_equal_x_starts_ordered_by_row(self):
        # rows 0 and 2 start at x = 5, row 1 before them and reaching past both
        boxes = [PlacedBox(5, 0, 0, 1, 1, 1), PlacedBox(0, 0, 0, 9, 1, 1),
                 PlacedBox(5, 0.5, 0, 1, 1, 1), PlacedBox(5, 3, 0, 1, 1, 1)]
        assert _pairs(boxes) == [(0, 0, 1), (1, 2, 2), (1.0, 0.5, 0.5)]

    @pytest.mark.parametrize("boxes", [[], [PlacedBox(0, 0, 0, 1, 1, 1)],
                                       [PlacedBox(3 * i, 0, 0, 1, 1, 1) for i in range(4)]])
    def test_no_candidates(self, boxes):
        a, b, depth = overlap_pairs(_rows(boxes))
        assert len(a) == len(b) == len(depth) == 0
        assert a.dtype == b.dtype == np.intp and depth.dtype == float

    @pytest.mark.parametrize("step", [1.0, 0.5])
    def test_a_column_is_swept_along_z(self, monkeypatch, step):
        """2,000 boxes in one column all meet along x and y: swept along z,
        only neighbours that meet there are measured."""
        k = 2000
        column = np.array([(0.0, 0.0, step * i, 1.0, 1.0, 1.0) for i in range(k)])
        measured = []
        overlap = geometry._overlap
        monkeypatch.setattr(geometry, "_overlap",
                            lambda *args: measured.append(len(args[0])) or overlap(*args))
        a, b, depth = overlap_pairs(column)
        if step == 1.0:
            assert measured == [] and len(a) == 0
        else:
            assert measured == [k - 1]
            assert (a.tolist(), b.tolist()) == (list(range(k - 1)), list(range(1, k)))
            assert set(depth.tolist()) == {0.5}

    @pytest.mark.parametrize("chunk", [1, 7, geometry._PAIR_CHUNK])
    def test_result_does_not_depend_on_the_chunk(self, monkeypatch, chunk):
        rng = random.Random(29)
        arr = _rows([PlacedBox(*(rng.randint(0, 12) / 2 for _ in range(3)),
                               *(rng.randint(1, 8) / 2 for _ in range(3)))
                     for _ in range(60)])
        want = [part.tolist() for part in overlap_pairs(arr)], box_credit(arr).tolist()
        assert len(want[0][0]) > 100
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        assert ([part.tolist() for part in overlap_pairs(arr)], box_credit(arr).tolist()) == want
