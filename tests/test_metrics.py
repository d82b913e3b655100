import pytest

from binpack3d.geometry import BinSpec, CaseSpec, Instance, Packing, Placement, placed_box
from binpack3d.metrics import RunReport, bin_utilizations, utilization

from conftest import seam_packing


def _per_bin_utilization(inst, pack, j):
    """Utilization of bin ``j`` by a scan of the whole packing: case
    volumes added in case order, over the floor area times the top."""
    volume = top = 0.0
    for p in pack.placements:
        if p.bin_index == j:
            volume += inst.cases[p.case_index].volume
            top = max(top, placed_box(inst.cases[p.case_index], p).top)
    bn = inst.bins[j]
    return volume / (bn.length * bn.width * top) if volume else None


class TestUtilization:
    def test_single_unit_case_in_wide_bin(self):
        inst = Instance("u", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 50, 50, 50),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        assert utilization(inst, pack, 0) == pytest.approx(1 / (50 * 50 * 1))

    def test_fully_tiled_bin(self):
        # four 5x5x2 tiles exactly cover a 10x10 footprint at height 2
        inst = Instance("tiled", (CaseSpec(0, 5, 5, 2, quantity=4),),
                        (BinSpec(0, 10, 10, 8),))
        placements = [Placement(i, 0, 5 * (i % 2), 5 * (i // 2), 0, 1)
                      for i in range(4)]
        assert utilization(inst, Packing(tuple(placements)), 0) == pytest.approx(1.0)

    def test_two_cases_fractional(self):
        inst = Instance("frac", (CaseSpec(0, 3, 2, 1, quantity=2),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 0, 0, 2.0, 1)))
        # two 6-volume cases, occupied height 3: 12 / (10*10*3)
        assert utilization(inst, pack, 0) == pytest.approx(0.04)

    def test_unused_bin_reported_absent(self):
        inst = Instance("unused", (CaseSpec(0, 1, 1, 1),),
                        (BinSpec(0, 5, 5, 5, quantity=2),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        assert utilization(inst, pack, 1) is None
        assert bin_utilizations(inst, pack) == {0: pytest.approx(1 / 25)}

    def test_three_bins_match_the_per_bin_formula(self):
        inst, pack = seam_packing()
        want = {j: _per_bin_utilization(inst, pack, j) for j in range(inst.num_bins)}
        assert want[1] is None
        assert repr(bin_utilizations(inst, pack)) == repr(
            {j: u for j, u in want.items() if u is not None})
        assert [repr(utilization(inst, pack, j)) for j in range(3)] == list(map(repr, want.values()))
        assert all(type(u) is float for u in bin_utilizations(inst, pack).values())

    def test_unknown_bin_rejected(self):
        inst = Instance("bad", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 5, 5, 5),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        with pytest.raises(ValueError):
            utilization(inst, pack, 9)


class TestRunReport:
    def test_round_trip(self):
        report = RunReport("bench-01", "heuristic", 25.0, feasible=True,
                           objective=90.7, utilization={0: 0.74},
                           relative_gap=0.1)
        again = RunReport.from_json(report.to_json())
        assert again == report

    def test_gap_omitted_without_bound(self):
        report = RunReport("x", "exact", 5.0, feasible=False)
        doc = report.to_json()
        assert "relative_gap" not in doc
        assert RunReport.from_json(doc).relative_gap is None
