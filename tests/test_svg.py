import xml.etree.ElementTree as ET
from dataclasses import astuple

import numpy as np
import pytest

from binpack3d import svg_render
from binpack3d.geometry import (
    DEFAULT_TOL,
    BinSpec,
    CaseSpec,
    Instance,
    Packing,
    Placement,
    placed_box,
)
from binpack3d.svg_render import render_svg
from binpack3d.validate import validate

from conftest import dense_overlaps, judged_packings, seam_packing

SVG_NS = "{http://www.w3.org/2000/svg}"


def rects(svg_text, cls=None):
    root = ET.fromstring(svg_text)
    found = root.findall(f".//{SVG_NS}rect")
    if cls is not None:
        found = [r for r in found if r.get("class") == cls]
    return found


def one_case_instance():
    return Instance("svg1", (CaseSpec(0, 3, 2, 1),), (BinSpec(0, 10, 10, 10),))


class TestViews:
    def test_top_view_single_case(self):
        inst = one_case_instance()
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        text = render_svg(inst, pack, view="top")
        cases = rects(text, "case")
        assert len(cases) == 1
        # scaled 3x2 rectangle anchored at the frame origin (y flipped)
        scale = 760.0 / 10.0
        assert float(cases[0].get("width")) == pytest.approx(3 * scale)
        assert float(cases[0].get("height")) == pytest.approx(2 * scale)

    def test_bin_outline_per_bin(self):
        inst = Instance("svg2", (CaseSpec(0, 1, 1, 1),),
                        (BinSpec(0, 4, 4, 4, quantity=3),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        text = render_svg(inst, pack, view="front")
        root = ET.fromstring(text)
        outlines = [r for r in root.findall(f".//{SVG_NS}rect")
                    if r.get("class") is None]
        assert len(outlines) == 3

    def test_overlap_pair_stroked_in_violation_style(self):
        inst = Instance("svg3", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 1, 1, 1, 1)))
        text = render_svg(inst, pack, view="top")
        assert len(rects(text, "case")) == 2
        assert len(rects(text, "violation")) == 1

    def test_overlap_across_bins_is_not_marked(self):
        # cases 0 and 2 overlap in the shared frame but lie in bins 2 and 0
        inst, pack = seam_packing()
        text = render_svg(inst, pack, view="top")
        assert len(rects(text, "case")) == 6
        # the one mark is the overlap of cases 1 and 2 in bin 0, x in [2.5, 3)
        [mark] = rects(text, "violation")
        scale = 760.0 / 11.0
        assert float(mark.get("x")) == pytest.approx(20.0 + 2.5 * scale, abs=1e-3)
        assert float(mark.get("width")) == pytest.approx(0.5 * scale, abs=1e-3)

    @pytest.mark.parametrize("depth,marks", [(5e-7, 0), (1e-3, 1)])
    def test_violation_marks_agree_with_validate(self, depth, marks):
        inst = Instance("svg7", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),
                        Placement(1, 0, 2 - depth, 0, 0, 1)))
        assert validate(inst, pack).feasible == (marks == 0)
        for view in ("top", "front", "side"):
            assert len(rects(render_svg(inst, pack, view), "violation")) == marks

    def test_violation_marks_match_dense_reference(self, monkeypatch):
        drawn = [render_svg(inst, pack, view="top") for inst, pack in judged_packings()]
        monkeypatch.setattr(svg_render, "overlap_pairs", dense_overlaps)
        assert drawn == [render_svg(inst, pack, view="top") for inst, pack in judged_packings()]
        # one mark per overlap that validate reports, and the pairs that
        # overlap across bins in the shared frame are not marked
        marks = [len(rects(text, "violation")) for text in drawn]
        overlaps, crossing = [], 0
        for inst, pack in judged_packings():
            report = validate(inst, pack)
            overlaps.append(sum(v.family == "overlap" for v in report.violations))
            boxes = np.array([astuple(placed_box(inst.cases[p.case_index], p))
                              for p in pack.placements])
            crossing += len(dense_overlaps(boxes, DEFAULT_TOL)[0]) - overlaps[-1]
        assert marks == overlaps and sum(marks) > 500 and crossing > 0

    def test_feasible_packing_has_no_violation_marks(self):
        inst = Instance("svg4", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2, 0, 0, 1)))
        assert not rects(render_svg(inst, pack), "violation")

    def test_layers_one_slice_per_distinct_base_height(self):
        inst = Instance("svg5", (CaseSpec(0, 2, 2, 2, quantity=4),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((
            Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 2, 0, 0, 1),
            Placement(2, 0, 0, 0, 2.0, 1), Placement(3, 0, 0, 0, 4.0, 1),
        ))
        text = render_svg(inst, pack, view="layers")
        root = ET.fromstring(text)
        seps = [g for g in root.findall(f".//{SVG_NS}g")
                if g.get("class") == "layer-sep"]
        assert len(seps) == 3  # distinct base heights 0, 2, 4

    def test_deterministic_output(self):
        inst = one_case_instance()
        pack = Packing((Placement(0, 0, 1, 2, 3, 4),))
        for view in ("top", "front", "side", "layers"):
            assert render_svg(inst, pack, view) == render_svg(inst, pack, view)

    def test_unknown_view_rejected(self):
        inst = one_case_instance()
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),))
        with pytest.raises(ValueError):
            render_svg(inst, pack, view="iso")

    def test_cases_colored_by_spec_id(self):
        inst = Instance("svg6", (CaseSpec(0, 2, 2, 2), CaseSpec(1, 2, 2, 2)),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1), Placement(1, 0, 4, 0, 0, 1)))
        cases = rects(render_svg(inst, pack), "case")
        fills = {r.get("fill") for r in cases}
        assert len(fills) == 2
