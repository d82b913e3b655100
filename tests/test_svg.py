import xml.etree.ElementTree as ET

import pytest

from binpack3d.geometry import BinSpec, CaseSpec, Instance, Packing, Placement
from binpack3d.svg_render import render_svg
from binpack3d.validate import validate

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

    @pytest.mark.parametrize("depth,marks", [(5e-7, 0), (1e-3, 1)])
    def test_violation_marks_agree_with_validate(self, depth, marks):
        inst = Instance("svg7", (CaseSpec(0, 2, 2, 2, quantity=2),),
                        (BinSpec(0, 10, 10, 10),))
        pack = Packing((Placement(0, 0, 0, 0, 0, 1),
                        Placement(1, 0, 2 - depth, 0, 0, 1)))
        assert validate(inst, pack).feasible == (marks == 0)
        for view in ("top", "front", "side"):
            assert len(rects(render_svg(inst, pack, view), "violation")) == marks

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
