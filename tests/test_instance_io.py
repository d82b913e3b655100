import json

import pytest

from binpack3d.geometry import Instance, Packing, Placement
from binpack3d.instance_io import (
    MAX_UNITS,
    ParseError,
    bundled_instance_names,
    load_bundled,
    load_instance_arg,
    parse_instance,
    parse_packing,
    write_instance,
    write_packing,
)

EXPECTED_CASE_COUNTS = [16, 36, 41, 43, 52, 53, 60, 76, 82, 90, 96, 130, 141, 153, 158]


def sample_doc(**overrides):
    doc = {
        "format_version": 1,
        "name": "sample",
        "cases": [
            {"id": 0, "quantity": 2, "length": 3.0, "width": 2.0, "height": 1.0},
            {"id": 1, "quantity": 1, "length": 1.5, "width": 1.5, "height": 1.5},
        ],
        "bins": [
            {"type_id": 0, "quantity": 1, "length": 10.0, "width": 10.0, "height": 10.0},
        ],
    }
    doc.update(overrides)
    return doc


class TestParseInstance:
    def test_expansion_order_is_declaration_then_unit(self):
        inst = parse_instance(json.dumps(sample_doc()))
        assert inst.num_cases == 3
        assert [c.spec_id for c in inst.cases] == [0, 0, 1]
        assert [c.index for c in inst.cases] == [0, 1, 2]

    def test_empty_cases_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(json.dumps(sample_doc(cases=[])))

    def test_nonpositive_dimension_rejected(self):
        doc = sample_doc()
        doc["cases"][0]["length"] = 0
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    def test_duplicate_case_id_rejected(self):
        doc = sample_doc()
        doc["cases"][1]["id"] = 0
        with pytest.raises(ParseError):
            parse_instance(json.dumps(doc))

    # names that would inject lines into an LP file or split the MPS NAME line
    @pytest.mark.parametrize("name", ["x\nMinimize\n obj: + 5 e[0]\nSubject To", "two words",
                                      "tab\tname", "nul\x00", "bell\x07", "nbsp\u00a0",
                                      "line\u2028sep", " "])
    def test_name_with_whitespace_or_control_characters_rejected(self, name):
        doc = json.dumps(sample_doc(name=name))
        with pytest.raises(ParseError, match="^instance: name must not contain whitespace") as e:
            parse_instance(doc)
        assert "\n" not in str(e.value)
        with pytest.raises(ValueError, match="^name must not contain whitespace"):
            Instance(name, parse_instance(json.dumps(sample_doc())).case_specs, ())

    @pytest.mark.parametrize("name", ["bench-01", "a_b.c", "ünïcødé", "名前"])
    def test_printable_names_without_whitespace_accepted(self, name):
        assert parse_instance(json.dumps(sample_doc(name=name))).name == name

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_instance('{"format_version": 1,\n  broken')

    def test_missing_field_named(self):
        doc = sample_doc()
        del doc["cases"][0]["width"]
        with pytest.raises(ParseError, match="width"):
            parse_instance(json.dumps(doc))

    def test_wrong_format_version(self):
        with pytest.raises(ParseError, match="format_version"):
            parse_instance(json.dumps(sample_doc(format_version=99)))

    def test_support_threshold_parsed(self):
        inst = parse_instance(json.dumps(sample_doc(support_threshold=0.8)))
        assert inst.support_threshold == 0.8

    def test_expansion_law_random_quantities(self):
        doc = sample_doc()
        doc["cases"] = [
            {"id": i, "quantity": q, "length": 1, "width": 1, "height": 1}
            for i, q in enumerate([3, 1, 5, 2])
        ]
        inst = parse_instance(json.dumps(doc))
        assert inst.num_cases == 11

    @pytest.mark.parametrize("where,value", [
        ("case", float("nan")), ("case", float("inf")), ("bin", float("inf")),
        ("bin", -float("inf")), ("case", 10 ** 400), ("threshold", float("nan")),
        ("threshold", float("inf"))])
    def test_non_finite_numbers_rejected(self, where, value):
        doc = sample_doc()
        if where == "case":
            doc["cases"][0]["length"] = value
        elif where == "bin":
            doc["bins"][0]["length"] = value
        else:
            doc["support_threshold"] = value
        with pytest.raises(ParseError, match="must be a finite number"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("where", ["cases", "bins"])
    def test_volume_overflow_rejected(self, where):
        # every dimension is finite, but their product is not
        doc = sample_doc()
        doc[where][0].update(length=1e120, width=1e120, height=1e120)
        with pytest.raises(ParseError, match=rf"{where}\[0\]: .*volume must be a finite"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("where", ["cases", "bins"])
    def test_huge_quantity_rejected(self, where):
        """Expanding 1e11 units would exhaust memory; the parser refuses
        the document at once."""
        doc = sample_doc()
        doc[where][0]["quantity"] = 100000000000
        units = sum(entry["quantity"] for entry in doc[where])
        message = f"^instance: {where} expand to {units} units, more than {MAX_UNITS}$"
        with pytest.raises(ParseError, match=message):
            parse_instance(json.dumps(doc))

    def test_units_up_to_the_limit_accepted(self):
        doc = sample_doc()
        doc["cases"][0]["quantity"] = MAX_UNITS - 1
        inst = parse_instance(json.dumps(doc))
        assert sum(spec.quantity for spec in inst.case_specs) == MAX_UNITS
        doc["bins"][0]["quantity"] = MAX_UNITS
        parse_instance(json.dumps(doc))
        doc["bins"].append(dict(doc["bins"][0], type_id=1, quantity=1))
        message = f"bins expand to {MAX_UNITS + 1} units, more than {MAX_UNITS}$"
        with pytest.raises(ParseError, match=message):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("text,message", [
        (json.dumps(sample_doc(cases=[1])), r"^cases\[0\]: must be an object$"),
        (json.dumps(sample_doc(bins=["length"])), r"^bins\[0\]: must be an object$"),
        (b'{"format_version": 1, "name": "\xff"}', r"^instance: not UTF-8 text \(byte 31\)$"),
        ("[" * 100_000, r"^instance: invalid JSON: maximum recursion depth"),
        ('{"format_version": ' + "9" * 5000 + "}", r"^instance: invalid JSON: Exceeds")])
    def test_malformed_document_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_instance(text)

    def test_instance_round_trip(self):
        inst = parse_instance(json.dumps(sample_doc(support_threshold=0.5)))
        again = parse_instance(write_instance(inst))
        assert again == inst


class TestBundled:
    def test_case_counts_match_catalogue(self):
        counts = [load_bundled(i).num_cases for i in range(1, 16)]
        assert counts == EXPECTED_CASE_COUNTS

    def test_all_single_bin(self):
        for i in range(1, 16):
            assert load_bundled(i).num_bins == 1

    def test_instance_one_dimensions(self):
        inst = load_bundled(1)
        case0 = inst.cases[0]
        assert (case0.length, case0.width, case0.height) == (10.88, 9.82, 10.87)
        bn = inst.bins[0]
        assert (bn.length, bn.width, bn.height) == (50.0, 50.0, 50.0)

    def test_instance_three_composition(self):
        inst = load_bundled(3)
        assert inst.num_cases == 41
        small = [c for c in inst.cases if c.spec_id == 0]
        big = [c for c in inst.cases if c.spec_id == 1]
        assert len(small) == 32 and small[0].dims == (4.30, 8.00, 8.10)
        assert len(big) == 9 and big[0].dims == (20.00, 4.00, 13.50)
        bn = inst.bins[0]
        assert (bn.length, bn.width, bn.height) == (38.10, 38.10, 22.00)

    def test_names_and_arg_loader(self):
        assert bundled_instance_names()[0] == "bench-01"
        inst = load_instance_arg("bundled:15")
        assert inst.num_cases == 158
        with pytest.raises(ValueError):
            load_instance_arg("bundled:16")
        with pytest.raises(ValueError):
            load_instance_arg("bundled:zzz")


class TestPackingDocuments:
    def make_pack(self, inst):
        return Packing(tuple(
            Placement(i, 0, 0.125 + i, 0.25, 0.0625 * i, 1 + (i % 6))
            for i in range(inst.num_cases)))

    def test_round_trip_bit_identical(self):
        inst = parse_instance(json.dumps(sample_doc()))
        pack = self.make_pack(inst)
        text = write_packing(inst, pack)
        again = parse_packing(text, inst)
        assert again == pack
        assert write_packing(inst, again) == text

    def test_full_precision_round_trip(self):
        inst = parse_instance(json.dumps(sample_doc()))
        awkward = 0.1 + 0.2  # 0.30000000000000004
        pack = Packing(tuple(
            Placement(i, 0, awkward, 1 / 3, 2 / 7, 3) for i in range(3)))
        again = parse_packing(write_packing(inst, pack), inst)
        assert again.placements[0].x == awkward
        assert again.placements[0].y == 1 / 3

    def test_orientation_out_of_range(self):
        inst = parse_instance(json.dumps(sample_doc()))
        doc = json.loads(write_packing(inst, self.make_pack(inst)))
        doc["placements"][0]["orientation"] = 7
        with pytest.raises(ParseError):
            parse_packing(json.dumps(doc), inst)

    def test_bin_index_out_of_range(self):
        inst = parse_instance(json.dumps(sample_doc()))
        doc = json.loads(write_packing(inst, self.make_pack(inst)))
        doc["placements"][0]["bin_index"] = 3
        with pytest.raises(ParseError):
            parse_packing(json.dumps(doc), inst)

    def test_mismatched_instance_name(self):
        inst = parse_instance(json.dumps(sample_doc()))
        other = Instance("other", inst.case_specs, inst.bin_specs)
        text = write_packing(inst, self.make_pack(inst))
        with pytest.raises(ParseError, match="instance_name"):
            parse_packing(text, other)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinate_rejected(self, value):
        inst = parse_instance(json.dumps(sample_doc()))
        doc = json.loads(write_packing(inst, self.make_pack(inst)))
        doc["placements"][1]["z"] = value
        with pytest.raises(ParseError,
                           match=r"^placements\[1\]: field 'z' must be a finite number$"):
            parse_packing(json.dumps(doc), inst)

    def test_missing_placement_rejected(self):
        inst = parse_instance(json.dumps(sample_doc()))
        doc = json.loads(write_packing(inst, self.make_pack(inst)))
        doc["placements"].pop()
        with pytest.raises(ParseError):
            parse_packing(json.dumps(doc), inst)

    def test_placement_that_is_not_an_object_rejected(self):
        inst = parse_instance(json.dumps(sample_doc()))
        doc = json.loads(write_packing(inst, self.make_pack(inst)))
        doc["placements"][1] = None
        with pytest.raises(ParseError, match=r"^placements\[1\]: must be an object$"):
            parse_packing(json.dumps(doc), inst)
