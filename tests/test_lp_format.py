import hashlib
import io
import math
import pathlib
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_reference
from binpack3d import lp_format
from binpack3d.geometry import BinSpec, CaseSpec, Instance, orientation_set
from binpack3d.instance_io import load_bundled
from binpack3d.lp_format import UnsupportedModeError, emit_lp, emit_mps
from binpack3d.model import BINARY, CONTINUOUS, SENSES, Model, build_model
from conftest import mixed_bin_instance

DATA = pathlib.Path(__file__).parent / "data"

NAME_RE = re.compile(r"^[A-Za-z0-9_\[\],]+$")


def golden_instance():
    return Instance("golden-two",
                    (CaseSpec(0, 3, 2, 1), CaseSpec(1, 2, 2, 2)),
                    (BinSpec(0, 6, 5, 4),))


def support_model(mode="linearized"):
    inst = Instance("sup", (CaseSpec(0, 2, 2, 1), CaseSpec(1, 1, 1, 1)),
                    (BinSpec(0, 4, 4, 4),))
    return build_model(inst, support=0.8, mode=mode)


class TestLP:
    def test_golden_file_byte_for_byte(self):
        model = build_model(golden_instance(), mode="linearized")
        expected = (DATA / "golden_two_case.lp").read_text()
        assert emit_lp(model) == expected

    def test_emission_is_deterministic(self):
        inst = golden_instance()
        a = emit_lp(build_model(inst))
        b = emit_lp(build_model(inst))
        assert a == b

    def test_every_constraint_present(self):
        model = build_model(golden_instance())
        text = emit_lp(model)
        for con in model.constraints:
            assert f" {con.name}:" in text

    def test_quadratic_rows_use_product_blocks(self):
        model = support_model(mode="quadratic")
        text = emit_lp(model)
        assert "[ - 1 ox[0,1] * oy[0,1] ]" in text
        assert "sup_area[0,1]:" in text

    def test_objective_always_present(self):
        model = build_model(golden_instance())
        assert model.objective, "objective is constructed with the model"
        assert "Minimize" in emit_lp(model)

    def test_names_are_legal_and_short(self):
        model = support_model()
        for var in model.registry:
            assert NAME_RE.match(var.name) and len(var.name) <= 255
        for con in model.constraints:
            assert NAME_RE.match(con.name) and len(con.name) <= 255

    def test_sections_in_order(self):
        text = emit_lp(build_model(golden_instance()))
        positions = [text.index(s) for s in
                     ("Minimize", "Subject To", "Bounds", "Binaries", "End")]
        assert positions == sorted(positions)

    def test_disallowed_orientation_pinned_to_zero(self):
        model = build_model(golden_instance(), allowed_orientations=(1, 3))
        text = emit_lp(model)
        assert " r[0,2] = 0" in text


class TestMPS:
    def test_quadratic_rejected(self):
        with pytest.raises(UnsupportedModeError):
            emit_mps(support_model(mode="quadratic"))

    def test_linearized_structure(self):
        model = build_model(golden_instance())
        text = emit_mps(model)
        lines = text.splitlines()
        assert lines[0] == "NAME golden-two"
        assert lines[-1] == "ENDATA"
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
            assert section in lines

    def test_row_count_matches_model(self):
        model = build_model(golden_instance())
        text = emit_mps(model)
        rows_section = text.split("ROWS\n", 1)[1].split("COLUMNS\n", 1)[0]
        rows = [ln for ln in rows_section.splitlines() if ln.strip()]
        assert len(rows) == model.num_constraints + 1  # + objective row

    def test_binary_marker_pairs_balanced(self):
        text = emit_mps(support_model())
        assert text.count("'INTORG'") == text.count("'INTEND'")

    def test_deterministic(self):
        inst = golden_instance()
        assert emit_mps(build_model(inst)) == emit_mps(build_model(inst))

    def test_column_entries_cover_every_term(self):
        model = build_model(golden_instance())
        text = emit_mps(model)
        col_section = text.split("COLUMNS\n", 1)[1].split("RHS\n", 1)[0]
        entries = [ln.split() for ln in col_section.splitlines()
                   if ln.strip() and "MARKER" not in ln]
        total_terms = sum(len(c.terms) for c in model.constraints)
        total_terms += len(model.objective)
        assert len(entries) == total_terms


# (bundled instance, support, mode) -> {format: (characters, sha256 of the text)}
PINNED_BYTES = {
    (1, None, "linearized"): {
        "lp": (107940, "23fe09a23f9bca79090121d4f3b67da54dfc8bbfaffbf993512fc05a426b56d5"),
        "mps": (221896, "c768a8d9403f5f56c477a30c84dc9d95c069e0960db98039711ce69684dc810d")},
    (1, None, "quadratic"): {
        "lp": (110100, "b53322961243cb328124dc4789ce9678c32095d3d820e2a2d91cbe097e05580f")},
    (1, 0.8, "linearized"): {
        "lp": (641322, "08fe8af44fee30352ac8c146bb50237564309bf93581c0229b681b5e76f3fef7"),
        "mps": (1204612, "cd923360244ef39905208bbcad3ef7bdfd125b1da7fe60494870cb500e738346")},
    (1, 0.8, "quadratic"): {
        "lp": (387252, "1b1606cd9d69ca9e742cf2116759d53c807ba4ce688207b9d560d82295558060")},
    (2, None, "linearized"): {
        "lp": (527367, "a6e74a0662f1f0eba111b6240477cdd5403c596c6d02368e9b4243c2d6eabe27"),
        "mps": (1105679, "6437a6385e4abe5bed0aeab9757ef91c7301fd976058467f5dd4985122ee999b")},
    (2, None, "quadratic"): {
        "lp": (538707, "fa38c72428ccb1145c52222a7f0915d039c662553b6dd2d216a20524c3b24fc2")},
    (2, 0.8, "linearized"): {
        "lp": (3452193, "c4412527ee6aaa40ff2a8a573310a2be0ad3bbcb80c03849402a2f62bd80d2f2"),
        "mps": (6481543, "73f78c2ecf1b86c96b98345ae11f6264c412ce4a7367396440eca3361a3a02e7")},
    (2, 0.8, "quadratic"): {
        "lp": (2033663, "16df37754bf35013f4720e4d49345fb809392fe513b8a1134e063f84ba23e788")},
}


@pytest.mark.parametrize("number,support,mode", sorted(PINNED_BYTES, key=str))
def test_bundled_output_bytes_pinned(number, support, mode):
    """LP and MPS text of bench-01/02 is byte-identical to the reference.

    The digests were recorded at commit 2fcb4f8, before any change to the
    row store or the emitters: constraint rows were then one Python object
    each and MPS columns a dict-of-lists transpose.  The flat-array rows
    and the chunked emitters must reproduce those bytes exactly.
    """
    model = build_model(load_bundled(number), support=support, mode=mode)
    for fmt, (size, digest) in PINNED_BYTES[number, support, mode].items():
        text = emit_lp(model) if fmt == "lp" else emit_mps(model)
        assert len(text) == size, fmt
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


# (support, mode, big-M policy, allowed orientations) -> {format: (characters, sha256)}
MIXED_PINNED_BYTES = {
    (None, "linearized", "paper", 6): {
        "lp": (20103, "6003bc18ca7e3edddabc16db2805d7af63c07705c77dba03ccdf4fb0722c254e"),
        "mps": (39033, "fd052067353fb089932cfaab147e3ae9ac94b8d412fafb2ba69a0682e25ee220")},
    (None, "linearized", "tight", 6): {
        "lp": (20303, "8829a6354f6611c43c0db265a085839b9443bbad2536f0e1dfc44cb1f5d77cf6"),
        "mps": (39233, "a8c785e3422eeba2bf224f1a56d9b3fff07f4f019a9e9104964ea44c7db3c19f")},
    (None, "quadratic", "paper", 6): {
        "lp": (19167, "44c638078e68a927dee5be800079cb9a7ce2aafe04b99e65e7fac7cd9eed4928")},
    (None, "quadratic", "tight", 6): {
        "lp": (19367, "56d341930ae593ce5a5cbbe08f89723f6afe94535dfd73a5175118aeefdae651")},
    (0.8, "linearized", "paper", 6): {
        "lp": (48753, "655809241cff9d9a476c14259ccde481faf7d2c94b49238ab86288809d3ec1b6"),
        "mps": (89783, "1e9bab89997d4db6752fb1dd55ddd90970c85923612fbb69db8e01ab6ed3a27f")},
    (0.8, "linearized", "tight", 6): {
        "lp": (48953, "5b511e34162cdea6fd16f5db55c7e3ff1ee8d3ce330f44eaca17d855ed936bc2"),
        "mps": (89983, "b1bd745379b93e91d4fbfb9fc9e4788a65528a764f2ab2d0f3aa54fe7b272dee")},
    (0.8, "quadratic", "paper", 6): {
        "lp": (33961, "9a5e49143118a02459268953c58b098edeb23d42b990edacb6c8c231fbee47fb")},
    (0.8, "quadratic", "tight", 6): {
        "lp": (34161, "3c6610e05576a72143619e000c034c3b7df90d692b73449e687c82888b399898")},
    (0.8, "linearized", "tight", 2): {
        "lp": (49145, "13964a06723b549a2db10c3d07d6726a6a9846676bf73561335f7c3670fad0a1"),
        "mps": (90015, "0a86a313d9b2f9c2da377938c057f62ed6c365cd138b11a2bbf0520c77477a2d")},
}


@pytest.mark.parametrize("support,mode,big_m,orientations",
                         sorted(MIXED_PINNED_BYTES, key=str))
def test_mixed_bin_types_output_bytes_pinned(support, mode, big_m, orientations):
    """LP and MPS text of a model over two bin types is byte-identical to the
    reference, recorded at commit 817f850 with the row-by-row model build."""
    model = build_model(mixed_bin_instance(), support=support, mode=mode, big_m=big_m,
                        allowed_orientations=orientation_set(orientations))
    for fmt, (size, digest) in MIXED_PINNED_BYTES[support, mode, big_m, orientations].items():
        text = emit_lp(model) if fmt == "lp" else emit_mps(model)
        assert len(text) == size, fmt
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt


# --- differential tests against the per-line reference emitters -----------

# Values whose text takes every branch of the number format: signed zeros,
# integers on both sides of 1e15, tiny and large magnitudes.
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 1e15, -1e15, 999999999999999.0,
               -999999999999999.0, 1e-300, -1e-300, 2.0 ** 53, -(2.0 ** 60), 1e16,
               123456789012.0, 0.1, 3e20)
values = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=False))


def synthetic_model(variables, objective, rows, mode="linearized") -> Model:
    """A model straight from its parts.

    ``variables`` is a list of (kind, lb, ub); ``objective`` a list of
    (variable, coefficient); ``rows`` a list of (sense, rhs, terms,
    products), terms being (variable, coefficient) and products (a, b,
    coefficient).
    """
    model = Model(Instance("synthetic", (CaseSpec(0, 1, 1, 1),), (BinSpec(0, 2, 2, 2),)),
                  mode, None, "paper", 4)
    for v, (kind, lb, ub) in enumerate(variables):
        model.registry.add("v", [str(v)], kind, lb, ub)
    model.objective.extend(objective)
    store = model.constraints
    if rows:  # one block of one family, "row", over units 0..len(rows)-1
        store.blocks.append((0, (("row[", "]"),), [str(r) for r in range(len(rows))]))
    for r, (sense, rhs, terms, products) in enumerate(rows):
        store.senses.append(SENSES.index(sense))
        store.rhs.append(rhs)
        store.cols.extend(col for col, _ in terms)
        store.coefs.extend(coef for _, coef in terms)
        store.indptr.append(len(store.cols))
        for a, b, coef in products:
            store.qrows.append(r)
            store.qa.append(a)
            store.qb.append(b)
            store.qcoefs.append(coef)
    return model


def emitters(model: Model):
    """The emitters that accept ``model``, each with its reference."""
    yield emit_lp, lp_reference.emit_lp
    if model.mode == "linearized":
        yield emit_mps, lp_reference.emit_mps


def assert_same_text(model: Model) -> None:
    """Both the returned and the streamed text equal the reference."""
    for emit, reference in emitters(model):
        expected = reference(model)
        assert emit(model) == expected
        stream = io.StringIO()
        assert emit(model, stream) is stream
        assert stream.getvalue() == expected


@st.composite
def synthetic_models(draw):
    variables = draw(st.lists(st.one_of(
        st.tuples(st.just(BINARY), st.just(0.0), st.sampled_from([0.0, 1.0, -0.0])),
        st.tuples(st.just(CONTINUOUS), values, values)), min_size=1, max_size=30))
    var = st.integers(0, len(variables) - 1)
    objective = draw(st.lists(st.tuples(var, values), max_size=12))
    quadratic = draw(st.booleans())
    rows = draw(st.lists(st.tuples(
        st.sampled_from(SENSES), values,
        st.integers(0, 20).flatmap(lambda k: st.sampled_from([0, 1, 7, 8, 9, 16, 17, k]))
        .flatmap(lambda k: st.lists(st.tuples(var, values), min_size=k, max_size=k)),
        st.lists(st.tuples(var, var, values), max_size=3 if quadratic else 0)),
        max_size=25))
    return synthetic_model(variables, objective, rows,
                           "quadratic" if quadratic else "linearized")


class TestAgainstReference:
    """The gathered emitters reproduce the per-line reference byte for byte."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(synthetic_models(), st.sampled_from([4, 5, 8, 1 << 12]))
    def test_synthetic_models(self, model, chunk_lines):
        # small chunks put chunk boundaries inside rows, columns and sections
        with mock.patch.object(lp_format, "_CHUNK_LINES", chunk_lines):
            assert_same_text(model)

    def test_every_branch_in_one_model(self):
        """Kinds B/C/B/C (several markers), an empty column ("obj 0"), an FX
        bound, a repeated objective index, rows of 0, 8, 9, 16 and 17 parts
        and a row whose only part is a product."""
        variables = [(BINARY, 0.0, 1.0), (CONTINUOUS, -3.5, 1e15), (BINARY, 0.0, 0.0),
                     (BINARY, 0.0, 1.0), (CONTINUOUS, 0.0, 2.0), (CONTINUOUS, -0.0, 1e-300)]
        objective = [(1, 2.0), (3, -0.0), (1, -1e15)]
        rows = [("<=", 0.0, [], []), (">=", -0.0, [(0, 1.0)] * 8, []),
                ("=", 1e15, [(v % 4, -0.5 * v) for v in range(9)], []),
                ("<=", 2.0 ** 60, [(1, 3.0)] * 16, []), ("=", -1e-300, [(3, 1e16)] * 17, [])]
        assert_same_text(synthetic_model(variables, objective, rows))
        quadratic = synthetic_model(variables, objective,
                                    rows + [("<=", 1.0, [], [(0, 1, -1.0), (3, 3, 0.5)])],
                                    "quadratic")
        assert_same_text(quadratic)
        stream = io.StringIO()
        with pytest.raises(UnsupportedModeError):
            emit_mps(quadratic, stream)
        assert stream.getvalue() == ""

    def test_models_without_variables(self):
        assert_same_text(synthetic_model([], [], []))
        assert_same_text(synthetic_model([], [], [("<=", 1.0, [], [])]))

    def test_nan_coefficient_raises(self):
        model = synthetic_model([(CONTINUOUS, 0.0, 1.0)], [], [("<=", 1.0, [(0, math.nan)], [])])
        for emit in (emit_lp, emit_mps):
            with pytest.raises(ValueError):
                emit(model)

    @pytest.mark.parametrize("number", range(3, 8))
    @pytest.mark.parametrize("support", [None, 0.8])
    def test_bundled(self, number, support):
        for mode in ("linearized", "quadratic"):
            assert_same_text(build_model(load_bundled(number), support=support, mode=mode))


class TestStreamed:
    """``emit_*(model, out)`` writes the returned text to ``out`` in pieces."""

    @pytest.mark.parametrize("model", [
        lambda: build_model(golden_instance()), support_model,
        lambda: support_model(mode="quadratic"),
        lambda: build_model(mixed_bin_instance(), support=0.8)], ids=[
        "golden", "support", "quadratic", "two-bin-types"])
    def test_streamed_text_equals_returned_text(self, model):
        model = model()
        for emit, _ in emitters(model):
            stream = io.StringIO()
            assert emit(model, stream) is stream
            assert stream.getvalue() == emit(model)

    def test_pieces_stay_bounded(self):
        """No write hands over more than 1 Mi characters, so streaming never
        holds the whole text; bench-10's largest piece is about 0.2 Mi."""

        class Lengths(list):
            def write(self, text: str) -> None:
                self.append(len(text))

        inst = load_bundled(10)
        for mode in ("linearized", "quadratic"):
            model = build_model(inst, support=0.8, mode=mode)
            for emit, _ in emitters(model):
                lengths = emit(model, Lengths())
                assert len(lengths) > 1 and max(lengths) <= 1 << 20, (emit.__name__, mode)

    def test_emission_memory_stays_below_the_model(self):
        """Streaming bench-10 at 0.8 allocates at its peak less than 1.05
        times the model's own term and row arrays (``cols``, ``coefs``,
        ``indptr``, ``rhs``).  MPS peaks at about 0.95 times them, holding
        the column order and each entry's row, and LP at about 0.27.  So
        neither a whole-length per-term gather of 8-byte items (+0.5), nor a
        list of every row name (+1.0), nor one stable sort of all column
        entries (about 1.10) fits."""

        class Discard:
            def write(self, text: str) -> None:
                pass

        model = build_model(load_bundled(10), support=0.8)
        rows = model.constraints
        own = sum(memoryview(part).nbytes
                  for part in (rows.cols, rows.coefs, rows.indptr, rows.rhs))
        for emit in (emit_mps, emit_lp):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                emit(model, Discard())
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 1.05 * own, (emit.__name__, peak / own)


def columns_text(model: Model) -> str:
    chunks: list[str] = []
    lp_format._mps_columns(chunks.append, model)
    return "".join(chunks)


class TestMPSColumns:
    """`_mps_columns` sorts the column entries one variable range at a time;
    its text equals that of one whole-length stable sort
    (`lp_reference.mps_columns`), for any number of ranges and slices."""

    @staticmethod
    def assert_same_columns(model: Model) -> None:
        expected = lp_reference.mps_columns(model)
        for ranges, step in ((16, 1 << 16), (3, 2), (1, 1), (200, 5)):
            with mock.patch.object(lp_format, "_RANGES", ranges), \
                    mock.patch.object(lp_format, "_SLICE", step):
                assert columns_text(model) == expected, (ranges, step)

    def test_a_variable_holding_more_than_a_range(self):
        """Variable 1 is in every row, so its entries alone outnumber a
        range's share and the ranges after it are empty."""
        variables = [(CONTINUOUS, 0.0, 1.0)] * 3 + [(BINARY, 0.0, 1.0)] * 2
        rows = [("<=", 1.0, [(1, 1.0), (r % 5, -0.5 * r)], []) for r in range(40)]
        self.assert_same_columns(synthetic_model(variables, [(1, 2.0), (4, 1.0)], rows))

    def test_unused_variables(self):
        """Variables 0, 3 and 6 are in no row and not in the objective; each
        gets one "obj 0" entry."""
        variables = [(CONTINUOUS, 0.0, 1.0), (BINARY, 0.0, 1.0)] * 3 + [(CONTINUOUS, 0.0, 1.0)]
        rows = [("=", 0.0, [(1, 1.0), (2, 3.0)], []), (">=", 1.0, [(5, 1.0), (4, -1.0)], [])]
        model = synthetic_model(variables, [(2, 1.0)], rows)
        assert columns_text(model).count(" obj 0\n") == 3
        self.assert_same_columns(model)

    def test_binaries_last(self):
        """The last variable is binary, so the text closes with INTEND."""
        variables = [(CONTINUOUS, 0.0, 1.0)] * 2 + [(BINARY, 0.0, 1.0)] * 3
        rows = [("<=", 1.0, [(v, 1.0) for v in range(5)], []), ("<=", 0.0, [(4, 2.0)], [])]
        model = synthetic_model(variables, [(0, 1.0)], rows)
        assert columns_text(model).endswith(lp_format._MARKERS[2])
        self.assert_same_columns(model)

    def test_bin_order_block_without_units(self):
        """One bin per type: the bin-order block has no units and no rows."""
        model = build_model(golden_instance(), support=0.8)
        assert not any(key.startswith("bin_order") for key in model.constraints.families)
        self.assert_same_columns(model)
        self.assert_same_columns(build_model(mixed_bin_instance(), support=0.8))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(synthetic_models(), st.sampled_from([1, 2, 3, 16]), st.sampled_from([1, 3, 1 << 16]))
    def test_synthetic_models(self, model, ranges, step):
        with mock.patch.object(lp_format, "_RANGES", ranges), \
                mock.patch.object(lp_format, "_SLICE", step):
            assert columns_text(model) == lp_reference.mps_columns(model)
