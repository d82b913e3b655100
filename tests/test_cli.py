import contextlib
import io
import json
import locale
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binpack3d import cli
from binpack3d.cli import main
from binpack3d.instance_io import load_bundled, parse_packing, write_packing
from binpack3d.model import expected_constraint_count, expected_variable_count

from conftest import LARGEST_TIME_LIMIT, child_env


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def bad_packing_file(tmp_path):
    """Two cases of bundled instance 1 stacked at the origin."""
    inst = load_bundled(1)
    doc = {
        "format_version": 1,
        "instance_name": inst.name,
        "placements": [
            {"case_index": i, "bin_index": 0, "x": 0.0, "y": 0.0, "z": 0.0,
             "orientation": 1}
            for i in range(inst.num_cases)
        ],
    }
    path = tmp_path / "bad.pack.json"
    path.write_text(json.dumps(doc))
    return path


class TestSolve:
    def test_solve_bundled_writes_packing_and_report(self, tmp_path, capsys):
        out = tmp_path / "pack.json"
        trace = tmp_path / "trace.log"
        code, stdout, _ = run_cli([
            "solve", "--instance", "bundled:1", "--time-limit", "2",
            "--seed", "7", "--deterministic", "--restarts", "2",
            "--out", str(out), "--trace", str(trace)], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["feasible"] is True
        assert report["solver"] == "heuristic"
        inst = load_bundled(1)
        pack = parse_packing(out.read_bytes(), inst)
        assert len(pack.placements) == 16
        lines = trace.read_text().splitlines()
        assert lines and all(len(ln.split()) == 2 for ln in lines)

    def test_solve_infeasible_exits_2(self, tmp_path, capsys):
        doc = {
            "format_version": 1, "name": "hopeless",
            "cases": [{"id": 0, "quantity": 1, "length": 9, "width": 9, "height": 9}],
            "bins": [{"type_id": 0, "quantity": 1, "length": 2, "width": 2, "height": 2}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(
            ["solve", "--instance", str(path), "--time-limit", "1",
             "--deterministic"], capsys)
        assert code == 2
        assert json.loads(stdout)["feasible"] is False

    @pytest.mark.parametrize("deterministic", [[], ["--deterministic"]])
    def test_time_limit_up_to_a_finite_step_budget(self, tmp_path, capsys, deterministic):
        """The largest time limit with a finite step budget solves; the next
        float is a one-line usage error that names ``time_limit``."""
        out = tmp_path / "pack.json"
        for limit, want in ((LARGEST_TIME_LIMIT, 0),
                            (math.nextafter(LARGEST_TIME_LIMIT, math.inf), 1)):
            code, stdout, err = run_cli(
                ["solve", "--instance", "bundled:1", "--time-limit", repr(limit),
                 "--restarts", "1", "--out", str(out), *deterministic], capsys)
            assert code == want
            if want:
                assert err.startswith("binpack3d: error: time_limit")
                assert err.strip().count("\n") == 0 and not out.exists()
            else:
                assert json.loads(stdout)["feasible"] is True
                out.unlink()

    def test_exact_solver_selectable(self, tmp_path, capsys):
        doc = {
            "format_version": 1, "name": "tiny",
            "cases": [{"id": 0, "quantity": 2, "length": 2, "width": 2, "height": 2}],
            "bins": [{"type_id": 0, "quantity": 1, "length": 6, "width": 6, "height": 6}],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(
            ["solve", "--instance", str(path), "--solver", "exact",
             "--time-limit", "5"], capsys)
        assert code == 0
        assert json.loads(stdout)["solver"] == "exact"

    def test_exact_solver_takes_a_time_limit_past_its_node_rate(self, tmp_path, capsys):
        doc = {
            "format_version": 1, "name": "one",
            "cases": [{"id": 0, "quantity": 1, "length": 1, "width": 2, "height": 3}],
            "bins": [{"type_id": 0, "quantity": 1, "length": 5, "width": 5, "height": 5}],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            ["solve", "--instance", str(path), "--solver", "exact", "--time-limit", "1e305",
             "--deterministic"], capsys)
        assert code == 0 and err == ""
        report = json.loads(stdout)
        assert report["solver"] == "exact" and report["feasible"] is True


class TestExport:
    def test_lp_row_count_matches_formula(self, tmp_path, capsys):
        out = tmp_path / "m.lp"
        code, stdout, _ = run_cli(
            ["export", "--instance", "bundled:1", "--mode", "linearized",
             "--out", str(out)], capsys)
        assert code == 0
        meta = json.loads(stdout)
        assert meta["constraints"] == expected_constraint_count(16, 1, (1,))
        assert meta["constraints"] == 1016
        text = out.read_text()
        assert text.startswith("\\ Model for instance bench-01")
        assert text.rstrip().endswith("End")

    def test_format_inferred_from_extension(self, tmp_path, capsys):
        out = tmp_path / "m.mps"
        code, _, _ = run_cli(["export", "--instance", "bundled:1",
                              "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().startswith("NAME")

    def test_quadratic_mps_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "m.mps"
        code, _, err = run_cli(
            ["export", "--instance", "bundled:1", "--mode", "quadratic",
             "--out", str(out)], capsys)
        assert code == 1
        assert err.strip().count("\n") == 0  # single-line diagnostic
        assert not out.exists()  # no partial output

    def test_quadratic_mps_leaves_an_old_file_as_it_was(self, tmp_path, capsys):
        # the temp file exists before the emitter rejects the model
        out = tmp_path / "old.mps"
        out.write_bytes(b"NAME old\nENDATA\n")
        code, stdout, err = run_cli(
            ["export", "--instance", "bundled:1", "--mode", "quadratic", "--format", "mps",
             "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("binpack3d: error:") and err.count("\n") == 1
        assert out.read_bytes() == b"NAME old\nENDATA\n"
        assert os.listdir(tmp_path) == ["old.mps"]

    def test_support_model_exports(self, tmp_path, capsys):
        out = tmp_path / "sup.lp"
        code, stdout, _ = run_cli(
            ["export", "--instance", "bundled:1", "--support-threshold", "0.8",
             "--out", str(out)], capsys)
        assert code == 0
        assert "sup_min[0]:" in out.read_text()


_dims = st.lists(st.floats(0.1, 12.0), min_size=3, max_size=3)


@st.composite
def export_requests(draw):
    """A small instance document plus export flags, some of them out of range."""
    case_qty = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4)
                    .filter(lambda qty: sum(qty) <= 4))
    bin_qty = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    doc = {"format_version": 1, "name": "fuzz",
           "cases": [dict(zip(("length", "width", "height"), draw(_dims)), id=k, quantity=q)
                     for k, q in enumerate(case_qty)],
           "bins": [dict(zip(("length", "width", "height"), draw(_dims)), type_id=k,
                         quantity=q) for k, q in enumerate(bin_qty)]}
    support = draw(st.one_of(st.none(), st.floats(0.0, 1.0), st.floats(-2.0, 3.0),
                             st.just(math.nan)))
    flags = {"mode": draw(st.sampled_from(["linearized", "quadratic"])),
             "big-m": draw(st.sampled_from(["paper", "tight"])),
             "mccormick-pieces": draw(st.integers(-1, 6)),
             "orientations": draw(st.sampled_from([2, 6])),
             "format": draw(st.sampled_from(["lp", "mps"]))}
    if support is not None:
        flags["support-threshold"] = support
    return doc, flags


class TestExportFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(export_requests())
    def test_export_exits_cleanly(self, request):
        doc, flags = request
        support = flags.get("support-threshold")
        valid = ((support is None or 0 <= support <= 1) and flags["mccormick-pieces"] >= 1
                 and not (flags["format"] == "mps" and flags["mode"] == "quadratic"))
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "inst.json"), os.path.join(tmp, "model.txt")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv = ["export", "--instance", path, "--out", out,
                    *(f"--{flag}={value!r}" if isinstance(value, float)
                      else f"--{flag}={value}" for flag, value in flags.items())]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code == (0 if valid else 1), stderr.getvalue()
            if code == 1:
                err = stderr.getvalue()
                assert err.startswith("binpack3d: error:") and err.count("\n") == 1
                assert "Traceback" not in err and stdout.getvalue() == ""
                assert os.listdir(tmp) == ["inst.json"]
                return
            summary = json.loads(stdout.getvalue())
            m = sum(case["quantity"] for case in doc["cases"])
            sizes = tuple(spec["quantity"] for spec in doc["bins"])
            shape = {"support": support is not None, "mode": flags["mode"],
                     "mccormick_pieces": flags["mccormick-pieces"]}
            assert summary["variables"] == expected_variable_count(m, sum(sizes), **shape)
            assert summary["constraints"] == expected_constraint_count(
                m, sum(sizes), sizes, **shape)
            with open(out) as fh:
                text = fh.read()
            assert text.endswith("End\n" if flags["format"] == "lp" else "ENDATA\n")


class TestValidateCommand:
    def test_feasible_round_trip(self, tmp_path, capsys):
        inst = load_bundled(1)
        from binpack3d.heuristic import solve_heuristic
        from binpack3d.solvers import SolverConfig
        res = solve_heuristic(inst, SolverConfig(time_limit=1.5, seed=1,
                                                 deterministic=True))
        path = tmp_path / "good.json"
        path.write_text(write_packing(inst, res.packing))
        code, stdout, _ = run_cli(
            ["validate", "--instance", "bundled:1", "--packing", str(path)],
            capsys)
        assert code == 0
        assert json.loads(stdout)["overall"] == "feasible"

    def test_overlapping_packing_exits_2(self, bad_packing_file, capsys):
        code, stdout, _ = run_cli(
            ["validate", "--instance", "bundled:1",
             "--packing", str(bad_packing_file)], capsys)
        assert code == 2
        doc = json.loads(stdout)
        assert doc["overall"] == "infeasible"
        assert any(v["family"] == "overlap" for v in doc["violations"])


class TestReportRender:
    def test_report_with_bound(self, tmp_path, capsys):
        inst = load_bundled(1)
        from binpack3d.heuristic import solve_heuristic
        from binpack3d.solvers import SolverConfig
        res = solve_heuristic(inst, SolverConfig(time_limit=1.5, seed=1,
                                                 deterministic=True))
        path = tmp_path / "p.json"
        path.write_text(write_packing(inst, res.packing))
        code, stdout, _ = run_cli(
            ["report", "--instance", "bundled:1", "--packing", str(path),
             "--bound", "50"], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert doc["relative_gap"] == pytest.approx(
            (doc["objective"] - 50) / doc["objective"])

    def test_report_on_infeasible_packing_exits_2(self, bad_packing_file, tmp_path, capsys):
        argv = ["report", "--instance", "bundled:1", "--packing", str(bad_packing_file)]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 2
        assert json.loads(stdout)["feasible"] is False
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert json.loads(out.read_text())["feasible"] is False

    def test_render_writes_svg(self, tmp_path, capsys):
        inst = load_bundled(1)
        from binpack3d.heuristic import solve_heuristic
        from binpack3d.solvers import SolverConfig
        res = solve_heuristic(inst, SolverConfig(time_limit=1.5, seed=1,
                                                 deterministic=True))
        pack_path = tmp_path / "p.json"
        pack_path.write_text(write_packing(inst, res.packing))
        svg_path = tmp_path / "out.svg"
        code, _, _ = run_cli(
            ["render", "--instance", "bundled:1", "--packing", str(pack_path),
             "--view", "layers", "--out", str(svg_path)], capsys)
        assert code == 0
        assert svg_path.read_text().startswith("<svg")


class TestAtomicWrite:
    def test_text_of_several_slices_round_trips(self, tmp_path):
        encoding = locale.getpreferredencoding(False)
        size = 1 << 20
        # "é" ends the first write and takes the bytes on both sides of the
        # first 1 MiB boundary; a four-byte letter ends the second write and
        # another starts the third
        slices = ["a" * (size - 1) + "é", "b" * (size - 2) + "\U0001d538",
                  "\U0001d538" + "c\n" * size]
        try:
            expected = "".join(slices).encode(encoding)
        except UnicodeEncodeError:
            pytest.skip(f"the {encoding} locale encoding has no multi-byte letters")
        path = tmp_path / "out.txt"
        cli._atomic_write(str(path), lambda fh: [fh.write(piece) for piece in slices])
        assert path.read_bytes() == expected
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failing_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("before\n")

        def write(fh):
            fh.write("x" * (1 << 20))
            fh.write("\ud800")  # a lone surrogate has no encoding

        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(path), write)
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "before\n"


class TestUsageErrors:
    def test_unknown_flag_rejected_with_exit_1(self, capsys):
        code, _, err = run_cli(["solve", "--instance", "bundled:1",
                                "--no-such-flag"], capsys)
        assert code == 1
        assert err.startswith("binpack3d: error:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize("name,out", [("x\nMinimize\n obj: + 5 e[0]\nSubject To", "m.lp"),
                                          ("two words", "m.mps")])
    def test_instance_name_with_whitespace_is_a_usage_error(self, tmp_path, capsys, name, out):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": name,
            "cases": [{"id": 0, "quantity": 1, "length": 1, "width": 1, "height": 1}],
            "bins": [{"type_id": 0, "quantity": 1, "length": 5, "width": 5, "height": 5}]}))
        code, stdout, err = run_cli(["export", "--instance", str(path), "--mode", "linearized",
                                     "--out", str(tmp_path / out)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("binpack3d: error: instance: name must not contain whitespace")
        assert err.strip().count("\n") == 0
        assert not (tmp_path / out).exists()

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(
            ["validate", "--instance", "/nonexistent/path.json",
             "--packing", "/also/missing.json"], capsys)
        assert code == 1
        assert err.startswith("binpack3d: error:")

    @pytest.mark.parametrize("command", ["solve", "export"])
    @pytest.mark.parametrize("case_length,bin_length", [("NaN", 5), (1, "Infinity")])
    def test_non_finite_instance_is_a_usage_error(self, tmp_path, capsys, command,
                                                  case_length, bin_length):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format_version": 1, "name": "bad", "cases": [{"id": 0, "quantity": 1, '
            f'"length": {case_length}, "width": 1, "height": 1}}], "bins": '
            f'[{{"type_id": 0, "quantity": 1, "length": {bin_length}, "width": 5, '
            '"height": 5}]}')
        out = tmp_path / "out.lp"
        code, _, err = run_cli([command, "--instance", str(path), "--out", str(out)],
                               capsys)
        assert code == 1
        assert err.startswith("binpack3d: error:") and "finite number" in err
        assert err.strip().count("\n") == 0 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--time-limit", "inf", "--deterministic"],
        ["solve", "--time-limit", "nan"],
        ["solve", "--support-threshold", "1.5"],
        ["solve", "--support-threshold", "-1"],
        ["export", "--support-threshold", "1.5"],
        ["validate", "--packing", "PACKING", "--support-threshold", "1.5"],
        ["validate", "--packing", "PACKING", "--support-threshold", "-0.5"],
        ["validate", "--packing", "PACKING", "--tol", "nan"],
        ["validate", "--packing", "PACKING", "--tol", "inf"],
        ["validate", "--packing", "PACKING", "--tol", "-1"],
        ["report", "--packing", "PACKING", "--time-limit", "nan"],
        ["report", "--packing", "PACKING", "--time-limit", "inf"],
        ["report", "--packing", "PACKING", "--time-limit", "-1"],
        ["report", "--packing", "PACKING", "--bound", "nan"],
        ["report", "--packing", "PACKING", "--bound", "inf"]])
    def test_out_of_range_flags_rejected(self, tmp_path, capsys, bad_packing_file,
                                         argv):
        argv = [str(bad_packing_file) if a == "PACKING" else a for a in argv]
        out = tmp_path / "out.lp"
        code, _, err = run_cli([*argv, "--instance", "bundled:1", "--out", str(out)],
                               capsys)
        assert code == 1
        assert err.startswith("binpack3d: error:")
        assert err.strip().count("\n") == 0
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "export"])
    def test_volume_overflow_is_a_usage_error(self, tmp_path, capsys, command):
        # two cases of 1e120^3 in a 3e120^3 bin: every volume overflows
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": "huge",
            "cases": [{"id": 0, "quantity": 2, "length": 1e120, "width": 1e120,
                       "height": 1e120}],
            "bins": [{"type_id": 0, "quantity": 1, "length": 3e120, "width": 3e120,
                      "height": 3e120}]}))
        out = tmp_path / "out.lp"
        code, stdout, err = run_cli([command, "--instance", str(path), "--out", str(out)],
                                    capsys)
        assert code == 1 and stdout == ""
        assert err.startswith("binpack3d: error:") and "volume" in err
        assert err.strip().count("\n") == 0 and "Traceback" not in err
        assert not out.exists()

    def test_envelope_overflow_is_a_usage_error(self, tmp_path, capsys):
        # each bin is finite, but the frame they span together is not
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "format_version": 1, "name": "huge",
            "cases": [{"id": 0, "quantity": 1, "length": 1, "width": 1, "height": 1}],
            "bins": [{"type_id": 0, "quantity": 2, "length": 1e308, "width": 1,
                      "height": 1}]}))
        out = tmp_path / "out.lp"
        code, _, err = run_cli(["export", "--instance", str(path), "--out", str(out)],
                               capsys)
        assert code == 1
        assert err.startswith("binpack3d: error:")
        assert err.strip().count("\n") == 0 and "Traceback" not in err
        assert not out.exists()

    def test_instances_listing(self, capsys):
        code, stdout, _ = run_cli(["instances"], capsys)
        assert code == 0
        rows = json.loads(stdout)
        assert len(rows) == 15
        assert rows[0]["ref"] == "bundled:1"
        assert rows[14]["cases"] == 158


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "binpack3d", "instances"],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["name"] == "bench-01"
