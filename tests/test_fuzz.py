"""Fuzzing the input boundaries: the instance, packing and value-file
parsers, and the ``solve``, ``validate``, ``report`` and ``render``
commands.

A parser either returns or raises ``ValueError`` with a one-line message.
A command exits 0, 1 or 2; exit 1 writes exactly one stderr line; nothing
escapes as a traceback.  A packing that ``solve`` writes on exit 0 passes
``validate``.  Inputs are bundled documents with a few values replaced,
deleted or inserted, truncated documents and arbitrary bytes.  Integers
stay small, so a mutated quantity asks for tens of cases, not thousands.
"""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from binpack3d.cli import main
from binpack3d.heuristic import solve_heuristic
from binpack3d.instance_io import load_bundled, parse_instance, parse_packing, write_packing
from binpack3d.model import parse_value_file
from binpack3d.solvers import SolverConfig
from binpack3d.svg_render import VIEWS
from binpack3d.validate import validate

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(),
                    st.text(max_size=8), st.sampled_from([1e308, -1e308, 5e-324, 2.0 ** 63]))
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=6)


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values replaced, deleted or inserted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 4))):
            if not (isinstance(node, (dict, list)) and node):
                break
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys))
            parent, node = node, node[key]
        action = draw(st.sampled_from(("replace", "delete", "insert")))
        if parent is None:
            doc = draw(json_values)
        elif action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=12))] = draw(json_values)
        else:
            parent.insert(key, draw(json_values))
    return doc


def documents(doc):
    """Text of ``doc`` mutated, a truncated copy of it, or arbitrary bytes."""
    text = json.dumps(doc).encode()
    mutations = mutated(doc).map(lambda d: json.dumps(d).encode())
    return st.one_of(mutations, mutations, st.integers(0, len(text)).map(lambda k: text[:k]),
                     st.binary(max_size=200))


def bundled_doc(number: int) -> dict:
    path = resources.files("binpack3d.data").joinpath(f"bench_{number:02d}.json")
    return json.loads(path.read_text())


@functools.lru_cache(maxsize=None)
def packing_doc() -> dict:
    """A feasible packing of bundled instance 1 as a document."""
    inst = load_bundled(1)
    result = solve_heuristic(inst, SolverConfig(time_limit=1, seed=1, deterministic=True))
    return json.loads(write_packing(inst, result.packing))


def assert_clean(parse, *args) -> None:
    try:
        parse(*args)
    except ValueError as e:
        message = str(e)
        assert message and "\n" not in message, repr(message)


class TestParsers:
    @FUZZ
    @given(st.integers(1, 15).flatmap(lambda n: documents(bundled_doc(n))))
    def test_parse_instance(self, text):
        assert_clean(parse_instance, text)

    @FUZZ
    @given(st.builds(packing_doc).flatmap(documents))
    def test_parse_packing(self, text):
        assert_clean(parse_packing, text, load_bundled(1))

    @FUZZ
    @given(st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(["x[0]", "u[0,0]", "#", "", "r[0,1]"]),
                           st.one_of(st.floats().map(repr), st.text(max_size=6)))
                 ).map(lambda pairs: "\n".join(f"{n} {v}" for n, v in pairs))))
    def test_parse_value_file(self, text):
        assert_clean(parse_value_file, text)

    def test_deep_nesting_is_a_parse_error(self):
        for parse in (parse_instance, lambda text: parse_packing(text, load_bundled(1))):
            assert_clean(parse, b"[" * 100_000)
            assert_clean(parse, '{"format_version": 1, "name": ' + "[" * 100_000)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def assert_clean_exit(code: int, stderr: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 1:
        assert stderr.startswith("binpack3d: error:") and stderr.count("\n") == 1, stderr


@st.composite
def command_inputs(draw):
    """Instance and packing bytes, the packing more often broken, and flags."""
    instance = json.dumps(bundled_doc(1)).encode()
    if not draw(st.integers(0, 3)):
        instance = draw(documents(bundled_doc(1)))
    packing = json.dumps(packing_doc()).encode()
    if draw(st.integers(0, 2)):
        packing = draw(documents(packing_doc()))
    numbers = st.one_of(st.floats(), st.sampled_from([0.0, 0.8, 1.0, -1.0, 1e-9]))
    command = draw(st.sampled_from(["validate", "report", "render"]))
    flags = []
    if command == "validate":
        for flag in ("--support-threshold", "--tol"):
            if draw(st.booleans()):
                flags.append(f"{flag}={draw(numbers)!r}")
    elif command == "report":
        for flag in ("--bound", "--time-limit"):
            if draw(st.booleans()):
                flags.append(f"{flag}={draw(numbers)!r}")
    else:
        flags.append(f"--view={draw(st.sampled_from(VIEWS))}")
    return command, instance, packing, flags, draw(st.booleans())


class TestCommandFuzz:
    @FUZZ
    @given(command_inputs())
    def test_commands_exit_cleanly(self, inputs):
        command, instance, packing, flags, draw_out = inputs
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("inst.json", "pack.json", "out")]
            for path, data in zip(paths, (instance, packing)):
                with open(path, "wb") as fh:
                    fh.write(data)
            argv = [command, "--instance", paths[0], "--packing", paths[1], *flags]
            if command == "render" or draw_out:
                argv += ["--out", paths[2]]
            code, _, stderr = run_cli(argv)
            assert_clean_exit(code, stderr)
            if code == 1:
                assert sorted(os.listdir(tmp)) == ["inst.json", "pack.json"]


def small_doc() -> dict:
    """Bundled instance 1 cut to its first four cases, so that the exact
    solver takes it too."""
    doc = bundled_doc(1)
    doc["cases"] = doc["cases"][:4]
    return doc


def mostly(valid: list, invalid: list):
    """One of ``valid``, or now and then one of ``invalid``."""
    return st.sampled_from(valid * 3 + invalid)


@st.composite
def solve_inputs(draw):
    """A small instance, now and then mutated, and solve flags in and out
    of range; budgets stay tiny, and only a deterministic one may be
    large."""
    instance = json.dumps(small_doc()).encode()
    if not draw(st.integers(0, 2)):
        instance = draw(documents(small_doc()))
    deterministic = draw(st.booleans())
    limits = [1e-9, 0.01, 0.05] + [20.0] * deterministic
    flags = [f"--time-limit={draw(mostly(limits, [0.0, -1.0, float('nan'), float('inf')]))!r}"]
    if deterministic:
        flags.append("--deterministic")
    options = {"--support-threshold": mostly([0.0, 0.5, 0.8, 1.0], [-0.5, 1.5, float("nan")]),
               "--seed": st.sampled_from([0, 7, -3, 2 ** 70]),
               "--restarts": mostly([1, 2, 3], [0, -1]),
               "--orientations": mostly([2, 6], [3]),
               "--solver": mostly(["heuristic", "heuristic", "exact"], ["milp"])}
    for flag, values in options.items():
        if draw(st.booleans()):
            flags.append(f"{flag}={draw(values)}")
    return instance, flags


class TestSolveFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(solve_inputs())
    def test_solve_exits_cleanly(self, inputs):
        instance, flags = inputs
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, name) for name in ("inst.json", "pack.json", "trace")]
            with open(paths[0], "wb") as fh:
                fh.write(instance)
            code, _, stderr = run_cli(["solve", "--instance", paths[0], "--out", paths[1],
                                       "--trace", paths[2], *flags])
            assert_clean_exit(code, stderr)
            if code != 0:
                assert sorted(os.listdir(tmp)) == ["inst.json"]
                return
            inst = parse_instance(instance)
            with open(paths[1], "rb") as fh:
                pack = parse_packing(fh.read(), inst)
            support = [float(f.split("=")[1]) for f in flags if f.startswith("--support")]
            assert validate(inst, pack, support=(support or [None])[0]).feasible
