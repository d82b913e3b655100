"""What each entry point loads, checked in fresh interpreters: the package
namespace imports a module when one of its names is first read, and a CLI
command imports only the solver or exporter it runs."""

import json
import subprocess
import sys

import pytest

import binpack3d

from conftest import child_env

# prints the numpy and binpack3d submodules loaded so far, as one JSON list
_LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules"
           " if m == 'numpy' or m.startswith('binpack3d.'))))")


def _fresh(code: str, tmp_path=None):
    """Run ``code`` in a new interpreter and return the JSON of its last
    stdout line."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _fresh("import binpack3d; " + _LOADED) == []


# with the submodule ``validate`` imported first by the CLI, or by reading
# ``AuditReport`` from it, the name ``validate`` still gives the function
@pytest.mark.parametrize("prelude", ["", "import binpack3d.cli"])
def test_every_public_name_is_its_modules_attribute(prelude):
    mismatched = _fresh(f"""{prelude}
import importlib, json
import binpack3d
print(json.dumps([
    name for name in binpack3d.__all__
    if getattr(binpack3d, name) is not getattr(
        importlib.import_module("binpack3d." + binpack3d._SOURCE[name]), name)]))
""")
    assert mismatched == []


def test_star_import_binds_every_public_name_and_dir_lists_them():
    bound, listed = _fresh("""
import json
import binpack3d
from binpack3d import *
print(json.dumps([
    [name for name in binpack3d.__all__ if globals().get(name) is getattr(binpack3d, name)],
    sorted(set(binpack3d.__all__) & set(dir(binpack3d)))]))
""")
    assert bound == listed == binpack3d.__all__
    assert len(binpack3d.__all__) == 52 and binpack3d.__all__ == sorted(binpack3d.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        binpack3d.no_such_name  # noqa: B018
    assert not hasattr(binpack3d, "no_such_name")


@pytest.mark.parametrize("argv,runs,skips", [
    (["solve", "--instance", "bundled:1", "--time-limit", "1", "--deterministic",
      "--restarts", "1", "--out", "pack.json"],
     "heuristic", ("model", "lp_format", "exact")),
    (["export", "--instance", "bundled:1", "--out", "model.lp"],
     "lp_format", ("heuristic", "exact")),
])
def test_command_loads_only_what_it_runs(tmp_path, argv, runs, skips):
    loaded = _fresh(f"""
import contextlib, io
from binpack3d import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
{_LOADED}
""", tmp_path)
    assert f"binpack3d.{runs}" in loaded
    assert not {f"binpack3d.{m}" for m in skips} & set(loaded)
