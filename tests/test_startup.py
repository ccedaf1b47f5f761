"""What a `pbr` process loads: each check runs in a fresh interpreter, so
modules imported by other tests cannot hide a heavy import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
HEAVY = {"pbrlab.hilbert", "pbrlab.nogo", "pbrlab.simplex",
         "pbrlab.contextual"}


def _fresh(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'pbrlab')))")


def test_import_cli_loads_only_the_front_end():
    loaded = _fresh("import pbrlab.cli; " + _LOADED)
    assert loaded == ["pbrlab", "pbrlab.cli", "pbrlab.ontology",
                      "pbrlab.serialize"]


@pytest.mark.parametrize("argv", [
    ["check", "--model", str(GOLDEN / "model_L3_contextual.json")],
    ["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
     "--context", "12", "--n", "100", "--seed", "1"],
], ids=["check", "sample"])
def test_model_commands_skip_the_born_table_and_the_lp(argv):
    loaded = _fresh("import contextlib, io, pbrlab.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert pbrlab.cli.main({argv!r}) == 0\n" + _LOADED)
    assert "pbrlab.cli" in loaded
    assert not HEAVY & set(loaded)


@pytest.mark.parametrize("argv, loads, skips", [
    (["refute", "--lambda-size", "2"], {"pbrlab.contextual", "pbrlab.hilbert"},
     {"pbrlab.nogo", "pbrlab.simplex"}),
    (["nogo", "--lambda-size", "2"], {"pbrlab.nogo", "pbrlab.simplex"},
     {"pbrlab.contextual"}),
], ids=["refute", "nogo"])
def test_refute_and_nogo_load_only_their_layers(argv, loads, skips):
    loaded = _fresh("import contextlib, io, pbrlab.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert pbrlab.cli.main({argv!r}) == 0\n" + _LOADED)
    assert loads <= set(loaded)
    assert not skips & set(loaded)


def test_public_names_resolve_lazily():
    result = _fresh(
        "import json, pbrlab\n"
        "missing = [n for n in pbrlab.__all__ if getattr(pbrlab, n, None) is None]\n"
        "space = {}\n"
        "exec('from pbrlab import *', space)\n"
        "unbound = sorted(set(pbrlab.__all__) - set(space))\n"
        "try:\n"
        "    pbrlab.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({'all': pbrlab.__all__, 'missing': missing,\n"
        "                  'unbound': unbound, 'unknown': unknown}))")
    assert result["missing"] == [] and result["unbound"] == []
    assert result["unknown"] == "AttributeError"
    assert not {"Scalar", "RootTwo", "scalar"} & set(result["all"])
    assert {"born_targets", "CONTEXTS", "OntologicalModel",
            "solve_feasibility", "build_interval_model"} <= set(result["all"])


def test_checker_and_oracles_load_no_pbrlab_module():
    tests = str(Path(__file__).resolve().parent)
    loaded = _fresh(f"import sys; sys.path.insert(0, {tests!r})\n"
                    "import exact_oracle, independent_checker\n" + _LOADED)
    assert loaded == []


# Modules a value-record layer built on dataclasses would load: 11-13 ms of
# every process.
RECORD_MACHINERY = {"dataclasses", "inspect"}
_COMMANDS = {
    "import": None,
    "check": ["check", "--model", str(GOLDEN / "model_L3_contextual.json"),
              "--json"],
    "sample": ["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
               "--context", "12", "--n", "100", "--seed", "1", "--json"],
    "refute": ["refute", "--lambda-size", "2", "--json"],
    "nogo": ["nogo", "--lambda-size", "2", "--json"],
}


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter has loaded before running any code."""
    return set(_fresh("import json, sys; print(json.dumps(sorted(sys.modules)))"))


@pytest.mark.parametrize("argv", _COMMANDS.values(), ids=_COMMANDS)
def test_no_command_loads_dataclasses_or_inspect(argv, bare_modules):
    run = "" if argv is None else (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert pbrlab.cli.main({argv!r}) == 0\n")
    loaded = _fresh("import contextlib, io, json, sys, pbrlab.cli\n" + run +
                    "print(json.dumps(sorted(sys.modules)))")
    assert "pbrlab.cli" in loaded
    assert not (RECORD_MACHINERY - bare_modules) & set(loaded)
