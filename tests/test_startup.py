"""What a `pbr` process loads: each check runs in a fresh interpreter, so
modules imported by other tests cannot hide a heavy import."""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbrlab import __version__, cli

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
HEAVY = {"pbrlab.hilbert", "pbrlab.nogo", "pbrlab.simplex",
         "pbrlab.contextual"}
# The JSON file reader, which only a command that reads a file loads.
READER = "pbrlab.reader"


def _env():
    """This process's environment, with src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _program(args, cwd=None, stdin=""):
    """`python ARGS` in a fresh interpreter that finds `pbrlab` in src."""
    return subprocess.run([sys.executable, *args], env=_env(), cwd=cwd,
                          input=stdin, capture_output=True, text=True,
                          timeout=60)


def _fresh(code: str, *flags):
    done = _program([*flags, "-c", code])
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'pbrlab')))")


def test_import_cli_loads_only_the_front_end():
    loaded = _fresh("import pbrlab.cli; " + _LOADED, "-S")
    assert loaded == ["pbrlab", "pbrlab.cli", "pbrlab.serialize",
                      "pbrlab.values"]


# `ontology` holds the checks of a whole model, prediction and sampling: a
# certificate run of `nogo` needs none of them, a witness run checks its
# witness with them.
_ONTOLOGY_USERS = {
    "nogo-certificate": (["nogo", "--lambda-size", "12"], 0, False),
    "nogo-rho-certificate": (["nogo", "--lambda-size", "3", "--rho",
                              str(GOLDEN / "rho_L3_seed3_overlap.json")], 0,
                             False),
    "nogo-rho-witness": (["nogo", "--lambda-size", "3", "--rho",
                          str(GOLDEN / "rho_L3_seed3_disjoint.json")], 0, True),
    "check": (["check", "--model", str(GOLDEN / "model_L3_contextual.json")],
              0, True),
    "sample": (["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
                "--context", "12", "--n", "100", "--seed", "1"], 0, True),
    "refute": (["refute", "--lambda-size", "2"], 0, True),
    "contradiction": (["contradiction", "--model",
                       str(GOLDEN / "model_L3_disjoint.json")], 4, True),
}


@pytest.mark.parametrize("name", _ONTOLOGY_USERS)
def test_only_a_witness_or_a_model_command_loads_ontology(name):
    argv, code, loads = _ONTOLOGY_USERS[name]
    done, loaded = _fresh(
        "import contextlib, io, sys, pbrlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = pbrlab.cli.main({argv!r})\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'pbrlab']\n"
        "import json; print(json.dumps([code, sorted(loaded)]))", "-S")
    assert done == code
    assert ("pbrlab.ontology" in loaded) == loads


def test_contradiction_refuses_a_contextual_file_before_loading_nogo():
    # the file's response kind alone refuses it, so neither the forcing
    # argument nor the model checks are loaded
    loaded = _fresh("import contextlib, io, pbrlab.cli\n"
                    "with contextlib.redirect_stderr(io.StringIO()):\n"
                    "    assert pbrlab.cli.main(['contradiction', '--model', "
                    f"{str(GOLDEN / 'model_L3_contextual.json')!r}]) == 2\n"
                    + _LOADED, "-S")
    assert loaded == ["pbrlab", "pbrlab.cli", "pbrlab.reader",
                      "pbrlab.serialize", "pbrlab.values"]


@pytest.mark.parametrize("argv", [
    ["check", "--model", str(GOLDEN / "model_L3_contextual.json")],
    ["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
     "--context", "12", "--n", "100", "--seed", "1"],
], ids=["check", "sample"])
def test_model_commands_skip_the_born_table_and_the_lp(argv):
    loaded = _fresh("import contextlib, io, pbrlab.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert pbrlab.cli.main({argv!r}) == 0\n" + _LOADED,
                    "-S")
    assert "pbrlab.cli" in loaded
    assert not HEAVY & set(loaded)


@pytest.mark.parametrize("argv, loads, skips", [
    (["refute", "--lambda-size", "2"], {"pbrlab.contextual", "pbrlab.hilbert"},
     {"pbrlab.nogo", "pbrlab.simplex", "pbrlab.outfile", READER}),
    (["refute", "--lambda-size", "2", "--out", os.devnull],
     {"pbrlab.contextual", "pbrlab.outfile"}, {"pbrlab.nogo", READER}),
    (["nogo", "--lambda-size", "2"], {"pbrlab.nogo", "pbrlab.simplex"},
     {"pbrlab.contextual", "pbrlab.outfile", READER}),
    (["nogo", "--lambda-size", "3", "--rho",
      str(GOLDEN / "rho_L3_seed3_overlap.json")],
     {"pbrlab.nogo", "pbrlab.simplex", READER},
     {"pbrlab.contextual", "pbrlab.outfile"}),
], ids=["refute", "refute-out", "nogo", "nogo-rho"])
def test_refute_and_nogo_load_only_their_layers(argv, loads, skips):
    loaded = _fresh("import contextlib, io, pbrlab.cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    assert pbrlab.cli.main({argv!r}) == 0\n" + _LOADED)
    assert loads <= set(loaded)
    assert not skips & set(loaded)


# `basis` and `contradiction` build their reports in modules of their own,
# which no other command compiles, and only a command that reads a file
# compiles the reader. Each case runs the real entry, `python -m
# pbrlab.cli`, where `cli` is `__main__`: a module that imported
# `pbrlab.cli` would compile it a second time, under that name.
_REPORT_MODULES = {"pbrlab.basis", "pbrlab.forcing"}
_BOUNDARIES = {
    "nogo-certificate": (["nogo", "--lambda-size", "12", "--json"], 0,
                         {"pbrlab.hilbert", "pbrlab.nogo", "pbrlab.simplex"},
                         _REPORT_MODULES | {READER}),
    "nogo-rho-certificate": (["nogo", "--lambda-size", "7", "--rho",
                              str(GOLDEN / "rho_L7_seed7_overlap.json"),
                              "--json"], 0,
                             {"pbrlab.nogo", "pbrlab.simplex", READER},
                             _REPORT_MODULES | {"pbrlab.ontology"}),
    "nogo-witness": (["nogo", "--lambda-size", "3", "--rho",
                      str(GOLDEN / "rho_L3_seed3_disjoint.json"), "--json"],
                     0, {"pbrlab.nogo", "pbrlab.ontology", READER},
                     _REPORT_MODULES),
    "refute": (["refute", "--lambda-size", "2", "--json"], 0,
               {"pbrlab.contextual", "pbrlab.hilbert"},
               _REPORT_MODULES | {READER}),
    "check": (["check", "--model", str(GOLDEN / "model_L3_contextual.json"),
               "--json"], 0, {"pbrlab.ontology", READER}, _REPORT_MODULES),
    "sample": (["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
                "--context", "12", "--n", "100", "--seed", "1"], 0,
               {"pbrlab.ontology", READER}, _REPORT_MODULES),
    "version": (["--version"], 0, set(), _REPORT_MODULES | HEAVY | {READER}),
    "usage-error": (["nogo"], 2, set(), _REPORT_MODULES | HEAVY | {READER}),
    "contradiction": (["contradiction", "--model",
                       str(GOLDEN / "model_L3_disjoint.json"), "--json"], 4,
                      {"pbrlab.forcing", "pbrlab.ontology", READER},
                      {"pbrlab.nogo", "pbrlab.simplex", "pbrlab.hilbert"}),
    "contradiction-proof": (["contradiction", "--model",
                             str(GOLDEN / "model_L3_noncontextual.json")], 0,
                            {"pbrlab.forcing", "pbrlab.ontology", READER},
                            {"pbrlab.nogo", "pbrlab.simplex",
                             "pbrlab.hilbert"}),
    "basis": (["basis", "--json"], 0, {"pbrlab.hilbert", "pbrlab.basis"},
              {"pbrlab.nogo", "pbrlab.forcing", READER}),
}

# Imported by `site` at start-up; `run` runs the atexit handlers before it
# ends the process.
_AT_EXIT_PROBE = """import atexit, os, sys

def _probe():
    with open(os.environ["PBRLAB_LOADED"], "w") as fh:
        fh.write(" ".join(sorted(m for m in sys.modules
                                 if m.split(".")[0] == "pbrlab")))

atexit.register(_probe)
"""


def _program_loads(name, tmp_path) -> set:
    """The `pbrlab` modules `python -m pbrlab.cli` imports in case `name`
    of _BOUNDARIES, which exits with the case's code."""
    argv, code, _, _ = _BOUNDARIES[name]
    (tmp_path / "sitecustomize.py").write_text(_AT_EXIT_PROBE)
    env = _env()
    env["PYTHONPATH"] += os.pathsep + str(tmp_path)
    env["PBRLAB_LOADED"] = str(tmp_path / "loaded.txt")
    done = subprocess.run([sys.executable, "-m", "pbrlab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    return set((tmp_path / "loaded.txt").read_text().split())


@pytest.mark.parametrize("name", _BOUNDARIES)
def test_program_loads_each_report_module_only_for_its_command(name,
                                                               tmp_path):
    _, _, loads, skips = _BOUNDARIES[name]
    loaded = _program_loads(name, tmp_path)
    assert "pbrlab" in loaded and "pbrlab.cli" not in loaded
    assert loads <= loaded
    assert not skips & loaded


# With PYTHONDONTWRITEBYTECODE=1, as the benchmark runs `pbr`, a process
# compiles every `pbrlab` module it imports, and `cli` as `__main__`, from
# source, in a time that follows their AST node count. The most nodes each
# case of _BOUNDARIES compiles; the counts are the same on Python 3.10-3.13.
# A change that adds code to a command's path raises its entry, and says why:
# every entry holds 34 nodes of `cli._write` reporting a stdout that was
# closed at start or cannot encode the report.
_COMPILE_BUDGET = {
    "nogo-certificate": 8743,
    "nogo-rho-certificate": 10097,
    "nogo-witness": 11928,
    "refute": 8121,
    "check": 7601,
    "sample": 7601,
    "version": 4416,
    "usage-error": 4416,
    "contradiction": 8146,
    "contradiction-proof": 8146,
    "basis": 5812,
}


def _ast_nodes(module: str) -> int:
    path = SRC.joinpath(*module.split(".")[:2])
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


@pytest.mark.parametrize("name", _BOUNDARIES)
def test_each_command_compiles_within_its_budget(name, tmp_path):
    compiled = _program_loads(name, tmp_path) | {"pbrlab.cli"}
    assert sum(map(_ast_nodes, compiled)) <= _COMPILE_BUDGET[name]


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
                    "import judge\n" + _LOADED)
    assert loaded == []


# Modules a value-record layer built on dataclasses would load, 11-13 ms of
# every process; modules argparse and its messages loaded, 7-9 ms of every
# process, and `__future__`, which `from __future__ import annotations`
# loads. These checks run without `site`, whose .pth files may load
# `random`, `locale` or `dataclasses` ahead of any program. Every entry
# imports `pbrlab.cli`, so they also cover importing it.
RECORD_MACHINERY = {"dataclasses", "inspect"}
ARGUMENT_MACHINERY = {"argparse", "gettext", "locale", "__future__"}
_ENTRIES = {
    "check": (["check", "--model", str(GOLDEN / "model_L3_contextual.json"),
               "--json"], 0),
    "sample": (["sample", "--model", str(GOLDEN / "model_L3_contextual.json"),
                "--context", "12", "--n", "100", "--seed", "1", "--json"], 0),
    "refute": (["refute", "--lambda-size", "2", "--json"], 0),
    "nogo": (["nogo", "--lambda-size", "2", "--json"], 0),
    "nogo-rho": (["nogo", "--lambda-size", "3", "--rho",
                  str(GOLDEN / "rho_L3_seed3_overlap.json"), "--json"], 0),
    "basis": (["basis", "--json"], 0),
    "contradiction": (["contradiction", "--model",
                       str(GOLDEN / "model_L3_disjoint.json"), "--json"], 4),
    "help": (["--help"], 0),
    "command-help": (["sample", "--help"], 0),
    "version": (["--version"], 0),
    "usage-error": (["nogo", "--lambda-size", "x"], 2),
}


# Each snapshot of sys.modules is taken before json is imported to print it.
@pytest.fixture(scope="module")
def siteless_bare_modules():
    return set(_fresh("import sys; loaded = sorted(sys.modules)\n"
                      "import json; print(json.dumps(loaded))", "-S"))


# hashlib loads OpenSSL, 3-6 ms of a process, for one SHA-256 that the
# interpreter's built-in module computes as fast for these inputs; json's
# decoder compiles regexes, 2-3 ms more, for one parse that its C scanner
# does alone.
HASH_MACHINERY = {"hashlib", "_hashlib"}


@pytest.mark.parametrize("name", _ENTRIES)
def test_no_entry_loads_argparse_and_only_sample_loads_random(
        name, siteless_bare_modules):
    argv, code = _ENTRIES[name]
    done, loaded = _fresh(
        "import contextlib, io, sys, pbrlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = pbrlab.cli.main({argv!r})\n"
        "loaded = sorted(sys.modules)\n"
        "import json; print(json.dumps([code, loaded]))", "-S")
    assert done == code
    assert not ({"json"} | HASH_MACHINERY) & siteless_bare_modules
    loaded = set(loaded) - siteless_bare_modules
    assert not (RECORD_MACHINERY | ARGUMENT_MACHINERY) & loaded
    assert ("random" in loaded) == (name == "sample")
    assert not HASH_MACHINERY & loaded
    assert not {m for m in loaded if m.split(".")[0] == "json"}


# The program entry: `run` freezes the heap, runs the atexit handlers,
# flushes stdout and stderr and ends the process without finalizing the
# interpreter, unless something may still need that; `main` leaves the
# process alone.

def test_main_leaves_the_heap_unfrozen():
    before = gc.get_freeze_count()
    assert cli.main(["nogo", "--lambda-size", "2", "--json"]) == 0
    assert cli.main(["nogo", "--lambda-size", "0"]) == 2
    assert gc.get_freeze_count() == before


_RUN = ("import atexit, gc, sys\n"
        "from pbrlab import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['pbr', *{argv!r}]\n"
        "cli.run()\n")


@pytest.mark.parametrize("argv, code", [
    (["check", "--model", str(GOLDEN / "model_L3_contextual.json")], 0),
    (["nogo", "--lambda-size", "0"], 2),
    (["--version"], 0),
    (["nogo"], 2),
], ids=["check", "refused", "version", "usage"])
def test_run_exits_with_mains_code_frozen(argv, code):
    # in a child: `run` ends the process it runs in
    done = _program(["-c", _RUN.format(argv=argv)])
    assert done.returncode == code, done.stderr
    assert done.stdout.endswith("frozen True\n")


def test_program_runs_atexit_handlers_frozen(tmp_path):
    done = _program(["-c", (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['pbr', 'refute', '--lambda-size', '3', '--out', "
        "'m.json', '--json']\n"
        "runpy.run_module('pbrlab.cli', run_name='__main__')\n")], tmp_path)
    assert done.returncode == 0, done.stderr
    report, tail = done.stdout.rsplit("}\n", 1)
    assert report + "}\n" == (GOLDEN / "refute_L3.json").read_text()
    assert tail == "frozen True\n"
    assert ((tmp_path / "m.json").read_bytes()
            == (GOLDEN / "refute_L3_out.json").read_bytes())


@pytest.mark.parametrize("argv, first", [
    (["--version"], __version__),
    (["nogo", "--lambda-size", "1"], "lambda_size: 1"),
], ids=["version", "nogo"])
def test_cprofile_still_prints_its_profile(tmp_path, argv, first):
    done = _program(["-m", "cProfile", "-m", "pbrlab.cli", *argv], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n", 1)[0] == first
    assert "function calls" in done.stdout


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["nogo", "--lambda-size", "0"], 2),
    (["contradiction", "--model", str(GOLDEN / "model_L3_disjoint.json")], 4),
], ids=["ok", "bad-input", "not-applicable"])
def test_program_exits_with_mains_code(argv, code):
    assert _program(["-m", "pbrlab.cli", *argv]).returncode == code


def test_program_exits_3_on_a_verdict_against_the_theorem():
    done = _program(["-c", (
        "import runpy, sys, pbrlab.nogo\n"
        "pbrlab.nogo.theorem_expected_verdict = lambda r1, r2: True\n"
        "sys.argv = ['pbr', 'nogo', '--lambda-size', '2']\n"
        "runpy.run_module('pbrlab.cli', run_name='__main__', alter_sys=True)\n")])
    assert done.returncode == 3, done.stderr
    assert "consistent with the no-go theorem: False" in done.stdout


def test_a_large_report_reads_the_same_through_a_pipe(tmp_path):
    # about 500 KB, far more than a pipe holds: os._exit must come after
    # the last byte is written
    argv = [sys.executable, "-m", "pbrlab.cli", "refute", "--lambda-size",
            "40", "--json"]
    piped = subprocess.run(argv, env=_env(), capture_output=True, timeout=60)
    with open(tmp_path / "report.json", "wb") as out:
        filed = subprocess.run(argv, env=_env(), stdout=out, timeout=60)
    assert piped.returncode == filed.returncode == 0
    assert len(piped.stdout) > 500_000
    assert piped.stdout == (tmp_path / "report.json").read_bytes()


def test_a_main_that_raises_prints_its_traceback_and_exits_1():
    done = _program(["-c", (
        "from pbrlab import cli\n"
        "def main():\n"
        "    raise RuntimeError('from main')\n"
        "cli.main = main\n"
        "cli.run()\n")])
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert done.stderr.endswith("RuntimeError: from main\n")


def test_pdb_gets_its_prompt_back_after_the_program():
    # `basis`, not `--version`, which Python 3.13.0's pdb reads as its own
    done = _program(["-m", "pdb", "-m", "pbrlab.cli", "basis"],
                    stdin="c\nq\n")
    assert done.returncode == 0, done.stderr
    assert "(Pdb)" in done.stdout.split("gram matrix: exact identity\n")[1]


def test_inspect_mode_reads_stdin_after_the_program():
    done = _program(["-i", "-m", "pbrlab.cli", "--version"],
                    stdin="print('inspect' + 'ed')\n")
    assert done.stdout.startswith(__version__ + "\n")
    assert "inspected" in done.stdout


# `sys.probe`'s destructor runs when the interpreter is finalized, as the
# sys module's namespace is cleared, and only then.
_PROBE = """import atexit, os, sys, threading
from pbrlab import cli

class Probe:
    def __del__(self, write=os.write):
        write(1, b"finalized\\n")

sys.probe = Probe()
{setup}
sys.argv = ["pbr", "--version"]
cli.run()
"""


@pytest.mark.parametrize("setup, finalized", [
    ("", False),
    ("sys.settrace(lambda *args: None)", True),
    ("sys.setprofile(lambda *args: None)", True),
    ("import bdb", True),
    ("os.environ['PYTHONINSPECT'] = '1'", True),
    ("threading.Thread(target=threading.Event().wait, daemon=True).start()",
     True),
    ("class Unflushable:\n"
     "    def flush(self):\n"
     "        raise OSError('cannot flush')\n"
     "atexit.register(setattr, sys, 'stderr', Unflushable())", True),
    pytest.param("sys.monitoring.use_tool_id(3, 'probe')", True,
                 marks=pytest.mark.skipif(sys.version_info < (3, 12),
                                          reason="sys.monitoring is 3.12+")),
], ids=["nothing", "trace", "profile", "debugger", "inspect", "thread",
        "failed-flush", "monitoring"])
def test_run_finalizes_only_when_something_may_need_it(setup, finalized):
    done = _program(["-c", _PROBE.format(setup=setup)])
    assert done.stdout.startswith(__version__ + "\n"), done.stderr
    assert ("finalized" in done.stdout) == finalized
