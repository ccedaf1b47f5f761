"""What a `pbr` process loads and how it ends: each check runs in a fresh
interpreter, so modules imported by other tests cannot hide a heavy
import."""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fresh import SRC, env, python
from pbrlab import __version__, cli

GOLDEN = Path(__file__).parent / "golden"


def _fresh(code: str, *flags):
    done = python(*flags, "-c", code)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = ("import json, sys; print(json.dumps(sorted("
           "m for m in sys.modules if m.split('.')[0] == 'pbrlab')))")


def test_import_cli_loads_only_the_front_end():
    loaded = _fresh("import pbrlab.cli; " + _LOADED, "-S")
    assert loaded == ["pbrlab", "pbrlab.cli", "pbrlab.serialize",
                      "pbrlab.values"]


def _golden(name: str) -> str:
    return str(GOLDEN / f"{name}.json")


# Each command's argv, its exit code, the `pbrlab` modules its process loads
# besides `pbrlab` itself, sorted, and the most AST nodes it compiles.
# `ontology` holds the checks of a whole model, prediction and sampling: no
# `nogo` run needs them, as both of its answers are audited in the LP layer,
# a certificate by `nogo` itself and a witness by `witness`, which only a
# witness run loads. `basis` and `contradiction` build their reports in
# modules of their own, which no other command loads; only a command that
# reads a file loads the reader, and only one that reads a model file
# `modelfile`, so a `nogo --rho` run compiles no model reading; and
# `contradiction` refuses a contextual file by its response kind alone,
# before the model reading, the forcing argument or the model checks are
# loaded. With PYTHONDONTWRITEBYTECODE=1, as the benchmark runs
# `pbr`, a process compiles every `pbrlab` module it imports, and `cli` as
# `__main__`, from source, in a time that follows their AST node count; a
# change that adds code to a command's path raises its budget, and says why.
COMMANDS = {
    "nogo-certificate": (["nogo", "--lambda-size", "12", "--json"], 0,
                         "hilbert nogo serialize simplex values", 8708),
    "nogo-rho-certificate": (["nogo", "--lambda-size", "7", "--rho",
                              _golden("rho_L7_seed7_overlap"), "--json"], 0,
                             "hilbert nogo reader serialize simplex values",
                             9866),
    "nogo-witness": (["nogo", "--lambda-size", "3", "--rho",
                      _golden("rho_L3_seed3_disjoint"), "--json"], 0,
                     "hilbert nogo reader serialize simplex values witness",
                     10615),
    "nogo-refused": (["nogo", "--lambda-size", "0"], 2, "serialize values",
                     4416),
    "refute": (["refute", "--lambda-size", "2", "--json"], 0,
               "contextual hilbert ontology serialize values", 8121),
    "refute-out": (["refute", "--lambda-size", "2", "--out", os.devnull], 0,
                   "contextual hilbert ontology outfile serialize values",
                   8361),
    "check": (["check", "--model", _golden("model_L3_contextual"), "--json"],
              0, "modelfile ontology reader serialize values", 7721),
    "check-invalid": (["check", "--model",
                       _golden("model_L3_contextual_invalid")], 2,
                      "modelfile ontology reader serialize values", 7721),
    "sample": (["sample", "--model", _golden("model_L3_contextual"),
                "--context", "12", "--n", "100", "--seed", "1", "--json"], 0,
               "modelfile ontology reader serialize values", 7721),
    "contradiction": (["contradiction", "--model",
                       _golden("model_L3_disjoint"), "--json"], 4,
                      "forcing modelfile ontology reader serialize values",
                      8266),
    "contradiction-proof": (["contradiction", "--model",
                             _golden("model_L3_noncontextual")], 0,
                            "forcing modelfile ontology reader serialize "
                            "values", 8266),
    "contradiction-contextual": (["contradiction", "--model",
                                  _golden("model_L3_contextual")], 2,
                                 "reader serialize values", 5574),
    "basis": (["basis", "--json"], 0, "basis hilbert serialize values", 5812),
    "help": (["--help"], 0, "serialize values", 4416),
    "command-help": (["sample", "--help"], 0, "serialize values", 4416),
    "version": (["--version"], 0, "serialize values", 4416),
    "usage-error": (["nogo"], 2, "serialize values", 4416),
}

# Loaded by no process: a value-record layer built on dataclasses, 11-13 ms
# of every process; argparse and its messages, 7-9 ms; `__future__`, which
# `from __future__ import annotations` loads; hashlib, which loads OpenSSL,
# 3-6 ms, for one SHA-256 that the interpreter's built-in module computes
# as fast for these inputs; and json, whose decoder compiles regexes, 2-3 ms
# more, for one parse that its C scanner does alone.
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale",
                "__future__", "hashlib", "_hashlib"}

# The child runs `pbrlab.cli` as `__main__`, as `python -m pbrlab.cli` does
# (a module that imported `pbrlab.cli` would compile it a second time, under
# that name), without `site`, whose .pth files may load `random`, `locale`
# or `dataclasses` ahead of any program. `run` freezes the heap and runs the
# atexit handlers before it ends the process; the snapshot of sys.modules is
# taken before json is imported to print it.
_RUN_PBR = """import atexit, gc, runpy, sys

def probe():
    loaded = sorted(sys.modules)
    frozen = gc.get_freeze_count() > 0
    import json
    print(json.dumps([loaded, frozen]))

atexit.register(probe)
runpy.run_module("pbrlab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def pbr():
    """Runs a case of COMMANDS in one child, once for all the tests below:
    its exit code, its stderr, the modules it loaded and whether the heap
    was frozen at exit."""
    runs = {}

    def run(name):
        if name not in runs:
            done = python("-S", "-c", _RUN_PBR, *COMMANDS[name][0])
            assert done.stdout, done.stderr
            runs[name] = (done.returncode, done.stderr,
                          *json.loads(done.stdout.splitlines()[-1]))
        return runs[name]
    return run


def _ours(loaded) -> list:
    return [m for m in loaded if m.split(".")[0] == "pbrlab"]


def _ast_nodes(module: str) -> int:
    path = SRC.joinpath(*module.split(".")[:2])
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def _cases(*names, ids={}):
    """Cases of COMMANDS (all of them if none is named), some under the ids
    that earlier tests gave them: `ids` maps a case to its id."""
    return [pytest.param(n, id=ids.get(n, n)) for n in names or COMMANDS]


@pytest.mark.parametrize("name", _cases(ids={
    "version": "ok", "nogo-refused": "bad-input",
    "contradiction": "not-applicable"}))
def test_program_exits_with_mains_code(name, pbr):
    code, stderr, _, _ = pbr(name)
    assert code == COMMANDS[name][1], stderr


@pytest.mark.parametrize("name", _cases(ids={"nogo-refused": "refused",
                                             "usage-error": "usage"}))
def test_run_exits_with_mains_code_frozen(name, pbr):
    assert pbr(name)[3]


@pytest.mark.parametrize("name", _cases())
def test_program_loads_each_report_module_only_for_its_command(name, pbr):
    modules = COMMANDS[name][2].split()
    assert _ours(pbr(name)[2]) == ["pbrlab", *(f"pbrlab.{m}" for m in modules)]


@pytest.mark.parametrize("name", _cases())
def test_each_command_compiles_within_its_budget(name, pbr):
    compiled = [*_ours(pbr(name)[2]), "pbrlab.cli"]
    assert sum(map(_ast_nodes, compiled)) <= COMMANDS[name][3]


NOGO_IDS = {"nogo-certificate": "nogo", "nogo-rho-certificate": "nogo-rho"}


@pytest.mark.parametrize("name", _cases(ids=NOGO_IDS))
def test_no_entry_loads_argparse_and_only_sample_loads_random(name, pbr):
    loaded = pbr(name)[2]
    assert not NEVER_LOADED & set(loaded)
    assert not [m for m in loaded if m.split(".")[0] == "json"]
    assert ("random" in loaded) == (name == "sample")


@pytest.mark.parametrize("name", _cases(
    "nogo-certificate", "nogo-rho-certificate", "nogo-witness", "check",
    "sample", "refute", "contradiction",
    ids={"nogo-witness": "nogo-rho-witness"}))
def test_only_a_witness_or_a_model_command_loads_ontology(name, pbr):
    # the name is older than the witness audit: no `nogo` run loads
    # `ontology`, and only a witness run loads `witness`
    loaded = pbr(name)[2]
    assert ("pbrlab.ontology" in loaded) == (not name.startswith("nogo"))
    assert ("pbrlab.witness" in loaded) == (name == "nogo-witness")


def test_contradiction_refuses_a_contextual_file_before_loading_nogo(pbr):
    loaded = set(pbr("contradiction-contextual")[2])
    assert "pbrlab.reader" in loaded
    assert not {"pbrlab.forcing", "pbrlab.modelfile", "pbrlab.ontology",
                "pbrlab.nogo"} & loaded


# The Born table and the LP.
HEAVY = {"pbrlab.hilbert", "pbrlab.nogo", "pbrlab.simplex",
         "pbrlab.contextual"}


@pytest.mark.parametrize("name", _cases("check", "sample"))
def test_model_commands_skip_the_born_table_and_the_lp(name, pbr):
    assert not HEAVY & set(pbr(name)[2])


@pytest.mark.parametrize("name", _cases(
    "refute", "refute-out", "nogo-certificate", "nogo-rho-certificate",
    ids=NOGO_IDS))
def test_refute_and_nogo_load_only_their_layers(name, pbr):
    argv, loaded = COMMANDS[name][0], set(pbr(name)[2])
    assert ({"pbrlab.nogo", "pbrlab.simplex"} <= loaded) == (argv[0] == "nogo")
    assert ("pbrlab.contextual" in loaded) == (argv[0] == "refute")
    assert ("pbrlab.outfile" in loaded) == ("--out" in argv)
    assert ("pbrlab.reader" in loaded) == ("--rho" in argv)


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


def test_main_leaves_the_heap_unfrozen():
    before = gc.get_freeze_count()
    assert cli.main(["nogo", "--lambda-size", "2", "--json"]) == 0
    assert cli.main(["nogo", "--lambda-size", "0"]) == 2
    assert gc.get_freeze_count() == before


def test_program_runs_atexit_handlers_frozen(tmp_path):
    done = python("-c", (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv = ['pbr', 'refute', '--lambda-size', '3', '--out', "
        "'m.json', '--json']\n"
        "runpy.run_module('pbrlab.cli', run_name='__main__')\n"), cwd=tmp_path)
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
    done = python("-m", "cProfile", "-m", "pbrlab.cli", *argv, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n", 1)[0] == first
    assert "function calls" in done.stdout


def test_program_exits_3_on_a_verdict_against_the_theorem():
    done = python("-c", (
        "import runpy, sys, pbrlab.nogo\n"
        "pbrlab.nogo.theorem_expected_verdict = lambda r1, r2: True\n"
        "sys.argv = ['pbr', 'nogo', '--lambda-size', '2']\n"
        "runpy.run_module('pbrlab.cli', run_name='__main__', alter_sys=True)\n"))
    assert done.returncode == 3, done.stderr
    assert "consistent with the no-go theorem: False" in done.stdout


def test_a_large_report_reads_the_same_through_a_pipe(tmp_path):
    # about 500 KB, far more than a pipe holds: os._exit must come after
    # the last byte is written
    argv = [sys.executable, "-m", "pbrlab.cli", "refute", "--lambda-size",
            "40", "--json"]
    piped = subprocess.run(argv, env=env(), capture_output=True, timeout=60)
    with open(tmp_path / "report.json", "wb") as out:
        filed = subprocess.run(argv, env=env(), stdout=out, timeout=60)
    assert piped.returncode == filed.returncode == 0
    assert len(piped.stdout) > 500_000
    assert piped.stdout == (tmp_path / "report.json").read_bytes()


def test_a_main_that_raises_prints_its_traceback_and_exits_1():
    done = python("-c", (
        "from pbrlab import cli\n"
        "def main():\n"
        "    raise RuntimeError('from main')\n"
        "cli.main = main\n"
        "cli.run()\n"))
    assert done.returncode == 1
    assert "Traceback" in done.stderr
    assert done.stderr.endswith("RuntimeError: from main\n")


def test_pdb_gets_its_prompt_back_after_the_program():
    # `basis`, not `--version`, which Python 3.13.0's pdb reads as its own
    done = python("-m", "pdb", "-m", "pbrlab.cli", "basis", input="c\nq\n")
    assert done.returncode == 0, done.stderr
    assert "(Pdb)" in done.stdout.split("gram matrix: exact identity\n")[1]


def test_inspect_mode_reads_stdin_after_the_program():
    done = python("-i", "-m", "pbrlab.cli", "--version",
                  input="print('inspect' + 'ed')\n")
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
    done = python("-c", _PROBE.format(setup=setup))
    assert done.stdout.startswith(__version__ + "\n"), done.stderr
    assert ("finalized" in done.stdout) == finalized
