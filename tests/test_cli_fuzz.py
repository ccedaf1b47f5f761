"""The exit-code contract under mutated input files: whatever a model or rho
file holds, `check`, `sample`, `contradiction` and `nogo --rho` exit 0, 2,
3 or 4 through `cli.main`, no exception escapes, and stderr holds at most
one line.

Each example takes a model or rho file from tests/golden/ (all valid but
the float-mode model, which every command refuses) and applies one to three
mutations at random places in its JSON tree: a key or element dropped, a
value replaced by "1/0", a boolean, a huge integer, a float, a string (an
exponent such as "1e999999999" or a weight of more digits than int()
reads among them), null or an empty container, a list wrapped, emptied,
cut short, grown, or written as a string of its items or an object keyed
by them, the mode switched, or 400 digits appended to a string, which
gives "1/3" a 401-digit denominator, past `nogo`'s cap on a ρ pair's. The
example count keeps the test to a few seconds. Every run that prints a
report must also pass the judge, tests/judge.py, on the file it read.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import judge
from pbrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = [json.loads((GOLDEN / f"model_L3_{name}.json").read_text())
          for name in ("contextual", "noncontextual", "float", "disjoint")]
RHOS = [json.loads((GOLDEN / f"rho_{name}.json").read_text())
        for name in ("L3_seed3_overlap", "L3_seed3_disjoint", "L2_point_masses")]
CONTRACT = {0, 2, 3, 4}

REPLACEMENTS = ["1/0", "0/0", "1/2", "-1", "abc", "", True, False, None,
                10 ** 4000, -(10 ** 30), 2 ** 64, 0.5, -0.0, 1e308, 7,
                [], {}, ["1/2", "1/2"], {"kind": "contextual"},
                "exact", "float", "contextual", "noncontextual",
                "1e999999999", "-2E-9", "0.5", "1" * 4301, "1/" + "3" * 4301]


def _paths(node, path=()):
    """Every path from the root to a node, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    paths = list(_paths(doc))
    if not paths:
        return copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    kind = data.draw(st.sampled_from(
        ["drop", "replace", "wrap", "empty", "cut", "grow", "unlist", "mode",
         "digits"]))
    if kind == "drop":
        del parent[key]
    elif kind == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    elif kind == "wrap":
        parent[key] = [value]
    elif kind == "empty":
        parent[key] = type(value)() if isinstance(value, (list, dict)) else []
    elif kind == "cut" and isinstance(value, list):
        parent[key] = value[:-1]
    elif kind == "grow" and isinstance(value, list) and value:
        parent[key] = value + value[-1:]
    elif kind == "unlist" and isinstance(value, list):
        items = [str(x) for x in value]
        parent[key] = ("".join(items) if data.draw(st.booleans())
                       else dict.fromkeys(items, 0))
    elif kind == "mode" and isinstance(doc, dict):
        doc["mode"] = "float" if doc.get("mode") == "exact" else "exact"
    elif kind == "digits" and isinstance(value, str):
        parent[key] = value + "7" * 400  # "1/3" gets a 401-digit denominator
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # at most one error line, which never tells a user to call Python
    assert err.getvalue().count("\n") <= 1 and "sys." not in err.getvalue()
    if out.getvalue():
        assert judge.errors(argv, code, out.getvalue()) == [], argv
    return code


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_model_files_keep_the_exit_codes(scratch, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(MODELS))))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = scratch / "model.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", "--model", str(path), "--json"],
                 ["sample", "--model", str(path), "--context", "12",
                  "--n", "50", "--seed", "1", "--json"],
                 ["contradiction", "--model", str(path), "--json"]):
        assert _run(argv) in CONTRACT, argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_rho_files_keep_the_exit_codes(scratch, data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(RHOS))))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    path = scratch / "rho.json"
    path.write_text(json.dumps(doc))
    L = data.draw(st.sampled_from(["2", "3"]))
    assert _run(["nogo", "--lambda-size", L, "--rho", str(path),
                 "--json"]) in CONTRACT
