"""Self-test of the judge, tests/judge.py, as perfbench/checker_selftest.py
is of the benchmark's checker: every golden run passes it (test_golden.py),
and a corrupted copy of one, at least one per command, must not."""

import json

import pytest

import judge
from pbrlab.cli import main
from test_cli import DROP, _file
from test_golden import CASES, OUT, _argv, _codes, _golden

# id: (golden case, what is corrupted: "code", "stdout" (the raw text), or
# the item at a path of its stdout or, for "_out", of the model it wrote;
# the new value, or DROP)
CORRUPTIONS = {
    "basis-target": ("basis", ("targets", 0, 1), "1/2"),
    "basis-gram": ("basis", ("gram", 0, 1, "re", "num"), "1"),
    "nogo-certificate": ("nogo_uniform_L2", ("certificate", "y", 4), "4"),
    "nogo-witness": ("nogo_L3_seed3_disjoint", ("witness", "p", 0, 0, 1),
                     "1/2"),
    "nogo-exit": ("nogo_uniform_L2", "code", 3),
    "refute-written-model": ("refute_L2", ("_out", "response", "p", "11", 0,
                                           0, 0), "1/2"),
    "refute-collapse": ("refute_L3", ("collapse",), False),
    "check-valid-called-invalid": ("check_L3_contextual", ("valid",), False),
    "check-violation-moved": (
        "check_L3_contextual_invalid", ("violations", 2),
        "context 12: response[1][2][1] = 3/2 outside [0, 1]"),
    "check-violation-dropped": ("check_L3_contextual_invalid",
                                ("violations", 6), DROP),
    "check-violation-value": ("check_L3_contextual_invalid", ("violations", 0),
                              "context 11: rho1 sums to 5/6, not 1"),
    "check-invalid-exit": ("check_L3_contextual_invalid", "code", 0),
    "sample-forbidden-outcome": ("sample_L3_contextual_11", ("counts",),
                                 [1, 487, 509, 1003]),
    "contradiction-weight": ("contradiction_L3_noncontextual",
                             ("steps", 0, "weight"), "1/5"),
    "contradiction-no-overlap": ("contradiction_L3_noncontextual",
                                 ("no_overlap",), True),
    "refused-float-with-stdout": ("check_L3_float", "stdout", "{}\n"),
    "refused-contextual-exit-0": ("contradiction_L3_contextual", "code", 0),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_judge_rejects_a_corrupted_run(corruption, tmp_path):
    name, where, value = CORRUPTIONS[corruption]
    run = {"code": _codes()[name], "stdout": _golden(name),
           "written": _golden(f"{name}_out") if OUT in CASES[name] else None}
    argv = _argv(name, tmp_path)
    assert judge.errors(argv, **run) == []
    if where in ("code", "stdout"):
        run[where] = value
    elif where[0] == "_out":
        run["written"] = _file(f"{name}_out.json", (where[1:], value))()
    else:
        run["stdout"] = _file(f"{name}.json", (where, value))()
    assert judge.errors(argv, **run)


def test_judge_counts_the_violations_past_a_hundred(capsys, tmp_path):
    # every cell of three L = 7 tables sums to 4: 147 violations
    path = tmp_path / "ones.json"
    path.write_text(_file("refute_L7_out.json", *(
        (("response", "p", c), [[["1"] * 7] * 7] * 4)
        for c in ("11", "12", "21")))())
    argv = ["check", "--model", str(path), "--json"]
    code = main(argv)
    out = capsys.readouterr().out
    assert judge.errors(argv, code, out) == []
    assert json.loads(out)["violations"][-1] == "... and 47 more"
    for at, value in ((100, "... and 46 more"), (100, DROP), (99, DROP)):
        corrupted = _file(lambda: json.loads(out), (("violations", at), value))
        assert judge.errors(argv, code, corrupted())
