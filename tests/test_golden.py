"""Byte-for-byte golden outputs of `pbr basis`, `nogo`, `contradiction`,
`refute`, `check` and `sample` with `--json`.

Each case's stdout is pinned in tests/golden/<name>.json and its exit code
in tests/golden/exit_codes.json; the human `basis` stdout, without its
timing line, is pinned in tests/golden/basis_human.txt. A `refute` case
also pins the model it writes with `--out`, in
tests/golden/<name>_out.json. Uniform and
overlapping rho take the certificate path, disjoint supports the witness
path. The L=3 rho files hold integer weights in 1..9 drawn with
random.Random(3), normalised; the disjoint one puts rho1 on lambda 0 and
rho2 on lambdas 1 and 2. The L=7 rho files hold distinct integer weights
in 1..1000 drawn with random.Random(7), normalised: the overlapping one
gives full support to both states (a certificate after many pivots), the
disjoint one puts rho1 on 3 points and rho2 on the other 4 (a witness).
The partial-overlap L=7 file takes 9 distinct weights in 1..1000 from
random.Random(7): rho1 gets the first 5 on lambdas 0-4, rho2 the last 4
on lambdas 3-6, so lambdas 3 and 4 are shared and the quotient LP has
K = 4 classes. The L=5 file takes weights a, b, c, d, e in 1..1000 from
random.Random(5) and sets rho1 = (a, b, 2a, 0, c), rho2 = (d, 0, 2d, 0, e),
normalised: lambdas 0 and 2 lie on one projective point and lambda 3 is
outside both supports (K = 4). Both take the tight certificate lift.

The L=7 `refute --out` model, whose cell widths of 1/49 straddle every
Born boundary, is also read back by `check` and by `sample` in contexts 11
and 22. The L=4 one, whose 64 response rows each lie inside one Born
interval and so are all constant, is read back by `check`
(`python tests/test_golden.py` has them read the models it has just made).
The other input models are tests/golden/model_*.json: the L=3 interval model
(`refute --lambda-size 3 --out`); a copy of it with rho1 summing to 7/6,
entries 3/2 and -1/4, a cell of context 22 summing to 8/7 and a target
row summing to 3/2; the context-12 slice of the L=3 interval model built
on rho1 = (1/2, 1/3, 1/6) and rho2 = (1/5, 2/5, 2/5), which is a valid
noncontextual model with fractional entries; the same slice with
`"mode": "float"` and float numbers, which `check` refuses on reading
(exit 2, empty stdout), since every model is exact; and the context-12
slice of the L=3 interval model built on rho1 = (1/2, 1/2, 0) and
rho2 = (0, 0, 1), a valid noncontextual model with disjoint supports.
`contradiction` proves the clash on the overlapping model (exit 0),
refuses the contextual model (exit 2, empty stdout) and reports NoOverlap
on the disjoint one (exit 4).
Every golden, its exit code and, for `refute`, the model it wrote must
pass the one judge, tests/judge.py, which shares no code with pbrlab: the
benchmark's output checker for `nogo`, `refute`, `sample` and `check` of a
valid model, its own oracles for `basis`, `contradiction` and the
violations `check` lists for an invalid model, and exit 2 with an empty
stdout for a refused input. So a wrong certificate, witness, model,
sample, proof or violation list cannot be pinned by regenerating it.
To regenerate after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff; it
writes nothing if the judge rejects any of those outputs.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import judge
from pbrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "{out}"  # replaced by a scratch path; the file is compared too
# The `refute --out` models read back by check and sample: the golden files,
# or, when regenerating, the models just made.
REFUTE_OUT = {L: f"{{refute_L{L}_out}}" for L in (4, 7)}
GOLDEN_REFUTE = {L: GOLDEN / f"refute_L{L}_out.json" for L in REFUTE_OUT}


def _model(name):
    return str(GOLDEN / f"model_{name}.json")


NOGO_CASES = {
    **{f"nogo_uniform_L{L}": ["nogo", "--lambda-size", str(L), "--json"]
       for L in (1, 2, 3, 4, 12)},
    **{f"nogo_{rho}": ["nogo", "--lambda-size", L, "--rho",
                       str(GOLDEN / f"rho_{rho}.json"), "--json"]
       for rho, L in (("L2_point_masses", "2"), ("L3_seed3_overlap", "3"),
                      ("L3_seed3_disjoint", "3"), ("L7_seed7_overlap", "7"),
                      ("L7_seed7_disjoint", "7"), ("L7_seed7_partial", "7"),
                      ("L5_seed5_classes", "5"))},
}
CONTEXTUAL_CASES = {
    **{f"refute_L{L}": ["refute", "--lambda-size", str(L), "--out", OUT,
                        "--json"]
       for L in (2, 3, 4, 7)},
    **{f"check_L3_{name}": ["check", "--model", _model(f"L3_{name}"), "--json"]
       for name in ("contextual", "contextual_invalid", "noncontextual",
                    "float")},
    **{f"sample_L3_contextual_{c}": ["sample", "--model",
                                     _model("L3_contextual"), "--context", c,
                                     "--n", "2000", "--seed", "11", "--json"]
       for c in ("11", "12", "21", "22")},
    "sample_L3_noncontextual_12": ["sample", "--model",
                                   _model("L3_noncontextual"), "--context",
                                   "12", "--n", "2000", "--seed", "11",
                                   "--json"],
    # The models read back from the golden `refute --out` files. At L=4
    # every row lies inside one Born interval and is constant; at L=7 widths
    # of 1/49 straddle every Born boundary, so every slice splits cells.
    **{f"check_L{L}_contextual": ["check", "--model", REFUTE_OUT[L], "--json"]
       for L in REFUTE_OUT},
    **{f"sample_L7_contextual_{c}": ["sample", "--model", REFUTE_OUT[7],
                                     "--context", c, "--n", "2000",
                                     "--seed", "11", "--json"]
       for c in ("11", "22")},
}
OTHER_CASES = {
    "basis": ["basis", "--json"],
    **{f"contradiction_L3_{name}": ["contradiction", "--model",
                                    _model(f"L3_{name}"), "--json"]
       for name in ("noncontextual", "contextual", "disjoint")},
}
CASES = {**NOGO_CASES, **CONTEXTUAL_CASES, **OTHER_CASES}


def _argv(name, scratch: Path, refute_out: dict = GOLDEN_REFUTE):
    places = {OUT: str(scratch / f"{name}_out.json"),
              **{REFUTE_OUT[L]: str(path) for L, path in refute_out.items()}}
    return [places.get(a, a) for a in CASES[name]]


def _run_case(name, scratch: Path, refute_out: dict = GOLDEN_REFUTE):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(name, scratch, refute_out))
    written = None
    if OUT in CASES[name]:
        written = (scratch / f"{name}_out.json").read_text()
    return code, out.getvalue(), written


def _golden(name) -> str:
    return (GOLDEN / f"{name}.json").read_text()


def _codes() -> dict:
    return json.loads(_golden("exit_codes"))


def _check(name, scratch: Path):
    code, out, written = _run_case(name, scratch)
    assert code == _codes()[name]
    assert out == _golden(name)
    if written is not None:
        assert written == _golden(f"{name}_out")


@pytest.mark.parametrize("name", sorted(NOGO_CASES))
def test_nogo_matches_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CONTEXTUAL_CASES))
def test_contextual_matches_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", sorted(OTHER_CASES))
def test_basis_and_contradiction_match_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_passes_judge(name, tmp_path):
    written = _golden(f"{name}_out") if OUT in CASES[name] else None
    assert judge.errors(_argv(name, tmp_path), _codes()[name], _golden(name),
                        written) == []


def _basis_human():
    """Human `pbr basis` stdout without its timing line: it pins the
    printed amplitudes, e.g. 1/2*sqrt2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["basis"])
    return code, "".join(line for line in out.getvalue().splitlines(True)
                         if not line.startswith("elapsed: "))


def test_basis_human_matches_golden():
    code, out = _basis_human()
    assert code == 0
    assert out == (GOLDEN / "basis_human.txt").read_text()


if __name__ == "__main__":
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        fresh = {L: scratch / f"refute_L{L}_out.json" for L in REFUTE_OUT}
        # refute first: the L=4 and L=7 check and sample cases read the
        # models it makes.
        for name in sorted(CASES, key=lambda n: (CASES[n][0] != "refute", n)):
            runs[name] = _run_case(name, scratch, fresh)
        for name, (code, out, written) in runs.items():
            errors = judge.errors(_argv(name, scratch, fresh), code, out,
                                  written)
            if errors:
                sys.exit(f"{name}: the judge rejects it, nothing written: "
                         f"{errors}")
    codes = {}
    for name, (codes[name], out, written) in runs.items():
        (GOLDEN / f"{name}.json").write_text(out)
        if written is not None:
            (GOLDEN / f"{name}_out.json").write_text(written)
    (GOLDEN / "basis_human.txt").write_text(_basis_human()[1])
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")
