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
and 22 (`python tests/test_golden.py` writes it before those cases run).
The other input models are tests/golden/model_*.json: the L=3 interval model
(`refute --lambda-size 3 --out`); a copy of it with rho1 summing to 7/6,
entries 3/2 and -1/4, a short row in context 22 and a target row summing
to 3/2; the context-12 slice of the L=3 interval model built on rho1 =
(1/2, 1/3, 1/6) and rho2 = (1/5, 2/5, 2/5), which is a valid
noncontextual model with fractional entries; the same slice with
`"mode": "float"` and float numbers, which `check` refuses on reading
(exit 2, empty stdout), since every model is exact; and the context-12
slice of the L=3 interval model built on rho1 = (1/2, 1/2, 0) and
rho2 = (0, 0, 1), a valid noncontextual model with disjoint supports.
`contradiction` proves the clash on the overlapping model (exit 0),
refuses the contextual model (exit 2, empty stdout) and reports NoOverlap
on the disjoint one (exit 4).
Every `nogo` golden must also pass the benchmark's independent checker
(`perfbench/checker.py`, which shares no code with pbrlab), so a wrong
certificate or witness cannot be pinned by regenerating it.
To regenerate after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff; it
writes nothing if any `nogo` output fails the checker.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from independent_checker import nogo_errors, rho_pair
from pbrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "{out}"  # replaced by a scratch path; the file is compared too


def _model(name):
    return str(GOLDEN / f"model_{name}.json")


REFUTE_L7 = GOLDEN / "refute_L7_out.json"

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
       for L in (2, 3, 7)},
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
    # The L=7 model read back from the golden `refute --out` file: widths of
    # 1/49 straddle every Born boundary, so every slice splits cells.
    "check_L7_contextual": ["check", "--model", str(REFUTE_L7), "--json"],
    **{f"sample_L7_contextual_{c}": ["sample", "--model", str(REFUTE_L7),
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


def _run_case(name, scratch: Path):
    argv = CASES[name]
    out_path = scratch / f"{name}_out.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(out_path) if a == OUT else a for a in argv])
    written = out_path.read_text() if OUT in argv else None
    return code, out.getvalue(), written


def _checker_errors(name, out: str) -> list:
    """The independent checker's complaints about a `nogo` case's stdout."""
    argv = CASES[name]
    L = int(argv[argv.index("--lambda-size") + 1])
    rho = None
    if "--rho" in argv:
        rho_file = Path(argv[argv.index("--rho") + 1])
        rho = rho_pair(json.loads(rho_file.read_text()))
    return nogo_errors(out, rho, L)


def _check(name, scratch: Path):
    code, out, written = _run_case(name, scratch)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.json").read_text()
    if written is not None:
        assert written == (GOLDEN / f"{name}_out.json").read_text()


@pytest.mark.parametrize("name", sorted(NOGO_CASES))
def test_nogo_matches_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", sorted(NOGO_CASES))
def test_nogo_golden_passes_independent_checker(name):
    assert _checker_errors(name, (GOLDEN / f"{name}.json").read_text()) == []


@pytest.mark.parametrize("name", sorted(CONTEXTUAL_CASES))
def test_contextual_matches_golden(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", sorted(OTHER_CASES))
def test_basis_and_contradiction_match_golden(name, tmp_path):
    _check(name, tmp_path)


def _basis_human():
    """Human `pbr basis` stdout without its timing line: it pins str() of
    the amplitudes, e.g. 1/2*sqrt2."""
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
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(NOGO_CASES):
            errors = _checker_errors(name, _run_case(name, Path(scratch))[1])
            if errors:
                sys.exit(f"{name}: the independent checker rejects it, "
                         f"nothing written: {errors}")
        # refute first: the L=7 check and sample cases read its model.
        for name in sorted(CASES, key=lambda n: (CASES[n][0] != "refute", n)):
            codes[name], out, written = _run_case(name, Path(scratch))
            (GOLDEN / f"{name}.json").write_text(out)
            if written is not None:
                (GOLDEN / f"{name}_out.json").write_text(written)
    (GOLDEN / "basis_human.txt").write_text(_basis_human()[1])
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")
