"""Byte-for-byte golden outputs of `pbr nogo --json`.

Each case's stdout is pinned in tests/golden/<name>.json and its exit code
in tests/golden/exit_codes.json. Uniform and overlapping rho take the
certificate path, disjoint supports the witness path. The L=3 rho files
hold integer weights in 1..9 drawn with random.Random(3), normalised; the
disjoint one puts rho1 on lambda 0 and rho2 on lambdas 1 and 2. To
regenerate after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from pbrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"nogo_uniform_L{L}": ["nogo", "--lambda-size", str(L), "--json"]
       for L in (1, 2, 3, 4)},
    **{f"nogo_{rho}": ["nogo", "--lambda-size", L, "--rho",
                       str(GOLDEN / f"rho_{rho}.json"), "--json"]
       for rho, L in (("L2_point_masses", "2"), ("L3_seed3_overlap", "3"),
                      ("L3_seed3_disjoint", "3"))},
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_nogo_matches_golden(name):
    code, out = _run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.json").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")
