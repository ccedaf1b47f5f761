"""The text of every JSON golden, judged by the standard library alone.

Nothing here imports pbrlab, so the canonical form and the input digest are
checked against `json.dumps(..., indent=2, sort_keys=True)` and
`hashlib.sha256`, not against the formatter that wrote them.
"""

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
FILES = sorted(p.name for p in GOLDEN.glob("*.json"))
# `--json` reports, as against the model, rho and exit-code files
REPORTS = [name for name in FILES
           if '"inputs": {' in (GOLDEN / name).read_text()]


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", FILES)
def test_golden_is_canonical_json(name):
    text = (GOLDEN / name).read_text()
    if not text:
        # an empty stdout is pinned only for a refused input
        codes = json.loads((GOLDEN / "exit_codes.json").read_text())
        assert codes[name[:-len(".json")]] != 0
        return
    assert text == _canonical(json.loads(text)) + "\n"


@pytest.mark.parametrize("name", REPORTS)
def test_report_digest_is_sha256_of_its_inputs(name):
    inputs = json.loads((GOLDEN / name).read_text())["inputs"]
    digest = inputs.pop("digest")
    assert digest == hashlib.sha256(_canonical(inputs).encode()).hexdigest()
