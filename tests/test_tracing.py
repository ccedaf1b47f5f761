"""The benchmark's tracer, `perfbench/tracing.py`, loaded read-only by path,
sees every layer of each benchmarked command: it wraps each layer function
at the name its caller looks it up by, so a call that moved to another
lookup site would leave its per-layer metric at 0 with no error."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pbrlab import cli

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # where its dataclasses look it up
_spec.loader.exec_module(tracing)

GOLDEN = Path(__file__).parent / "golden"
MODEL = str(GOLDEN / "model_L3_contextual.json")
_NOGO = {"hilbert.born_targets", "nogo.build", "simplex.solve",
         "serialize.dumps"}
_MODEL = {"serialize.from_json", "ontology.validate", "serialize.to_json",
          "serialize.dumps"}

# Each benchmarked command kind: its arguments after `pbr`, and the names of
# the spans it records.
COMMANDS = {
    "nogo-uniform": (["nogo", "--lambda-size", "12"],
                     _NOGO | {"nogo.audit"}),
    "nogo-rho-certificate": (
        ["nogo", "--lambda-size", "3", "--rho",
         str(GOLDEN / "rho_L3_seed3_overlap.json")],
        _NOGO | {"nogo.audit", "serialize.from_json"}),
    "nogo-rho-witness": (
        ["nogo", "--lambda-size", "3", "--rho",
         str(GOLDEN / "rho_L3_seed3_disjoint.json")],
        _NOGO | {"nogo.witness_model", "serialize.from_json"}),
    "refute-out": (["refute", "--lambda-size", "3", "--out", "model.json"],
                   {"contextual.build", "contextual.report",
                    "hilbert.born_targets", "ontology.validate",
                    "serialize.to_json", "serialize.dumps"}),
    "check": (["check", "--model", MODEL], _MODEL),
    "sample": (["sample", "--model", MODEL, "--context", "12", "--n", "100",
                "--seed", "1"], _MODEL | {"ontology.sample"}),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_tracer_records_every_layer_of_each_command(name, tmp_path,
                                                    monkeypatch):
    argv, spans = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--json"])
    finally:
        recorder.uninstall()
    assert code == 0
    assert {span.name for span in recorder.spans} == spans
    # the one stale entry of WRAPPED: contextual calls ontology's check
    assert recorder.missing == ["pbrlab.contextual.validate_model"]
