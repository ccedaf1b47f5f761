import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from pbrlab.cli import INPUT_MAX_BYTES, main
from pbrlab.contextual import build_interval_model
from pbrlab.hilbert import born_targets
from pbrlab.serialize import dumps_canonical, model_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "basis"
    assert report["anchors"] == ["0", "0", "0", "0"]
    assert report["targets"][0] == ["0", "1/4", "1/4", "1/2"]
    # gram is the exact identity
    for r in range(4):
        for c in range(4):
            entry = report["gram"][r][c]
            assert entry["re"]["num"] == ("1" if r == c else "0")
            assert entry["im"]["num"] == "0"


def test_basis_human(capsys):
    code, out, _ = run(capsys, "basis")
    assert code == 0
    assert "exact identity" in out


def test_nogo_uniform_infeasible(capsys):
    code, out, _ = run(capsys, "nogo", "--lambda-size", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "infeasible"
    assert report["expected_verdict"] == "infeasible"
    assert report["certificate"]["verified"] is True
    assert report["theorem_consistent"] is True


def test_nogo_rejects_zero_lambda(capsys):
    code, _, err = run(capsys, "nogo", "--lambda-size", "0")
    assert code == 2
    assert "lambda_size must be >= 1" in err


def test_nogo_disjoint_rho_file(capsys, tmp_path):
    rho = {"lambda_size": 2, "rho1": ["1", "0"], "rho2": ["0", "1"]}
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(rho))
    code, out, _ = run(capsys, "nogo", "--lambda-size", "2",
                       "--rho", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "feasible"
    assert report["witness"]["reproduces_targets"] is True


def test_nogo_malformed_rho_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "nogo", "--lambda-size", "2", "--rho", str(path))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("rho, message", [
    ({"lambda_size": 2, "rho1": [True, False], "rho2": ["1/2", "1/2"]},
     "True"),
    ({"lambda_size": 2.7, "rho1": ["1/2", "1/2"], "rho2": ["1/2", "1/2"]},
     "lambda_size must be a JSON integer"),
], ids=["bool-weight", "fractional-size"])
def test_nogo_rejects_coerced_rho_file(capsys, tmp_path, rho, message):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(rho))
    code, out, err = run(capsys, "nogo", "--lambda-size", "2",
                         "--rho", str(path), "--json")
    assert code == 2
    assert out == ""
    assert message in err


def test_nogo_rejects_huge_lambda_before_building(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "nogo", "--lambda-size", "100000")
    assert code == 2
    assert out == ""
    assert "lambda_size must be <= 32" in err
    assert time.perf_counter() - t0 < 1.0


def _write_model(tmp_path, model, name="model.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(model_to_json(model)))
    return str(path)


def _noncontextual(model, context=(1, 1)):
    return replace(model, response=(model.table(context),))


def _noncontextual_overlap_model():
    return _noncontextual(build_interval_model(2, born_targets()))


def test_contradiction_proof(capsys, tmp_path):
    path = _write_model(tmp_path, _noncontextual_overlap_model())
    code, out, _ = run(capsys, "contradiction", "--model", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["lambda_star"] == 0
    assert [s["context"] for s in report["steps"]] == ["11", "12", "21", "22"]
    assert report["forced_total"] == "0"


def test_contradiction_no_overlap(capsys, tmp_path):
    from pbrlab.ontology import EpistemicState
    m = _noncontextual(build_interval_model(
        2, born_targets(),
        rho1=EpistemicState.point_mass(2, 0),
        rho2=EpistemicState.point_mass(2, 1)))
    path = _write_model(tmp_path, m)
    code, out, _ = run(capsys, "contradiction", "--model", path)
    assert code == 4
    assert "NoOverlap" in out


def test_contradiction_invalid_model(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    payload = model_to_json(_noncontextual_overlap_model())
    payload["rho1"] = ["2", "-1"]
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "contradiction", "--model", str(path))
    assert code == 2
    assert "invalid model" in err


def test_refute_affirms_and_writes_model(capsys, tmp_path):
    out_path = tmp_path / "interval.json"
    code, out, _ = run(capsys, "refute", "--lambda-size", "2",
                       "--out", str(out_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["born_reproduced"] is True
    assert report["overlap_mass"] == "1"
    assert report["collapse"] is True
    saved = json.loads(out_path.read_text())
    assert saved["response"]["kind"] == "contextual"

    code, _, _ = run(capsys, "check", "--model", str(out_path))
    assert code == 0


@pytest.mark.parametrize("L", [1, 3])
def test_refute_other_sizes(capsys, L):
    code, out, _ = run(capsys, "refute", "--lambda-size", str(L), "--json")
    assert code == 0
    assert json.loads(out)["collapse"] is True


def test_check_invalid_model(capsys, tmp_path):
    payload = model_to_json(_noncontextual_overlap_model())
    payload["rho1"] = ["1/2", "1/3"]  # does not sum to 1
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "check", "--model", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"]


def test_check_rejects_fractional_lambda_size(capsys, tmp_path):
    payload = model_to_json(_noncontextual_overlap_model())
    payload["lambda_size"] = 2.7
    path = tmp_path / "coerced_model.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "check", "--model", str(path), "--json")
    assert code == 2
    assert out == ""
    assert "lambda_size must be a JSON integer" in err


def test_sample_zero_trials(capsys, tmp_path):
    path = _write_model(tmp_path, _noncontextual_overlap_model())
    code, out, _ = run(capsys, "sample", "--model", path, "--context", "11",
                       "--n", "0", "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["counts"] == [0, 0, 0, 0]


def test_sample_contextual_model(capsys, tmp_path):
    path = _write_model(tmp_path, build_interval_model(2, born_targets()))
    code, out, _ = run(capsys, "sample", "--model", path, "--context", "12",
                       "--n", "5000", "--seed", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert sum(report["counts"]) == 5000
    assert report["predicted"] == ["1/4", "0", "1/2", "1/4"]
    assert report["chi_square"] < 16.27


def test_json_outputs_roundtrip_and_stable(capsys):
    for argv in (["basis", "--json"],
                 ["nogo", "--lambda-size", "2", "--json"],
                 ["refute", "--lambda-size", "2", "--json"]):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert dumps_canonical(json.loads(first)) + "\n" == first


def test_model_json_roundtrip(tmp_path):
    from pbrlab.serialize import model_from_json
    for model in (build_interval_model(3, born_targets()),
                  _noncontextual_overlap_model()):
        again = model_from_json(json.loads(dumps_canonical(model_to_json(model))))
        assert model_to_json(again) == model_to_json(model)


def _corrupt_noncontextual(payload, how):
    if how == "missing-p":
        del payload["response"]["p"]
    elif how == "divide-by-zero":
        payload["response"]["p"][0][0][0] = "1/0"
    elif how == "not-a-number":
        payload["response"]["p"][0][0][0] = "x"


@pytest.mark.parametrize("command", ["check", "sample", "contradiction"])
@pytest.mark.parametrize("how", ["missing-p", "missing-slice", "divide-by-zero",
                                 "not-a-number"])
def test_malformed_response_table_exits_2(capsys, tmp_path, command, how):
    if how == "missing-slice":
        payload = model_to_json(build_interval_model(2, born_targets()))
        del payload["response"]["p"]["12"]
    else:
        payload = model_to_json(_noncontextual_overlap_model())
        _corrupt_noncontextual(payload, how)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    extra = (["--context", "11", "--n", "10", "--seed", "1"]
             if command == "sample" else [])
    code, out, err = run(capsys, command, "--model", str(path), *extra, "--json")
    assert code == 2
    assert out == ""
    assert "malformed model" in err


def test_sample_rejects_model_invalid_in_another_context(capsys, tmp_path):
    payload = model_to_json(build_interval_model(2, born_targets()))
    payload["response"]["p"]["11"].pop()  # slice 11 keeps only 3 planes
    path = tmp_path / "three_planes.json"
    path.write_text(json.dumps(payload))
    code, _, _ = run(capsys, "check", "--model", str(path), "--json")
    assert code == 2
    code, out, err = run(capsys, "sample", "--model", str(path), "--context",
                         "12", "--n", "10", "--seed", "1", "--json")
    assert code == 2
    assert out == ""
    assert "context 11: response table is not shaped 4 x L x L" in err


@pytest.mark.parametrize("L", ["129", "100000"])
def test_refute_rejects_huge_lambda_before_building(capsys, L):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "refute", "--lambda-size", L, "--json")
    assert code == 2
    assert out == ""
    assert "lambda_size must be <= 128" in err
    assert time.perf_counter() - t0 < 1.0


def test_refute_unwritable_out_exits_2(capsys, tmp_path):
    out_path = tmp_path / "no_such_dir" / "model.json"
    code, out, err = run(capsys, "refute", "--lambda-size", "2",
                         "--out", str(out_path), "--json")
    assert code == 2
    assert out == ""
    assert "error" in err and "no_such_dir" in err


GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(__file__).parents[1] / "src")


def _argv(command, path):
    if command == "nogo --rho":
        return ["nogo", "--lambda-size", "2", "--rho", path]
    extra = (["--context", "11", "--n", "10", "--seed", "1"]
             if command == "sample" else [])
    return [command, "--model", path, *extra]


@pytest.mark.parametrize("command", ["check", "sample", "contradiction",
                                     "nogo --rho"])
@pytest.mark.parametrize("content", [
    b"1" * 5000,
    b"[" * 100000 + b"]" * 100000,
    b'{"mode": "\xff"}',
], ids=["5000-digit-integer", "nested-100000-deep", "not-utf-8"])
def test_hostile_json_exits_2(tmp_path, command, content):
    # a separate process, so the exit code and stderr are the real ones
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pbrlab.cli",
                           *_argv(command, str(path)), "--json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("command", ["check", "sample", "contradiction",
                                     "nogo --rho"])
def test_oversized_input_exits_2_before_parsing(capsys, tmp_path, command):
    # a sparse file one byte over the cap: refused on its size, unread
    path = tmp_path / "oversized.json"
    with open(path, "wb") as fh:
        fh.truncate(INPUT_MAX_BYTES + 1)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(INPUT_MAX_BYTES) in err


@pytest.mark.parametrize("command", ["check", "sample", "contradiction"])
@pytest.mark.parametrize("mode", ["float", "Exact", None],
                         ids=["float", "Exact", "missing"])
def test_mode_other_than_exact_exits_2(capsys, tmp_path, command, mode):
    # every model is exact: any other mode, or none, is refused on reading
    payload = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
    if mode is None:
        del payload["mode"]
    else:
        payload["mode"] = mode
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if mode is not None:
        assert f"unknown mode {mode!r}; models are exact" in err


@pytest.mark.parametrize("n", ["10000001", "1000000000000"])
def test_sample_rejects_huge_n_before_sampling(capsys, n):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sample", "--model",
                         str(GOLDEN / "model_L3_noncontextual.json"),
                         "--context", "12", "--n", n, "--seed", "1", "--json")
    assert code == 2
    assert out == ""
    assert "n must be <= 10000000" in err
    assert time.perf_counter() - t0 < 1.0


# 1/7...7 (4000 digits) and 1/3...31 (4000 digits) parse within the
# interpreter's 4300-digit limit for int-to-str conversion; their sum's
# numerator and denominator do not.
_LONG_A = "1/" + "7" * 4000
_LONG_B = "1/" + "3" * 3999 + "1"


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pbrlab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("command", ["check", "sample", "contradiction"])
@pytest.mark.parametrize("kind", ["noncontextual", "contextual"])
def test_sum_too_long_to_print_exits_2(tmp_path, command, kind):
    payload = json.loads((GOLDEN / f"model_L3_{kind}.json").read_text())
    payload["rho1"] = [_LONG_A, _LONG_B, "0"]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(payload))
    proc = _run_cli(*_argv(command, str(path)), "--json")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    if command == "check":
        report = json.loads(proc.stdout)
        assert report["valid"] is False
        assert any("rho1 sums to <a fraction of" in v and "too long to print" in v
                   for v in report["violations"])
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith(("error: ", "invalid model:"))
        if command == "sample" or kind == "noncontextual":
            assert "too long to print" in proc.stderr


@pytest.mark.parametrize("command", ["sample", "contradiction"])
def test_result_too_long_to_print_exits_2(tmp_path, command):
    # a valid model whose predictions and forcing weights are products of
    # two 4000-digit denominators
    payload = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
    a, b = Fraction(_LONG_A), Fraction(_LONG_B)
    payload["rho1"] = [_LONG_A, str(1 - a), "0"]
    payload["rho2"] = [_LONG_B, "0", str(1 - b)]
    path = tmp_path / "long_valid.json"
    path.write_text(json.dumps(payload))
    assert _run_cli("check", "--model", str(path)).returncode == 0
    proc = _run_cli(*_argv(command, str(path)), "--json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: an exact number has too many digits to print\n"


@pytest.mark.parametrize("command", ["check", "sample", "contradiction",
                                     "nogo --rho"])
@pytest.mark.parametrize("literal", ["1e10000000", "1e-10000000", "0.5",
                                     " 1/2"])
def test_non_fraction_strings_exit_2_at_once(capsys, tmp_path, command,
                                              literal):
    # Fraction() itself would read "1e10000000" as a 10-million-digit
    # integer, which took over 10 s; only "num/den" text is accepted.
    if command == "nogo --rho":
        doc = json.loads((GOLDEN / "rho_L2_point_masses.json").read_text())
        doc["rho1"][0] = literal
    else:
        doc = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
        doc["response"]["p"][0][0][0] = literal
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and repr(literal) in err
