import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pbrlab import __version__, cli, ontology, serialize, values
from pbrlab.cli import INPUT_MAX_BYTES, main
from pbrlab.contextual import build_interval_model
from pbrlab.hilbert import born_targets
from pbrlab.serialize import dumps_canonical, model_to_json
from pbrlab.values import EpistemicState, ModelError
from records import replace


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


def test_nogo_builds_and_validates_once(capsys, monkeypatch):
    # K = 2 classes of L = 7: the quotient LP is built on class masses,
    # sums of weights already validated, without validating them again
    from pbrlab import nogo
    calls = []
    for name in ("build_feasibility", "_require_inputs"):
        original = getattr(nogo, name)
        monkeypatch.setattr(nogo, name, lambda *a, f=original, n=name:
                            calls.append(n) or f(*a))
    code, out, _ = run(capsys, "nogo", "--lambda-size", "7", "--rho",
                       str(GOLDEN / "rho_L7_seed7_disjoint.json"), "--json")
    assert code == 0
    assert out == (GOLDEN / "nogo_L7_seed7_disjoint.json").read_text()
    assert calls == ["build_feasibility", "_require_inputs"]


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
    assert "lambda_size must be <= 64" in err
    assert time.perf_counter() - t0 < 1.0


_D = 2 ** 255  # the largest power of two of NOGO_MAX_RHO_BITS = 256 bits


@pytest.mark.parametrize("rho1, rho2, code", [
    ([f"1/{_D}", f"{_D - 1}/{_D}"], ["1/2", "1/2"], 0),
    ([f"1/{2 * _D}", f"{2 * _D - 1}/{2 * _D}"], ["1/2", "1/2"], 2),
    ([f"1/{_D}", f"{_D - 1}/{_D}"], ["1/3", "2/3"], 2),
], ids=["at-the-cap", "one-bit-over", "over-in-common"])
def test_nogo_caps_the_rho_pairs_common_denominator(capsys, tmp_path, rho1,
                                                    rho2, code):
    assert cli.NOGO_MAX_RHO_BITS == 256
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"lambda_size": 2, "rho1": rho1, "rho2": rho2}))
    got, out, err = run(capsys, "nogo", "--lambda-size", "2",
                        "--rho", str(path), "--json")
    assert got == code
    if code:
        assert out == ""
        assert err == ("error: the rho pair's common denominator has 257 "
                       "bits; nogo takes at most 256\n")
    else:
        assert json.loads(out)["theorem_consistent"] is True


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
        assert _plain_dumps(json.loads(first)) + "\n" == first


def _plain_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _plain_report(command, inputs, out, model=None) -> str:
    """The report `out` must be, made with plain json.dumps: the digest is
    the SHA-256 of the inputs' dump. The rest of the payload is taken from
    `out`."""
    payload = {k: v for k, v in json.loads(out).items()
               if k not in ("command", "version", "inputs")}
    if model is not None:
        payload["model"] = model
    report = {"command": command, "version": __version__,
              "inputs": {"digest": hashlib.sha256(
                  _plain_dumps(inputs).encode()).hexdigest(), **inputs},
              **payload}
    return _plain_dumps(report) + "\n"


def _assert_same_text(got: str, want: str):
    """Name the first line that differs: pytest's own diff of two texts of
    half a megabyte takes minutes."""
    for n, (g, w) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        assert g == w, f"line {n} differs"
    assert got == want, "one text is a prefix of the other"


@pytest.mark.parametrize("L", [1, 2, 3, 7, 40])
def test_reports_equal_plain_json_dumps(capsys, tmp_path, L):
    model = build_interval_model(L, born_targets())
    model_json = model_to_json(model)
    out_path = tmp_path / "refuted.json"
    code, out, _ = run(capsys, "refute", "--lambda-size", str(L),
                       "--out", str(out_path), "--json")
    assert code == 0
    _assert_same_text(out_path.read_text(), _plain_dumps(model_json) + "\n")
    targets = [[str(q) for q in row] for row in born_targets()]
    _assert_same_text(out, _plain_report(
        "refute", {"lambda_size": L, "targets": targets}, out, model=model_json))

    path = str(out_path)
    code, out, _ = run(capsys, "check", "--model", path, "--json")
    assert code == 0
    _assert_same_text(out, _plain_report("check", {"model": model_json}, out))

    code, out, _ = run(capsys, "sample", "--model", path, "--context", "21",
                       "--n", "100", "--seed", "3", "--json")
    assert code == 0
    _assert_same_text(out, _plain_report(
        "sample", {"model": model_json, "context": "21", "n": 100, "seed": 3},
        out))

    flat = [_noncontextual(model)]
    if L > 1:
        flat.append(_noncontextual(build_interval_model(
            L, born_targets(), rho1=EpistemicState.point_mass(L, 0),
            rho2=EpistemicState.point_mass(L, L - 1))))
    for m, want in zip(flat, (0, 4)):
        code, out, _ = run(capsys, "contradiction", "--model",
                           _write_model(tmp_path, m), "--json")
        assert code == want
        _assert_same_text(out, _plain_report(
            "contradiction", {"model": model_to_json(m)}, out))


@pytest.mark.parametrize("argv", [
    ["check", "--model", "{model}"],
    ["sample", "--model", "{model}", "--context", "11", "--n", "10",
     "--seed", "1"],
    ["contradiction", "--model", "{flat}"],
    ["refute", "--lambda-size", "2"],
    ["basis"],
    ["nogo", "--lambda-size", "2"],
], ids=["check", "sample", "contradiction", "refute", "basis", "nogo"])
def test_human_output_formats_no_model_and_no_digest(capsys, tmp_path,
                                                     monkeypatch, argv):
    paths = {"model": _write_model(tmp_path, build_interval_model(2, born_targets())),
             "flat": _write_model(tmp_path, _noncontextual_overlap_model(),
                                  "flat.json")}
    argv = [a.format(**paths) for a in argv]

    def refuse(*args):
        raise AssertionError("human output formatted a report")
    from pbrlab import cli
    for name in ("model_to_json", "dumps_canonical", "digest"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "elapsed:" in out


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


def test_error_line_names_at_most_a_hundred_complaints(capsys, tmp_path):
    # every cell of context 11 sums to 4: 1,600 complaints at L = 40
    payload = model_to_json(build_interval_model(40, born_targets()))
    payload["response"]["p"]["11"] = [[["1"] * 40] * 40] * 4
    path = tmp_path / "all_ones.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "sample", "--model", str(path), "--context",
                         "12", "--n", "10", "--seed", "1", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid model: ") and err.count("\n") == 1
    assert err.count("; ") == values.COMPLAINTS_SHOWN
    assert err.endswith("; ... and 1500 more\n")
    assert len(err.encode()) < 10_000
    # check's report, as --json and as human lines, holds as many
    code, out, _ = run(capsys, "check", "--model", str(path), "--json")
    assert code == 2
    violations = json.loads(out)["violations"]
    assert len(violations) == values.COMPLAINTS_SHOWN + 1
    assert violations[-1] == "... and 1500 more"
    code, out, _ = run(capsys, "check", "--model", str(path))
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "model is invalid:"
    assert lines[1:-1] == [f"  {v}" for v in violations]


def test_input_error_names_at_most_a_hundred_complaints():
    negative = EpistemicState((Fraction(-1),) * 150)
    with pytest.raises(ModelError) as refused:
        values._require_inputs(negative, negative, 150, born_targets())
    # 150 negative weights and a wrong sum for each of rho1 and rho2
    assert str(refused.value).count("; ") == values.COMPLAINTS_SHOWN
    assert str(refused.value).endswith("; ... and 202 more")


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


def _run_cli(*argv, megabytes=None, stdout=subprocess.PIPE,
             stderr=subprocess.PIPE):
    """`pbr ARGV` in a child process, so the exit code and the streams are
    the real ones; with `megabytes` of address space, set on the child
    alone, if given."""
    limit_memory = None
    if megabytes is not None:
        resource = pytest.importorskip("resource")
        limit = megabytes * 2 ** 20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pbrlab.cli", *argv],
                          stdout=stdout, stderr=stderr, text=True, env=env,
                          preexec_fn=limit_memory, timeout=60)


@pytest.mark.parametrize("argv", [
    ["nogo", "--lambda-size", "0"],
    ["nogo", "--lambda-size", "65"],
    ["refute", "--lambda-size", "0"],
    ["refute", "--lambda-size", "129"],
    ["sample", "--model", "{valid}", "--context", "11", "--n", "-1",
     "--seed", "1"],
    ["check", "--model", "{missing}"],
    ["contradiction", "--model", "{invalid}"],
    ["sample", "--model", "{invalid}", "--context", "11", "--n", "10",
     "--seed", "1"],
    ["refute", "--lambda-size", "2", "--out", "{unwritable}"],
    ["check", "--model", "{directory}"],
    ["nogo", "--lambda-size", "2", "--rho", "{directory}"],
], ids=["nogo-L0", "nogo-L65", "refute-L0", "refute-L129", "sample-n-1",
        "missing-model", "contradiction-invalid", "sample-invalid",
        "refute-unwritable-out", "model-directory", "rho-directory"])
def test_bad_input_prints_one_error_line(capsys, tmp_path, argv):
    invalid = model_to_json(_noncontextual_overlap_model())
    invalid["rho1"] = ["2", "-1"]
    (tmp_path / "invalid.json").write_text(json.dumps(invalid))
    paths = {"valid": str(GOLDEN / "model_L3_noncontextual.json"),
             "missing": str(tmp_path / "missing.json"),
             "invalid": str(tmp_path / "invalid.json"),
             "unwritable": str(tmp_path / "no_such_dir" / "model.json"),
             "directory": str(tmp_path)}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv], "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n")


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
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    proc = _run_cli(*_argv(command, str(path)), "--json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def _oversize(name: str):
    """A golden model or rho file with one part one item over the cap."""
    n = serialize.REFUTE_MAX_LAMBDA + 1
    if name.startswith("rho-file"):
        doc = json.loads((GOLDEN / "rho_L3_seed3_overlap.json").read_text())
    else:
        doc = json.loads((GOLDEN / "model_L3_contextual.json").read_text())
    table = doc.get("response", {}).get("p", {}).get("11")
    part = name.rpartition(":")[2]
    if part == "lambda_size":
        doc["lambda_size"] = n
    elif part == "rho":
        doc["rho2"] = ["0"] * n
    elif part == "planes":
        table[:] = table * n
    elif part == "rows":
        table[0] = table[0] * n
    else:  # a row's entries
        table[0][0] = ["0"] * n
    return doc


@pytest.mark.parametrize("name", [
    "rho-file:lambda_size", "rho-file:rho", "model:lambda_size", "model:rho",
    "model:planes", "model:rows", "model:entries"])
def test_an_oversize_file_is_refused_before_its_literals(monkeypatch, name):
    doc = _oversize(name)
    read = (serialize.rho_pair_from_json if name.startswith("rho-file")
            else serialize.model_from_json)
    parsed = []
    monkeypatch.setattr(serialize, "parse_frac",
                        lambda s: parsed.append(s) or Fraction(0))
    with pytest.raises(ModelError, match=str(serialize.REFUTE_MAX_LAMBDA)):
        read(doc)
    if name.endswith("lambda_size"):
        assert parsed == []
    # one item fewer is read
    n = serialize.REFUTE_MAX_LAMBDA
    if name == "rho-file:rho":
        read({**doc, "lambda_size": n, "rho1": ["0"] * n, "rho2": ["0"] * n})
    elif name == "model:lambda_size":
        read({**doc, "lambda_size": n})


def _check_under_memory_limit(tmp_path, megabytes: int):
    """The stderr of `check --json` of an L = 200 model of 640,000
    distinct literals, 6.9 MB, in a child with `megabytes` of address space,
    which must exit 2 with nothing on stdout."""
    count = iter(range(1, 10 ** 6))
    L = 200

    def table():
        return [[[f"1/{next(count)}" for _ in range(L)] for _ in range(L)]
                for _ in range(4)]
    doc = {"mode": "exact", "lambda_size": L, "rho1": ["1"] + ["0"] * (L - 1),
           "rho2": ["1"] + ["0"] * (L - 1), "born_targets": [["1/4"] * 4] * 4,
           "response": {"kind": "contextual",
                        "p": {c: table() for c in ("11", "12", "21", "22")}}}
    path = tmp_path / "oversize.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli("check", "--model", str(path), "--json",
                    megabytes=megabytes)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == ""
    return proc.stderr


def test_an_oversize_model_exits_2_under_a_memory_limit(tmp_path):
    # With 160 MB `check --json` died with a MemoryError traceback and exit
    # 1 while building the model; now the file is refused once parsed.
    err = _check_under_memory_limit(tmp_path, 160)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200


def test_a_model_that_exhausts_memory_when_parsed_exits_2(tmp_path):
    # With 50 MB the parse itself died with a MemoryError traceback and
    # exit 1, as it did with 36-70 MB on Python 3.10-3.13.
    err = _check_under_memory_limit(tmp_path, 50)
    assert err == "error: out of memory\n"


def test_exhausted_memory_exits_0_or_2_at_every_limit():
    # Under child limits of about 20-28 MB (Python 3.10-3.13), nogo died of
    # a MemoryError in nogo._build and refute in dumps_canonical's final
    # join, each with a traceback and exit 1. Step the limit down from where
    # both fit to where the interpreter itself runs out before `main`:
    # there `--version` fails too, and the sweep ends.
    commands = [["nogo", "--lambda-size", "64", "--json"],
                ["refute", "--lambda-size", "128", "--json"]]
    codes = []
    for megabytes in range(36, 0, -2):
        procs = [_run_cli(*argv, megabytes=megabytes) for argv in commands]
        if any(p.returncode not in (0, 2) for p in procs) and _run_cli(
                "--version", megabytes=megabytes).returncode:
            break
        for proc in procs:
            assert proc.returncode in (0, 2), (megabytes, proc.stderr[-500:])
            if proc.returncode == 2:
                assert proc.stdout == ""
                assert proc.stderr.startswith("error: ")
                assert proc.stderr.count("\n") == 1
                assert "Traceback" not in proc.stderr
        codes.append([p.returncode for p in procs])
    assert codes and codes[0] == [0, 0], codes
    assert all(2 in c for c in zip(*codes)), codes


def _feed_fifo(path, size: int) -> threading.Thread:
    """Make a FIFO at `path` and start a thread that writes `size` spaces to
    it, or fewer if its reader closes it first."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                for _ in range(0, size, 2 ** 20):
                    fh.write(b" " * 2 ** 20)
        except BrokenPipeError:
            pass
    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize("command, source", [
    pytest.param(command, source,
                 id=command if source == "sparse" else f"{command}-{source}")
    for source in ("sparse", "dev-zero", "fifo")
    for command in ("check", "sample", "contradiction", "nogo --rho")])
def test_oversized_input_exits_2_before_parsing(capsys, tmp_path, command,
                                                source):
    # A sparse file one byte over the cap, /dev/zero, and a FIFO fed more
    # than the cap, which fstat would size as 0: each is read to one byte
    # past the cap and refused unparsed.
    feeder = None
    if source == "sparse":
        path = tmp_path / "oversized.json"
        with open(path, "wb") as fh:
            fh.truncate(INPUT_MAX_BYTES + 1)
    elif source == "dev-zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        path = "/dev/zero"
    else:
        path = tmp_path / "oversized.fifo"
        feeder = _feed_fifo(path, INPUT_MAX_BYTES + 2 ** 20)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    elapsed = time.perf_counter() - t0
    if feeder:
        feeder.join(timeout=10)
        assert not feeder.is_alive()
    assert elapsed < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(INPUT_MAX_BYTES) in err


def _unlisted(row: list, shape: str):
    """`row` as a string of its items or an object keyed by them: `map`
    reads their characters or keys as the items of `row` itself."""
    return "".join(row) if shape == "string" else dict.fromkeys(row, 0)


@pytest.mark.parametrize("command", ["check", "sample", "contradiction",
                                     "nogo --rho"])
@pytest.mark.parametrize("shape", ["string", "object"])
def test_rows_must_be_json_lists(capsys, tmp_path, command, shape):
    if command == "nogo --rho":
        doc = json.loads((GOLDEN / "rho_L2_point_masses.json").read_text())
        # "10", or an object keyed by "1" and "0"
        doc["rho1"] = _unlisted(doc["rho1"], shape)
    else:
        doc = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
        # "000", or an object keyed by "1", "3/4" and "0"
        plane = doc["response"]["p"][0]
        row = 1 if shape == "string" else 0
        plane[row] = _unlisted(plane[row], shape)
    path = tmp_path / "unlisted.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "expected a JSON list" in err


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
        assert proc.stderr.startswith("error: ")
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


@pytest.mark.parametrize("command", ["check", "sample", "contradiction"])
@pytest.mark.parametrize("entry", [True, 1.0, [1]], ids=["true", "1.0", "list"])
def test_non_string_entries_exit_2(capsys, tmp_path, command, entry):
    # true and 1.0 compare and hash as 1, so they must not be read as the
    # 1 of an earlier cell; a list cannot even be looked up.
    doc = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
    assert doc["response"]["p"][0][0][0] == doc["response"]["p"][3][2][2] == "1"
    doc["response"]["p"][0][0][0] = 1
    doc["response"]["p"][3][2][2] = entry
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *_argv(command, str(path)), "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(entry) in err


@pytest.mark.parametrize("later", [[0.0, 0.0, 0.0], [False, False, False],
                                   [0, 0, 0.0], [0, False, 0], [0, 0, 0]],
                         ids=["floats", "bools", "one-float", "one-bool",
                              "integers"])
def test_repeated_row_keeps_its_json_types(capsys, tmp_path, later):
    # Rows are loaded once per distinct row, and [0, 0, 0] == [0.0, 0.0,
    # 0.0] == [false, false, false]: a later row of the same values must be
    # refused for its floats or booleans, not read as the integer row.
    golden = str(GOLDEN / "model_L3_noncontextual.json")
    doc = json.loads(Path(golden).read_text())
    p = doc["response"]["p"]
    assert p[0][1] == p[0][2] == p[1][0] == p[1][1] == ["0", "0", "0"]
    p[0][1] = p[1][1] = [0, 0, 0]
    p[1][0] = later
    path = tmp_path / "typed_rows.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(path), "--json")
    if all(type(v) is int for v in later):
        assert (code, out, err) == run(capsys, "check", "--model", golden,
                                       "--json")
        return
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(next(v for v in later if type(v) is not int)) in err


_LONG_TEXT = "x" * 1_000_000


@pytest.mark.parametrize("command, field, value", [
    ("nogo --rho", "rho1", _LONG_TEXT),
    ("nogo --rho", "rho1", [_LONG_TEXT, "0"]),
    ("nogo --rho", "lambda_size", _LONG_TEXT),
    ("check", "mode", _LONG_TEXT),
    ("check", "kind", _LONG_TEXT),
], ids=["rho1-string", "rho1-entry", "lambda_size", "mode", "kind"])
def test_error_line_quotes_a_long_value_short(capsys, tmp_path, command,
                                              field, value):
    if command == "nogo --rho":
        doc = json.loads((GOLDEN / "rho_L2_point_masses.json").read_text())
        doc[field] = value
    else:
        doc = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
        (doc["response"] if field == "kind" else doc)[field] = value
    path = tmp_path / "long_value.json"
    path.write_text(json.dumps(doc))
    argv = (["nogo", "--lambda-size", "2", "--rho", str(path)]
            if command == "nogo --rho" else ["check", "--model", str(path)])
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert "'xxxx" in err and "1000002 characters" in err


# More digits than int() reads by default (4300): neither Fraction nor json
# may carry the interpreter's own advice into the error line.
_DIGITS = "1" * 5001


@pytest.mark.parametrize("file", ["rho", "model"])
@pytest.mark.parametrize("weight, named", [
    (json.dumps(_DIGITS), "'" + "1" * 59 + "... (5003 characters) has more "
     "than 4300 digits in its numerator or denominator"),
    ('"1/0"', "'1/0' has a zero denominator"),
    (_DIGITS, "the JSON integer '" + "1" * 59 + "... (5003 characters) has "
     "more than 4300 digits"),
], ids=["long-string", "zero-denominator", "long-integer"])
def test_error_line_names_a_refused_literal(capsys, tmp_path, file, weight,
                                            named):
    golden = {"rho": "rho_L2_point_masses.json",
              "model": "model_L3_noncontextual.json"}[file]
    doc = json.loads((GOLDEN / golden).read_text())
    doc["rho1"][0] = "WEIGHT"
    path = tmp_path / "literal.json"
    # json.dumps itself refuses to write an integer of 5001 digits
    path.write_text(json.dumps(doc).replace('"WEIGHT"', weight))
    argv = (["nogo", "--lambda-size", "2", "--rho", str(path)] if file == "rho"
            else ["check", "--model", str(path)])
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert "sys." not in err and "()" not in err


def test_integer_entries_read_as_their_strings(capsys, tmp_path):
    golden = str(GOLDEN / "model_L3_noncontextual.json")
    doc = json.loads(Path(golden).read_text())
    doc["response"]["p"][0][0][0] = doc["response"]["p"][3][2][2] = 1
    doc["response"]["p"][1][0][0] = 0
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(doc))
    assert (run(capsys, "check", "--model", str(path), "--json")
            == run(capsys, "check", "--model", golden, "--json"))


def test_literals_load_as_one_object_per_value():
    from pbrlab.serialize import model_from_json
    doc = json.loads((GOLDEN / "model_L3_noncontextual.json").read_text())
    doc["rho2"] = ["2/4", "+1/4", "1/4"]
    doc["response"]["p"][3][2][2] = 1
    m = model_from_json(doc)
    assert m.rho2.weights[0] is m.rho1.weights[0] == Fraction(1, 2)
    assert m.rho2.weights[1] is m.rho2.weights[2]
    p = m.response[0].p
    assert p[3][2][2] is p[0][0][0]
    assert type(p[3][2][2]) is Fraction


def _large_model(tmp_path) -> str:
    """An L = 24 model: its `check --json` report, about 160 KB, overflows
    a pipe's buffer, so the write itself fails, not only the final flush."""
    path = tmp_path / "large.json"
    path.write_text(dumps_canonical(model_to_json(
        build_interval_model(24, born_targets()))))
    return str(path)


@pytest.mark.parametrize("sink", [
    pytest.param("full", marks=pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="no /dev/full")),
    "closed-pipe"])
@pytest.mark.parametrize("command", ["check-large", "nogo-small"])
def test_unwritable_stdout_exits_2(tmp_path, sink, command):
    argv = (["check", "--model", _large_model(tmp_path), "--json"]
            if command == "check-large"
            else ["nogo", "--lambda-size", "2", "--json"])
    if sink == "full":
        with open("/dev/full", "w") as out:
            proc = _run_cli(*argv, stdout=out)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_cli(*argv, stdout=write_end)
        finally:
            os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--version"], ["--help"],
                                  ["check", "--help"]],
                         ids=["version", "help", "check-help"])
def test_unwritable_help_and_version_exit_2(argv):
    # main writes their text with _write, which reports a failed write
    with open("/dev/full", "w") as out:
        proc = _run_cli(*argv, stdout=out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("stdout", ["pipe", "full"])
def test_unwritable_stderr_exits_2(tmp_path, stdout):
    # The error line cannot be written, for a missing model or for a stdout
    # that cannot be written either: no traceback's exit 1, but 2.
    with open("/dev/full", "w") as full:
        if stdout == "full":
            proc = _run_cli("nogo", "--lambda-size", "2", "--json",
                            stdout=full, stderr=full)
        else:
            proc = _run_cli("check", "--model", str(tmp_path / "missing.json"),
                            stderr=full)
    assert proc.returncode == 2
    assert not proc.stdout


# The argument reader: options by exact name, a value after "=" or as the
# next token, whatever it looks like.

@pytest.mark.parametrize("spelling", [
    ["nogo", "--lambda-size", "2", "--json"],
    ["nogo", "--lambda-size=2", "--json"],
    ["nogo", "--json", "--lambda-size", "2"],
    ["nogo", "--lambda-size", "5", "--lambda-size", "2", "--json"],
], ids=["plain", "equals", "any-order", "last-repeat-wins"])
def test_argument_spellings_give_the_same_bytes(capsys, spelling):
    code, out, err = run(capsys, *spelling)
    assert code == 0 and err == ""
    assert out == (GOLDEN / "nogo_uniform_L2.json").read_text()


_MODEL = str(GOLDEN / "model_L3_contextual.json")


@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"]],
                         ids=["next-token", "equals"])
def test_a_value_may_look_like_an_option(capsys, seed):
    code, out, err = run(capsys, "sample", "--model", _MODEL, "--context",
                         "11", "--n", "50", *seed, "--json")
    assert code == 0 and err == ""
    model = serialize.model_from_json(json.loads(Path(_MODEL).read_text()))
    assert json.loads(out)["counts"] == list(
        ontology.sample(model, (1, 1), 50, -1).counts)


@pytest.mark.parametrize("context, n, message", [
    ("1,1", "5", "context must be one of 11, 12, 21, 22; got '1,1'"),
    ("11", "-5", "n must be >= 0"),
], ids=["comma-context", "negative-n"])
def test_sample_refuses_its_values_in_one_line(capsys, context, n, message):
    code, out, err = run(capsys, "sample", "--model", _MODEL, "--context",
                         context, "--n", n, "--seed", "1")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, first", [
    (["--help"], "usage: pbr [-h] [--version] {basis,nogo,"),
    (["-h", "nogo"], "usage: pbr [-h] [--version] {basis,nogo,"),
    (["sample", "-h"], "usage: pbr sample [-h] --model MODEL --context "
                       "CONTEXT --n N --seed SEED [--json]"),
    (["nogo", "--bogus", "--help"], "usage: pbr nogo [-h] --lambda-size "
                                    "LAMBDA-SIZE [--rho RHO] [--json]"),
    (["basis", "--", "-h"], "usage: pbr basis [-h] [--json]"),
    (["--version"], __version__),
    (["--bogus", "--version"], __version__),
], ids=["help", "help-first", "command-help", "help-after-unknown",
        "help-after-end-of-options", "version", "version-after-unknown"])
def test_help_and_version_print_their_text(capsys, argv, first):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith(first)


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["nogo"], "the following arguments are required: --lambda-size"),
    (["nogo", "--lambda-size", "x"], "argument --lambda-size: invalid int "
                                     "value: 'x'"),
    (["check", "--model"], "argument --model: expected one argument"),
    (["basis", "--json=1"], "argument --json: ignored explicit argument '1'"),
    (["basis", "extra\nline"], "unrecognized arguments: 'extra\\nline'"),
    # no prefixes, no clusters of -h, and "--" is an unknown option
    (["nogo", "--lambda", "2"], "the following arguments are required: "
                                "--lambda-size"),
    (["basis", "--js"], "unrecognized arguments: '--js'"),
    (["basis", "-hh"], "unrecognized arguments: '-hh'"),
    (["-h=h"], "argument -h: ignored explicit argument 'h'"),
    (["basis", "--", "--json"], "unrecognized arguments: '--'"),
    (["basis", "--version"], "unrecognized arguments: '--version'"),
], ids=["no-command", "missing", "bad-int", "no-value", "flag-value",
        "stray", "prefix", "flag-prefix", "cluster", "cluster-equals",
        "end-of-options", "version-after-command"])
def test_usage_error_is_one_line_quoting_the_usage(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message} (usage: pbr ")
    assert err.count("\n") == 1
