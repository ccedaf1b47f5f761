import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fresh
import judge
from pbrlab import __version__, cli, ontology, reader, serialize, values
from pbrlab.cli import main
from pbrlab.contextual import build_interval_model
from pbrlab.hilbert import born_targets
from pbrlab.reader import INPUT_MAX_BYTES
from pbrlab.serialize import dumps_canonical, model_to_json
from pbrlab.values import EpistemicState, ModelError
from records import replace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nogo_disjoint_rho_file(capsys, tmp_path):
    # the judge requires the verdict feasible and a witness that reproduces
    # the targets
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps({"lambda_size": 2, "rho1": ["1", "0"],
                                "rho2": ["0", "1"]}))
    argv = ["nogo", "--lambda-size", "2", "--rho", str(path), "--json"]
    assert judge.errors(argv, *run(capsys, *argv)[:2]) == []


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


@pytest.mark.parametrize("argv, golden, built", [
    (["--lambda-size", "12"], "nogo_uniform_L12", [1]),
    (["--lambda-size", "5", "--rho", "rho_L5_seed5_classes"],
     "nogo_L5_seed5_classes", [4]),
    (["--lambda-size", "7", "--rho", "rho_L7_seed7_disjoint"],
     "nogo_L7_seed7_disjoint", [2]),
    (["--lambda-size", "7", "--rho", "rho_L7_seed7_overlap"],
     "nogo_L7_seed7_overlap", [7]),
], ids=["uniform-certificate", "classes-certificate", "disjoint-witness",
        "K=L-certificate"])
def test_nogo_builds_only_the_lp_it_solves(capsys, monkeypatch, argv, golden,
                                           built):
    # Below K = L the unreduced LP over L^2 cells is never built, for a
    # certificate or a witness: only the class-mass LP, once. At K = L
    # that LP is the problem's own, built once too.
    from pbrlab import nogo
    sizes = []
    original = nogo._build
    monkeypatch.setattr(nogo, "_build", lambda p: sizes.append(p.lambda_size)
                        or original(p))
    argv = [str(GOLDEN / f"{a}.json") if a.startswith("rho_") else a
            for a in argv]
    code, out, _ = run(capsys, "nogo", *argv, "--json")
    assert code == 0
    assert out == (GOLDEN / f"{golden}.json").read_text()
    assert sizes == built


_D = 2 ** 255  # the largest power of two of NOGO_MAX_RHO_BITS = 256 bits


@pytest.mark.parametrize("rho1, rho2, code", [
    ([f"1/{_D}", f"{_D - 1}/{_D}"], ["1/2", "1/2"], 0),
    ([f"1/{2 * _D}", f"{2 * _D - 1}/{2 * _D}"], ["1/2", "1/2"], 2),
    ([f"1/{_D}", f"{_D - 1}/{_D}"], ["1/3", "2/3"], 2),
], ids=["at-the-cap", "one-bit-over", "over-in-common"])
def test_nogo_caps_the_rho_pairs_common_denominator(capsys, tmp_path, rho1,
                                                    rho2, code):
    from pbrlab import nogo
    assert nogo.NOGO_MAX_RHO_BITS == 256
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


_CONTEXTUAL_SHAPES = {  # a contextual response kind, and the rest
    "valid": lambda doc: doc,
    "float-mode": lambda doc: {**doc, "mode": "float"},
    "no-rho": lambda doc: {k: v for k, v in doc.items() if k != "rho1"},
    "no-tables": lambda doc: {**doc, "response": {"kind": "contextual"}},
    "kind-only": lambda doc: {"response": {"kind": "contextual"}},
}


@pytest.mark.parametrize("shape", _CONTEXTUAL_SHAPES)
def test_contradiction_refuses_a_contextual_file_unread(capsys, monkeypatch,
                                                        tmp_path, shape):
    # Its response kind alone refuses it, valid or not: no model is built.
    doc = json.loads((GOLDEN / "model_L3_contextual.json").read_text())
    path = tmp_path / "contextual.json"
    path.write_text(json.dumps(_CONTEXTUAL_SHAPES[shape](doc)))
    monkeypatch.setattr(cli, "model_from_json",
                        lambda d: pytest.fail("read into a model"))
    code, out, err = run(capsys, "contradiction", "--model", str(path),
                         "--json")
    assert (code, out) == (2, "")
    assert err == f"error: {values.NONCONTEXTUAL_ONLY}\n"


def test_refute_affirms_and_writes_model(capsys, tmp_path):
    # the judge requires Born reproduced, overlap mass 1, collapse, and the
    # contextual model of stdout written to --out, which checks as valid
    out_path = tmp_path / "interval.json"
    for argv in (["refute", "--lambda-size", "2", "--out", str(out_path),
                  "--json"], ["check", "--model", str(out_path), "--json"]):
        code, out, _ = run(capsys, *argv)
        assert judge.errors(argv, code, out, out_path.read_text()) == []


@pytest.mark.parametrize("L", [1, 3])
def test_refute_other_sizes(capsys, L):
    argv = ["refute", "--lambda-size", str(L), "--json"]
    assert judge.errors(argv, *run(capsys, *argv)[:2]) == []


def test_check_invalid_model(capsys, tmp_path):
    # rho1 does not sum to 1: the judge requires exit 2 and that violation
    path = tmp_path / "bad_model.json"
    path.write_text(_file(_flat_overlap, (("rho1",), ["1/2", "1/3"]))())
    argv = ["check", "--model", str(path), "--json"]
    assert judge.errors(argv, *run(capsys, *argv)[:2]) == []


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


@pytest.mark.parametrize("argv", [
    ["nogo", "--lambda-size", "3", "--rho", ""],
    ["nogo", "--lambda-size", "3", "--rho="],
    ["refute", "--lambda-size", "2", "--out", ""],
    ["refute", "--lambda-size", "2", "--out="],
], ids=["rho", "rho-equals", "out", "out-equals"])
def test_an_empty_path_is_refused_when_opened(capsys, tmp_path, monkeypatch,
                                              argv):
    # An empty --rho once decided uniform rho, and an empty --out wrote no
    # file, each exiting 0; now the path is opened like any other.
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert os.listdir(tmp_path) == []


def test_refute_out_onto_a_directory_names_it(capsys, tmp_path):
    code, out, err = run(capsys, "refute", "--lambda-size", "2",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"Is a directory: {str(tmp_path)!r}\n")
    assert os.listdir(tmp_path) == []


def test_refute_out_is_replaced_once_the_report_is_written(capsys, tmp_path):
    # A stdout that cannot be written fails the run after the model was
    # written beside --out: the file keeps its bytes, and the new one goes.
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    out_path = tmp_path / "model.json"
    out_path.write_bytes(b"old bytes\n")
    argv = ["refute", "--lambda-size", "2", "--out", str(out_path), "--json"]
    with open("/dev/full", "w") as full:
        proc = _run_cli(*argv, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write to stdout")
    assert out_path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["model.json"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "refute_L2_out.json").read_text()
    assert os.listdir(tmp_path) == ["model.json"]


def test_refute_out_writes_through_a_link_and_into_a_device(capsys,
                                                             tmp_path):
    # only a regular file, or a new one, is replaced
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run(capsys, "refute", "--lambda-size", "2", "--out",
                     str(link))
    assert code == 0
    assert link.is_symlink()
    assert target.read_text() == (GOLDEN / "refute_L2_out.json").read_text()
    assert sorted(os.listdir(tmp_path)) == ["link.json", "target.json"]
    code, _, _ = run(capsys, "refute", "--lambda-size", "2", "--out",
                     os.devnull)
    assert code == 0


def test_refute_out_replaces_a_file_with_its_mode(capsys, tmp_path):
    out_path = tmp_path / "model.json"
    out_path.write_text("old")
    out_path.chmod(0o640)
    code, _, _ = run(capsys, "refute", "--lambda-size", "2", "--out",
                     str(out_path))
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "refute_L2_out.json").read_text()
    assert out_path.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["model.json"]


def test_refute_out_passes_a_file_a_killed_run_left(capsys, monkeypatch,
                                                    tmp_path):
    # in a container `pbr` often runs with the same PID every time
    monkeypatch.chdir(tmp_path)
    left = tmp_path / f".m.json.{os.getpid()}.tmp"
    left.write_text("left")
    code, _, _ = run(capsys, "refute", "--lambda-size", "2", "--out", "m.json")
    assert code == 0
    assert (tmp_path / "m.json").read_text() == (
        GOLDEN / "refute_L2_out.json").read_text()
    assert left.read_text() == "left"
    assert sorted(os.listdir(tmp_path)) == [left.name, "m.json"]


def test_refute_out_onto_a_read_only_file(capsys, tmp_path):
    # as open(path, "w") would: refused, or, for a user whom the mode does
    # not bind, written, and the file keeps its mode
    out_path = tmp_path / "model.json"
    out_path.write_text("old")
    out_path.chmod(0o444)
    code, out, err = run(capsys, "refute", "--lambda-size", "2", "--out",
                         str(out_path))
    if os.access(out_path, os.W_OK):
        assert code == 0
        assert out_path.read_text() == (
            GOLDEN / "refute_L2_out.json").read_text()
    else:
        assert (code, out) == (2, "")
        assert err == (f"error: [Errno 13] Permission denied: "
                       f"{str(out_path)!r}\n")
        assert out_path.read_text() == "old"
    assert out_path.stat().st_mode & 0o777 == 0o444
    assert os.listdir(tmp_path) == ["model.json"]


def test_refute_out_writes_in_place_where_it_cannot_replace(capsys,
                                                            monkeypatch,
                                                            tmp_path):
    # in a directory this user may not write, onto a file with a second
    # link and onto another user's file, the file is written in place: its
    # inode is kept
    folder = tmp_path / "locked"
    folder.mkdir()
    locked = folder / "model.json"
    locked.write_text("old")
    linked = tmp_path / "model.json"
    linked.write_text("old")
    other = tmp_path / "other.json"
    os.link(linked, other)
    paths = [locked, linked]
    if os.geteuid() == 0:  # only root can give a file to another user
        foreign = tmp_path / "foreign.json"
        foreign.write_text("old")
        os.chown(foreign, 65534, 65534)
        paths.append(foreign)
    folder.chmod(0o555)
    try:
        if os.access(folder, os.W_OK):  # a user whom the mode does not bind
            access = os.access
            monkeypatch.setattr(os, "access", lambda path, mode: (
                os.path.abspath(path) != str(folder) and access(path, mode)))
        for path in paths:
            inode = path.stat().st_ino
            code, _, _ = run(capsys, "refute", "--lambda-size", "2", "--out",
                             str(path))
            assert code == 0
            assert path.stat().st_ino == inode
            assert path.read_text() == (
                GOLDEN / "refute_L2_out.json").read_text()
        assert os.listdir(folder) == ["model.json"]
        assert other.read_text() == linked.read_text()
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["locked", "model.json", "other.json"]
            + [p.name for p in paths[2:]])
    finally:
        folder.chmod(0o755)


GOLDEN = Path(__file__).parent / "golden"


def _start_cli(*argv, megabytes=None, closed=(), env=(),
               stdout=subprocess.PIPE,
               stderr=subprocess.PIPE) -> subprocess.Popen:
    """`pbr ARGV` started in a child process, so the exit code and the
    streams are the real ones; with `megabytes` of address space, set on the
    child alone, if given, its descriptors `closed` closed and the variables
    `env` added to its environment."""
    limit = megabytes and pytest.importorskip("resource")

    def setup():
        if limit:
            size = megabytes * 2 ** 20
            limit.setrlimit(limit.RLIMIT_AS, (size, size))
        for fd in closed:
            os.close(fd)
    return subprocess.Popen([sys.executable, "-m", "pbrlab.cli", *argv],
                            stdout=stdout, stderr=stderr, text=True,
                            env=fresh.env(**dict(env)), preexec_fn=setup)


def _finish(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _run_cli(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`pbr ARGV` run to its end by _start_cli."""
    return _finish(_start_cli(*argv, **kwargs))


# How each command that reads a file is run on the file "{file}".
_ARGV = {"check": "check --model {file}",
         "sample": "sample --model {file} --context 11 --n 10 --seed 1",
         "contradiction": "contradiction --model {file}",
         "nogo --rho": "nogo --lambda-size 2 --rho {file}"}


def _argv(command, path):
    return [path if a == "{file}" else a for a in _ARGV[command].split()]


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


def _golden_file(name: str):
    """The golden rho file for a "rho-file" case, else the golden model."""
    if name.startswith("rho-file"):
        return json.loads((GOLDEN / "rho_L3_seed3_overlap.json").read_text())
    return json.loads((GOLDEN / "model_L3_contextual.json").read_text())


def _oversize(name: str):
    """A golden model or rho file with one part one item over the cap."""
    n = serialize.REFUTE_MAX_LAMBDA + 1
    doc = _golden_file(name)
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
    # `_Literals` looks parse_frac up in the module that defines it
    monkeypatch.setattr(reader, "parse_frac",
                        lambda s: parsed.append(s) or Fraction(0))
    # the patch is live: a file of normal size has its literals parsed
    read(_golden_file(name))
    assert parsed
    parsed.clear()
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


@pytest.mark.parametrize("argv, golden", [
    (["nogo", "--lambda-size", "3", "--rho",
      str(GOLDEN / "rho_L3_seed3_overlap.json"), "--json"],
     "nogo_L3_seed3_overlap.json"),
    (["check", "--model", str(GOLDEN / "model_L3_contextual.json"), "--json"],
     "check_L3_contextual.json"),
], ids=["nogo-rho", "check"])
def test_a_small_input_file_reads_under_a_tight_memory_limit(argv, golden):
    # Reading a file with one read of INPUT_MAX_BYTES + 1 bytes reserved
    # 16 MiB first, so under 26-34 MB both exited 2 out of memory, where
    # `nogo --lambda-size 12`, which reads no file, ran.
    proc = _run_cli(*argv, megabytes=34)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == (GOLDEN / golden).read_text()


def _distinct_rho_file(path, L: int, seed: int) -> None:
    """A rho file over L lambdas whose weights, drawn from 1..1000 by
    `random.Random(seed)`, are distinct: K = L classes, so nogo solves the
    unreduced LP."""
    import random
    rng = random.Random(seed)
    weights = [rng.sample(range(1, 1001), L) for _ in range(2)]
    path.write_text(json.dumps(
        {"lambda_size": L, **{f"rho{i + 1}": [str(Fraction(w, sum(ws)))
                                              for w in ws]
                              for i, ws in enumerate(weights)}}))


# A child that dies before `main`, starting the interpreter or compiling and
# importing pbrlab.cli, says so on stderr; a traceback through `main` or
# `run` is an error that `main` let escape.
_BEFORE_MAIN = re.compile(r'File "<frozen runpy>"|^Fatal Python error|'
                          r"error while loading shared libraries", re.M)
_IN_MAIN = re.compile(r'pbrlab[/\\]cli\.py", line \d+, in (main|run)\b')


def test_exhausted_memory_exits_0_or_2_at_every_limit(tmp_path):
    # Under child limits of about 20-28 MB (Python 3.10-3.13), nogo died of
    # a MemoryError in nogo._build and refute in dumps_canonical's final
    # join, each with a traceback and exit 1. Step the limit down from where
    # all fit to where the interpreter itself runs out before `main`, and
    # the sweep ends. nogo runs a K = L file: the
    # uniform LP at L = 64 is solved on one class, and no longer runs out
    # above that floor. refute --out writes onto a file that a run exiting 2
    # must leave as it was, with no new file beside it.
    rho = tmp_path / "rho.json"
    _distinct_rho_file(rho, 64, 1)
    out = tmp_path / "out" / "model.json"
    out.parent.mkdir()
    commands = [["nogo", "--lambda-size", "64", "--rho", str(rho), "--json"],
                ["refute", "--lambda-size", "128", "--json"],
                ["refute", "--lambda-size", "128", "--out", str(out),
                 "--json"]]
    codes, written = [], set()
    for megabytes in range(44, 0, -2):
        out.write_bytes(b"old bytes\n")
        # the three run side by side
        procs = [_start_cli(*argv, megabytes=megabytes) for argv in commands]
        procs = [_finish(proc) for proc in procs]
        # The floor is not sharp: at 18 MB, 4 of 12 `--version` runs got
        # through and 10 of 12 runs of each of nogo and refute --out died
        # compiling pbrlab/cli.py (Python 3.11.7). So the sweep ends at the
        # first step where a child exits otherwise, and each such child must
        # have died before `main`.
        failed = [p for p in procs if p.returncode not in (0, 2)]
        for proc in failed:
            assert (_BEFORE_MAIN.search(proc.stderr)
                    and not _IN_MAIN.search(proc.stderr)), (
                megabytes, proc.returncode, proc.stderr[-500:])
        if failed:
            break
        for proc in procs:
            assert proc.returncode in (0, 2), (megabytes, proc.stderr[-500:])
            if proc.returncode == 2:
                assert proc.stdout == ""
                assert proc.stderr.startswith("error: ")
                assert proc.stderr.count("\n") == 1
                assert "Traceback" not in proc.stderr
        if procs[2].returncode == 2:
            assert out.read_bytes() == b"old bytes\n", megabytes
        else:
            written.add(out.read_bytes())
        assert os.listdir(out.parent) == ["model.json"], megabytes
        codes.append([p.returncode for p in procs])
    assert codes and codes[0] == [0, 0, 0], codes
    assert all(2 in c for c in zip(*codes)), codes
    # every run that exited 0 wrote the one model
    assert len(written) == 1 and written.pop().startswith(b"{"), codes


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


_NEEDS_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                 reason="no /dev/full")


@pytest.mark.parametrize("command, sink", [
    pytest.param(command, sink, id=f"{command}-{sink}",
                 marks=[_NEEDS_FULL] if sink == "full" else [])
    for command in ("check-large", "nogo-small")
    for sink in ("full", "closed-pipe", "closed")] + [
    pytest.param("version", "closed", id="version-closed")])
def test_unwritable_stdout_exits_2(tmp_path, command, sink):
    # "closed": Python sets sys.stdout to None when descriptor 1 is closed
    # at start, and _write died of an AttributeError with exit 1
    argv = (["check", "--model", _large_model(tmp_path), "--json"]
            if command == "check-large" else
            ["nogo", "--lambda-size", "2", "--json"]
            if command == "nogo-small" else ["--version"])
    if sink == "full":
        with open("/dev/full", "w") as out:
            proc = _run_cli(*argv, stdout=out)
    elif sink == "closed":
        proc = _run_cli(*argv, closed=(1,))
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


@pytest.mark.parametrize("stdout", [pytest.param("pipe", marks=_NEEDS_FULL),
                                    pytest.param("full", marks=_NEEDS_FULL),
                                    "closed"])
def test_unwritable_stderr_exits_2(tmp_path, stdout):
    # The error line cannot be written, for a missing model, for a stdout
    # that cannot be written either, or with both descriptors closed at
    # start: no traceback's exit 1, but 2.
    if stdout == "closed":
        proc = _run_cli("nogo", "--lambda-size", "2", "--json", closed=(1, 2))
    else:
        with open("/dev/full", "w") as full:
            proc = _run_cli(*(["nogo", "--lambda-size", "2", "--json"]
                              if stdout == "full" else
                              ["check", "--model",
                               str(tmp_path / "missing.json")]),
                            stdout=full if stdout == "full" else
                            subprocess.PIPE, stderr=full)
    assert proc.returncode == 2
    assert not proc.stdout and not proc.stderr


def test_stdout_that_cannot_encode_the_report_exits_2(tmp_path):
    # The human line names a --out path that strict UTF-8 cannot encode: it
    # died of a UnicodeEncodeError and exit 1. The file keeps its bytes.
    out_path = tmp_path / os.fsdecode(b"\xfd.json")
    out_path.write_bytes(b"old bytes\n")
    proc = _run_cli("refute", "--lambda-size", "2", "--out", str(out_path),
                    env={"PYTHONIOENCODING": "utf-8:strict"})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot write to stdout: 'utf-8' "
                                  "codec can't encode character '\\udcfd'")
    assert proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == [out_path.name]
    assert out_path.read_bytes() == b"old bytes\n"


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




# Refusals: each case gives one input that is refused with exit 2, an empty
# stdout and one `error: ` line of under 300 bytes, which never tells a user
# to call Python, within 1 s, and keeps the test id it had as a test of its
# own. A case is (argv, file, text). argv is split at spaces; in it,
# "{file}" is the file `file` makes, "{dir}" a directory, "{missing}" a
# file that is not there, "{unwritable}" one in a directory that is not
# there, and "{model}" and "{contextual}" the golden L = 3 noncontextual and
# contextual models. The error line holds each fragment of `text`, or
# starts with it after "error: " if it starts with "^", or is all of it if
# it starts with "=".

DROP = object()
_FLAT = "model_L3_noncontextual.json"
_RHO = "rho_L2_point_masses.json"
_P000 = ("response", "p", 0, 0, 0)
_MODELS = ("check", "sample", "contradiction")


def _file(source, *changes, raw=None):
    """What makes a JSON file: the golden file `source`, or the document
    `source()`, with each (path, value) of `changes` set, dropped for DROP,
    or mapped for a callable value; then "WEIGHT" written as the raw JSON
    text `raw`."""
    def make():
        doc = (source() if callable(source)
               else json.loads((GOLDEN / source).read_text()))
        for (*head, last), value in changes:
            node = doc
            for key in head:
                node = node[key]
            if value is DROP:
                del node[last]
            else:
                node[last] = value(node[last]) if callable(value) else value
        text = json.dumps(doc)
        return text if raw is None else text.replace('"WEIGHT"', raw)
    return make


def _flat_overlap():
    return model_to_json(_noncontextual_overlap_model())


def _read(command, source, *changes, raw=None):
    """The case of `command` reading the file `_file` makes, with --json."""
    return f"{_ARGV[command]} --json", _file(source, *changes, raw=raw)


_INVALID = _file(_flat_overlap, (("rho1",), ["2", "-1"]))
_DIGITS = "1" * 5001  # more digits than int() reads by default (4300)
_LONG = "x" * 1_000_000
_DOTS = "... (5003 characters) has more than 4300 digits"

REFUSALS = {
    "test_nogo_rejects_zero_lambda": (
        "nogo --lambda-size 0", None, "lambda_size must be >= 1"),
    "test_nogo_malformed_rho_file": (
        _ARGV["nogo --rho"], lambda: "{not json", "error"),
    **{f"test_nogo_rejects_coerced_rho_file[{name}]": (
        *_read("nogo --rho", lambda size=size, rho1=rho1: {
            "lambda_size": size, "rho1": rho1, "rho2": ["1/2", "1/2"]}), text)
       for name, size, rho1, text in (
           ("bool-weight", 2, [True, False], "True"),
           ("fractional-size", 2.7, ["1/2", "1/2"],
            "lambda_size must be a JSON integer"))},
    "test_nogo_rejects_huge_lambda_before_building": (
        "nogo --lambda-size 100000", None, "lambda_size must be <= 64"),
    **{f"test_refute_rejects_huge_lambda_before_building[{L}]": (
        f"refute --lambda-size {L} --json", None,
        "lambda_size must be <= 128") for L in ("129", "100000")},
    "test_check_rejects_fractional_lambda_size": (
        *_read("check", _flat_overlap, (("lambda_size",), 2.7)),
        "lambda_size must be a JSON integer"),
    **{f"test_malformed_response_table_exits_2[{how}-{command}]": (
        *_read(command, *change),
        f"={values.NONCONTEXTUAL_ONLY}"
        if (how, command) == ("missing-slice", "contradiction")
        else "malformed model")
       for how, change in (
           ("missing-p", (_flat_overlap, (("response", "p"), DROP))),
           ("missing-slice", (lambda: model_to_json(build_interval_model(
               2, born_targets())), (("response", "p", "12"), DROP))),
           ("divide-by-zero", (_flat_overlap, (_P000, "1/0"))),
           ("not-a-number", (_flat_overlap, (_P000, "x"))))
       for command in _MODELS},
    "test_contradiction_invalid_model": (
        "contradiction --model {file}", _INVALID, "invalid model"),
    **{f"test_contradiction_reads_any_other_shape_in_full[{name}]": (
        "contradiction --model {file}", lambda doc=doc: json.dumps(doc),
        f"^malformed model: {text}")
       for name, doc, text in (
           ("list", [1], "expected a JSON object, got list"),
           ("response-string", {"response": "contextual"},
            'missing key "mode"'),
           ("kind-list", {"mode": "exact", "response": {
               "kind": ["contextual"]}}, 'missing key "lambda_size"'))},
    # a file or a part of one that is no JSON object, or lacks a key, is
    # named as such, not by the Python error that reading it raised
    **{f"test_malformed_file_names_its_fault[{name}-{command}]": (
        *_read(command, lambda doc=doc: doc), f"={prefix}: {text}")
       for name, doc, text in (
           ("top-list", [], "expected a JSON object, got list"),
           ("top-number", 3, "expected a JSON object, got number"),
           ("top-string", "rho", "expected a JSON object, got string"),
           ("top-null", None, "expected a JSON object, got null"))
       for command, prefix in (("check", "malformed model"),
                               ("nogo --rho", "malformed rho file"))},
    **{f"test_malformed_file_names_its_fault[{name}-{command}]": (
        *_read(command, *change), f"={prefix}: {text}")
       for name, command, prefix, change, text in (
           ("missing-rho2", "nogo --rho", "malformed rho file",
            (_RHO, (("rho2",), DROP)), 'missing key "rho2"'),
           ("missing-mode", "check", "malformed model",
            (_FLAT, (("mode",), DROP)), 'missing key "mode"'),
           ("missing-kind", "check", "malformed model",
            (_FLAT, (("response", "kind"), DROP)),
            'missing key "kind"'),
           ("response-number", "check", "malformed model",
            (_FLAT, (("response",), 7)),
            "expected a JSON object, got number"),
           ("slices-list", "check", "malformed model",
            ("model_L3_contextual.json", (("response", "p"), [])),
            "expected a JSON object, got list"),
           ("targets-number", "check", "malformed model",
            (_FLAT, (("born_targets",), 1)), "expected a JSON list, got 1"),
           ("table-number", "check", "malformed model",
            (_FLAT, (("response", "p"), 1)), "expected a JSON list, got 1"))},
    "test_refute_unwritable_out_exits_2": (
        "refute --lambda-size 2 --out {unwritable} --json", None,
        ("error", "no_such_dir")),
    **{f"test_bad_input_prints_one_error_line[{name}]": (
        f"{argv} --json", _INVALID, "")
       for name, argv in (
           ("nogo-L0", "nogo --lambda-size 0"),
           ("nogo-L65", "nogo --lambda-size 65"),
           ("refute-L0", "refute --lambda-size 0"),
           ("refute-L129", "refute --lambda-size 129"),
           ("sample-n-1",
            "sample --model {model} --context 11 --n -1 --seed 1"),
           ("missing-model", "check --model {missing}"),
           ("contradiction-invalid", _ARGV["contradiction"]),
           ("sample-invalid", _ARGV["sample"]),
           ("refute-unwritable-out", "refute --lambda-size 2 --out "
                                     "{unwritable}"),
           ("model-directory", "check --model {dir}"),
           ("rho-directory", "nogo --lambda-size 2 --rho {dir}"))},
    # a row written as a string of its items, "10" or "000", or as an
    # object keyed by them: `map` would read their characters or keys
    **{f"test_rows_must_be_json_lists[{shape}-{command}]": (
        *_read(command, *((_RHO, (("rho1",), unlist))
                          if command == "nogo --rho" else
                          (_FLAT, (("response", "p", 0,
                                    int(shape == "string")), unlist)))),
        "expected a JSON list")
       for shape, unlist in (("string", "".join),
                             ("object", lambda row: dict.fromkeys(row, 0)))
       for command in _ARGV},
    # every model is exact: any other mode, or none, is refused on reading
    **{f"test_mode_other_than_exact_exits_2[{name}-{command}]": (
        *_read(command, _FLAT, (("mode",), mode or DROP)),
        mode and f"unknown mode {mode!r}; models are exact" or "")
       for name, mode in (("float", "float"), ("Exact", "Exact"),
                          ("missing", None))
       for command in _MODELS},
    **{f"test_sample_rejects_huge_n_before_sampling[{n}]": (
        f"sample --model {{model}} --context 12 --n {n} --seed 1 --json",
        None, "n must be <= 10000000") for n in ("10000001", "1000000000000")},
    # Fraction() itself would read "1e10000000" as a 10-million-digit
    # integer, which took over 10 s; only "num/den" text is accepted.
    **{f"test_non_fraction_strings_exit_2_at_once[{literal}-{command}]": (
        *(_read(command, _RHO, (("rho1", 0), literal))
          if command == "nogo --rho" else _read(command, _FLAT,
                                                (_P000, literal))),
        repr(literal))
       for literal in ("1e10000000", "1e-10000000", "0.5", " 1/2")
       for command in _ARGV},
    # true and 1.0 compare and hash as 1, so they must not be read as the
    # 1 of an earlier cell; a list cannot even be looked up.
    **{f"test_non_string_entries_exit_2[{name}-{command}]": (
        *_read(command, _FLAT, (_P000, 1),
               (("response", "p", 3, 2, 2), entry)),
        repr(entry))
       for name, entry in (("true", True), ("1.0", 1.0), ("list", [1]))
       for command in _MODELS},
    **{f"test_error_line_quotes_a_long_value_short[{name}]": (
        *_read(command, source, (path, value)),
        ("'xxxx", "1000002 characters"))
       for name, command, source, path, value in (
           ("rho1-string", "nogo --rho", _RHO, ("rho1",), _LONG),
           ("rho1-entry", "nogo --rho", _RHO, ("rho1",), [_LONG, "0"]),
           ("lambda_size", "nogo --rho", _RHO, ("lambda_size",), _LONG),
           ("mode", "check", _FLAT, ("mode",), _LONG),
           ("kind", "check", _FLAT, ("response", "kind"), _LONG))},
    # neither Fraction nor json may carry the interpreter's own advice
    **{f"test_error_line_names_a_refused_literal[{name}-{file}]": (
        *_read(command, source, (("rho1", 0), "WEIGHT"), raw=weight), text)
       for name, weight, text in (
           ("long-string", json.dumps(_DIGITS), f"'{'1' * 59}{_DOTS} in its "
                                                "numerator or denominator"),
           ("zero-denominator", '"1/0"', "'1/0' has a zero denominator"),
           ("long-integer", _DIGITS,
            f"the JSON integer '{'1' * 59}{_DOTS}"))
       for file, command, source in (("rho", "nogo --rho", _RHO),
                                     ("model", "check", _FLAT))},
    **{f"test_sample_refuses_its_values_in_one_line[{name}]": (
        f"sample --model {{contextual}} --context {context} --n {n} --seed 1",
        None, f"={text}")
       for name, context, n, text in (
           ("comma-context", "1,1", "5",
            "context must be one of 11, 12, 21, 22; got '1,1'"),
           ("negative-n", "11", "-5", "n must be >= 0"))},
    # options by exact name: no prefixes, no clusters of -h, and "--" is an
    # unknown option
    **{f"test_usage_error_is_one_line_quoting_the_usage[{name}]": (
        argv, None, f"^{text} (usage: pbr ")
       for name, argv, text in (
           ("no-command", "", "a command is required"),
           ("missing", "nogo",
            "the following arguments are required: --lambda-size"),
           ("bad-int", "nogo --lambda-size x",
            "argument --lambda-size: invalid int value: 'x'"),
           ("no-value", "check --model",
            "argument --model: expected one argument"),
           ("flag-value", "basis --json=1",
            "argument --json: ignored explicit argument '1'"),
           ("stray", "basis extra\nline",
            "unrecognized arguments: 'extra\\nline'"),
           ("prefix", "nogo --lambda 2",
            "the following arguments are required: --lambda-size"),
           ("flag-prefix", "basis --js", "unrecognized arguments: '--js'"),
           ("cluster", "basis -hh", "unrecognized arguments: '-hh'"),
           ("cluster-equals", "-h=h",
            "argument -h: ignored explicit argument 'h'"),
           ("end-of-options", "basis -- --json",
            "unrecognized arguments: '--'"),
           ("version-after-command", "basis --version",
            "unrecognized arguments: '--version'"))},
}


def _refused(capsys, tmp_path, argv, make, text):
    path = tmp_path / "input.json"
    if make:
        path.write_text(make())
    places = {"{file}": str(path), "{dir}": str(tmp_path),
              "{missing}": str(tmp_path / "missing.json"),
              "{unwritable}": str(tmp_path / "no_such_dir" / "model.json"),
              "{model}": str(GOLDEN / _FLAT), "{contextual}": _MODEL}
    t0 = time.perf_counter()
    code, out, err = run(capsys, *[places.get(a, a) for a in
                                   (argv.split(" ") if argv else [])])
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("\n") and len(err.encode()) < 300, err
    assert "sys." not in err and "()" not in err, err
    if text[:1] == "=":
        assert err == f"error: {text[1:]}\n"
    elif text[:1] == "^":
        assert err.startswith(f"error: {text[1:]}")
    else:
        assert all(f in err for f in ([text] if isinstance(text, str)
                                      else text)), err


def _refusal_test(cases: dict):
    """One test of the cases keyed by their parameter ids, or of the one
    case keyed by ""."""
    if list(cases) == [""]:
        return lambda capsys, tmp_path: _refused(capsys, tmp_path, *cases[""])

    @pytest.mark.parametrize("case", cases.values(), ids=list(cases))
    def test(capsys, tmp_path, case):
        _refused(capsys, tmp_path, *case)
    return test


_TESTS = {}
for _key, _case in REFUSALS.items():
    _name, _, _id = _key.partition("[")
    _TESTS.setdefault(_name, {})[_id[:-1]] = _case
for _name, _cases in _TESTS.items():
    globals()[_name] = _refusal_test(_cases)
