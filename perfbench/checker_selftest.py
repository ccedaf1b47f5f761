"""Self-test of the output checker and of the tail-percentile rule.

    python3 perfbench/checker_selftest.py

Genuine outputs come from running pbrlab.cli in-process on small inputs;
each must pass the checker, and each tampered copy must be rejected by the
same path that counts failures in the benchmark loop. run.py also runs
these tests at the start of every benchmark run.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import checker
import stats
from workloads import Command

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench" / f"selftest-{os.getpid()}"


def pbr(*argv) -> bytes:
    """stdout of one in-process CLI command run in WORK."""
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from pbrlab import cli
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(WORK)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"pbr {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def tampered(doc: dict, edit) -> bytes:
    doc = copy.deepcopy(doc)
    edit(doc)
    return json.dumps(doc).encode()


class CheckerTest(unittest.TestCase):
    CERT = Command("nogo_certificate", ("nogo", "--lambda-size", "2", "--rho",
                                        "overlap.json", "--json"), 2, rho="overlap.json")
    WITNESS = Command("nogo_witness", ("nogo", "--lambda-size", "2", "--rho",
                                       "disjoint.json", "--json"), 2, rho="disjoint.json")
    REFUTE = Command("refute", ("refute", "--lambda-size", "2", "--out", "model.json",
                                "--json"), 2, model="model.json")
    CHECK = Command("check", ("check", "--model", "model.json", "--json"), 2,
                    model="model.json")
    SAMPLE = Command("sample", ("sample", "--model", "model.json", "--context", "12",
                                "--n", "50", "--seed", "3", "--json"), 2,
                     model="model.json", context="12", n=50, seed=3)

    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / "overlap.json").write_text(json.dumps(
            {"lambda_size": 2, "rho1": ["1/3", "2/3"], "rho2": ["3/5", "2/5"]}))
        (WORK / "disjoint.json").write_text(json.dumps(
            {"lambda_size": 2, "rho1": ["1", "0"], "rho2": ["0", "1"]}))
        cls.out = {cmd.kind: pbr(*cmd.argv) for cmd in
                   (cls.CERT, cls.WITNESS, cls.REFUTE, cls.CHECK, cls.SAMPLE)}
        cls.doc = {k: json.loads(v) for k, v in cls.out.items()}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def verify(self, cmd, out: bytes, code: int = 0) -> list:
        from run import Verifier
        return Verifier(WORK).check(cmd, code, out)[2]

    def test_genuine_outputs_pass(self):
        for cmd in (self.CERT, self.WITNESS, self.REFUTE, self.CHECK, self.SAMPLE):
            self.assertEqual(self.verify(cmd, self.out[cmd.kind]), [], cmd.kind)

    def test_tampered_certificate_rejected(self):
        def negate(d):
            d["certificate"]["y"] = [str(-checker.frac(v)) for v in d["certificate"]["y"]]

        def bump_born_row(d):  # one Born row's multiplier raised: some column turns positive
            y = d["certificate"]["y"]
            y[4] = str(checker.frac(y[4]) + 1000)

        def reorder_rows(d):
            d["certificate"]["rows"].reverse()

        for edit in (negate, bump_born_row, reorder_rows):
            errors = self.verify(self.CERT, tampered(self.doc["nogo_certificate"], edit))
            self.assertTrue(errors, edit.__name__)

    def test_perturbed_witness_rejected(self):
        def rotate_outcomes(d):  # rows still sum to 1, predictions move
            p = d["witness"]["p"]
            cell = [p[i][0][1] for i in range(4)]
            for i in range(4):
                p[i][0][1] = cell[(i + 1) % 4]

        def unnormalise(d):
            d["witness"]["p"][0][1][1] = "1/3"

        for edit in (rotate_outcomes, unnormalise):
            errors = self.verify(self.WITNESS, tampered(self.doc["nogo_witness"], edit))
            self.assertTrue(errors, edit.__name__)

    def test_miscounted_sample_rejected(self):
        def one_more(d):
            d["counts"][0] += 1

        def onto_forbidden_outcome(d):  # context 12 forbids outcome 2
            c = d["counts"]
            donor = max(range(4), key=lambda i: c[i])
            c[donor] -= 1
            c[1] += 1

        for edit in (one_more, onto_forbidden_outcome):
            errors = self.verify(self.SAMPLE, tampered(self.doc["sample"], edit))
            self.assertTrue(errors, edit.__name__)

    def test_tampered_refute_and_check_rejected(self):
        def shift_response(d):
            p = d["model"]["response"]["p"]["11"]
            p[0][0][0], p[1][0][0] = p[1][0][0], p[0][0][0]
            p[0][1][1], p[1][1][1] = p[1][1][1], p[0][1][1]

        self.assertTrue(self.verify(self.REFUTE, tampered(self.doc["refute"], shift_response)))

        def invalid(d):
            d["valid"] = False

        self.assertTrue(self.verify(self.CHECK, tampered(self.doc["check"], invalid)))

    def test_bad_exit_and_garbage_rejected(self):
        self.assertTrue(self.verify(self.SAMPLE, self.out["sample"], code=2))
        self.assertTrue(self.verify(self.SAMPLE, b"not json"))
        self.assertTrue(self.verify(self.SAMPLE, b"{}"))

    def test_checker_imports_nothing_from_pbrlab(self):
        tree = ast.parse((HERE / "checker.py").read_text())
        imported = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                     for a in n.names]
        self.assertFalse([m for m in imported if m.split(".")[0] == "pbrlab"])


class TailTest(unittest.TestCase):
    def test_picks_the_sample_with_ten_beyond(self):
        self.assertEqual(stats.tail(range(1, 101)), (90, 90.0))
        self.assertEqual(stats.tail(range(1, 201)), (190, 95.0))
        self.assertEqual(stats.tail(list(range(40, 0, -1))), (30, 75.0))

    def test_fewer_than_twenty_give_the_median_rank(self):
        self.assertEqual(stats.tail(range(1, 21)), (10, 50.0))
        value, pct = stats.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 11, 10])
        self.assertEqual(value, 6)
        self.assertAlmostEqual(pct, 600 / 11)
        self.assertEqual(stats.tail([3, 1, 2]), (2, 200 / 3))
        self.assertEqual(stats.tail([7]), (7, 100.0))


if __name__ == "__main__":
    unittest.main()
