"""Closed-loop benchmark of the `pbr` command line.

    python3 perfbench/run.py --workload nogo-uniform --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory and
the program is `python -m pbrlab.cli` with its `src` on PYTHONPATH.

--trace 0: one client runs one command at a time as a child process, from
spawn to exit, for --seconds, and checks every output independently
(checker.py). Each time is scaled to reference speed by runs of
reference.py around it (see `normalise`). Prints every end-to-end metric.

--trace 1: runs one workload cycle at a time in-process through
`pbrlab.cli.main`, alternating an untraced pass with a pass whose layer
functions are wrapped by tracing.py. Prints every per-layer metric.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Results, behaviour
digests and exact counts are also written under .perfbench/ in the
repository root, where later runs of the same seed and source compare
against them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
import unittest
from fractions import Fraction
from pathlib import Path

import checker
import stats
import tracing
import workloads
from workloads import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUPS = 7          # set-ups per run; setup_s is their median
DIGEST_CYCLES = 4   # cycles every run completes; the behaviour digest covers them
IMPORT_PROBES = 5   # child processes timing `import pbrlab.cli`
MIN_PASSES = 3      # traced and untraced in-process passes per --trace 1 run
REFERENCE = HERE / "reference.py"
REF_S = 0.1         # seconds reference.py takes at reference speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pbrlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    """HEAD of the repository root, read from .git without running git;
    None when the root is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {"seed": seed,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source_digest()}


# --- set-up -----------------------------------------------------------------

def setup_once(workload: str, seed: int, workdir: Path, env: dict):
    """Generate every input file, then start the CLI once so bytecode
    compilation and other first-start costs land here, not in the loop."""
    t0 = time.perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    names = workloads.make_inputs(workload, seed, workdir)
    code = run_command(("--version",), workdir, env)[1]
    if code != 0:
        raise subprocess.SubprocessError(f"`pbr --version` exited {code}")
    return time.perf_counter() - t0, names


def setup(workload: str, seed: int, workdir: Path, env: dict):
    """SETUPS set-ups: (times at reference speed, raw times, input names)."""
    times, raw = [], []
    before = reference_time(env)
    for _ in range(SETUPS):
        elapsed, names = setup_once(workload, seed, workdir, env)
        after = reference_time(env)
        times.append(normalise(elapsed, before, after))
        raw.append(elapsed)
        before = after
    return times, raw, names


# --- machine speed ----------------------------------------------------------
#
# The shared host this benchmark was built on switches between a fast and a
# slow state, about 1.5x apart, every few seconds and for minutes at a time,
# on every core at once. A raw time measures that state as much as the
# program. So every timed step runs between two runs of reference.py, fixed
# work in a child process like a CLI command, and its time is scaled to
# what it would be when reference.py takes REF_S: seconds at reference speed.

def reference_time(env: dict) -> float:
    """Wall time of one run of reference.py."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, str(REFERENCE)], cwd=HERE, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise subprocess.SubprocessError(
            f"reference.py exited {done.returncode}: {done.stderr.decode()[-300:]}")
    return elapsed


def normalise(elapsed: float, before: float, after: float) -> float:
    """elapsed at reference speed, from the reference runs around it."""
    return elapsed * REF_S * 2 / (before + after)


# --- output checks ----------------------------------------------------------

class Verifier:
    """Checks each distinct output once; a repeat of a command must produce
    the same bytes (same digest) and then shares the first verdict."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.seen = {}          # command key -> (digest, errors)
        self._predicted = {}    # model file digest -> per-context predictions

    def _file(self, name: str) -> bytes:
        return (self.workdir / name).read_bytes()

    def key(self, cmd) -> str:
        """The command with each input file replaced by its content digest."""
        argv = list(cmd.argv)
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--rho", "--model"):
                argv[i + 1] = sha256(self._file(argv[i + 1]))[:16]
            elif arg == "--out":
                argv[i + 1] = "OUT"
        return " ".join(argv)

    def digest(self, cmd, code: int, out: bytes) -> str:
        data = b"exit=%d\n" % code + out
        if cmd.kind == "refute":
            data += b"\nout-file=" + sha256(self._file(cmd.model)).encode()
        return sha256(data)

    def check(self, cmd, code: int, out: bytes):
        """(key, digest, errors) for one finished command."""
        key = self.key(cmd)
        digest = self.digest(cmd, code, out)
        if key in self.seen:
            first, errors = self.seen[key]
            if digest != first:
                return key, digest, ["output differs from an earlier run of the same command"]
            return key, digest, errors
        try:
            errors = self._check(cmd, code, out)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
                AttributeError, OSError) as e:
            errors = [f"malformed output: {type(e).__name__}: {e}"]
        self.seen[key] = (digest, errors)
        return key, digest, errors

    def _rho(self, cmd) -> list:
        if not cmd.rho:
            return [[Fraction(1, cmd.lambda_size)] * cmd.lambda_size] * 2
        doc = json.loads(self._file(cmd.rho))
        return [checker.fracs(doc["rho1"]), checker.fracs(doc["rho2"])]

    def _predictions(self, data: bytes) -> list:
        d = sha256(data)
        if d not in self._predicted:
            L, rho, tables = checker.parse_model(json.loads(data))
            self._predicted[d] = checker.predictions(rho, lambda c: tables[c], L)
        return self._predicted[d]

    def _check(self, cmd, code: int, out: bytes) -> list:
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(out)
        if cmd.kind.startswith("nogo"):
            errors = checker.check_nogo(doc, self._rho(cmd), cmd.lambda_size)
            want = "infeasible" if cmd.kind == "nogo_certificate" else "feasible"
            if doc["verdict"] != want:
                errors.append(f"{cmd.kind}: verdict {doc['verdict']!r}")
            return errors
        data = self._file(cmd.model)
        model = json.loads(data)
        if cmd.kind == "refute":
            return checker.check_refute(doc, model, cmd.lambda_size)
        if cmd.kind == "check":
            return checker.check_check(doc, model)
        predicted = self._predictions(data)[checker.CONTEXTS.index(cmd.context)]
        return checker.check_sample(doc, model, cmd.context, cmd.n, cmd.seed, predicted)


def run_selftest() -> tuple:
    """The checker's own tests; a checker that accepts tampered output
    cannot vouch for anything."""
    import checker_selftest
    suite = unittest.defaultTestLoader.loadTestsFromModule(checker_selftest)
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    return result.testsRun, len(result.failures) + len(result.errors)


# --- cross-run record -------------------------------------------------------

def record_path(workload: str, seed: int, src: str) -> Path:
    return OUT / "records" / f"{workload}-seed{seed}-{src[:16]}.json"


def compare_record(path: Path, digests: dict, counts: dict | None) -> list:
    """Compare with earlier runs of this seed and source, then merge.
    Returns the disagreements."""
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        record = {"digests": {}, "counts": None}
    problems = [f"digest of `{k}` differs from an earlier run"
                for k, d in digests.items() if record["digests"].get(k, d) != d]
    if counts is not None:
        if record["counts"] is not None and record["counts"] != counts:
            problems.append("exact counts differ from an earlier run")
        record["counts"] = counts
    record["digests"].update(digests)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


# --- closed loop (--trace 0) ------------------------------------------------

def run_command(argv, workdir: Path, env: dict):
    """Spawn one CLI command and wait for it: (seconds, exit code, stdout,
    peak RSS in KiB of that child)."""
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pbrlab.cli", *argv], cwd=workdir,
                                env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out, usage.ru_maxrss


def closed_loop(workload: str, names: dict, workdir: Path, env: dict, seconds: float) -> dict:
    verifier = Verifier(workdir)
    latencies = {k: [] for k in KINDS}
    raw = {k: [] for k in KINDS}
    digests, digest_lines = {}, set()
    attempted = failed = 0
    peak_kib = 0
    failures = []
    start = time.perf_counter()
    deadline = start + seconds
    before = reference_time(env)
    references = [before]
    i = 0
    while i < DIGEST_CYCLES or time.perf_counter() < deadline:
        for cmd in workloads.cycle(workload, names, i):
            if i >= DIGEST_CYCLES and time.perf_counter() >= deadline:
                break
            elapsed, code, out, kib = run_command(cmd.argv, workdir, env)
            after = reference_time(env)
            references.append(after)
            key, digest, errors = verifier.check(cmd, code, out)
            attempted += 1
            peak_kib = max(peak_kib, kib)
            latencies[cmd.kind].append(normalise(elapsed, before, after))
            raw[cmd.kind].append(elapsed)
            before = after
            digests[key] = digest
            if i < DIGEST_CYCLES:
                digest_lines.add(f"{key} {digest}")
            if errors:
                failed += 1
                failures.append(f"{key}: {'; '.join(errors)}")
        i += 1
    wall = time.perf_counter() - start
    busy = sum(sum(xs) for xs in latencies.values())
    return {"latencies": latencies, "raw_latencies": raw, "references": references,
            "attempted": attempted, "failed": failed,
            "failures": failures[:20], "cycles": i, "wall_s": wall,
            "peak_rss_mb": peak_kib / 1024,
            # Per second of command time at reference speed: neither the
            # reference runs nor the output checks count.
            "commands_per_s": (attempted - failed) / busy,
            "digests": digests,
            "behaviour_digest": sha256("\n".join(sorted(digest_lines)).encode())}


def end_to_end_metrics(loop: dict, setup_times: list) -> tuple:
    """(metrics for the JSON line, the samples behind each and the
    percentile each tail stands for)."""
    metrics = {"setup_s": (stats.median(setup_times), "s")}
    samples = {"setup_s": len(setup_times)}
    percentiles = {}
    for kind in KINDS:
        xs = loop["latencies"][kind]
        value, pct = stats.tail(xs)
        metrics[f"{kind}_s.p50"] = (stats.median(xs), "s")
        metrics[f"{kind}_s.tail"] = (value, "s")
        samples[f"{kind}_s.p50"] = samples[f"{kind}_s.tail"] = len(xs)
        percentiles[f"{kind}_s.tail"] = pct
    metrics["commands_per_s"] = (loop["commands_per_s"], "1/s")
    metrics["peak_rss_mb"] = (loop["peak_rss_mb"], "MB")
    samples["commands_per_s"] = samples["peak_rss_mb"] = loop["attempted"]
    return metrics, samples, percentiles


# --- traced in-process passes (--trace 1) ------------------------------------

def import_time(env: dict) -> float:
    """Median over child processes of the wall time of `import pbrlab.cli`."""
    code = ("import time; t = time.perf_counter(); import pbrlab.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return stats.median(times)


class InProcess:
    """Runs CLI commands through pbrlab.cli.main in this process, starting
    each from cold lru caches as a fresh process would."""

    def __init__(self, workdir: Path):
        sys.path.insert(0, str(SRC))
        import pbrlab.cli
        import pbrlab.hilbert
        self.main = pbrlab.cli.main
        # Taken before any wrapper is installed, so clearing reaches the caches.
        self.clear = (pbrlab.hilbert.born_targets.cache_clear,
                      pbrlab.hilbert.pbr_basis.cache_clear)
        self.workdir = workdir

    def run(self, argv, recorder=None):
        """(seconds, exit code, stdout bytes)."""
        for clear in self.clear:
            clear()
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    if recorder is None:
                        code = self.main(list(argv))
                    else:
                        code = recorder.call(tracing.ROOT, self.main, list(argv))
                except SystemExit as e:
                    code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
                except Exception:
                    # A crash is a failed command, as a traceback and exit 1
                    # would be for a child process.
                    traceback.print_exc(file=err)
                    code = 1
                elapsed = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        return elapsed, code, out.getvalue().encode()


LAYER_TIMES = {  # per-layer metric -> span name whose self time it reports
    "cli.self_s": "cli.main",
    "hilbert.born_targets_s": "hilbert.born_targets",
    "nogo.build_s": "nogo.build",
    "simplex.solve_s": "simplex.solve",
    "nogo.audit_s": "nogo.audit",
    "contextual.build_s": "contextual.build",
    "contextual.report_s": "contextual.report",
    "ontology.validate_s": "ontology.validate",
    "ontology.predict_s": "ontology.predict",
    "ontology.sample_s": "ontology.sample",
    "serialize.to_json_s": "serialize.to_json",
    "serialize.dumps_s": "serialize.dumps",
    "serialize.from_json_s": "serialize.from_json",
}


def pass_layers(recorder, commands) -> dict:
    """Per-layer seconds of one traced pass: self time per span name, plus
    nogo.witness_check_s, the inclusive time of witness_model and of the
    predict calls a nogo command makes (so it overlaps ontology.*)."""
    self_s = {}
    witness_check = 0
    for span in recorder.spans:
        self_s[span.name] = self_s.get(span.name, 0) + span.self_ns / 1e9
        parent = recorder.spans[span.parent] if span.parent >= 0 else None
        if span.name == "nogo.witness_model" or (
                span.name == "ontology.predict" and parent is not None
                and parent.parent < 0 and commands[span.command].kind.startswith("nogo")):
            witness_check += (span.end - span.start) / 1e9
    layers = {metric: self_s.get(name, 0.0) for metric, name in LAYER_TIMES.items()}
    layers["nogo.witness_check_s"] = witness_check
    return {"layers": layers, "self_by_span": self_s}


def traced(workload: str, names: dict, workdir: Path, env: dict, seconds: float) -> dict:
    runner = InProcess(workdir)
    verifier = Verifier(workdir)
    commands = workloads.cycle(workload, names, 0)
    untraced_s, traced_s, layer_runs, count_runs = [], [], [], []
    attempted = failed = 0
    failures, digests = [], {}
    recorder = None
    deadline = time.perf_counter() + seconds
    import_s = import_time(env)
    while len(traced_s) < MIN_PASSES or time.perf_counter() < deadline:
        for tracing_on in (False, True):
            recorder = tracing.Recorder() if tracing_on else None
            if recorder:
                recorder.install()
            total = 0.0
            try:
                for cmd in commands:
                    elapsed, code, out = runner.run(cmd.argv, recorder)
                    total += elapsed
                    if recorder:
                        recorder.count_results()
                        recorder.command += 1
                    key, digest, errors = verifier.check(cmd, code, out)
                    digests[key] = digest
                    attempted += 1
                    if errors:
                        failed += 1
                        failures.append(f"{key}: {'; '.join(errors)}")
            finally:
                if recorder:
                    recorder.uninstall()
            if recorder:
                traced_s.append(total)
                layer_runs.append(pass_layers(recorder, commands))
                layer_runs[-1]["accounted_share"] = sum(
                    layer_runs[-1]["self_by_span"].values()) / total
                count_runs.append(dict(recorder.counts))
            else:
                untraced_s.append(total)

    layers = {m: stats.median([r["layers"][m] for r in layer_runs])
              for m in layer_runs[0]["layers"]}
    spans_self = {n: stats.median([r["self_by_span"].get(n, 0.0) for r in layer_runs])
                  for n in layer_runs[0]["self_by_span"]}
    counts = count_runs[0]
    metrics = {"cli.import_s": (import_s, "s")}
    metrics.update({m: (v, "s") for m, v in layers.items()})
    metrics.update({
        "nogo.lp_rows": (counts.get("nogo.lp_rows", 0), "count"),
        "nogo.lp_cols": (counts.get("nogo.lp_cols", 0), "count"),
        "nogo.lp_nonzero_ratio": (counts.get("nogo.lp_nonzero", 0) / max(
            1, counts.get("nogo.lp_rows", 0) * counts.get("nogo.lp_cols", 0)), "ratio"),
        "simplex.result_max_bits": (counts.get("simplex.result_max_bits", 0), "bits"),
        "serialize.json_bytes": (counts.get("serialize.json_bytes", 0), "bytes"),
        "ontology.validate_calls": (counts.get("ontology.validate_calls", 0), "count"),
        "ontology.sample_us_per_trial": (
            1e6 * layers["ontology.sample_s"] / max(1, counts.get("ontology.sample_trials", 0)),
            "us"),
        "trace.pass_s": (stats.median(untraced_s), "s"),
        # Each traced pass runs right after its untraced twin; pairing them
        # cancels drift in machine load.
        "trace.overhead_s": (stats.median([t - u for t, u in zip(traced_s, untraced_s)]), "s"),
        "trace.accounted_share": (stats.median([r["accounted_share"] for r in layer_runs]),
                                  "ratio"),
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "failures": failures[:20], "passes": len(traced_s), "counts": counts,
            "counts_repeat": all(c == counts for c in count_runs),
            "digests": digests, "self_by_span": spans_self,
            "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
            "unwrapped": recorder.missing,
            "spans": [vars(s) for s in recorder.spans] if recorder else []}


# --- entry point ------------------------------------------------------------

def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pbrlab" / "cli.py").is_file():
        print(f"error: no pbrlab sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    info = environment(args.seed)
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        tests_run, tests_failed = run_selftest()
        setup_times, setup_raw, names = setup(args.workload, args.seed, workdir, env)
        if args.trace:
            result = traced(args.workload, names, workdir, env, args.seconds)
            metrics = result["metrics"]
            samples, percentiles = {m: result["passes"] for m in metrics}, {}
            problems = compare_record(record_path(args.workload, args.seed,
                                                  info["source_sha256"]),
                                      result["digests"], result["counts"])
            if not result["counts_repeat"]:
                problems.append("exact counts differ between traced passes")
        else:
            result = closed_loop(args.workload, names, workdir, env, args.seconds)
            metrics, samples, percentiles = end_to_end_metrics(result, setup_times)
            problems = compare_record(record_path(args.workload, args.seed,
                                                  info["source_sha256"]),
                                      result["digests"], None)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tests_failed:
        problems.append(f"checker self-test: {tests_failed} of {tests_run} tests failed")

    correct = result["failed"] == 0 and not problems
    print(f"workload {args.workload}  trace {args.trace}  " + "  ".join(
        f"{k} {v}" for k, v in info.items()))
    print(f"checker self-test: {tests_run - tests_failed}/{tests_run} passed")
    for name, (value, unit) in metrics.items():
        pct = f", p{percentiles[name]:.1f}" if name in percentiles else ""
        print(f"  {name:<30} {fmt(value):>12} {unit:<6} (n={samples[name]}{pct})")
    print(f"  {'failed_ratio':<30} {result['failed'] / result['attempted']:>12.6g} ratio  "
          f"({result['failed']} of {result['attempted']} commands)")
    if not args.trace:
        print(f"  unscaled medians (s): setup {fmt(stats.median(setup_raw))}, " + ", ".join(
            f"{k} {fmt(stats.median(xs))}" for k, xs in result["raw_latencies"].items()))
        print(f"  reference.py median {fmt(stats.median(result['references']))} s "
              f"(REF_S {REF_S} s, {len(result['references'])} runs)")
        print(f"  behaviour digest {result['behaviour_digest']} "
              f"(first {DIGEST_CYCLES} cycles, {result['cycles']} cycles run)")
    else:
        print(f"  exact counts {json.dumps(result['counts'], sort_keys=True)}")
        if result["unwrapped"]:
            print(f"  not traced (absent from pbrlab): {', '.join(result['unwrapped'])}")
        print("  self time by span (median pass, s): " + ", ".join(
            f"{k} {v:.4g}" for k, v in sorted(result["self_by_span"].items())))
    for line in result["failures"] + problems:
        print(f"  FAIL {line}")

    report = {"workload": args.workload, "trace": args.trace, "environment": info,
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "problems": problems,
              "failures": result["failures"],
              "metrics": {k: {"value": v, "unit": u, "samples": samples[k],
                              **({"percentile": percentiles[k]} if k in percentiles else {})}
                          for k, (v, u) in metrics.items()},
              "setup_s": setup_times, "setup_raw_s": setup_raw}
    if args.trace:
        report.update(counts=result["counts"], self_by_span=result["self_by_span"],
                      untraced_pass_s=result["untraced_pass_s"],
                      traced_pass_s=result["traced_pass_s"], unwrapped=result["unwrapped"],
                      spans=result["spans"])
    else:
        report.update(behaviour_digest=result["behaviour_digest"],
                      cycles=result["cycles"], wall_s=result["wall_s"],
                      latencies=result["latencies"],
                      raw_latencies=result["raw_latencies"],
                      references=result["references"])
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=1, sort_keys=True))

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
