"""Command-line front end: build, validate, verify, refute, sample.

Exit codes are stable: 0 expected result, 2 invalid input, 3 a verdict
contradicting the theorem (a bug signal for CI), 4 argument inapplicable
(disjoint supports where an overlap was needed).

Commands compute and return their report; `main` alone times and prints
it, as --json or as human lines. Commands raise ModelError for every
invalid input they find, and OSError for a file they cannot read or write.
`main` alone reports either, and memory exhausted anywhere, as one
`error: ...` line on stderr, `error: out of memory` for the last, and exits
2. A stdout that cannot be written, under --help and --version too, is
reported the same way; a stderr that cannot be written still exits 2,
silently.
`check` prints its verdict on an invalid model as a report and exits 2.
Arguments are read against the table COMMANDS by exact name: no prefixes,
no clusters of short flags, and `--` is an unknown option like any other.
A usage error is one more ModelError.

`run` is the program entry, for `pbr` and `python -m pbrlab.cli`. `main`
leaves the process as it found it, for callers in the same process.
"""

import gc
import os
import sys
import time
from math import lcm
from types import SimpleNamespace

from . import __version__
from .serialize import (REFUTE_MAX_LAMBDA, _quoted, _table_to_json,
                        _targets_to_json, digest, dumps_canonical, fmt_frac,
                        loads, model_from_json, model_to_json,
                        rho_pair_from_json)
from .values import (CONTEXTS, EpistemicState, ModelError, _shown,
                     support_overlap)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_THEOREM_VIOLATED = 3
EXIT_NOT_APPLICABLE = 4

# nogo decides its LP on the quotient lambda-space (nogo.quotient): one
# class per projective point [rho1 : rho2], so the solved LP has K^2 + 16
# rows for K <= L classes, and only the unreduced audit of a certificate or
# the witness check grows as L^2. The worst case is K = L, distinct
# overlapping weights: 0.5-1.3 s from process start to exit at L = 64 for
# weights of up to 3 digits, where uniform, disjoint or partly overlapping
# rho take under 0.5 s (Python 3.11, 2 vCPUs). Longer weights take longer:
# the table under NOGO_MAX_RHO_BITS gives up to 10.8 s at L = 64. At
# K = L = 128 the solve alone takes 1.1-3.5 s, so the cap stays at 64.
# Larger sizes are refused before building.
NOGO_MAX_LAMBDA = 64
# Exact pivots grow with the bits of the rho pair's common denominator: each
# tableau entry is a ratio of subdeterminants (Edmonds 1967, Bareiss 1968).
# K = L pairs, bits -> seconds from process start to exit, one run each
# (Python 3.11, 2 vCPUs):
#   L = 7:  24 -> 0.08, 256 -> 0.10-0.15, 669 -> 0.18
#   L = 16: 256 -> 0.13-0.36, 670 -> 0.33, 2,000 -> 3.2; 1,000 digits per
#           weight -> 39
#   L = 32: 207 -> 0.42, 256 -> 0.44-2.1, 672 -> 4.1
#   L = 64: 31 -> 0.77, 75 -> 1.2, 128 -> 3.7, 144 -> 2.0, 207 -> 3.1,
#           256 -> 4.9-10.8
# A pair over a larger denominator is refused before building.
NOGO_MAX_RHO_BITS = 256
# sample draws exactly, at a few microseconds per trial: 10^7 trials take
# 18-25 s (the L = 3 and L = 40 interval models, Python 3.11, 2 vCPUs).
# Larger counts are refused before sampling.
SAMPLE_MAX_N = 10 ** 7
# The largest file pbr writes, `refute --lambda-size 128 --out`, holds about
# 4.5 MB. Larger model and rho files are refused once one byte more is read.
INPUT_MAX_BYTES = 16 * 2 ** 20


def _emit(args, inputs: dict, payload: dict, human_lines, elapsed) -> None:
    """Print the --json report, or else the human lines. The input digest
    is the SHA-256 of the inputs' canonical dump, so it covers a model they
    hold. An OSError writing or flushing stdout raises ModelError."""
    # Timings stay out of --json output so reports are byte-stable.
    if args.json:
        inputs = {"digest": digest(dumps_canonical(inputs)), **inputs}
        text = dumps_canonical({"command": args.command, "inputs": inputs,
                                "version": __version__, **payload})
    else:
        text = "\n".join([*human_lines, f"elapsed: {elapsed:.3f}s"])
    # The newline is written apart: text + "\n" would copy a report of up
    # to 5.6 MB, one more allocation that can exhaust memory.
    _write(sys.stdout, text, "\n")


def _write(stream, *texts: str) -> None:
    """Write `texts` to `stream` and flush it. If that fails, the stream's
    descriptor is pointed at the null device, so what is left in the buffer
    cannot fail again at exit, and the error is raised again, an OSError of
    stdout as ModelError naming stdout."""
    try:
        for text in texts:
            stream.write(text)
        stream.flush()
    except (OSError, MemoryError) as e:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        if stream is sys.stdout and isinstance(e, OSError):
            raise ModelError(f"cannot write to stdout: {e}") from e
        raise


def _load_json_file(path: str):
    """The parsed file, of which at most INPUT_MAX_BYTES + 1 bytes are read,
    be it regular, a pipe or a device. A file that is longer, is not UTF-8
    JSON, holds an integer of more than 4300 digits or nests too deep raises
    ModelError."""
    with open(path, "rb") as fh:
        data = fh.read(INPUT_MAX_BYTES + 1)
    if len(data) > INPUT_MAX_BYTES:
        raise ModelError(f"{path} holds more than {INPUT_MAX_BYTES} bytes, "
                         "the cap on input files")
    try:
        return loads(data.decode())
    except (ValueError, RecursionError) as e:
        raise ModelError(str(e)) from e


def _in_range(name: str, value: int, low: int, high: int,
              suffix: str = "") -> int:
    """`value`, or ModelError if it lies outside [low, high]."""
    if value < low:
        raise ModelError(f"{name} must be >= {low}")
    if value > high:
        raise ModelError(f"{name} must be <= {high}{suffix}")
    return value


# Each command returns (exit code, inputs, payload, human lines) for `main`
# to print, with its model's JSON document only for --json (or refute
# --out). It imports the layers it runs: `check` and `sample` never load
# the Born table, the LP or the interval model, and a `nogo` certificate
# run never loads `ontology`, the checks of a whole model, prediction and
# sampling, which only its witness branch needs.

def cmd_basis(args) -> tuple:
    from . import hilbert
    basis = hilbert.pbr_basis()
    g = hilbert.gram(basis)
    targets = hilbert.born_targets()
    anchors = [fmt_frac(hilbert.born(basis.effects[i], hilbert.product_state(j, k)))
               for i, (j, k) in enumerate(hilbert.CONTEXTS)]
    payload = {
        "arithmetic": "exact",
        "effects": basis.to_json(),
        "gram": [[hilbert.amplitude_json(e, 1) for e in row] for row in g],
        "anchors": anchors,
        "contexts": [f"{j}{k}" for (j, k) in hilbert.CONTEXTS],
        "targets": _targets_to_json(targets),
    }
    lines = ["measurement basis (4 effects, dim 4):"]
    for i, e in enumerate(basis.effects):
        n = e.norm_sq()
        lines.append(f"  xi_{i + 1}: "
                     + ", ".join(hilbert.amplitude_str(u, n) for u in e.ray))
    # pbr_basis raises unless its effects are orthogonal.
    lines.append("gram matrix: exact identity")
    lines.append("zero anchors born(xi_i, context_i): " + " ".join(anchors))
    lines.append("born targets (rows = contexts 11,12,21,22):")
    for (j, k), row in zip(hilbert.CONTEXTS, targets):
        lines.append(f"  {j}{k}: " + " ".join(fmt_frac(q) for q in row))
    return EXIT_OK, {}, payload, lines


def cmd_nogo(args) -> tuple:
    from . import hilbert, nogo
    L = _in_range("lambda_size", args.lambda_size, 1, NOGO_MAX_LAMBDA,
                  " for nogo")
    if args.rho:
        r1, r2 = rho_pair_from_json(_load_json_file(args.rho))
        if r1.size != L:
            raise ModelError(f"rho file is over L={r1.size}, not {L}")
        bits = lcm(*(w.denominator for w in r1.weights + r2.weights)
                   ).bit_length()
        if bits > NOGO_MAX_RHO_BITS:
            raise ModelError(f"the rho pair's common denominator has {bits} "
                             f"bits; nogo takes at most {NOGO_MAX_RHO_BITS}")
    else:
        r1 = r2 = EpistemicState.uniform(L)

    targets = hilbert.born_targets()
    problem = nogo.build_feasibility(r1, r2, targets)
    outcome = nogo.solve_feasibility(problem)
    overlap = support_overlap(r1, r2)
    expect_feasible = nogo.theorem_expected_verdict(r1, r2)

    inputs = {"lambda_size": L,
              "rho1": [fmt_frac(w) for w in r1.weights],
              "rho2": [fmt_frac(w) for w in r2.weights],
              "targets": _targets_to_json(targets)}
    payload = {"arithmetic": "exact",
               "row_order": nogo.ROW_ORDER_NOTE,
               "overlap": {"disjoint": overlap.disjoint,
                           "overlap_mass": fmt_frac(overlap.overlap_mass)},
               "verdict": "feasible" if outcome.feasible else "infeasible",
               "expected_verdict": "feasible" if expect_feasible else "infeasible"}
    lines = [f"lambda_size: {L}",
             f"supports disjoint: {overlap.disjoint} "
             f"(overlap mass {fmt_frac(overlap.overlap_mass)})",
             f"verdict: {payload['verdict']}"]

    consistent = outcome.feasible == expect_feasible
    if outcome.feasible:
        from . import ontology
        model = nogo.witness_model(problem, outcome)
        reproduced = not ontology.validate_model(model) and all(
            ontology._predict(model, ctx) == targets[c]
            for c, ctx in enumerate(CONTEXTS))
        payload["witness"] = {"p": _table_to_json(outcome.witness, {}),
                              "reproduces_targets": reproduced}
        lines.append(f"witness reproduces targets exactly: {reproduced}")
        consistent = consistent and reproduced
    else:
        verified = nogo.verify_certificate(problem, outcome.certificate)
        payload["certificate"] = {
            "rows": list(problem.row_labels),
            "y": [fmt_frac(v) for v in outcome.certificate],
            "verified": verified}
        lines.append(f"Farkas certificate verifies: {verified}")
        consistent = consistent and verified

    payload["theorem_consistent"] = consistent
    lines.append(f"consistent with the no-go theorem: {consistent}")
    code = EXIT_OK if consistent else EXIT_THEOREM_VIOLATED
    return code, inputs, payload, lines


def cmd_contradiction(args) -> tuple:
    from . import nogo, ontology
    model = model_from_json(_load_json_file(args.model))
    # A contextual model goes straight to derive_contradiction, which
    # refuses it whether or not it is valid.
    if not model.contextual:
        ontology._require_valid(model)
    result = nogo.derive_contradiction(model)

    inputs = {"model": model_to_json(model) if args.json else None}
    if isinstance(result, nogo.NoOverlap):
        return EXIT_NOT_APPLICABLE, inputs, {"no_overlap": True}, [
            "supports are disjoint: the forcing argument does not apply "
            "(NoOverlap)"]

    payload = {
        "no_overlap": False,
        "lambda_star": result.lambda_star,
        "steps": [{"outcome": s.outcome,
                   "context": f"{s.context[0]}{s.context[1]}",
                   "weight": fmt_frac(s.weight)} for s in result.steps],
        "forced_total": fmt_frac(result.total),
        "conclusion": result.conclusion,
    }
    lines = [f"overlap point lambda* = {result.lambda_star}"]
    for s in result.steps:
        lines.append(
            f"  outcome {s.outcome}: Born target 0 in context "
            f"{s.context[0]}{s.context[1]} with weight {fmt_frac(s.weight)} > 0 "
            f"forces P(xi_{s.outcome}|lambda*,lambda*) = 0")
    lines.append(result.conclusion)
    return EXIT_OK, inputs, payload, lines


def cmd_refute(args) -> tuple:
    from . import contextual, hilbert
    L = _in_range("lambda_size", args.lambda_size, 1, REFUTE_MAX_LAMBDA,
                  " for refute")
    model = contextual.build_interval_model(L, hilbert.born_targets())
    report_data = contextual.refutation_report(model)
    document = model_to_json(model) if args.out or args.json else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps_canonical(document) + "\n")

    inputs = {"lambda_size": L,
              "targets": _targets_to_json(hilbert.born_targets())}
    payload = {"arithmetic": "exact",
               "born_reproduced": report_data.born_reproduced,
               "overlap_mass": fmt_frac(report_data.overlap_mass),
               "eq2_violated": report_data.eq2_violated,
               "collapse": report_data.collapse,
               "verdict": report_data.verdict,
               "model": document}
    lines = [f"interval model over L = {L} (uniform epistemic states)",
             f"Born targets reproduced exactly: {report_data.born_reproduced}",
             f"overlap mass: {fmt_frac(report_data.overlap_mass)}",
             f"disjoint-support condition violated: {report_data.eq2_violated}",
             f"verdict: {report_data.verdict}"]
    if args.out:
        lines.append(f"model written to {args.out}")
    code = EXIT_OK if report_data.collapse else EXIT_THEOREM_VIOLATED
    return code, inputs, payload, lines


def cmd_check(args) -> tuple:
    from . import ontology
    model = model_from_json(_load_json_file(args.model))
    violations = _shown(ontology.validate_model(model))
    lines = (["model is valid"] if not violations
             else ["model is invalid:"] + [f"  {v}" for v in violations])
    return (EXIT_OK if not violations else EXIT_BAD_INPUT,
            {"model": model_to_json(model) if args.json else None},
            {"valid": not violations, "violations": violations}, lines)


def _parse_context(s: str):
    spellings = [f"{j}{k}" for j, k in CONTEXTS]
    if s not in spellings:
        raise ModelError(f"context must be one of {', '.join(spellings)}; "
                         f"got {s!r}")
    return CONTEXTS[spellings.index(s)]


def cmd_sample(args) -> tuple:
    from . import ontology
    model = model_from_json(_load_json_file(args.model))
    context = _parse_context(args.context)
    _in_range("n", args.n, 0, SAMPLE_MAX_N)
    counts = ontology.sample(model, context, args.n, args.seed)
    predicted = ontology._predict(model, context)
    stat = ontology.chi_square_statistic(counts, predicted)

    inputs = {"model": model_to_json(model) if args.json else None,
              "context": f"{context[0]}{context[1]}",
              "n": args.n, "seed": args.seed}
    payload = {
        "generator": ontology.PRNG_NAME,
        "counts": list(counts.counts),
        "predicted": [fmt_frac(p) for p in predicted],
        "frequencies": [float(f"{c / args.n:.6g}") if args.n else 0.0
                        for c in counts.counts],
        "chi_square": float(f"{stat:.6g}"),
    }
    lines = [f"context {context[0]}{context[1]}, n = {args.n}, seed = {args.seed}",
             f"generator: {ontology.PRNG_NAME}",
             "counts:    " + " ".join(str(c) for c in counts.counts),
             "predicted: " + " ".join(fmt_frac(p) for p in predicted),
             f"chi-square: {stat:.6g}"]
    return EXIT_OK, inputs, payload, lines


# Each command: (function, help line, {option: (type, required)}). Every
# command also takes the flags -h/--help and --json.
COMMANDS = {
    "basis": (cmd_basis, "print the measurement basis and Born targets", {}),
    "nogo": (cmd_nogo, "exact LP feasibility for noncontextual models",
             {"--lambda-size": (int, True), "--rho": (str, False)}),
    "contradiction": (cmd_contradiction, "derive the normalization clash",
                      {"--model": (str, True)}),
    "refute": (cmd_refute, "build the contextual counterexample",
               {"--lambda-size": (int, True), "--out": (str, False)}),
    "check": (cmd_check, "validate a model file", {"--model": (str, True)}),
    "sample": (cmd_sample, "seeded Monte Carlo for one context",
               {"--model": (str, True), "--context": (str, True),
                "--n": (int, True), "--seed": (int, True)}),
}


def _help(command=None) -> str:
    """The usage line, then the help text."""
    if command is None:
        return "pbr [-h] [--version] {%s} ...\n\ncommands:\n" % ",".join(
            COMMANDS) + "".join(f"  {c:<15}{e[1]}\n" for c, e in COMMANDS.items())
    words = [f"{o} {o[2:].upper()}" if need else f"[{o} {o[2:].upper()}]"
             for o, (_, need) in COMMANDS[command][2].items()]
    return " ".join(["pbr", command, "[-h]", *words, "[--json]\n\n"]
                    ) + COMMANDS[command][1] + "\n"


def _parse(argv):
    """The command's arguments, or the text --help or --version asks for,
    read left to right: options by exact name, in any order, the last repeat
    winning; a value after "=" or else the next token, whatever it looks
    like; -h or --help, the help of the command read so far; --version,
    before the command. A usage error raises ModelError."""
    command, options, values, unknown = None, {}, {}, []
    tokens = iter(argv)
    try:
        for token in tokens:
            name, eq, value = token.partition("=")
            if name in options:
                if not eq:
                    value = next(tokens, None)
                if value is None:
                    raise ModelError(f"argument {name}: expected one argument")
                try:
                    values[name] = options[name][0](value)
                except ValueError:
                    raise ModelError(f"argument {name}: invalid int value: "
                                     f"{_quoted(value)}") from None
            elif name in ("-h", "--help", "--json" if command else "--version"):
                if eq:
                    raise ModelError(f"argument {name}: ignored explicit "
                                     f"argument {_quoted(value)}")
                if name == "--version":
                    return __version__ + "\n"
                if name != "--json":
                    return "usage: " + _help(command)
                values[name] = True
            elif command is None and token[:1] != "-":
                if token not in COMMANDS:
                    raise ModelError(f"unknown command {_quoted(token)}")
                command = token
                func, _, options = COMMANDS[command]
            else:
                unknown.append(token)
        if command is None:
            raise ModelError("a command is required")
        missing = [o for o, (_, need) in options.items() if need and o not in values]
        if missing or unknown:
            raise ModelError("the following arguments are required: "
                             + ", ".join(missing) if missing else
                             "unrecognized arguments: " + _quoted(" ".join(unknown)))
    except ModelError as e:
        usage = _help(command).partition("\n")[0]
        raise ModelError(f"{e} (usage: {usage})") from None
    return SimpleNamespace(command=command, func=func, json="--json" in values,
                           **{o[2:].replace("-", "_"): values.get(o)
                              for o in options})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help or --version
            _write(sys.stdout, args)
            return EXIT_OK
        t0 = time.perf_counter()
        code, inputs, payload, lines = args.func(args)
        _emit(args, inputs, payload, lines, time.perf_counter() - t0)
        return code
    except (ModelError, OSError, MemoryError) as e:
        try:
            _write(sys.stderr, "error: out of memory\n"
                   if isinstance(e, MemoryError) else f"error: {e}\n")
        except (OSError, MemoryError):
            pass  # stderr cannot be written either: the exit code tells
        return EXIT_BAD_INPUT


def run() -> None:
    """Exit with `main`'s code, `--help`, `--version` and usage errors
    included, without finalizing the interpreter when nothing needs it.

    The `finally` moves every object into the permanent generation, which
    the interpreter's shutdown collections skip. Then `atexit` handlers run
    and stdout and stderr are flushed, as finalization would do, and
    `os._exit` skips the rest of finalization, 4-6 ms of each process:
    tearing down modules, whose memory the OS reclaims anyway. So the
    `__del__` of a module-level object does not run either. Nothing here
    needs it: every file a command writes is closed before `main` returns.
    Where something else may still need finalization, `sys.exit` ends the
    process as usual (`_finalization_needed`), and so does an exception
    that escapes `main`, with its traceback and exit 1."""
    try:
        code = main()
    finally:
        gc.freeze()
    if not _finalization_needed():
        import atexit
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except (OSError, ValueError):
            pass  # finalization reports it
        else:
            os._exit(code)
    sys.exit(code)


def _finalization_needed() -> bool:
    """Whether something may act after `run` returns: a profiler or tracer
    (cProfile, coverage, a debugger), whose report or prompt comes after the
    program; a debugger loaded but detached, as pdb is after `continue`;
    `-i` or PYTHONINSPECT, whose prompt comes after it; or another thread,
    which finalization waits for or stops."""
    import _thread
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 and later
    return bool(
        sys.getprofile() or sys.gettrace() or "bdb" in sys.modules
        or sys.flags.inspect or os.environ.get("PYTHONINSPECT")
        or _thread._count()
        or monitoring and any(monitoring.get_tool(i) is not None
                              for i in range(6)))


if __name__ == "__main__":
    run()
