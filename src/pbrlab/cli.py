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
A file a command writes (`refute --out`) is, where it can be replaced,
moved onto its path only once the report is written (`outfile.stage`), so
a run that exits 2 leaves it as it was.
Arguments are read against the table COMMANDS by exact name: no prefixes,
no clusters of short flags, and `--` is an unknown option like any other.
A usage error is one more ModelError.

`run` is the program entry, for `pbr` and `python -m pbrlab.cli`. `main`
leaves the process as it found it, for callers in the same process.

Each command checks its arguments, reads its file and hands off to the
report beside the layer that does the work: `basis.report`, `nogo.report`,
`forcing.report`, `contextual.report`, `ontology.check_report` and
`ontology.sample_report`. So a process compiles the reports of only the
layers its command loads. No module imports this one, which runs as
`__main__` under `python -m pbrlab.cli`.
"""

import gc
import os
import sys
import time
from types import SimpleNamespace

from . import __version__
from .serialize import (REFUTE_MAX_LAMBDA, _quoted, digest, dumps_canonical,
                        model_from_json, model_to_json, rho_pair_from_json)
from .values import NONCONTEXTUAL_ONLY, ModelError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_THEOREM_VIOLATED = 3
EXIT_NOT_APPLICABLE = 4

# nogo decides its LP on the quotient lambda-space (nogo.quotient): one
# class per projective point [rho1 : rho2], so the solved LP has K^2 + 16
# rows for K <= L classes. The unreduced LP is never built: only the lift,
# the certificate's audit, which reads rho and not A, and the witness check
# grow as L^2. The worst case is K = L, distinct
# overlapping weights: 0.5-1.3 s from process start to exit at L = 64 for
# weights of up to 3 digits, where uniform, disjoint or partly overlapping
# rho take under 0.5 s (Python 3.11, 2 vCPUs). Longer weights take longer:
# the table under nogo.NOGO_MAX_RHO_BITS gives up to 10.8 s at L = 64. At
# K = L = 128 the solve alone takes 1.1-3.5 s, so the cap stays at 64.
# Larger sizes are refused before building.
NOGO_MAX_LAMBDA = 64
# sample draws exactly, at a few microseconds per trial: 10^7 trials take
# 18-25 s (the L = 3 and L = 40 interval models, Python 3.11, 2 vCPUs).
# Larger counts are refused before sampling.
SAMPLE_MAX_N = 10 ** 7


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
    stdout, or a text it cannot encode, as ModelError naming stdout. A
    stream whose descriptor was closed when the process started is None,
    and fails as a closed descriptor does."""
    try:
        if stream is None:
            import errno
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        for text in texts:
            stream.write(text)
        stream.flush()
    except (OSError, MemoryError, UnicodeEncodeError) as e:
        if stream:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stream.fileno())
            os.close(null)
        if stream is sys.stdout and not isinstance(e, MemoryError):
            raise ModelError(f"cannot write to stdout: {e}") from e
        raise


def _read(path: str):
    """The parsed JSON file at `path` (`reader.load_json_file`): only a
    command that reads a file compiles the reader."""
    from .reader import load_json_file
    return load_json_file(path)


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
# --out). It imports the layer whose report it returns: `check` and
# `sample` never load the Born table, the LP or the interval model, and no
# `nogo` run loads `ontology`, the checks of a whole model, prediction and
# sampling: its certificate and its witness are audited in the LP layer.
# The model and rho files are read and the model written by the names
# imported above, which the benchmark's tracer wraps here.

def cmd_basis(args) -> tuple:
    from .basis import report
    return (EXIT_OK, *report())


def cmd_nogo(args) -> tuple:
    L = _in_range("lambda_size", args.lambda_size, 1, NOGO_MAX_LAMBDA,
                  " for nogo")
    rho = None if args.rho is None else rho_pair_from_json(_read(args.rho))
    from .nogo import report
    inputs, payload, lines = report(L, rho)
    code = EXIT_OK if payload["theorem_consistent"] else EXIT_THEOREM_VIOLATED
    return code, inputs, payload, lines


def cmd_contradiction(args) -> tuple:
    document = _read(args.model)
    # A file whose response kind is contextual is refused, valid or not,
    # before it is read into a model; any other shape is read in full.
    response = (document.get("response") if isinstance(document, dict)
                else None)
    if isinstance(response, dict) and response.get("kind") == "contextual":
        raise ModelError(NONCONTEXTUAL_ONLY)
    from .forcing import report
    inputs, payload, lines = report(model_from_json(document), args.json)
    code = EXIT_NOT_APPLICABLE if payload["no_overlap"] else EXIT_OK
    return code, inputs, payload, lines


def cmd_refute(args) -> tuple:
    L = _in_range("lambda_size", args.lambda_size, 1, REFUTE_MAX_LAMBDA,
                  " for refute")
    from .contextual import report
    model, inputs, payload, lines = report(L, args.out)
    document = payload["model"] = (
        model_to_json(model) if args.out is not None or args.json else None)
    if args.out is not None:
        from .outfile import stage
        stage(args.staged, args.out, dumps_canonical(document), "\n")
    code = EXIT_OK if payload["collapse"] else EXIT_THEOREM_VIOLATED
    return code, inputs, payload, lines


def cmd_check(args) -> tuple:
    model = model_from_json(_read(args.model))
    from .ontology import check_report
    inputs, payload, lines = check_report(model)
    inputs["model"] = model_to_json(model) if args.json else None
    code = EXIT_OK if payload["valid"] else EXIT_BAD_INPUT
    return code, inputs, payload, lines


def cmd_sample(args) -> tuple:
    model = model_from_json(_read(args.model))
    from .ontology import parse_context, sample_report
    context = parse_context(args.context)
    _in_range("n", args.n, 0, SAMPLE_MAX_N)
    inputs, payload, lines = sample_report(model, context, args.n, args.seed)
    inputs["model"] = model_to_json(model) if args.json else None
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
    staged = []  # (new file, path) for each file outfile.stage wrote
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help or --version
            _write(sys.stdout, args)
            return EXIT_OK
        args.staged = staged
        t0 = time.perf_counter()
        code, inputs, payload, lines = args.func(args)
        _emit(args, inputs, payload, lines, time.perf_counter() - t0)
        for new, path in staged:
            os.replace(new, path)
        return code
    except (ModelError, OSError, MemoryError) as e:
        try:
            _write(sys.stderr, "error: out of memory\n"
                   if isinstance(e, MemoryError) else f"error: {e}\n")
        except (ValueError, OSError, MemoryError):
            pass  # stderr cannot be written either: the exit code tells
        return EXIT_BAD_INPUT
    finally:
        for new, _ in staged:
            if os.path.lexists(new):  # not moved onto its path: the run failed
                os.remove(new)


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
