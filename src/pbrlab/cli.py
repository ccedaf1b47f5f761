"""Command-line front end: build, validate, verify, refute, sample.

Exit codes are stable: 0 expected result, 2 invalid input, 3 a verdict
contradicting the theorem (a bug signal for CI), 4 argument inapplicable
(disjoint supports where an overlap was needed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__, ontology
from .ontology import ModelError
from .serialize import (digest, dumps_canonical, fmt_frac, model_from_json,
                        model_to_json, rho_pair_from_json)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_THEOREM_VIOLATED = 3
EXIT_NOT_APPLICABLE = 4

# nogo builds an exact LP of L^2 + 16 rows over 4L^2 columns with at most
# 20 L^2 nonzeros (4 per normalization row, L^2 per Born row): 1040 rows,
# 4096 columns and 20480 nonzeros at L = 32, decided in under 0.1 s for
# uniform rho. The witness path on random disjoint rho grows much faster
# with L (0.4 s at L = 14, 2 s at L = 20), so the cap stays until a
# symmetry reduction shrinks the LP. Larger sizes are refused before
# building.
NOGO_MAX_LAMBDA = 32
# refute builds, checks and prints an exact model of 16 L^2 entries: about
# 4.5 MB of JSON at L = 128, where `refute --out` takes 0.6-0.8 s from
# process start to exit and peaks at 53 MB RSS (Python 3.11, 2 vCPUs).
# Larger sizes are refused before building.
REFUTE_MAX_LAMBDA = 128
# sample draws exactly, at a few microseconds per trial: 10^7 trials take
# about 17 s. Larger counts are refused before sampling.
SAMPLE_MAX_N = 10 ** 7
# The largest file pbr writes, `refute --lambda-size 128 --out`, holds about
# 4.5 MB. Larger model and rho files are refused before parsing.
INPUT_MAX_BYTES = 16 * 2 ** 20


def _report(command: str, inputs: dict, payload: dict) -> dict:
    d = {"command": command, "version": __version__,
         "inputs": {"digest": digest(inputs), **inputs}}
    d.update(payload)
    return d


def _emit(args, report: dict, human_lines, elapsed: float) -> None:
    # Timings stay out of --json output so reports are byte-stable.
    if getattr(args, "json", False):
        print(dumps_canonical(report))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed: {elapsed:.3f}s")


def _load_json_file(path: str):
    """The parsed file. A file over INPUT_MAX_BYTES, not UTF-8 JSON, holding
    an integer of more than 4300 digits or nesting too deep raises
    ModelError."""
    with open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > INPUT_MAX_BYTES:
            raise ModelError(f"{path} holds {size} bytes; input files are "
                             f"capped at {INPUT_MAX_BYTES}")
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ModelError(str(e)) from e


# Each command imports the layers it runs, so `check` and `sample` never
# load the Born table, the LP or the interval model.

def cmd_basis(args) -> int:
    from . import hilbert
    t0 = time.perf_counter()
    basis = hilbert.pbr_basis()
    g = hilbert.gram(basis)
    targets = hilbert.born_targets()
    anchors = [fmt_frac(hilbert.born(basis.effects[i], hilbert.product_state(j, k)))
               for i, (j, k) in enumerate(hilbert.CONTEXTS)]
    report = _report("basis", {}, {
        "arithmetic": "exact",
        "effects": basis.to_json(),
        "gram": [[hilbert.amplitude_json(e) for e in row] for row in g],
        "anchors": anchors,
        "contexts": [f"{j}{k}" for (j, k) in hilbert.CONTEXTS],
        "targets": [[fmt_frac(q) for q in row] for row in targets],
    })
    lines = ["measurement basis (4 effects, dim 4):"]
    for i, e in enumerate(basis.effects):
        lines.append(f"  xi_{i + 1}: " + ", ".join(str(a) for a in e.amplitudes))
    lines.append("gram matrix: exact identity" if all(
        g[r][c] == (1 if r == c else 0) for r in range(4) for c in range(4))
        else "gram matrix: NOT identity")
    lines.append("zero anchors born(xi_i, context_i): " + " ".join(anchors))
    lines.append("born targets (rows = contexts 11,12,21,22):")
    for (j, k), row in zip(hilbert.CONTEXTS, targets):
        lines.append(f"  {j}{k}: " + " ".join(fmt_frac(q) for q in row))
    _emit(args, report, lines, time.perf_counter() - t0)
    return EXIT_OK


def cmd_nogo(args) -> int:
    from . import hilbert, nogo
    t0 = time.perf_counter()
    L = args.lambda_size
    if L < 1:
        print("lambda_size must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    if L > NOGO_MAX_LAMBDA:
        print(f"lambda_size must be <= {NOGO_MAX_LAMBDA} for nogo",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.rho:
        try:
            r1, r2 = rho_pair_from_json(_load_json_file(args.rho))
        except (OSError, ModelError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT
        if r1.size != L:
            print(f"error: rho file is over L={r1.size}, not {L}", file=sys.stderr)
            return EXIT_BAD_INPUT
    else:
        r1 = r2 = ontology.EpistemicState.uniform(L)

    targets = hilbert.born_targets()
    try:
        problem = nogo.build_feasibility(r1, r2, targets)
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    outcome = nogo.solve_feasibility(problem)
    overlap = ontology.support_overlap(r1, r2)
    expect_feasible = nogo.theorem_expected_verdict(r1, r2)

    inputs = {"lambda_size": L,
              "rho1": [fmt_frac(w) for w in r1.weights],
              "rho2": [fmt_frac(w) for w in r2.weights],
              "targets": [[fmt_frac(q) for q in row] for row in targets]}
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
        model = nogo.witness_model(problem, outcome)
        reproduced = not ontology.validate_model(model) and all(
            ontology._predict(model, ctx) == targets[c]
            for c, ctx in enumerate(ontology.CONTEXTS))
        payload["witness"] = {
            "p": [[[fmt_frac(v) for v in row] for row in plane]
                  for plane in outcome.witness.p],
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
    report = _report("nogo", inputs, payload)
    lines.append(f"consistent with the no-go theorem: {consistent}")
    _emit(args, report, lines, time.perf_counter() - t0)
    return EXIT_OK if consistent else EXIT_THEOREM_VIOLATED


def cmd_contradiction(args) -> int:
    from . import nogo
    t0 = time.perf_counter()
    try:
        model = model_from_json(_load_json_file(args.model))
    except (OSError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # A contextual model goes straight to derive_contradiction, which
    # refuses it whether or not it is valid.
    violations = [] if model.contextual else ontology.validate_model(model)
    if violations:
        print("invalid model:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        result = nogo.derive_contradiction(model)
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    inputs = {"model": model_to_json(model)}
    if isinstance(result, nogo.NoOverlap):
        report = _report("contradiction", inputs, {"no_overlap": True})
        _emit(args, report, ["supports are disjoint: the forcing argument "
                             "does not apply (NoOverlap)"],
              time.perf_counter() - t0)
        return EXIT_NOT_APPLICABLE

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
    _emit(args, _report("contradiction", inputs, payload), lines,
          time.perf_counter() - t0)
    return EXIT_OK


def cmd_refute(args) -> int:
    from . import contextual, hilbert
    t0 = time.perf_counter()
    L = args.lambda_size
    if L < 1:
        print("lambda_size must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    if L > REFUTE_MAX_LAMBDA:
        print(f"lambda_size must be <= {REFUTE_MAX_LAMBDA} for refute",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    model = contextual.build_interval_model(L, hilbert.born_targets())
    report_data = contextual.refutation_report(model)
    model_json = model_to_json(model)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(dumps_canonical(model_json) + "\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_BAD_INPUT

    inputs = {"lambda_size": L,
              "targets": [[fmt_frac(q) for q in row]
                          for row in hilbert.born_targets()]}
    payload = {"arithmetic": "exact",
               "born_reproduced": report_data.born_reproduced,
               "overlap_mass": fmt_frac(report_data.overlap_mass),
               "eq2_violated": report_data.eq2_violated,
               "collapse": report_data.collapse,
               "verdict": report_data.verdict,
               "model": model_json}
    lines = [f"interval model over L = {L} (uniform epistemic states)",
             f"Born targets reproduced exactly: {report_data.born_reproduced}",
             f"overlap mass: {fmt_frac(report_data.overlap_mass)}",
             f"disjoint-support condition violated: {report_data.eq2_violated}",
             f"verdict: {report_data.verdict}"]
    if args.out:
        lines.append(f"model written to {args.out}")
    _emit(args, _report("refute", inputs, payload), lines,
          time.perf_counter() - t0)
    return EXIT_OK if report_data.collapse else EXIT_THEOREM_VIOLATED


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    try:
        model = model_from_json(_load_json_file(args.model))
    except (OSError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    violations = ontology.validate_model(model)
    report = _report("check", {"model": model_to_json(model)},
                     {"valid": not violations, "violations": violations})
    lines = (["model is valid"] if not violations
             else ["model is invalid:"] + [f"  {v}" for v in violations])
    _emit(args, report, lines, time.perf_counter() - t0)
    return EXIT_OK if not violations else EXIT_BAD_INPUT


def _parse_context(s: str):
    s = s.replace(",", "")
    if len(s) == 2 and s[0] in "12" and s[1] in "12":
        return (int(s[0]), int(s[1]))
    raise ModelError(f"context must be one of 11, 12, 21, 22; got {s!r}")


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    try:
        model = model_from_json(_load_json_file(args.model))
        context = _parse_context(args.context)
    except (OSError, ModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.n < 0:
        print("error: n must be >= 0", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.n > SAMPLE_MAX_N:
        print(f"error: n must be <= {SAMPLE_MAX_N}", file=sys.stderr)
        return EXIT_BAD_INPUT
    violations = ontology.validate_model(model)
    if violations:
        print("error: invalid model: " + "; ".join(violations), file=sys.stderr)
        return EXIT_BAD_INPUT
    counts = ontology._sample(model, context, args.n, args.seed)
    predicted = ontology._predict(model, context)
    stat = ontology.chi_square_statistic(counts, predicted)

    inputs = {"model": model_to_json(model),
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
    _emit(args, _report("sample", inputs, payload), lines,
          time.perf_counter() - t0)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbr",
        description="Hidden-variable model workbench for the two-state "
                    "no-go argument and its contextual counterexample.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print the measurement basis and Born targets")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("nogo", help="exact LP feasibility for noncontextual models")
    p.add_argument("--lambda-size", type=int, required=True)
    p.add_argument("--rho", help="JSON file with rho1/rho2 (default: uniform)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nogo)

    p = sub.add_parser("contradiction", help="derive the normalization clash")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_contradiction)

    p = sub.add_parser("refute", help="build the contextual counterexample")
    p.add_argument("--lambda-size", type=int, required=True)
    p.add_argument("--out", help="write the model JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("check", help="validate a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="seeded Monte Carlo for one context")
    p.add_argument("--model", required=True)
    p.add_argument("--context", required=True, help="11, 12, 21 or 22")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as e:
        # Invalid input found past a command's own checks, e.g. an exact
        # result too long to print (serialize.fmt_frac).
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
