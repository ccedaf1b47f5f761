"""One judge of every `pbr ... --json` run, sharing no code with pbrlab:
`errors(argv, code, stdout, written)` lists what is wrong with the exit
code and stdout of `pbr ARGV`, and with the model `written` by `refute
--out`, judged from the files ARGV names. `nogo`, `refute`, `sample` and
`check` of a valid model are judged by the benchmark's output checker,
`perfbench/checker.py`, loaded read-only. `basis` is redone in Q(sqrt2)
from |0> and |+>; a `contradiction` proof is re-derived from the model's
weights and Born targets; the violations `check` lists for an invalid
model are recomputed and matched by position (context, table, lambda,
lambda', outcome) and value, the first 100 and the `... and N more` count.
A refused input, a model whose mode is not exact, a contextual one given
to `contradiction` or an invalid one given to `sample` or `contradiction`,
must exit 2 with an empty stdout.
"""

import importlib.util
import json
import re
from fractions import Fraction
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
_spec = importlib.util.spec_from_file_location("perfbench_checker", _PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

CONTEXTS = checker.CONTEXTS
_PAIRS = [(int(j), int(k)) for j, k in CONTEXTS]
SHOWN = 100  # `check` lists this many violations, then "... and N more"


def errors(argv, code: int, stdout: str, written=None) -> list:
    """What is wrong with one run of `pbr ARGV`, which exited `code` and
    printed `stdout`; `written` is the text of the file `refute --out`
    wrote."""
    command = argv[0]

    def arg(flag, kind=str):
        return kind(argv[argv.index(flag) + 1])
    doc = next((json.loads(Path(arg(flag)).read_text())
                for flag in ("--model", "--rho") if flag in argv), None)
    if command in ("check", "sample", "contradiction"):
        refusal = _refusal(command, doc)
        if refusal:
            return [] if (code, stdout) == (2, "") else [
                f"{refusal}: exit {code} and stdout {stdout[:60]!r}, not "
                f"exit 2 and none"]
        doc = _canonical(doc)
    out = json.loads(stdout)
    want = 0
    if command == "basis":
        found = _basis_errors(out)
    elif command == "nogo":
        L = arg("--lambda-size", int)
        found = checker.check_nogo(out, _rho(doc, L), L)
    elif command == "refute":
        found = checker.check_refute(
            out, out["model"] if written is None else json.loads(written),
            arg("--lambda-size", int))
    elif command == "contradiction":
        found = _contradiction_errors(out, doc)
        want = 4 if out["no_overlap"] else 0
    elif command == "sample":
        found = _sample_errors(out, doc, arg("--context"), arg("--n", int),
                               arg("--seed", int))
    elif _violations(doc):
        want, found = 2, _check_errors(out, doc)
    else:
        found = checker.check_check(out, doc)
    return found + ([f"exit {code}, not {want}"] if code != want else [])


def _refusal(command, model: dict):
    """Why `command` must refuse `model`, or None."""
    if model.get("mode") != "exact":
        return f"the model's mode is {model.get('mode')!r}, not 'exact'"
    if (command, model["response"]["kind"]) == ("contradiction",
                                                 "contextual"):
        return "contradiction is given a contextual model"
    if command != "check" and _violations(model):
        return f"{command} is given an invalid model"
    return None


def _frac(x) -> Fraction:
    """A weight or entry: pbr reads a JSON integer too."""
    return Fraction(x) if type(x) is int else checker.frac(x)


def _canonical(model: dict) -> dict:
    """`model` as pbr echoes it: each number a string in lowest terms."""
    def walk(x):
        return list(map(walk, x)) if isinstance(x, list) else str(_frac(x))
    p = model["response"]["p"]
    return {**model, **{key: walk(model[key])
                        for key in ("rho1", "rho2", "born_targets")},
            "response": {**model["response"], "p": {
                c: walk(t) for c, t in p.items()} if isinstance(p, dict)
                else walk(p)}}


def _rho(doc, L: int) -> list:
    if doc is None:
        return [[Fraction(1, L)] * L] * 2
    return [list(map(_frac, doc[key])) for key in ("rho1", "rho2")]


def _tables(model: dict) -> list:
    """(context prefix, 4 x L x L table of Fractions, or None if the table
    is not so shaped) per table of `model`."""
    L, p = model["lambda_size"], model["response"]["p"]
    named = ([(f"context {c}: ", p[c]) for c in CONTEXTS]
             if model["response"]["kind"] == "contextual" else [("", p)])
    return [(prefix, [[list(map(_frac, row)) for row in plane]
                      for plane in t]
             if len(t) == 4 and all(len(plane) == L and all(
                 len(row) == L for row in plane) for plane in t) else None)
            for prefix, t in named]


def _violations(model: dict) -> list:
    """Every violation of `model` as (context prefix, what, position...,
    value...), a context of the targets as the pair (j, k), in the order
    `check` lists them: the weights first, under the first table's prefix;
    then each table, lambda by lambda', its entries outside [0, 1] by
    outcome, then a row sum other than 1; the Born targets after the first
    table shaped 4 x L x L."""
    L = model["lambda_size"]
    tables = _tables(model)
    first = tables[0][0]
    found = []
    for name in ("rho1", "rho2"):
        w = list(map(_frac, model[name]))
        if len(w) != L:
            found.append((first, "weights", name, len(w), L))
            continue
        found += [(first, "negative", name, i, x)
                  for i, x in enumerate(w) if x < 0]
        if sum(w) != 1:
            found.append((first, "rho sum", name, sum(w)))
    targets = []  # pbr reads only a 4 x 4 table of targets
    for c, row in zip(_PAIRS, model["born_targets"]):
        row = list(map(_frac, row))
        targets += [("target", *c, i + 1, q) for i, q in enumerate(row)
                    if not 0 <= q <= 1]
        if sum(row) != 1:
            targets.append(("target sum", *c, sum(row)))
    for prefix, p in tables:
        if p is None:
            found.append((prefix, "shape"))
            continue
        for lam in range(L):
            for lamp in range(L):
                cell = [p[i][lam][lamp] for i in range(4)]
                found += [(prefix, "entry", i + 1, lam, lamp, v)
                          for i, v in enumerate(cell) if not 0 <= v <= 1]
                if sum(cell) != 1:
                    found.append((prefix, "row sum", lam, lamp, sum(cell),
                                  1 - sum(cell)))
        found += [(prefix, *t) for t in targets]
        targets = []
    return found


# How `check` words each violation: its kind, then a pattern whose groups
# are the position and the values, a lambda or outcome index or a number.
_WORDING = [(kind, re.compile(pattern)) for kind, pattern in (
    ("weights", r"(rho[12]) has (\d+) weights, lambda space has (\d+)"),
    ("negative", r"(rho[12])\[(\d+)\] is negative: (\S+)"),
    ("rho sum", r"(rho[12]) sums to (\S+), not 1"),
    ("target", r"born_targets\[\((\d), (\d)\)\]\[outcome (\d)\] = (\S+) "
               r"outside \[0, 1\]"),
    ("target sum", r"born_targets row for context \((\d), (\d)\) sums to "
                   r"(\S+)"),
    ("shape", r"response table is not shaped 4 x L x L"),
    ("entry", r"response\[(\d)\]\[(\d+)\]\[(\d+)\] = (\S+) outside \[0, 1\]"),
    ("row sum", r"response rows at \(lambda=(\d+), lambda'=(\d+)\) sum to "
                r"(\S+), deficit (\S+)"),
)]


def _position(line: str):
    """A violation line of `check` read as _violations writes it, or None."""
    prefix, rest = re.fullmatch(r"(context \d\d: )?(.*)", line).groups()
    for kind, pattern in _WORDING:
        m = pattern.fullmatch(rest)
        if m:
            return (prefix or "", kind, *(g if g.startswith("rho") else
                                          Fraction(g) for g in m.groups()))
    return None


def _check_errors(out: dict, model: dict) -> list:
    """`pbr check --json` of an invalid model."""
    found = _violations(model)
    listed = out["violations"]
    errors = [] if out["valid"] is False else ["an invalid model is valid"]
    if out["inputs"]["model"] != model:
        errors.append("check: echoed model differs from the file")
    more = len(found) - SHOWN
    if more > 0:
        if listed[SHOWN:] != [f"... and {more} more"]:
            errors.append(f"check lists {listed[SHOWN:]} after {SHOWN} "
                          f"violations, not '... and {more} more'")
        listed = listed[:SHOWN]
    if len(listed) != len(found[:SHOWN]):
        errors.append(f"check lists {len(listed)} violations, the judge "
                      f"finds {len(found)}")
    errors += [f"violation {k}: check says {line!r}, the judge finds {want}"
               for k, (line, want) in enumerate(zip(listed, found))
               if _position(line) != want]
    return errors


def _sample_errors(out, model, context: str, n: int, seed: int) -> list:
    """`pbr sample --json`, against the outcome distribution of
    `checker.predictions`. A noncontextual model's one table serves every
    context."""
    tables = [p for _, p in _tables(model)]
    predicted = checker.predictions(_rho(model, None),
                                    lambda c: tables[c % len(tables)],
                                    model["lambda_size"])
    return checker.check_sample(out, model, context, n, seed,
                                predicted[CONTEXTS.index(context)])


# Q(sqrt2): p + q*sqrt2 as the pair (p, q); |0> and |+> = (|0> + |1>)/sqrt2.
ZERO, ONE = (0, 0), (1, 0)
KETS = {"1": (ONE, ZERO), "2": ((0, Fraction(1, 2)),) * 2}


def _mul(x, y):
    # (a + b s)(c + d s) = ac + 2bd + (ad + bc) s   with s^2 = 2
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _dot(u, v):
    products = list(map(_mul, u, v))
    return (sum(p for p, _ in products), sum(q for _, q in products))


def _real(entry: dict, where: str, errors: list):
    """The real part of one printed amplitude; a nonzero imaginary part is
    reported."""
    re_, im = ((Fraction(int(d["num"]), int(d["den"])),
                Fraction(int(d["snum"]), int(d["sden"])))
               for d in (entry["re"], entry["im"]))
    if im != ZERO:
        errors.append(f"{where}: imaginary part is not zero")
    return re_


def _basis_errors(doc: dict) -> list:
    """`pbr basis --json`."""
    errors = []
    if doc.get("contexts") != list(CONTEXTS):
        errors.append(f"contexts are {doc.get('contexts')}, not {list(CONTEXTS)}")
    effects = [[_real(a, f"effect {i + 1}", errors) for a in e]
               for i, e in enumerate(doc["effects"])]
    if len(effects) != 4 or any(len(e) != 4 for e in effects):
        return errors + ["effects are not 4 vectors of dimension 4"]
    for i, e in enumerate(effects):
        for j, f in enumerate(effects):
            want = ONE if i == j else ZERO
            dot = _dot(e, f)
            if dot != want:
                errors.append(f"<xi_{i + 1}|xi_{j + 1}> is {dot[0]} + "
                              f"{dot[1]}*sqrt2, not {want[0]}")
            g = _real(doc["gram"][i][j], f"gram ({i},{j})", errors)
            if g != want:
                errors.append(f"gram ({i},{j}) is {g[0]} + {g[1]}*sqrt2, "
                              f"not {want[0]}")
    if doc["anchors"] != ["0"] * 4:
        errors.append(f"anchors are {doc['anchors']}, not all 0")
    for c, (j, k) in enumerate(CONTEXTS):
        state = [_mul(x, y) for x in KETS[j] for y in KETS[k]]
        for i, e in enumerate(effects):
            overlap = _dot(e, state)
            p, q = _mul(overlap, overlap)
            if q or Fraction(doc["targets"][c][i]) != p:
                errors.append(f"target ({CONTEXTS[c]}, {i + 1}) is "
                              f"{doc['targets'][c][i]}, not {p} + {q}*sqrt2")
    return errors


def _contradiction_errors(doc: dict, model: dict) -> list:
    """`pbr contradiction --json` of a valid noncontextual model: a forcing
    proof, or NoOverlap."""
    if doc["inputs"]["model"] != model:
        return ["contradiction: echoed model differs from the file"]
    rho = _rho(model, None)
    shared = [lam for lam, (w1, w2) in enumerate(zip(*rho)) if w1 and w2]
    if doc["no_overlap"]:
        return [f"NoOverlap, but rho1 and rho2 share lambda {shared}"] if shared else []
    lam = doc["lambda_star"]
    if lam not in shared:
        return [f"lambda* = {lam} is not in both supports"]
    steps = doc["steps"]
    errors = []
    if sorted(s["outcome"] for s in steps) != [1, 2, 3, 4]:
        errors.append("the steps do not cover outcomes 1-4")
    if sorted(s["context"] for s in steps) != list(CONTEXTS):
        errors.append("the steps do not cover contexts 11, 12, 21, 22")
    if errors:
        return errors
    for s in steps:
        ctx, i = s["context"], s["outcome"]
        target = _frac(model["born_targets"][CONTEXTS.index(ctx)][i - 1])
        if target != 0:
            errors.append(f"outcome {i} in context {ctx} has Born target "
                          f"{target}, not 0")
        weight = rho[int(ctx[0]) - 1][lam] * rho[int(ctx[1]) - 1][lam]
        if Fraction(s["weight"]) != weight:
            errors.append(f"outcome {i} in context {ctx} has weight "
                          f"{s['weight']}, not {weight}")
    if doc["forced_total"] != "0":
        errors.append(f"forced total is {doc['forced_total']}, not 0")
    return errors
