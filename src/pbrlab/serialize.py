"""JSON schema for models, problems and reports.

Exact numbers cross every boundary as "num/den" strings ("3/4", "1", "0")
so reports stay re-verifiable by third parties; floats appear only in
sampling statistics. Canonical dumps sort keys so golden-file comparisons
are byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .ontology import (CONTEXTS, EpistemicState, LambdaSpace, ModelError,
                       OntologicalModel, ResponseTable)


def fmt_frac(x: Fraction) -> str:
    """"num/den", or "num" for an integer. Raises ModelError when the
    numerator or the denominator has more digits than int-to-str
    conversion allows (4300 by default)."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as e:
        raise ModelError("an exact number has too many digits to print") from e


# An optional sign, ASCII digits, and optionally "/" and ASCII digits.
# Fraction itself also reads decimals and exponents, and expands
# "1e10000000" into a 10-million-digit integer before anything can check it.
_EXACT_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_frac(s) -> Fraction:
    if isinstance(s, str):
        if _EXACT_TEXT.fullmatch(s):
            return Fraction(s)
    # bool is a subclass of int; JSON true/false is not a number.
    elif isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ModelError(f"expected an exact 'num/den' string, got {s!r}")


def parse_size(x) -> int:
    """A JSON integer, taken as is: 2.7, "2" and true are rejected."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ModelError(f"lambda_size must be a JSON integer, got {x!r}")


def _number_parser():
    """`parse_frac` for one model load, memoised by JSON string and integer
    literal, since a refute model spells out "0" and "1" 25,600 times at
    L = 40: each distinct literal becomes one shared Fraction, which
    validation then checks once per distinct cell. Other values (true, 0.5,
    lists) are never looked up, since true == 1 and 1.0 == 1; a literal that
    fails to parse raises every time."""
    parsed = {}

    def parse(x):
        if type(x) is not str and type(x) is not int:
            return parse_frac(x)
        v = parsed.get(x)
        if v is None:
            v = parsed[x] = parse_frac(x)
        return v
    return parse


def _targets_to_json(targets):
    return [[fmt_frac(q) for q in row] for row in targets]


def _targets_from_json(rows):
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ModelError("born_targets must be 4x4")
    return tuple(tuple(parse_frac(q) for q in row) for row in rows)


def _table_to_json(t: ResponseTable, shown: dict):
    """The table's JSON lists. `shown` maps the id of each entry object
    already formatted, in this or an earlier table of the same model, to its
    text, so a table of a few shared entries formats each of them once."""
    def fmt(v):
        text = shown[id(v)] = fmt_frac(v)
        return text
    get = shown.get
    return [[[get(id(v)) or fmt(v) for v in row] for row in plane]
            for plane in t.p]


def _table_from_json(p, parse) -> ResponseTable:
    return ResponseTable(tuple(tuple(tuple(parse(v) for v in row)
                                     for row in plane) for plane in p))


def model_to_json(m) -> dict:
    d = {
        "mode": "exact",
        "lambda_size": m.lambda_space.size,
        "rho1": [fmt_frac(w) for w in m.rho1.weights],
        "rho2": [fmt_frac(w) for w in m.rho2.weights],
        "born_targets": _targets_to_json(m.born_targets),
    }
    shown = {}
    if m.contextual:
        d["response"] = {"kind": "contextual",
                         "p": {f"{j}{k}": _table_to_json(m.table((j, k)), shown)
                               for (j, k) in CONTEXTS}}
    else:
        d["response"] = {"kind": "noncontextual",
                         "p": _table_to_json(m.response[0], shown)}
    return d


def model_from_json(d: dict):
    try:
        if d["mode"] != "exact":
            raise ModelError(f"unknown mode {d['mode']!r}; models are exact")
        parse = _number_parser()
        L = parse_size(d["lambda_size"])
        rho1 = EpistemicState(tuple(parse(w) for w in d["rho1"]))
        rho2 = EpistemicState(tuple(parse(w) for w in d["rho2"]))
        targets = _targets_from_json(d["born_targets"])
        resp = d["response"]
        kind = resp["kind"]
        if kind == "noncontextual":
            response = (_table_from_json(resp["p"], parse),)
        elif kind == "contextual":
            response = tuple(_table_from_json(resp["p"][f"{j}{k}"], parse)
                             for (j, k) in CONTEXTS)
        else:
            raise ModelError(f"unknown response kind {kind!r}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as e:
        raise ModelError(f"malformed model: {e}") from e

    return OntologicalModel(lambda_space=LambdaSpace(L), rho1=rho1, rho2=rho2,
                            response=response, born_targets=targets)


def rho_pair_from_json(d: dict):
    """Side file for the no-go command: two exact distributions."""
    try:
        L = parse_size(d["lambda_size"])
        r1 = EpistemicState(tuple(parse_frac(w) for w in d["rho1"]))
        r2 = EpistemicState(tuple(parse_frac(w) for w in d["rho2"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ModelError(f"malformed rho file: {e}") from e
    if r1.size != L or r2.size != L:
        raise ModelError("rho lengths disagree with lambda_size")
    return r1, r2


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def digest(obj) -> str:
    return hashlib.sha256(dumps_canonical(obj).encode()).hexdigest()
