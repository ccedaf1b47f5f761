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


# How much of a refused value an error message quotes: a file of up to
# INPUT_MAX_BYTES may hold one value of nearly that length.
_QUOTE_MAX = 60


def _quoted(x) -> str:
    """repr(x), or for a longer one its first _QUOTE_MAX characters and its
    length, so an error line stays short whatever the value."""
    text = repr(x)
    if len(text) <= _QUOTE_MAX:
        return text
    return f"{text[:_QUOTE_MAX]}... ({len(text)} characters)"


def parse_frac(s) -> Fraction:
    if isinstance(s, str):
        if _EXACT_TEXT.fullmatch(s):
            return Fraction(s)
    # bool is a subclass of int; JSON true/false is not a number.
    elif isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ModelError(f"expected an exact 'num/den' string, got {_quoted(s)}")


def parse_size(x) -> int:
    """A JSON integer, taken as is: 2.7, "2" and true are rejected."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ModelError(f"lambda_size must be a JSON integer, got {_quoted(x)}")


class _Literals(dict):
    """One shared Fraction per exact literal of one model file, looked up by
    `map` in C, and one shared tuple per distinct row. Keys are JSON strings
    and (numerator, denominator) pairs, not numbers, as true == 1.0 == 1: an
    integer finds its value's pair in each new row. So "1", 1 and "2/2" load
    as one object, validated once."""

    def __init__(self):
        super().__init__()
        self.rows = {}  # row literals (and their types) -> the row

    def __missing__(self, literal):
        if type(literal) is int and (literal, 1) in self:
            return self[literal, 1]
        value = parse_frac(literal)
        value = self.setdefault(value.as_integer_ratio(), value)
        return self.setdefault(literal, value) if type(literal) is str else value

    def row(self, values) -> tuple:
        """The row of these JSON values. A row of strings is keyed by its
        literals alone, as a string equals only a string; any other by its
        literals and their JSON types, so [1], [1.0] and [true] stay apart
        and the refused ones are refused."""
        # map would read a string's characters and an object's keys
        if not isinstance(values, list):
            raise ModelError(f"expected a JSON list, got {_quoted(values)}")
        key = tuple(values)
        try:
            row = self.rows.get(key)
        except TypeError:  # an unhashable value, named by parse_frac
            return tuple(map(parse_frac, values))
        if row is None:
            types = tuple(map(type, key))
            if types.count(str) < len(types):
                key = (types, key)
                row = self.rows.get(key)
            if row is None:
                row = self.rows[key] = tuple(map(self.__getitem__, values))
        return row


def _targets_to_json(targets):
    return [[fmt_frac(q) for q in row] for row in targets]


def _targets_from_json(rows, literals):
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ModelError("born_targets must be 4x4")
    return tuple(map(literals.row, rows))


def _table_to_json(t: ResponseTable, shown: dict):
    """The table's JSON lists. `shown` maps the id of each row and each
    entry object already formatted, in this or an earlier table of the same
    model, to its JSON: a model of a few shared rows and entries formats
    each of them once, and a repeated row is one list object, which
    `dumps_canonical` writes once too. Rows are tuples and entries numbers,
    so no object is both."""
    def fmt(v):
        text = shown[id(v)] = fmt_frac(v)
        return text

    def fmt_row(row):
        out = shown[id(row)] = [get(id(v)) or fmt(v) for v in row]
        return out
    get = shown.get
    return [[get(id(row)) or fmt_row(row) for row in plane] for plane in t.p]


def _table_from_json(p, literals) -> ResponseTable:
    return ResponseTable(tuple(tuple(map(literals.row, plane)) for plane in p))


def model_to_json(m) -> dict:
    """The model's JSON document. A row object that the model repeats is one
    list in it, so copy a row before editing it."""
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


# What reading a malformed model or rho file raises (ModelError included).
_MALFORMED = (KeyError, TypeError, ValueError, ArithmeticError)


def _states(d: dict, literals: _Literals) -> tuple:
    """(lambda_size, rho1, rho2) of a model or rho file."""
    return (parse_size(d["lambda_size"]),
            EpistemicState(literals.row(d["rho1"])),
            EpistemicState(literals.row(d["rho2"])))


def model_from_json(d: dict):
    try:
        if d["mode"] != "exact":
            raise ModelError(f"unknown mode {_quoted(d['mode'])}; "
                             "models are exact")
        literals = _Literals()
        L, rho1, rho2 = _states(d, literals)
        targets = _targets_from_json(d["born_targets"], literals)
        resp = d["response"]
        kind = resp["kind"]
        if kind == "noncontextual":
            response = (_table_from_json(resp["p"], literals),)
        elif kind == "contextual":
            response = tuple(_table_from_json(resp["p"][f"{j}{k}"], literals)
                             for (j, k) in CONTEXTS)
        else:
            raise ModelError(f"unknown response kind {_quoted(kind)}")
    except _MALFORMED as e:
        raise ModelError(f"malformed model: {e}") from e

    return OntologicalModel(lambda_space=LambdaSpace(L), rho1=rho1, rho2=rho2,
                            response=response, born_targets=targets)


def rho_pair_from_json(d: dict):
    """Side file for the no-go command: two exact distributions."""
    try:
        L, r1, r2 = _states(d, _Literals())
    except _MALFORMED as e:
        raise ModelError(f"malformed rho file: {e}") from e
    if r1.size != L or r2.size != L:
        raise ModelError("rho lengths disagree with lambda_size")
    return r1, r2


def dumps_canonical(obj) -> str:
    """The text `json.dumps` writes for the JSON document `obj` with an
    indent of 2 and sorted keys, byte for byte; a key that is not a str
    raises TypeError. With an indent, json before Python 3.13 runs its
    pure-Python encoder, which took 10-14 ms for an L = 40 model.
    Here each list of strings is quoted by the C function json itself uses
    and joined in one call, once per list object and indent, and the pieces
    are joined once at the end."""
    out = []
    _write(obj, "\n", out, {})
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii


class Formatted(str):
    """A dumps_canonical output, which dumps_canonical writes in place,
    re-indented for the depth it lands at, so a report holds its model's
    text without formatting it again. JSON strings hold no raw newline, so
    every newline in it starts a line. It may stand only as a dict value or
    as the whole document: in a list of strings the joined path quotes it."""
    __slots__ = ()


def _write(obj, nl: str, out: list, seen: dict) -> None:
    """Append the pieces of `obj`'s text to `out`, for a value on a line
    that starts with `nl` (a newline and the line's indent). `seen` maps
    (id, nl) of each list of strings written in this dump, which the
    document keeps alive, to its text. Calls itself, not `dumps_canonical`,
    so a tracer that wraps `dumps_canonical` sees one call per dump."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{"
        # sorted() on the items, as json does, so mixed key types raise
        # alike; _quote raises TypeError on any key that is not a str.
        for k, v in sorted(obj.items()):
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _write(v, inner, out, seen)
            sep = ","
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        key = (id(obj), nl)
        text = seen.get(key)
        if text is not None:
            out.append(text)
            return
        inner = nl + "  "
        try:
            text = f"[{inner}{(',' + inner).join(map(_quote, obj))}{nl}]"
        except TypeError:  # an item that is not a str
            sep = "["
            for x in obj:
                out.append(sep + inner)
                _write(x, inner, out, seen)
                sep = ","
            out.append(nl + "]")
        else:
            out.append(text)
            seen[key] = text
    elif type(obj) is Formatted:
        out.append(obj.replace("\n", nl))
    else:
        out.append(json.dumps(obj))


def digest(text: str) -> str:
    """The SHA-256 of a dumps_canonical output."""
    return hashlib.sha256(text.encode()).hexdigest()
