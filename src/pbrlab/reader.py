"""Reading model and rho files: the capped file read, the JSON text parser
and the exact records.

`load_json_file` reads a file of at most INPUT_MAX_BYTES, and `loads` parses
it with json's own C scanner, without importing json. `rho_pair_from_json`,
with the literal checks it shares with model files, turns a parsed rho file
into exact values; `modelfile.model_from_json` builds on the same checks
for a model file. Only a command that reads a file loads this module, so no
other compiles it.
"""

import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .serialize import _INFINITY, _NAN, REFUTE_MAX_LAMBDA, _quoted
from .values import EpistemicState, ModelError

# The largest file pbr writes, `refute --lambda-size 128 --out`, holds about
# 4.5 MB. Larger model and rho files are refused once one byte more is read.
INPUT_MAX_BYTES = 16 * 2 ** 20
READ_CHUNK_BYTES = 2 ** 20

# An optional sign, ASCII digits, and optionally "/" and ASCII digits.
# Fraction itself also reads decimals and exponents, and expands
# "1e10000000" into a 10-million-digit integer before anything can check it.
_EXACT_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_frac(s) -> Fraction:
    if isinstance(s, str):
        if _EXACT_TEXT.fullmatch(s):
            try:
                return Fraction(s)
            except ZeroDivisionError as e:
                raise ModelError(f"{_quoted(s)} has a zero denominator") from e
            except ValueError as e:  # a part longer than int() reads
                raise ModelError(
                    f"{_quoted(s)} has more than {sys.get_int_max_str_digits()}"
                    " digits in its numerator or denominator") from e
    # bool is a subclass of int; JSON true/false is not a number.
    elif isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ModelError(f"expected an exact 'num/den' string, got {_quoted(s)}")


def parse_size(x) -> int:
    """A JSON integer, taken as is: 2.7, "2" and true are rejected, and so
    is one over REFUTE_MAX_LAMBDA."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ModelError(f"lambda_size must be a JSON integer, got {_quoted(x)}")
    if x > REFUTE_MAX_LAMBDA:
        raise ModelError(f"lambda_size must be <= {REFUTE_MAX_LAMBDA}, the "
                         "largest model pbr writes")
    return x


def _list(values):
    """`values`, or ModelError for a value that is not a JSON list, or for a
    list longer than REFUTE_MAX_LAMBDA: no list of a model or rho file holds
    more than lambda_size items."""
    # map would read a string's characters and an object's keys
    if not isinstance(values, list):
        raise ModelError(f"expected a JSON list, got {_quoted(values)}")
    if len(values) > REFUTE_MAX_LAMBDA:
        raise ModelError(f"a list of {len(values)} items; lists in model "
                         f"and rho files hold at most {REFUTE_MAX_LAMBDA}")
    return values


# JSON's names for what its parser returns.
_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "number",
               float: "number", bool: "boolean", type(None): "null"}


def _field(d, key: str):
    """d[key], or ModelError if `d` is no JSON object or lacks `key`. The
    error names the type of `d`, as its text may run to megabytes."""
    if not isinstance(d, dict):
        raise ModelError("expected a JSON object, got "
                         + _JSON_TYPES.get(type(d), type(d).__name__))
    if key not in d:
        raise ModelError(f'missing key "{key}"')
    return d[key]


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
        key = tuple(_list(values))
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


# What reading a malformed model or rho file raises (ModelError included).
_MALFORMED = (KeyError, TypeError, ValueError, ArithmeticError)


def _states(d: dict, literals: _Literals) -> tuple:
    """(lambda_size, rho1, rho2) of a model or rho file."""
    return (parse_size(_field(d, "lambda_size")),
            EpistemicState(literals.row(_field(d, "rho1"))),
            EpistemicState(literals.row(_field(d, "rho2"))))


def rho_pair_from_json(d: dict):
    """Side file for the no-go command: two exact distributions."""
    try:
        L, r1, r2 = _states(d, _Literals())
    except _MALFORMED as e:
        raise ModelError(f"malformed rho file: {e}") from e
    if r1.size != L or r2.size != L:
        raise ModelError("rho lengths disagree with lambda_size")
    return r1, r2


def load_json_file(path: str):
    """The parsed file, of which at most INPUT_MAX_BYTES + 1 bytes are read,
    be it regular, a pipe or a device. A file that is longer, is not UTF-8
    JSON, holds an integer of more than 4300 digits or nests too deep raises
    ModelError."""
    chunks, size = [], 0
    with open(path, "rb") as fh:
        # A read of n bytes reserves n bytes before it reads: read in
        # chunks, so a small file does not reserve the whole cap.
        while size <= INPUT_MAX_BYTES:
            chunk = fh.read(min(READ_CHUNK_BYTES, INPUT_MAX_BYTES + 1 - size))
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
    if size > INPUT_MAX_BYTES:
        raise ModelError(f"{path} holds more than {INPUT_MAX_BYTES} bytes, "
                         "the cap on input files")
    try:
        return loads(b"".join(chunks).decode())
    except (ValueError, RecursionError) as e:
        raise ModelError(str(e)) from e


# What json's decoder skips around a value.
_WHITESPACE = " \t\n\r"


def loads(text: str):
    """json.loads(text): a leading BOM is refused, whitespace is skipped on
    both sides of one value, and what is left raises json.JSONDecodeError
    with json's text, which alone imports json. An integer longer than
    int() reads raises ModelError naming it."""
    try:
        return _decode(text, _scanner(int))
    except ValueError as e:
        # Bad syntax raises json's subclass of ValueError, and an integer
        # longer than int() reads ValueError itself.
        if type(e) is ValueError:
            _decode(text, _scanner(_json_int))  # raises, naming it
        raise
    except SystemError:
        # Before Python 3.12 the C scanner raises bad syntax inside a value
        # as json.decoder's error, which it looks up in sys.modules without
        # importing it: with json.decoder not yet imported it fails with
        # SystemError. Once it is imported, json raises its own error.
        import json.decoder  # noqa: F401
        _decode(text, _scanner(int))  # raises
        raise


def _scanner(parse_int):
    """The `scan_once` of json's default decoder, but with `parse_int`:
    json's C scanner, set up as that decoder sets it up. A build without
    the C module takes json's decoder."""
    try:
        from _json import make_scanner
    except ImportError:
        from json import JSONDecoder
        return JSONDecoder(parse_int=parse_int).scan_once
    constants = {"NaN": _NAN, "Infinity": _INFINITY, "-Infinity": -_INFINITY}
    return make_scanner(SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=None,
        parse_float=float, parse_int=parse_int,
        parse_constant=constants.__getitem__))


def _decode(text: str, scan):
    """json's `JSONDecoder.decode`, with `scan` for its scanner."""
    if text.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                            text, 0)
    try:
        value, end = scan(text, len(text) - len(text.lstrip(_WHITESPACE)))
    except StopIteration as e:
        raise _decode_error("Expecting value", text, e.value) from None
    rest = text[end:].lstrip(_WHITESPACE)
    if rest:
        raise _decode_error("Extra data", text, len(text) - len(rest))
    return value


def _decode_error(message: str, text: str, pos: int):
    from json import JSONDecodeError
    return JSONDecodeError(message, text, pos)


def _json_int(literal: str) -> int:
    """int(literal), or ModelError quoting a literal too long for int()."""
    try:
        return int(literal)
    except ValueError as e:
        raise ModelError(f"the JSON integer {_quoted(literal)} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from e
