"""JSON schema for models, problems and reports.

Exact numbers cross every boundary as "num/den" strings ("3/4", "1", "0")
so reports stay re-verifiable by third parties; floats appear only in
sampling statistics. Canonical dumps sort keys so golden-file comparisons
are byte-stable. `dumps_canonical` writes JSON text with json's own C
function, without importing json. The reader of model and rho files lives
in `reader`, which only a command that reads a file loads, and `modelfile`,
which only a command that reads a model file loads.
"""

from fractions import Fraction

# The C functions that json and hashlib themselves call. Importing json
# compiles its decoder's regexes, 2-3 ms of a process (Python 3.11,
# 2 vCPUs), for one parse or dump that its C functions do alone; `digest`
# imports hashlib only for a long text. A build without these modules
# falls back to the packages, as `random` does for its SHA-512.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from .values import CONTEXTS, ModelError, ResponseTable


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


# refute builds, checks and prints an exact model of 16 L^2 entries: about
# 4.5 MB of JSON at L = 128, where `refute --out` takes 0.3-0.5 s from
# process start to exit and peaks at 36 MB RSS (Python 3.11, 2 vCPUs).
# Larger sizes are refused before building, and a model or rho file over a
# larger lambda_size, or with a longer list, before its literals are parsed:
# a 15.6 MiB model at L = 305 took 19.6 s and 728 MB RSS to `check --json`.
REFUTE_MAX_LAMBDA = 128


def _targets_to_json(targets):
    return [[fmt_frac(q) for q in row] for row in targets]


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


# `cli` imports these two names, where the benchmark's tracer wraps them.
# They forward to `modelfile` and `reader`, which only a command that reads
# a model file, or any file, loads.
def model_from_json(d: dict):
    from . import modelfile
    return modelfile.model_from_json(d)


def rho_pair_from_json(d: dict):
    from . import reader
    return reader.rho_pair_from_json(d)


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
    else:
        out.append(_scalar(obj))


_NAN, _INFINITY = float("nan"), float("inf")


def _scalar(obj) -> str:
    """The text `json.dumps` writes for a value that is not a dict, list or
    tuple: a quoted str, null, true or false, int.__repr__ of an integer,
    float.__repr__ of a float, or NaN, Infinity or -Infinity. Any other
    value raises TypeError, as json does."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == _INFINITY:
            return "Infinity"
        if obj == -_INFINITY:
            return "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                    "serializable")


# Importing hashlib loads OpenSSL, about 3.2 ms of a process, and hashes
# 0.7 ms per MB; the interpreter's built-in module loads in 0.4 ms and
# hashes 4.1-4.3 ms per MB. In fresh `python -S` processes that import
# fractions and hash n bytes, the built-in minus hashlib was -3.2 ms at
# n = 0, -1.1 ms at 512 KB, +0.6 ms at 1 MB and +3.9 ms at 2 MB (medians of
# 80 in random order, Python 3.11.7, 2 vCPUs). The inputs of `check` dump
# to 506 KB at L = 40 and to 1.3 MB at L = 64.
BUILTIN_SHA256_MAX_BYTES = 800_000


def digest(text: str) -> str:
    """The SHA-256 of a dumps_canonical output: by the built-in module up
    to BUILTIN_SHA256_MAX_BYTES, and by hashlib's OpenSSL above that."""
    data = text.encode()
    if len(data) > BUILTIN_SHA256_MAX_BYTES:
        from hashlib import sha256
        return sha256(data).hexdigest()
    return _sha256(data).hexdigest()
