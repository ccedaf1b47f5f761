"""`dumps_canonical` writes the bytes of `json.dumps(indent=2, sort_keys=True)`
for a JSON document, whose keys are strings, and `digest` is the SHA-256
that `hashlib` computes."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh import python
from pbrlab import serialize
from pbrlab.contextual import build_interval_model
from pbrlab.hilbert import born_targets
from pbrlab.serialize import dumps_canonical, model_to_json


def _plain(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# Quotes, backslashes, control and non-ASCII characters, a lone surrogate
# and an astral one, beside arbitrary characters of every category.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\xe9 \ud800'
                                          '\U0001f600'),
                          st.characters(blacklist_categories=())),
                max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 300),
    st.integers(min_value=-2 ** 300, max_value=-2 ** 64),
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan")]),
    _TEXT)
_DOCS = st.recursive(
    # all-string lists take the joined path; mixed ones recurse
    st.one_of(_SCALARS, st.lists(_TEXT, max_size=5)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=10)


_ROW = ["1/2", "0"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCS)
# a model document holds each shared row as one list object, at any depth
@example({"a": [_ROW, _ROW], "b": {"c": [_ROW, [_ROW, ("x", _ROW)]]},
          "d": _ROW})
def test_dumps_canonical_is_json_dumps(doc):
    assert dumps_canonical(doc) == _plain(doc)


@pytest.mark.parametrize("doc", [
    {True: [], False: {}},
    {None: ()},
    {2 ** 70: "a", -1: ["b", 1]},
    {1.5: 0, float("inf"): 1, -0.0: 2},
], ids=["bool-keys", "none-key", "int-keys", "float-keys"])
def test_non_string_keys_raise_type_error(doc):
    # json writes these keys as strings; a JSON document holds none
    with pytest.raises(TypeError):
        dumps_canonical(doc)


@pytest.mark.parametrize("doc", [
    {"a": 0, 1: 0},
    {(1, 2): 0},
    [object()],
    {"a": [1, {2, 3}]},
], ids=["mixed-keys", "tuple-key", "object-value", "set-value"])
def test_what_json_refuses_raises_type_error(doc):
    with pytest.raises(TypeError):
        _plain(doc)
    with pytest.raises(TypeError):
        dumps_canonical(doc)


# The dump of the L = 40 interval model, about 450 KB, spans many blocks;
# a text of one byte more than BUILTIN_SHA256_MAX_BYTES goes to hashlib.
_TEXTS = {"empty": lambda: "",
          "non-ascii": lambda: "\u03c8 \u2260 \u03c6, \u03bb\u2032 \U0001f600",
          "model-L40": lambda: dumps_canonical(
              model_to_json(build_interval_model(40, born_targets()))),
          "over-the-cap": lambda: "\u03c8" + "x" * (
              serialize.BUILTIN_SHA256_MAX_BYTES - 1)}


@pytest.mark.parametrize("name", _TEXTS)
def test_digest_is_hashlibs_sha256(name):
    text = _TEXTS[name]()
    assert serialize.digest(text) == hashlib.sha256(text.encode()).hexdigest()


def test_only_a_text_over_the_cap_loads_hashlib():
    done = python("-S", "-c",
                  "import sys\n"
                  "from pbrlab import serialize\n"
                  "n = serialize.BUILTIN_SHA256_MAX_BYTES\n"
                  "serialize.digest('x' * n)\n"
                  "print('hashlib' in sys.modules)\n"
                  "serialize.digest('x' * (n + 1))\n"
                  "print('hashlib' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_a_build_without_the_c_modules_writes_and_hashes_alike():
    # None in sys.modules makes an import raise ImportError, so serialize
    # falls back to hashlib's SHA-256 and json's pure-Python quoting
    text = _TEXTS["model-L40"]()
    done = python(
        "-S", "-c",
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "sys.modules['_json'] = None\n"
        "import hashlib, json\n"
        "from pbrlab import serialize\n"
        "assert serialize._sha256 is hashlib.sha256\n"
        "assert serialize._quote is json.encoder.py_encode_basestring_ascii\n"
        "doc = json.loads(sys.stdin.read())\n"
        "print(serialize.digest(serialize.dumps_canonical(doc)))", input=text)
    assert done.returncode == 0, done.stderr
    assert done.stdout == hashlib.sha256(text.encode()).hexdigest() + "\n"
