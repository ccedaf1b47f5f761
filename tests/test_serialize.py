"""`dumps_canonical` writes the bytes of `json.dumps(indent=2, sort_keys=True)`
for a JSON document, whose keys are strings; a `Formatted` dump is written
as the value it was dumped from."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrlab.serialize import Formatted, dumps_canonical


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_DOCS)
def test_dumps_canonical_is_json_dumps(doc):
    assert dumps_canonical(doc) == _plain(doc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_DOCS)
def test_formatted_is_written_in_place(doc):
    text = Formatted(dumps_canonical(doc))
    assert dumps_canonical(text) == _plain(doc)
    assert (dumps_canonical({"a": text, "b": [1]})
            == _plain({"a": doc, "b": [1]}))
    assert (dumps_canonical({"a": {"b": {"c": text}}, "d": [{"e": text}]})
            == _plain({"a": {"b": {"c": doc}}, "d": [{"e": doc}]}))


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
