"""`reader.load_json_file` parses with `reader.loads`, which runs json's C
scanner without importing `json`: it must read every text as `json.loads`
does, and refuse every other text with the same error line as when it
called `json.loads`."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh import python
from pbrlab import reader
from pbrlab.values import ModelError

LONG_INTEGER = "[" + "9" * 4301 + "]"
DEEP = "[" * 100_000 + "]" * 100_000
# Texts json refuses: empty, a BOM, extra data, a bad escape or control
# character, cut short inside a value, an integer longer than int() reads,
# nesting too deep.
MALFORMED = ["", "\ufeff{}", "1 2", '"\\x"', '"\x01"', '{"a\x01": 1}',
             '{"a": [1, 2', '{"a": 1', "[1, 2", '{"a"', "{", '"abc',
             '{"mode": "exact"', LONG_INTEGER, DEEP]


def json_loads_reader(text: str):
    """What `load_json_file` did with `json.loads`: the parsed text, or
    ModelError with the text of json's error, or of `_json_int`'s for an
    integer longer than int() reads."""
    try:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:
            json.loads(text, parse_int=reader._json_int)
            raise
    except (ValueError, RecursionError) as e:
        raise ModelError(str(e)) from e


def outcome(read, arg):
    """("value", repr of the result), or ("error", the ModelError's text).
    repr tells 1, 1.0 and True apart, and NaN from a NaN of another object,
    which == does not."""
    try:
        return "value", repr(read(arg))
    except ModelError as e:
        return "error", str(e)


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12)
# json skips the first four around a value, and not the others
_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\u2003", max_size=3)


@st.composite
def texts(draw):
    """A JSON document, perhaps cut short, with a BOM, white space or data
    of any kind around it."""
    text = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 2])))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    text = draw(_SPACE) + text + draw(_SPACE)
    if draw(st.booleans()):
        text += draw(st.sampled_from(["x", "1", "[]", "{}", ",", "\ufeff",
                                      "NaN", '"']))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=texts())
@example(text="")
@example(text="NaN")
@example(text=" [Infinity, -Infinity, NaN]\n")
@example(text="\ufeff{}")
@example(text="1 2")
@example(text='"\\x"')
@example(text='"\x01"')
@example(text=LONG_INTEGER)
@example(text=DEEP)
def test_reader_reads_as_json_loads(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reader.json"
    path.write_bytes(text.encode())
    assert (outcome(reader.load_json_file, str(path))
            == outcome(json_loads_reader, text))


# Without json's C module, json falls back to its Python scanner, whose
# errors read differently, and so does the reader.
_FALLBACK = """import sys
sys.modules["_json"] = None
import json
sys.path.insert(0, {tests!r})
from pbrlab import reader
from test_json_reader import json_loads_reader, outcome
texts = json.loads(sys.stdin.read())
paths = [f"{{i}}.json" for i in range(len(texts))]
for path, text in zip(paths, texts):
    with open(path, "wb") as fh:
        fh.write(text.encode())
print(json.dumps({{
    "scanner": type(reader._scanner(int)).__name__,
    "differ": [text[:40] for path, text in zip(paths, texts)
               if outcome(reader.load_json_file, path)
               != outcome(json_loads_reader, text)]}}))
"""


def test_reader_without_the_c_scanner_reads_as_json_loads(tmp_path):
    samples = ["NaN", " [Infinity, -Infinity, NaN]\n",
               '{"a": [1, 2.5, "\xe9"]} ', "[" * 50 + "]" * 50, *MALFORMED]
    done = python("-c",
                  _FALLBACK.format(tests=str(Path(__file__).resolve().parent)),
                  input=json.dumps(samples), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    # json's Python scanner is a function, its C scanner a Scanner
    assert json.loads(done.stdout) == {"scanner": "function", "differ": []}


# Before Python 3.12 json's C scanner raises an error inside a value as
# json.decoder's error, which it finds only if json.decoder is imported:
# pytest has imported it here, `pbr` never does.
@pytest.mark.parametrize("text", MALFORMED, ids=map(str, range(len(MALFORMED))))
def test_a_malformed_file_exits_2_in_a_process_without_json(tmp_path, text):
    path = tmp_path / "malformed.json"
    path.write_bytes(text.encode())
    done = python("-S", "-m", "pbrlab.cli", "check", "--model", str(path))
    kind, message = outcome(json_loads_reader, text)
    assert kind == "error"
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {message}\n")
