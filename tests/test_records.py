"""The immutable value records: every class built on values.Record is
immutable, compares and hashes by value, and checks its fields when built."""

import copy
import pickle

import pytest

from pbrlab.contextual import RefutationReport
from pbrlab.forcing import ContradictionProof, ForcingStep, NoOverlap
from pbrlab.hilbert import MeasurementBasis, PureState
from pbrlab.nogo import FeasibilityOutcome, FeasibilityProblem
from pbrlab.values import (EpistemicState, LambdaSpace, OntologicalModel,
                           OutcomeCounts, Record, ResponseTable,
                           SupportOverlap)
from pbrlab.simplex import SimplexResult
from records import replace

RECORDS = (LambdaSpace, EpistemicState, ResponseTable, OntologicalModel,
           SupportOverlap, OutcomeCounts, FeasibilityProblem,
           FeasibilityOutcome, ForcingStep, ContradictionProof, NoOverlap,
           SimplexResult, PureState, MeasurementBasis, RefutationReport)
FIELDS = {cls: cls.__slots__ for cls in RECORDS}


def _values(cls, offset=0):
    return tuple(range(offset, offset + len(FIELDS[cls])))


def test_every_value_class_is_a_slotted_record():
    for cls in RECORDS:
        assert issubclass(cls, Record)
        assert not hasattr(cls(*_values(cls)), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_set_added_or_deleted(cls):
    r = cls(*_values(cls))
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(r, name, -1)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) == FIELDS[cls].index(name)
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_built_by_position_or_keyword_alike(cls):
    by_position = cls(*_values(cls))
    by_keyword = cls(**dict(zip(FIELDS[cls], _values(cls))))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(getattr(by_keyword, n) for n in FIELDS[cls]) == _values(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_and_hash_by_value(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if FIELDS[cls]:
        c = cls(*_values(cls, offset=1))
        assert a != c
    assert a != _values(cls)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in zip(FIELDS[cls], _values(cls))) + ")"


def test_records_of_different_classes_are_unequal():
    for cls in RECORDS:
        for other in RECORDS:
            if other is not cls and len(FIELDS[other]) == len(FIELDS[cls]):
                assert cls(*_values(cls)) != other(*_values(other))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_missing_extra_unknown_or_repeated_fields_raise_type_error(cls):
    values = _values(cls)
    if values:
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{FIELDS[cls][0]: 0})
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copy_pickle_and_replace_keep_the_value(cls):
    r = cls(*_values(cls))
    assert copy.copy(r) == r and copy.deepcopy(r) == r
    assert pickle.loads(pickle.dumps(r)) == r
    assert replace(r) == r
    if FIELDS[cls]:
        name = FIELDS[cls][-1]
        changed = replace(r, **{name: -1})
        assert getattr(changed, name) == -1 and getattr(r, name) != -1
    with pytest.raises(TypeError):
        replace(r, no_such_field=0)
