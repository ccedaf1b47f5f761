from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrlab import contextual
from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.ontology import (EpistemicState, LambdaSpace, ModelError,
                             OntologicalModel, OutcomeCounts, ResponseTable,
                             _predict, chi_square_statistic, predict, sample,
                             support_overlap, validate_model)
from pbrlab.serialize import dumps_canonical, model_to_json
from records import replace


def _uniform_response(L):
    return ResponseTable(tuple(
        tuple(tuple(Fraction(1, 4) for _ in range(L)) for _ in range(L))
        for _ in range(4)))


def _model(L=2, rho1=None, rho2=None, response=None, targets=None):
    return OntologicalModel(
        lambda_space=LambdaSpace(L),
        rho1=rho1 or EpistemicState.uniform(L),
        rho2=rho2 or EpistemicState.uniform(L),
        response=(response or _uniform_response(L),),
        born_targets=targets or born_targets(),
    )


def test_validate_ok():
    assert validate_model(_model()) == []


def test_validate_deficient_row():
    bad = [[[Fraction(1, 4)] * 2 for _ in range(2)] for _ in range(4)]
    bad[0][1][0] = Fraction(3, 20)  # row at (1,0) now sums to 9/10
    report = validate_model(_model(response=ResponseTable(
        tuple(tuple(tuple(r) for r in plane) for plane in bad))))
    assert len(report) == 1
    assert "lambda=1, lambda'=0" in report[0]
    assert "1/10" in report[0]


def test_validate_negative_weight():
    rho = EpistemicState((Fraction(3, 2), Fraction(-1, 2)))
    report = validate_model(_model(rho1=rho))
    assert any("rho1[1] is negative" in line for line in report)


def test_validate_bad_targets():
    report = validate_model(_model(targets=((Fraction(1),) * 4,) * 4))
    assert any("born_targets" in line for line in report)


@pytest.mark.parametrize("weight, cell, target_row", [
    (1.0, (0.0, 0.25, 0.25, 0.5), (0.0, 0.25, 0.25, 0.5)),
    (True, (True, False, False, False), (True, False, False, False)),
], ids=["float", "bool"])
def test_validate_reports_values_that_are_not_exact(weight, cell, target_row):
    m = OntologicalModel(
        lambda_space=LambdaSpace(1), rho1=EpistemicState((weight,)),
        rho2=EpistemicState((weight,)),
        response=(ResponseTable(tuple(((v,),) for v in cell)),),
        born_targets=(target_row,) + born_targets()[1:])
    assert validate_model(m) == (
        [f"{rho}[0] = {weight!r} is not an exact number"
         for rho in ("rho1", "rho2")]
        + [f"response[{i + 1}][0][0] = {v!r} is not an exact number"
           for i, v in enumerate(cell)]
        + [f"born_targets[(1, 1)][outcome {i + 1}] = {q!r} is not an exact "
           "number" for i, q in enumerate(target_row)])
    with pytest.raises(ModelError, match="is not an exact number"):
        predict(m, (1, 1))


def test_predict_single_lambda_copies_targets():
    # L=1: the response column must equal the targets for each context,
    # but a single table cannot match 4 different target rows; use equal rows
    targets = ((Fraction(1, 4),) * 4,) * 4
    m = _model(L=1, targets=targets, response=ResponseTable(
        tuple(((Fraction(1, 4),),) for _ in range(4))))
    for c, ctx in enumerate(CONTEXTS):
        assert predict(m, ctx) == targets[c]


def test_predict_constant_response():
    v = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(0))
    resp = ResponseTable(tuple(
        tuple(tuple(v[i] for _ in range(3)) for _ in range(3))
        for i in range(4)))
    m = _model(L=3, response=resp)
    for ctx in CONTEXTS:
        assert predict(m, ctx) == v


def test_predict_parity_model():
    # outcome determined by (lambda, lambda'): (0,0)->1 (0,1)->2 (1,0)->3 (1,1)->4
    p = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(4)]
    p[0][0][0] = p[1][0][1] = p[2][1][0] = p[3][1][1] = Fraction(1)
    m = _model(response=ResponseTable(
        tuple(tuple(tuple(r) for r in plane) for plane in p)))
    for ctx in CONTEXTS:
        assert predict(m, ctx) == (Fraction(1, 4),) * 4


def test_predict_requires_valid_model():
    bad = _model(rho1=EpistemicState((Fraction(2), Fraction(-1))))
    with pytest.raises(ModelError):
        predict(bad, (1, 1))


rationals = st.integers(min_value=0, max_value=8)


def _distribution(values):
    total = sum(values)
    if total == 0:
        values = [1] + list(values[1:])
        total = sum(values)
    return EpistemicState(tuple(Fraction(v, total) for v in values))


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_support_overlap_symmetric(a, b):
    size = max(len(a), len(b))
    a += [0] * (size - len(a))
    b += [0] * (size - len(b))
    r1, r2 = _distribution(a), _distribution(b)
    o12 = support_overlap(r1, r2)
    o21 = support_overlap(r2, r1)
    assert o12 == o21
    assert (o12.overlap_mass == 0) == o12.disjoint


def test_support_overlap_examples():
    u = EpistemicState.uniform(3)
    assert support_overlap(u, u) == support_overlap(u, u)
    assert support_overlap(u, u).overlap_mass == 1
    assert not support_overlap(u, u).disjoint

    p0 = EpistemicState.point_mass(3, 0)
    p2 = EpistemicState.point_mass(3, 2)
    o = support_overlap(p0, p2)
    assert o.disjoint and o.overlap_mass == 0

    a = EpistemicState((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    b = EpistemicState((Fraction(0), Fraction(1, 2), Fraction(1, 2)))
    o = support_overlap(a, b)
    assert not o.disjoint
    assert o.overlap_mass == Fraction(1, 2)


def test_support_overlap_length_mismatch():
    with pytest.raises(ModelError):
        support_overlap(EpistemicState.uniform(2), EpistemicState.uniform(3))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(rationals, rationals, rationals, rationals),
                min_size=4, max_size=4),
       st.fractions(min_value=0, max_value=1))
def test_predict_linear_in_response(rows, t):
    # mixing two response tables mixes the predictions
    def row_dist(tup):
        total = sum(tup) or 1
        vals = [Fraction(v, total) for v in tup]
        vals[0] += 1 - sum(vals)
        return vals

    L = 2
    cells = [row_dist(r) for r in rows]
    pa = ResponseTable(tuple(
        tuple(tuple(cells[lam * L + lamp][i] for lamp in range(L))
              for lam in range(L)) for i in range(4)))
    pb = _uniform_response(L)
    mixed = ResponseTable(tuple(
        tuple(tuple(t * pa.p[i][x][y] + (1 - t) * pb.p[i][x][y]
                    for y in range(L)) for x in range(L)) for i in range(4)))
    ma, mb, mm = _model(response=pa), _model(response=pb), _model(response=mixed)
    for ctx in CONTEXTS:
        va, vb, vm = predict(ma, ctx), predict(mb, ctx), predict(mm, ctx)
        assert vm == tuple(t * x + (1 - t) * y for x, y in zip(va, vb))
        assert sum(vm) == 1


def test_sample_zero_trials():
    counts = sample(_model(), (1, 1), 0, seed=5)
    assert counts == OutcomeCounts((0, 0, 0, 0), 0, 5)


def test_sample_deterministic_response():
    p = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(4)]
    for x in range(2):
        for y in range(2):
            p[2][x][y] = Fraction(1)  # everything lands on outcome 3
    m = _model(response=ResponseTable(
        tuple(tuple(tuple(r) for r in plane) for plane in p)))
    counts = sample(m, (2, 1), 500, seed=1)
    assert counts.counts == (0, 0, 500, 0)


def test_sample_seed_reproducible():
    m = _model()
    a = sample(m, (1, 2), 2000, seed=42)
    b = sample(m, (1, 2), 2000, seed=42)
    c = sample(m, (1, 2), 2000, seed=43)
    assert a == b
    assert a.counts != c.counts


def test_sample_matches_prediction_tv():
    # shipped example model: the L=2 interval construction, one context
    m = contextual.build_interval_model(2, born_targets())
    m = replace(m, response=(m.table((2, 1)),))
    counts = sample(m, (2, 1), 100_000, seed=42)
    expected = predict(m, (2, 1))
    tv = sum(abs(c / Fraction(100_000) - p)
             for c, p in zip(counts.counts, expected)) / 2
    assert tv < Fraction(1, 100)


def test_chi_square_statistic():
    counts = OutcomeCounts((25, 25, 25, 25), 100, 0)
    assert chi_square_statistic(counts, (Fraction(1, 4),) * 4) == 0.0
    counts = OutcomeCounts((30, 20, 25, 25), 100, 0)
    assert chi_square_statistic(counts, (Fraction(1, 4),) * 4) == pytest.approx(2.0)
    counts = OutcomeCounts((1, 0, 0, 99), 100, 0)
    assert chi_square_statistic(
        counts, (0, 0, 0, 1)) == float("inf")


# Row entries: in range, out of range, and not exact (a float, a bool).
_ROW_ENTRIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 4),
                Fraction(3, 2), 0, 0.5, True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_shared_rows_neither_merge_nor_hide(data):
    """Validation, prediction and serialization work once per row object.
    A model that reuses a few row objects, some of them holding complaints,
    within a plane, across planes and across tables gives what the same
    model gives with every row a fresh tuple."""
    L = data.draw(st.integers(1, 4))
    tables = data.draw(st.sampled_from((1, 4)))
    codes = st.lists(st.integers(0, len(_ROW_ENTRIES) - 1), min_size=L,
                     max_size=L)
    pool = [tuple(_ROW_ENTRIES[c] for c in data.draw(codes))
            for _ in range(data.draw(st.integers(1, 4)))]
    picks = iter(data.draw(st.lists(st.integers(0, len(pool) - 1),
                                    min_size=4 * L * tables,
                                    max_size=4 * L * tables)))
    response = tuple(ResponseTable(tuple(
        tuple(pool[next(picks)] for _ in range(L)) for _ in range(4)))
        for _ in range(tables))
    weights = st.lists(st.integers(0, 3), min_size=L, max_size=L).map(
        lambda w: _distribution([w[0] + 1] + w[1:]))
    shared = OntologicalModel(
        lambda_space=LambdaSpace(L), rho1=data.draw(weights),
        rho2=data.draw(weights), response=response,
        born_targets=born_targets())
    fresh = replace(shared, response=tuple(
        ResponseTable(tuple(tuple(tuple(list(row)) for row in plane)
                            for plane in t.p)) for t in response))
    assert fresh.response[0].p[0][0] is not shared.response[0].p[0][0]

    assert validate_model(shared) == validate_model(fresh)
    for context in CONTEXTS:
        got, want = _predict(shared, context), _predict(fresh, context)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))
    doc = model_to_json(shared)
    assert doc == model_to_json(fresh)
    assert dumps_canonical(doc) == dumps_canonical(model_to_json(fresh))


def test_validation_remembers_no_row_past_its_call():
    """Validation remembers the rows it found clean by their ids for one
    call only: once a model is gone, CPython hands its row's memory, and so
    its id, to the next tuple of that size."""
    L = 5
    rho = EpistemicState.uniform(L)
    for _ in range(10):
        row = (Fraction(1, 4),) * L
        assert validate_model(_model(L, rho, rho, ResponseTable(
            [[row] * L for _ in range(4)]))) == []
        del row
        bad = (Fraction(3, 2),) * L
        assert len(validate_model(_model(L, rho, rho, ResponseTable(
            [[bad] * L for _ in range(4)])))) == 4 * L * L + L * L
