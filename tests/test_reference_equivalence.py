"""pbrlab's validation, sampling, interval slices and exact prediction
against the straightforward versions in tests/reference_ontology.py: same
reports (for noncontextual and contextual models), same seeded counts, same
tables and interval models, same predictions, value for value and type for
type."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ontology as ref
from pbrlab.contextual import _interval_slice, build_interval_model
from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.nogo import build_feasibility, solve_feasibility, witness_model
from pbrlab.ontology import (EpistemicState, LambdaSpace, OntologicalModel,
                             ResponseTable, _cdf, _predict, sample,
                             validate_model)
from pbrlab.serialize import model_from_json, model_to_json

# Equal values of different types (1/2, 0.5, 1, True), entries a hair
# inside and outside [0, 1], and entries well outside it. Models built in
# Python can hold floats and bools, which both validations must report as
# not exact, alike.
ENTRIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4),
           Fraction(1, 3), Fraction(-1, 4), Fraction(3, 2), 0, 1,
           0.0, 1.0, 0.5, 0.25, -0.0, 1 + 5e-10, -5e-10, 1 + 2e-9, -2e-9,
           0.1, 0.2, 0.7, 1.5, True, False)


def _table(cells, L):
    """4 x L x L planes from L*L cells of 4 entries each."""
    return ResponseTable(tuple(
        tuple(tuple(cells[lam * L + lamp][i] for lamp in range(L))
              for lam in range(L))
        for i in range(4)))


@st.composite
def _misshapen(draw, table):
    """`table` with one plane too few or too many, a plane one row short,
    or a row one entry short."""
    p = list(table.p)
    i = draw(st.integers(0, 3))
    how = draw(st.sampled_from(("plane", "extra-plane", "row", "entry")))
    if how == "plane":
        del p[i]
    elif how == "extra-plane":
        p.append(p[i])
    elif how == "row":
        p[i] = p[i][:-1]
    else:
        p[i] = (p[i][0][:-1],) + p[i][1:]
    return ResponseTable(tuple(p))


@st.composite
def _models(draw, contextual=False):
    """A noncontextual model, or a contextual one whose four tables draw on
    the same cells and are each mis-shaped or not."""
    L = draw(st.integers(1, 4))
    entry = st.sampled_from(ENTRIES)
    # a few distinct cells, so the table repeats some of them
    pool = draw(st.lists(st.tuples(entry, entry, entry, entry),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        # the same values as a pooled cell, as floats: only the types differ
        pool.append(tuple(float(v) for v in pool[0]))
    tables = []
    for _ in range(4 if contextual else 1):
        cells = draw(st.lists(st.sampled_from(pool), min_size=L * L,
                              max_size=L * L))
        table = _table(cells, L)
        if contextual and draw(st.booleans()):
            table = draw(_misshapen(table))
        tables.append(table)
    rho = st.lists(entry, min_size=L, max_size=L).map(EpistemicState)
    targets = born_targets()
    if draw(st.booleans()):
        row = draw(st.integers(0, 3))
        targets = tuple(tuple(draw(entry) for _ in range(4)) if c == row else r
                        for c, r in enumerate(targets))
    return OntologicalModel(
        lambda_space=LambdaSpace(L),
        rho1=draw(st.one_of(rho, st.just(EpistemicState.uniform(L)))),
        rho2=draw(st.one_of(rho, st.just(EpistemicState.uniform(L)))),
        response=tuple(tables), born_targets=targets)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_models())
def test_validation_reports_match_reference(m):
    assert validate_model(m) == ref.validate_model(ref.slice_model(m, 0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_models(contextual=True))
def test_contextual_validation_reports_match_reference(m):
    assert validate_model(m) == ref.validate_contextual(m)


@st.composite
def _exact_distribution(draw, size):
    """Fractions with zeros, summing to 1."""
    ints = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)
                .filter(any))
    return tuple(Fraction(i, sum(ints)) for i in ints)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sample_counts_match_reference(data):
    L = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(_exact_distribution(4), min_size=L * L,
                               max_size=L * L))
    m = OntologicalModel(
        lambda_space=LambdaSpace(L),
        rho1=EpistemicState(data.draw(_exact_distribution(L))),
        rho2=EpistemicState(data.draw(_exact_distribution(L))),
        response=(_table(cells, L),), born_targets=born_targets())
    assert validate_model(m) == []
    context = data.draw(st.sampled_from(CONTEXTS))
    seed = data.draw(st.integers(0, 2 ** 32))
    n = data.draw(st.integers(0, 300))
    assert sample(m, context, n, seed) == ref.sample(ref.slice_model(m, 0),
                                                     context, n, seed)


QUARTERS = tuple(Fraction(k, 4) for k in range(5))


@st.composite
def _quarter_cell(draw):
    """4 of the shared entry objects in QUARTERS, summing to 1."""
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0, 4 - a))
    c = draw(st.integers(0, 4 - a - b))
    return tuple(QUARTERS[k] for k in (a, b, c, 4 - a - b - c))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_sample_counts_match_reference_on_shared_entries(data):
    """Tables whose cells share entry objects, as a built or loaded model's
    do: four contextual tables drawn from one small pool of cells made of
    shared entries, a copy of a pooled cell with equal values in distinct
    objects, and sometimes the model written and read back, which shares
    one object per distinct literal."""
    L = data.draw(st.integers(1, 5))
    pool = data.draw(st.lists(_quarter_cell(), min_size=2, max_size=5))
    pool.append(tuple(Fraction(v.numerator, v.denominator) for v in pool[0]))
    tables = tuple(_table(data.draw(st.lists(st.sampled_from(pool),
                                             min_size=L * L, max_size=L * L)), L)
                   for _ in CONTEXTS)
    m = OntologicalModel(
        lambda_space=LambdaSpace(L),
        rho1=EpistemicState(data.draw(_exact_distribution(L))),
        rho2=EpistemicState(data.draw(_exact_distribution(L))),
        response=tables, born_targets=born_targets())
    if data.draw(st.booleans()):
        m = model_from_json(model_to_json(m))
    assert validate_model(m) == []
    c = data.draw(st.integers(0, 3))
    seed = data.draw(st.integers(0, 2 ** 32))
    n = data.draw(st.integers(0, 400))
    assert sample(m, CONTEXTS[c], n, seed) == ref.sample(
        ref.slice_model(m, c), CONTEXTS[c], n, seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_exact_thresholds_decide_random_draws(data):
    """k / 2**53 < acc iff k < T for every integer k, i.e.
    (T - 1) / 2**53 < acc <= T / 2**53, for each cumulative sum acc."""
    weights = data.draw(_exact_distribution(data.draw(st.integers(1, 8))))
    acc = 0
    for w, t in zip(weights, _cdf(weights)):
        acc += w
        assert Fraction(t - 1, 2 ** 53) < acc <= Fraction(t, 2 ** 53)


def _types(planes):
    return [type(v) for plane in planes for row in plane for v in row]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_interval_slice_matches_reference(data):
    L = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        rho_j = data.draw(_exact_distribution(L))
        rho_k = data.draw(_exact_distribution(L))
    else:
        # weights of either sign, not normalised: the slice does not check rho
        weights = st.lists(st.fractions(-1, 2, max_denominator=6),
                           min_size=L, max_size=L)
        rho_j, rho_k = data.draw(weights), data.draw(weights)
    targets = data.draw(_exact_distribution(4))
    got = _interval_slice(targets, rho_j, rho_k).p
    want = ref.interval_slice(targets, [a * b for a in rho_j for b in rho_k]).p
    assert got == want
    assert _types(got) == _types(want)


@st.composite
def _mixed_distribution(draw, size):
    """Fractions over different denominators, zeros included, summing to 1;
    sometimes a point mass held as the int 1 or Fraction(1) among int or
    Fraction zeros."""
    if draw(st.booleans()):
        one = draw(st.sampled_from((1, Fraction(1))))
        zero = draw(st.sampled_from((0, Fraction(0))))
        at = draw(st.integers(0, size - 1))
        return tuple(one if i == at else zero for i in range(size))
    w = draw(st.lists(st.fractions(0, 5, max_denominator=9), min_size=size,
                      max_size=size).filter(any))
    return tuple(v / sum(w) for v in w)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_interval_model_matches_reference(data):
    L = data.draw(st.integers(1, 6))
    rho = {1: data.draw(_mixed_distribution(L)),
           2: data.draw(_mixed_distribution(L))}
    targets = born_targets() if data.draw(st.booleans()) else tuple(
        data.draw(_mixed_distribution(4)) for _ in CONTEXTS)
    m = build_interval_model(L, targets, EpistemicState(rho[1]),
                             EpistemicState(rho[2]))
    for table, row, (j, k) in zip(m.response, targets, CONTEXTS):
        want = ref.interval_slice(
            tuple(map(Fraction, row)), [a * b for a in rho[j] for b in rho[k]]).p
        assert table.p == want
        assert _types(table.p) == _types(want)


def _assert_predictions_match(m):
    for context in CONTEXTS:
        got, want = _predict(m, context), ref.predict(m, context)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_exact_prediction_matches_reference(data):
    L = data.draw(st.integers(1, 5))
    cells = data.draw(st.lists(_mixed_distribution(4), min_size=1, max_size=4))
    tables = tuple(
        _table(data.draw(st.lists(st.sampled_from(cells), min_size=L * L,
                                  max_size=L * L)), L)
        for _ in range(data.draw(st.sampled_from((1, 4)))))
    m = OntologicalModel(
        lambda_space=LambdaSpace(L),
        rho1=EpistemicState(data.draw(_mixed_distribution(L))),
        rho2=EpistemicState(data.draw(_mixed_distribution(L))),
        response=tables, born_targets=born_targets())
    _assert_predictions_match(m)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_witness_prediction_matches_reference(data):
    """LP witnesses of disjoint rho with distinct weights: entries over
    many different denominators."""
    L = data.draw(st.integers(2, 5))
    cut = data.draw(st.integers(1, L - 1))
    w = data.draw(st.lists(st.integers(1, 1000), min_size=L, max_size=L,
                           unique=True))
    r1 = EpistemicState(tuple(Fraction(v, sum(w[:cut])) if i < cut else
                              Fraction(0) for i, v in enumerate(w)))
    r2 = EpistemicState(tuple(Fraction(0) if i < cut else
                              Fraction(v, sum(w[cut:])) for i, v in enumerate(w)))
    problem = build_feasibility(r1, r2, born_targets())
    m = witness_model(problem, solve_feasibility(problem))
    assert validate_model(m) == []
    _assert_predictions_match(m)
