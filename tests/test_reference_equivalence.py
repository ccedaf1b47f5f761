"""pbrlab's validation, sampling and interval slices against the
straightforward versions in tests/reference_ontology.py: same reports
(for noncontextual and contextual models), same seeded counts, same
tables, value for value and type for type."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_ontology as ref
from pbrlab.contextual import _interval_slice
from pbrlab.hilbert import CONTEXTS, born_targets
from pbrlab.ontology import (EpistemicState, LambdaSpace, OntologicalModel,
                             ResponseTable, _cdf, sample, validate_model)

# Equal values of different types (1/2, 0.5), entries just inside and just
# outside the float tolerance, and entries outside [0, 1].
ENTRIES = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4),
           Fraction(1, 3), Fraction(-1, 4), Fraction(3, 2), 0, 1,
           0.0, 1.0, 0.5, 0.25, -0.0, 1 + 5e-10, -5e-10, 1 + 2e-9, -2e-9,
           0.1, 0.2, 0.7, 1.5)


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
    mode = draw(st.sampled_from(("exact", "float")))
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
        mode=mode, lambda_space=LambdaSpace(L),
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


@st.composite
def _float_distribution(draw, size):
    """Floats that sum to 1 up to round-off; sometimes a weight of -1e-10
    offset by its neighbour, which float mode's tolerance allows."""
    w = [float(x) for x in draw(_exact_distribution(size))]
    if size > 1 and draw(st.booleans()):
        w[0] -= 1e-10
        w[1] += 1e-10
    return tuple(w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_sample_counts_match_reference(data):
    L = data.draw(st.integers(1, 5))
    mode = data.draw(st.sampled_from(("exact", "float")))
    dist = _exact_distribution if mode == "exact" else _float_distribution
    cells = data.draw(st.lists(dist(4), min_size=L * L, max_size=L * L))
    m = OntologicalModel(
        mode=mode, lambda_space=LambdaSpace(L),
        rho1=EpistemicState(data.draw(dist(L))),
        rho2=EpistemicState(data.draw(dist(L))),
        response=(_table(cells, L),), born_targets=born_targets())
    assume(not validate_model(m))
    context = data.draw(st.sampled_from(CONTEXTS))
    seed = data.draw(st.integers(0, 2 ** 32))
    n = data.draw(st.integers(0, 300))
    assert sample(m, context, n, seed) == ref.sample(ref.slice_model(m, 0),
                                                     context, n, seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_exact_thresholds_decide_random_draws(data):
    """k / 2**53 < acc iff k < T for every integer k, i.e.
    (T - 1) / 2**53 < acc <= T / 2**53, for each cumulative sum acc."""
    weights = data.draw(_exact_distribution(data.draw(st.integers(1, 8))))
    acc = 0
    for w, t in zip(weights, _cdf(weights, exact=True)):
        acc += w
        assert Fraction(t - 1, 2 ** 53) < acc <= Fraction(t, 2 ** 53)


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
    widths = [a * b for a in rho_j for b in rho_k]
    targets = data.draw(_exact_distribution(4))
    got = _interval_slice(targets, widths).p
    want = ref.interval_slice(targets, widths).p
    assert got == want
    assert [type(v) for plane in got for row in plane for v in row] == \
        [type(v) for plane in want for row in plane for v in row]
