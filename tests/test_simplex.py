import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dense_simplex import dense_solve_equalities
from pbrlab.simplex import solve_equalities


def _check_witness(A, b, x):
    assert all(v >= 0 for v in x)
    for row, rhs in zip(A, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs


def _check_certificate(A, b, y):
    n = len(A[0])
    for j in range(n):
        assert sum(y[r] * A[r][j] for r in range(len(A))) <= 0
    assert sum(yr * br for yr, br in zip(y, b)) > 0


def test_feasible_simple():
    A = [[Fraction(1), Fraction(1)]]
    b = [Fraction(1)]
    res = solve_equalities(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_infeasible_contradictory_rows():
    A = [[Fraction(1)], [Fraction(1)]]
    b = [Fraction(1), Fraction(2)]
    res = solve_equalities(A, b)
    assert not res.feasible
    _check_certificate(A, b, res.certificate)


def test_infeasible_negative_rhs():
    # x >= 0 cannot reach a negative sum; exercises the row-flip path
    A = [[Fraction(1), Fraction(2)]]
    b = [Fraction(-3)]
    res = solve_equalities(A, b)
    assert not res.feasible
    _check_certificate(A, b, res.certificate)


def test_feasible_negative_coefficients():
    A = [[Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)]]
    b = [Fraction(-2), Fraction(4)]
    res = solve_equalities(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_degenerate_redundant_rows():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    b = [Fraction(1), Fraction(2)]
    res = solve_equalities(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_dimension_check():
    with pytest.raises(ValueError):
        solve_equalities([[Fraction(1)], [Fraction(1), Fraction(2)]],
                         [Fraction(1), Fraction(1)])


def test_random_systems_against_scipy():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        res = solve_equalities(A, b)
        ref = linprog(c=[0.0] * n,
                      A_eq=[[float(v) for v in row] for row in A],
                      b_eq=[float(v) for v in b],
                      bounds=[(0, None)] * n, method="highs")
        assert res.feasible == ref.success
        if res.feasible:
            _check_witness(A, b, res.witness)
        else:
            _check_certificate(A, b, res.certificate)


# Mostly zeros, with fractions so that pivots fill in and cancel exactly.
_SPARSE_ENTRY = st.sampled_from([0] * 10 + [1, -1, 2, -3, Fraction(1, 2),
                                             Fraction(-2, 3)])


@st.composite
def _sparse_systems(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 25))
    A = [[Fraction(draw(_SPARSE_ENTRY)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(draw(st.integers(-3, 3))) for _ in range(m)]
    # Duplicated rows, with the same right-hand side (redundant) or a
    # conflicting one (-b + 1 differs from b for integer b).
    for _ in range(draw(st.integers(0, 10 - m))):
        r = draw(st.integers(0, m - 1))
        A.append(list(A[r]))
        b.append(draw(st.sampled_from([b[r], b[r], -b[r] + 1])))
    return A, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_systems())
def test_sparse_systems_exact_and_against_scipy(system):
    A, b = system
    res = solve_equalities(A, b)
    assert res == dense_solve_equalities(A, b)  # same Bland pivots
    if res.feasible:
        _check_witness(A, b, res.witness)
    else:
        _check_certificate(A, b, res.certificate)
    ref = linprog(c=[0.0] * len(A[0]),
                  A_eq=[[float(v) for v in row] for row in A],
                  b_eq=[float(v) for v in b],
                  bounds=[(0, None)] * len(A[0]), method="highs")
    assert ref.status in (0, 2)
    assert res.feasible == (ref.status == 0)
