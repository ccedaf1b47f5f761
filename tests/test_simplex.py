import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dense_simplex import dense_solve_equalities, sparse_rows
from pbrlab.simplex import solve_equalities


def _solve(A, b):
    """solve_equalities on the sparse rows of the dense system A."""
    return solve_equalities(sparse_rows(A), b, len(A[0]))


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
    res = _solve(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_infeasible_contradictory_rows():
    A = [[Fraction(1)], [Fraction(1)]]
    b = [Fraction(1), Fraction(2)]
    res = _solve(A, b)
    assert not res.feasible
    _check_certificate(A, b, res.certificate)


def test_infeasible_negative_rhs():
    # x >= 0 cannot reach a negative sum; exercises the row-flip path
    A = [[Fraction(1), Fraction(2)]]
    b = [Fraction(-3)]
    res = _solve(A, b)
    assert not res.feasible
    _check_certificate(A, b, res.certificate)


def test_feasible_negative_coefficients():
    A = [[Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)]]
    b = [Fraction(-2), Fraction(4)]
    res = _solve(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_degenerate_redundant_rows():
    A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    b = [Fraction(1), Fraction(2)]
    res = _solve(A, b)
    assert res.feasible
    _check_witness(A, b, res.witness)


def test_ratio_ties_go_to_the_smallest_basis_index():
    # x0 enters and leaves through row 2; then x1 enters, and rows 0 and 2
    # tie at ratio 0. Row 2's basic variable is x0 and row 0's is its
    # artificial, so Bland's rule takes row 2; taking the first tied row
    # instead ends at the certificate (-1/2, 1, -1/2, 1).
    A = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)],
         [Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    b = [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    res = _solve(A, b)
    assert res == dense_solve_equalities(A, b)
    assert res.certificate == (1, 1, -2, 1)
    _check_certificate(A, b, res.certificate)


def test_dimension_check():
    with pytest.raises(ValueError):
        solve_equalities([[(0, Fraction(1))], [(0, Fraction(1)), (1, Fraction(2))]],
                         [Fraction(1), Fraction(1)], 1)
    with pytest.raises(ValueError):
        solve_equalities([[(0, Fraction(1))]], [Fraction(1), Fraction(1)], 1)
    with pytest.raises(ValueError):
        solve_equalities([[(-1, Fraction(1))]], [Fraction(1)], 1)
    with pytest.raises(ValueError):
        solve_equalities([[(0, Fraction(1)), (0, Fraction(2))]], [Fraction(1)], 1)


def test_int_and_fraction_coefficients_agree():
    # Sparse rows may hold ints: their numerator and denominator are read
    # the same way as a Fraction's.
    A = [[(0, 2), (2, -1)], [(1, Fraction(1, 3)), (2, 1)], [(0, 1), (1, 1)]]
    b = [1, Fraction(1, 2), 2]
    as_fractions = [[(j, Fraction(a)) for j, a in row] for row in A]
    res = solve_equalities(A, b, 3)
    assert res == solve_equalities(as_fractions, [Fraction(v) for v in b], 3)
    assert res.feasible


def test_random_systems_against_scipy():
    rng = random.Random(2024)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        res = _solve(A, b)
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
# The denominators differ within a row, and right-hand sides may be
# fractional too, so a row's common denominator is a real lcm and pivots
# change it.
_SPARSE_ENTRY = st.sampled_from([0] * 10 + [1, -1, 2, -3, Fraction(1, 2),
                                             Fraction(-2, 3), Fraction(3, 4),
                                             Fraction(-5, 6), Fraction(2, 5),
                                             Fraction(1, 7)])
# -b + 1 == b only for b = 1/2, which is not drawn.
_RHS = st.sampled_from(list(range(-3, 4)) + [
    Fraction(-5, 2), Fraction(-2, 3), Fraction(1, 3), Fraction(3, 4),
    Fraction(7, 5), Fraction(5, 6)])


@st.composite
def _sparse_systems(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 25))
    A = [[Fraction(draw(_SPARSE_ENTRY)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(draw(_RHS)) for _ in range(m)]
    # Duplicated rows, with the same right-hand side (redundant) or a
    # conflicting one (-b + 1).
    for _ in range(draw(st.integers(0, 10 - m))):
        r = draw(st.integers(0, m - 1))
        A.append(list(A[r]))
        b.append(draw(st.sampled_from([b[r], b[r], -b[r] + 1])))
    return A, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparse_systems())
def test_sparse_systems_exact_and_against_scipy(system):
    A, b = system
    res = _solve(A, b)
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
