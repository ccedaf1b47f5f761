"""Exact phase-1 simplex over the rationals, in integer arithmetic.

Decides feasibility of {A x = b, x >= 0} with Bland's anti-cycling rule.
Feasible systems yield a witness x; infeasible ones yield a Farkas
certificate y with y^T A <= 0 and y^T b > 0, both exact Fractions.

A comes as sparse rows: each row is an iterable of (column, coefficient)
pairs over its nonzeros, coefficients int or Fraction, columns in
range(n). The tableau is row-sparse and fraction-free: each row is a
{column: numerator} dict over its nonzeros, its artificial variable
included, with its right-hand side numerator kept apart and one positive
denominator for the whole row. The reduced-cost row is kept the same way.
Every entry equals the Fraction a Fraction tableau would hold there, so
the pivots are the same; only the witness and the certificate are turned
into Fractions.

A pivot touches only the rows with a nonzero in the entering column, and
entries that cancel to zero are dropped. Bland's rule reads absent entries
as zero: the entering column is the smallest j with negative reduced cost,
and the leaving row has the smallest ratio, ties to the smallest basis
index. Ratios are compared by cross-multiplying, so no division is done.
"""

from fractions import Fraction
from math import gcd, lcm

from .values import Record


class SimplexResult(Record):
    # witness: x >= 0 with A x = b, when feasible; certificate: a Farkas y
    # over the rows, when infeasible; the other is None.
    __slots__ = ("feasible", "witness", "certificate")


def solve_equalities(A, b, n: int) -> SimplexResult:
    m = len(A)
    if len(b) != m:
        raise ValueError("inconsistent system dimensions")

    # Put each row over one denominator (the lcm of its entries' and its
    # right-hand side's) and make b nonnegative; remember which rows were
    # flipped so the certificate can be mapped back to the original
    # orientation. The row's numerators then have no common factor with it.
    flipped = [b[r] < 0 for r in range(m)]
    rows, rhs, den = [], [], []
    for r in range(m):
        pairs = []
        d = b[r].denominator
        for j, a in A[r]:
            if not 0 <= j < n:
                raise ValueError("inconsistent system dimensions")
            if not a:
                continue
            pairs.append((j, a))
            d = lcm(d, a.denominator)
        sign = -1 if flipped[r] else 1
        row = {}
        for j, a in pairs:
            if j in row:
                raise ValueError(f"column {j} appears twice in row {r}")
            row[j] = sign * a.numerator * (d // a.denominator)
        row[n + r] = d  # artificial variable, coefficient d/d = 1
        rows.append(row)
        rhs.append(sign * b[r].numerator * (d // b[r].denominator))
        den.append(d)

    basis = [n + r for r in range(m)]

    # Reduced-cost row for min sum(artificials): cost 1 on artificials,
    # 0 elsewhere, then priced out against the starting basis. Artificials
    # price out to exactly 0, so only original columns get entries. It is
    # kept over the lcm of the row denominators.
    obj_den = lcm(*den)
    obj, obj_rhs = {}, 0
    for row, r_rhs, d in zip(rows, rhs, den):
        scale = obj_den // d
        for j, v in row.items():
            if j < n:
                obj[j] = obj.get(j, 0) - v * scale
        obj_rhs -= r_rhs * scale  # minus the objective value
    obj = {j: v for j, v in obj.items() if v}
    obj_rhs, obj_den = _reduce(obj, obj_rhs, obj_den)

    while True:
        enter = min((j for j, v in obj.items() if v < 0), default=None)
        if enter is None:
            break
        # Bland ratio test: smallest rhs_r / c_r, ties to the smallest basis
        # index. Row r's entries share den[r], which cancels in the ratio.
        leave = None
        for r, row in enumerate(rows):
            c = row.get(enter, 0)
            if c > 0:
                if leave is None:
                    leave, best_rhs, best_c = r, rhs[r], c
                    continue
                lhs, cur = rhs[r] * best_c, best_rhs * c
                if lhs < cur or (lhs == cur and basis[r] < basis[leave]):
                    leave, best_rhs, best_c = r, rhs[r], c
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; system malformed")

        # Dividing the pivot row by its pivot entry c/d makes c the row's
        # denominator, so the pivot entry reads c/c = 1.
        prow = rows[leave]
        prhs, pden = _reduce(prow, rhs[leave], prow[enter])
        rhs[leave], den[leave] = prhs, pden
        for r, row in enumerate(rows):
            f = row.get(enter)
            if f and r != leave:
                rhs[r], den[r] = _eliminate(row, rhs[r], den[r], f,
                                            prow, prhs, pden)
        f = obj.get(enter)
        if f:
            obj_rhs, obj_den = _eliminate(obj, obj_rhs, obj_den, f,
                                          prow, prhs, pden)
        basis[leave] = enter

    if obj_rhs < 0:
        # Dual of the phase-1 optimum: artificial column n+r has cost 1,
        # so its reduced cost is 1 - y_r.
        y = []
        for r in range(m):
            yr = Fraction(obj_den - obj.get(n + r, 0), obj_den)
            y.append(-yr if flipped[r] else yr)
        return SimplexResult(feasible=False, witness=None, certificate=tuple(y))

    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rhs[r], den[r])
    return SimplexResult(feasible=True, witness=tuple(x), certificate=None)


def _eliminate(row: dict, row_rhs: int, row_den: int, f: int,
               prow: dict, prhs: int, pden: int) -> tuple:
    """row -= (f / row_den) * prow, in place, where prow's entry in the
    entering column is 1 (pden / pden). Over row_den * pden the new
    numerators are row * pden - f * prow; entries that cancel are dropped.
    Returns the new (rhs numerator, denominator), reduced with the row."""
    if pden != 1:
        for j in row:
            row[j] *= pden
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]
    return _reduce(row, row_rhs * pden - f * prhs, row_den * pden)


def _reduce(row: dict, row_rhs: int, row_den: int) -> tuple:
    """Divide the row's numerators, in place, its rhs numerator and its
    positive denominator by their gcd; returns the new (rhs, denominator)."""
    g = gcd(row_den, row_rhs, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        row_rhs //= g
        row_den //= g
    return row_rhs, row_den
