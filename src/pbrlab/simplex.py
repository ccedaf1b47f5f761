"""Exact phase-1 simplex over the rationals.

Decides feasibility of {A x = b, x >= 0} with Fraction arithmetic and
Bland's anti-cycling rule. Feasible systems yield a witness x; infeasible
ones yield a Farkas certificate y with y^T A <= 0 and y^T b > 0, both exact.

The tableau is row-sparse: each row is a {column: coefficient} dict over
its nonzeros, its artificial variable included, with the right-hand side
kept apart. A pivot touches only the rows with a nonzero in the entering
column, and entries that cancel to zero are dropped. Bland's rule reads
absent entries as zero, so it picks the same pivots as on a dense tableau:
the entering column is the smallest j with negative reduced cost, and the
leaving row has the smallest ratio, ties to the smallest basis index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SimplexResult:
    feasible: bool
    witness: tuple | None      # x >= 0 with A x = b, when feasible
    certificate: tuple | None  # Farkas y over the rows, when infeasible


def solve_equalities(A, b) -> SimplexResult:
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent system dimensions")

    # Make b nonnegative; remember which rows were flipped so the
    # certificate can be mapped back to the original orientation.
    flipped = [Fraction(b[r]) < 0 for r in range(m)]
    rows, rhs = [], []
    for r in range(m):
        sign = -1 if flipped[r] else 1
        row = {j: sign * Fraction(x) for j, x in enumerate(A[r]) if x}
        row[n + r] = Fraction(1)  # artificial variable
        rows.append(row)
        rhs.append(sign * Fraction(b[r]))

    basis = [n + r for r in range(m)]

    # Reduced-cost row for min sum(artificials): cost 1 on artificials,
    # 0 elsewhere, then priced out against the starting basis. Artificials
    # price out to exactly 0, so only original columns get entries.
    obj = {}
    for row in rows:
        for j, v in row.items():
            if j < n:
                obj[j] = obj.get(j, 0) - v
    obj = {j: v for j, v in obj.items() if v}
    obj_rhs = -sum(rhs)  # minus the objective value

    while True:
        enter = min((j for j, v in obj.items() if v < 0), default=None)
        if enter is None:
            break
        # Bland ratio test: smallest ratio, ties to the smallest basis index.
        leave = None
        best = None
        for r, row in enumerate(rows):
            coef = row.get(enter, 0)
            if coef > 0:
                ratio = rhs[r] / coef
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave is None:
            raise RuntimeError("phase-1 objective unbounded; system malformed")

        piv = rows[leave][enter]
        prow = {j: v / piv for j, v in rows[leave].items()}
        prhs = rhs[leave] / piv
        rows[leave], rhs[leave] = prow, prhs
        for r, row in enumerate(rows):
            f = row.get(enter)
            if f and r != leave:
                _subtract_multiple(row, f, prow)
                rhs[r] -= f * prhs
        f = obj.get(enter)
        if f:
            _subtract_multiple(obj, f, prow)
            obj_rhs -= f * prhs
        basis[leave] = enter

    if obj_rhs < 0:
        # Dual of the phase-1 optimum: artificial column n+r has cost 1,
        # so its reduced cost is 1 - y_r.
        y = []
        for r in range(m):
            yr = 1 - obj.get(n + r, Fraction(0))
            y.append(-yr if flipped[r] else yr)
        return SimplexResult(feasible=False, witness=None, certificate=tuple(y))

    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = rhs[r]
    return SimplexResult(feasible=True, witness=tuple(x), certificate=None)


def _subtract_multiple(row: dict, f, prow: dict) -> None:
    """row -= f * prow, in place, dropping entries that cancel to zero."""
    for j, v in prow.items():
        x = row.get(j, 0) - f * v
        if x:
            row[j] = x
        else:
            del row[j]
