"""Dense references for the exact LP: the phase-1 Bland simplex of
pbrlab.simplex on a full Fraction tableau, and the Farkas audit of
pbrlab.nogo on dense Fraction rows. Tests require the sparse integer
solver to return exactly the same witness or certificate, i.e. to make the
same pivots, and the sparse audit to give the same verdict.
"""

from fractions import Fraction

from pbrlab.simplex import SimplexResult


def dense_solve_equalities(A, b) -> SimplexResult:
    m, n = len(A), len(A[0]) if A else 0
    flipped = [Fraction(b[r]) < 0 for r in range(m)]
    rows = []
    for r in range(m):
        s = -1 if flipped[r] else 1
        row = [s * Fraction(x) for x in A[r]] + [Fraction(0)] * m
        row[n + r] = Fraction(1)
        rows.append(row + [s * Fraction(b[r])])
    basis = [n + r for r in range(m)]
    obj = [(1 if j >= n else 0) - sum(row[j] for row in rows)
           for j in range(n + m)] + [-sum(row[-1] for row in rows)]

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r in range(m):
            if rows[r][enter] > 0:
                ratio = rows[r][-1] / rows[r][enter]
                if leave is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for target in rows[:leave] + rows[leave + 1:] + [obj]:
            f = target[enter]
            if f:  # a row with 0 in the entering column stays as it is
                target[:] = [x - f * y for x, y in zip(target, rows[leave])]
        basis[leave] = enter

    if obj[-1] < 0:
        y = [(1 - obj[n + r]) * (-1 if flipped[r] else 1) for r in range(m)]
        return SimplexResult(False, None, tuple(y))
    x = [Fraction(0)] * n
    for r, var in enumerate(basis):
        if var < n:
            x[var] = rows[r][-1]
    return SimplexResult(True, tuple(x), None)


def dense_verify_certificate(A, b, y) -> bool:
    """y^T A <= 0 columnwise and y^T b > 0 over dense Fraction rows."""
    cols = [Fraction(0)] * (len(A[0]) if A else 0)
    for yr, row in zip(y, A):
        if yr:
            for col, a in enumerate(row):
                if a:
                    cols[col] += yr * a
    if any(c > 0 for c in cols):
        return False
    return sum(yr * br for yr, br in zip(y, b)) > 0


def sparse_rows(A) -> tuple:
    """Dense rows as the (column, coefficient) pairs of their nonzeros."""
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in A)


def densify(A, n: int) -> list:
    """Sparse (column, coefficient) rows as dense Fraction rows of length n."""
    dense = []
    for pairs in A:
        row = [Fraction(0)] * n
        for j, a in pairs:
            row[j] = Fraction(a)
        dense.append(row)
    return dense
