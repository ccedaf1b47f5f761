"""The exact audit of a `nogo` witness, from rho, the targets and the
response table alone.

A witness is a noncontextual model: one response table, used in every
preparation context. `verify_witness` checks that it reproduces the Born
targets, as `nogo.verify_certificate` checks a certificate: apart from the
builder, the quotient, the lift and the simplex, and without the LP's rows
or the model checks of `ontology`. Only `nogo.report`'s feasible branch
imports this module.
"""

from math import lcm
from operator import mul

from .values import CONTEXTS, _exact


def verify_witness(m) -> bool:
    """True iff `m`'s response is one table shaped 4 x L x L whose entries
    are exact numbers >= 0 (ints or Fractions, not bools), whose 4 entries
    sum to 1 in each cell (lambda, lambda'), and whose prediction in each
    context (j, k), the sum over cells of rho_j(lambda) rho_k(lambda')
    p[i][lambda][lambda'], is its Born target. Entries <= 1 follow. rho and
    the targets are the problem's, which `nogo.build_feasibility` checked.

    All in integers. With rho = r / d over one denominator and a row of a
    plane over its own, D (its entries n / D), outcome i's prediction in
    context (j, k) is sum over rows R of (sum of r_j(lambda) over the
    lambdas whose row is R) (n_R . r_k) / (D_R d^2). Each distinct entry
    and row object is converted once, and the cells of each distinct quad
    of rows, one per plane, are checked once: a lifted witness repeats one
    row per class of lambdas."""
    L = m.lambda_space.size
    rho1, rho2 = m.rho1.weights, m.rho2.weights
    if len(m.response) != 1 or len(rho1) != L or len(rho2) != L:
        return False
    planes = m.response[0].p
    if len(planes) != 4 or any(len(plane) != L for plane in planes):
        return False
    d = lcm(*(w.denominator for w in rho1 + rho2))
    r1 = [w.numerator * (d // w.denominator) for w in rho1]
    r2 = [w.numerator * (d // w.denominator) for w in rho2]
    ratios = {}  # id of each entry -> its (numerator, denominator)
    rows = {}  # id of each row -> (D, its numerators n over D, (n.r1, n.r2))

    def convert(row):
        if len(row) != L:
            return None
        pairs = []
        for v in row:
            pair = ratios.get(id(v))
            if pair is None:
                if not _exact(v) or v < 0:
                    return None
                pair = ratios[id(v)] = v.as_integer_ratio()
            pairs.append(pair)
        D = lcm(*(den for _, den in pairs))
        nums = [num * (D // den) for num, den in pairs]
        rows[id(row)] = out = (D, nums, (sum(map(mul, nums, r1)),
                                         sum(map(mul, nums, r2))))
        return out

    masses = {}  # ids of the 4 rows of a lambda -> [sum of r1, sum of r2]
    for lam, quad in enumerate(zip(*planes)):
        key = tuple(map(id, quad))
        mass = masses.get(key)
        if mass is None:  # new rows: check their cells
            got = [rows.get(k) or convert(row) for k, row in zip(key, quad)]
            if None in got:
                return False
            M = lcm(*(D for D, _, _ in got))
            scaled = [[n * (M // D) for n in nums] for D, nums, _ in got]
            if any(sum(cell) != M for cell in zip(*scaled)):
                return False
            mass = masses[key] = [0, 0]
        mass[0] += r1[lam]
        mass[1] += r2[lam]

    dd = d * d
    for i in range(4):
        M = lcm(*(rows[key[i]][0] for key in masses))
        for (j, k), targets in zip(CONTEXTS, m.born_targets):
            total = 0
            for key, mass in masses.items():
                D, _, dots = rows[key[i]]
                total += mass[j - 1] * dots[k - 1] * (M // D)
            t = targets[i]
            if total * t.denominator != t.numerator * dd * M:
                return False
    return True
