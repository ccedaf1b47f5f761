"""Independent feasibility oracle for small lambda spaces.

A non-contextual response table is a point of the product of L^2 outcome
simplices, whose vertices are the deterministic tables (each hidden pair
mapped to one outcome). The model reproduces the targets iff the target
vector lies in the convex hull of the vertex-induced prediction vectors;
that membership is itself a small LP over the 4^(L^2) vertex weights. It
is decided by scipy's HiGHS in floating point, so the oracle shares no code
with the exact simplex it cross-checks.
"""

from fractions import Fraction
from itertools import product

from scipy.optimize import linprog

from pbrlab.hilbert import CONTEXTS


def deterministic_predictions(r1, r2):
    """Prediction vector (16 entries, context-major) of every deterministic
    response table over the given epistemic states."""
    L = r1.size
    rho = {1: r1, 2: r2}
    cell_weights = []  # per context, weight of each cell in lambda-major order
    for (j, k) in CONTEXTS:
        cell_weights.append([rho[j].weights[lam] * rho[k].weights[lamp]
                             for lam in range(L) for lamp in range(L)])
    vectors = []
    for assignment in product(range(4), repeat=L * L):
        vec = []
        for c in range(4):
            pred = [Fraction(0)] * 4
            for cell, outcome in enumerate(assignment):
                pred[outcome] += cell_weights[c][cell]
            vec.extend(pred)
        vectors.append(tuple(vec))
    return vectors


def hull_feasible(r1, r2, targets) -> bool:
    """True iff the flattened target vector is a convex combination of the
    deterministic prediction vectors."""
    vertices = deterministic_predictions(r1, r2)
    nv = len(vertices)
    A = [[float(vertices[v][row]) for v in range(nv)] for row in range(16)]
    A.append([1.0] * nv)  # convex weights sum to 1
    b = [float(targets[c][i]) for c in range(4) for i in range(4)]
    b.append(1.0)
    res = linprog(c=[0.0] * nv, A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    if res.status not in (0, 2):  # 0 feasible, 2 infeasible
        raise RuntimeError(f"hull LP undecided: {res.message}")
    return res.status == 0
