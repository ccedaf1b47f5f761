"""Mechanical verification of the two-state no-go argument.

Encodes "does a preparation-independent, non-contextual response table
reproduce the Born targets for these epistemic states?" as an exact LP
feasibility problem, solves it, audits infeasibility via Farkas
certificates, and derives the direct normalization contradiction for
overlapping supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ontology import (CONTEXTS, EpistemicState, LambdaSpace, ModelError,
                       OntologicalModel, ResponseTable, _require_inputs,
                       support_overlap)
from .simplex import solve_equalities

_ONE = Fraction(1)

# Row order: the L^2 normalization rows (lambda-major), then the 16 Born
# rows (outcome-major, context-minor). Column order: variable x[i][lam][lamp]
# at ((i-1)*L + lam)*L + lamp. Fixed so certificates compare across runs.
# A row lists only its nonzero coefficients, by increasing column: a
# normalization row has 4, a Born row at most L^2.
ROW_ORDER_NOTE = ("normalization rows (lambda-major), then Born rows "
                  "(outcome-major, context-minor in order 11,12,21,22); "
                  "columns x[i][lambda][lambda'] outcome-major")


@dataclass(frozen=True)
class FeasibilityProblem:
    lambda_size: int
    rho1: EpistemicState
    rho2: EpistemicState
    targets: tuple          # 4x4, rows by context, cols by outcome
    A: tuple                # L^2 + 16 rows of (column, coefficient) pairs
    b: tuple
    row_labels: tuple

    @property
    def num_vars(self) -> int:
        return 4 * self.lambda_size ** 2


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    witness: ResponseTable | None
    certificate: tuple | None


@dataclass(frozen=True)
class ForcingStep:
    outcome: int     # 1-based
    context: tuple   # (j, k) whose Born target vanishes
    weight: Fraction  # rho_j(l*) * rho_k(l*), strictly positive


@dataclass(frozen=True)
class ContradictionProof:
    lambda_star: int
    steps: tuple  # one ForcingStep per outcome
    total: Fraction  # forced sum of response probabilities at (l*, l*)

    @property
    def conclusion(self) -> str:
        return (f"sum of outcome probabilities at (lambda*={self.lambda_star}, "
                f"lambda*={self.lambda_star}) is forced to {self.total}, "
                "but normalization requires 1")


@dataclass(frozen=True)
class NoOverlap:
    """Returned when the supports are disjoint and the argument does not bite."""


def _var(i: int, lam: int, lamp: int, L: int) -> int:
    return (i * L + lam) * L + lamp


def build_feasibility(r1: EpistemicState, r2: EpistemicState,
                      targets) -> FeasibilityProblem:
    L = r1.size
    _require_inputs(r1, r2, L, targets)
    A, b, labels = [], [], []

    for lam in range(L):
        for lamp in range(L):
            A.append(tuple((_var(i, lam, lamp, L), _ONE) for i in range(4)))
            b.append(_ONE)
            labels.append(f"norm lambda={lam} lambda'={lamp}")

    # Each context's weights rho_j(lambda) * rho_k(lambda') over the cells
    # lambda * L + lambda' they do not vanish on, shared by its 4 Born rows.
    rho = {1: r1.weights, 2: r2.weights}
    products = []
    for j, k in CONTEXTS:
        cells = []
        for lam, wj in enumerate(rho[j]):
            if wj:
                cells.extend((lam * L + lamp, wj * wk)
                             for lamp, wk in enumerate(rho[k]) if wk)
        products.append(cells)
    for i in range(4):
        offset = i * L * L
        for c, (j, k) in enumerate(CONTEXTS):
            A.append(tuple((offset + cell, w) for cell, w in products[c]))
            b.append(Fraction(targets[c][i]))
            labels.append(f"born outcome={i + 1} context={j}{k}")

    return FeasibilityProblem(lambda_size=L, rho1=r1, rho2=r2,
                              targets=tuple(tuple(r) for r in targets),
                              A=tuple(A), b=tuple(b), row_labels=tuple(labels))


def solve_feasibility(p: FeasibilityProblem) -> FeasibilityOutcome:
    result = solve_equalities(p.A, p.b, p.num_vars)
    if not result.feasible:
        return FeasibilityOutcome(feasible=False, witness=None,
                                  certificate=result.certificate)
    L = p.lambda_size
    x = result.witness
    table = tuple(tuple(tuple(x[_var(i, lam, lamp, L)] for lamp in range(L))
                        for lam in range(L))
                  for i in range(4))
    return FeasibilityOutcome(feasible=True, witness=ResponseTable(table),
                              certificate=None)


def verify_certificate(p: FeasibilityProblem, y) -> bool:
    """Independent Farkas audit: y^T A <= 0 columnwise and y^T b > 0,
    all exact. True iff y proves {Ax = b, x >= 0} unsolvable.

    y is put over one common denominator, and the rows y uses over
    another, so each column sum is a sum of integer products over the
    nonzeros; both denominators are positive, so its sign is the sign
    of the exact column of y^T A."""
    if len(y) != len(p.A):
        raise ModelError(f"certificate has {len(y)} entries for {len(p.A)} rows")
    y_den = lcm(*(yr.denominator for yr in y))
    used = [(r, yr.numerator * (y_den // yr.denominator))
            for r, yr in enumerate(y) if yr]
    a_den = lcm(*{a.denominator for r, _ in used for _, a in p.A[r]})
    cols = {}
    for r, yr in used:
        for col, a in p.A[r]:
            cols[col] = cols.get(col, 0) + yr * a.numerator * (a_den // a.denominator)
    if any(c > 0 for c in cols.values()):
        return False
    b_den = lcm(*(p.b[r].denominator for r, _ in used))
    return sum(yr * p.b[r].numerator * (b_den // p.b[r].denominator)
               for r, yr in used) > 0


def witness_model(p: FeasibilityProblem,
                  outcome: FeasibilityOutcome) -> OntologicalModel:
    """Package a feasible witness for validation and prediction checks."""
    if not outcome.feasible:
        raise ModelError("no witness: the problem is infeasible")
    return OntologicalModel(lambda_space=LambdaSpace(p.lambda_size),
                            rho1=p.rho1, rho2=p.rho2, response=(outcome.witness,),
                            born_targets=p.targets)


def derive_contradiction(m: OntologicalModel):
    """The direct argument: at any lambda* carried by both epistemic states,
    each outcome's zero-target context forces its response probability to
    vanish, so the four probabilities cannot sum to 1.

    Returns a ContradictionProof, or NoOverlap() when the supports are
    disjoint. Noncontextual models only: a response that may depend on the
    prepared states escapes the argument.
    """
    if m.contextual:
        raise ModelError("the forcing argument applies to noncontextual models")

    zero_contexts = []
    for i in range(1, 5):
        ctx = next((c for c in CONTEXTS if m.target(i, c) == 0), None)
        if ctx is None:
            raise ModelError(
                f"outcome {i} has no context with Born target exactly 0; "
                "the forcing argument does not apply")
        zero_contexts.append(ctx)

    overlap = support_overlap(m.rho1, m.rho2)
    if overlap.disjoint:
        return NoOverlap()

    rho = {1: m.rho1, 2: m.rho2}
    lam_star = next(i for i, (w1, w2) in
                    enumerate(zip(m.rho1.weights, m.rho2.weights)) if w1 * w2 > 0)
    steps = []
    for i, (j, k) in enumerate(zero_contexts, start=1):
        weight = rho[j].weights[lam_star] * rho[k].weights[lam_star]
        steps.append(ForcingStep(outcome=i, context=(j, k), weight=weight))
    return ContradictionProof(lambda_star=lam_star, steps=tuple(steps),
                              total=Fraction(0))


def theorem_expected_verdict(r1: EpistemicState, r2: EpistemicState) -> bool:
    """The verdict the no-go theorem predicts: feasible iff supports are
    disjoint (for targets carrying one zero per outcome, as here)."""
    return support_overlap(r1, r2).disjoint
