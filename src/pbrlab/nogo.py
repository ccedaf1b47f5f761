"""Mechanical verification of the two-state no-go argument.

Encodes "does a preparation-independent, non-contextual response table
reproduce the Born targets for these epistemic states?" as an exact LP
feasibility problem, solves it, audits infeasibility via Farkas
certificates, and derives the direct normalization contradiction for
overlapping supports.

The LP is solved on the quotient lambda-space. Cell (lambda, lambda')
carries the context weights (rho1(lambda), rho2(lambda)) tensor
(rho1(lambda'), rho2(lambda')), so cells whose lambdas lie on the same
projective points [rho1 : rho2] are parallel columns; merging them keeps
feasibility (the parallel-column step of LP presolve, Andersen & Andersen,
Math. Programming 71, 1995). `quotient` classes each lambda by that point,
with one class for the lambdas outside both supports, and builds the same
LP on the K class masses: K^2 + 16 rows. Disjoint supports give K = 2,
uniform rho K = 1, and distinct overlapping weights K = L, where the
quotient is the problem itself. `solve_feasibility` lifts the answer back:

* a witness: each cell copies the response of its class pair;
* a certificate (the tight lift): the 16 Born duals y_B are kept, and each
  cell's normalization dual is -max_i sum_c y_B[i, c] w_cell(c), so every
  column of y^T A is <= 0 by construction; within a class pair the cell
  weights are proportional with factors summing to 1, so y^T b is never
  below the quotient's.

Certificates are therefore over the unreduced rows of ROW_ORDER_NOTE, and
`verify_certificate` audits them on the unreduced problem, which shares no
code with the reduction.
"""

from fractions import Fraction
from math import lcm

from .ontology import (CONTEXTS, EpistemicState, LambdaSpace, ModelError,
                       OntologicalModel, Record, ResponseTable,
                       _over_common_denominator, _require_inputs,
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


class FeasibilityProblem(Record):
    # targets: 4 x 4, rows by context, columns by outcome; A: L^2 + 16 rows
    # of (column, coefficient) pairs.
    __slots__ = ("lambda_size", "rho1", "rho2", "targets", "A", "b",
                 "row_labels")

    @property
    def num_vars(self) -> int:
        return 4 * self.lambda_size ** 2


class FeasibilityOutcome(Record):
    __slots__ = ("feasible", "witness", "certificate")  # either may be None


class ForcingStep(Record):
    # The 1-based outcome, the (j, k) context whose Born target for it
    # vanishes, and the weight rho_j(l*) * rho_k(l*) > 0.
    __slots__ = ("outcome", "context", "weight")


class ContradictionProof(Record):
    # steps: one ForcingStep per outcome; total: the forced sum of the
    # response probabilities at (l*, l*).
    __slots__ = ("lambda_star", "steps", "total")

    @property
    def conclusion(self) -> str:
        return (f"sum of outcome probabilities at (lambda*={self.lambda_star}, "
                f"lambda*={self.lambda_star}) is forced to {self.total}, "
                "but normalization requires 1")


class NoOverlap(Record):
    """Returned when the supports are disjoint and the argument does not bite."""
    __slots__ = ()


def _var(i: int, lam: int, lamp: int, L: int) -> int:
    return (i * L + lam) * L + lamp


def build_feasibility(r1: EpistemicState, r2: EpistemicState,
                      targets) -> FeasibilityProblem:
    _require_inputs(r1, r2, r1.size, targets)
    return _build(r1, r2, targets)


def _build(r1, r2, targets) -> FeasibilityProblem:
    """build_feasibility's LP, for inputs already validated."""
    L = r1.size
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


def lambda_classes(r1: EpistemicState, r2: EpistemicState) -> tuple:
    """The class of each lambda, numbered in order of first appearance:
    lambdas share a class when (rho1, rho2) at them are proportional, i.e.
    lie on one projective point [a : b], keyed a / (a + b); every lambda
    outside both supports falls in one class, keyed None."""
    index = {}
    return tuple(index.setdefault(Fraction(a, a + b) if a + b else None,
                                  len(index))
                 for a, b in zip(r1.weights, r2.weights))


def quotient(p: FeasibilityProblem) -> tuple:
    """(classes, q): the class of each lambda, and the LP built on the
    class masses. With one lambda per class the classes are the identity
    and q is p itself."""
    classes = lambda_classes(p.rho1, p.rho2)
    K = max(classes) + 1
    if K == p.lambda_size:
        return classes, p
    masses = ([Fraction(0)] * K, [Fraction(0)] * K)
    for kappa, a, b in zip(classes, p.rho1.weights, p.rho2.weights):
        masses[0][kappa] += a
        masses[1][kappa] += b
    # The class masses are sums of p's validated weights.
    return classes, _build(EpistemicState(tuple(masses[0])),
                           EpistemicState(tuple(masses[1])), p.targets)


def solve_feasibility(p: FeasibilityProblem) -> FeasibilityOutcome:
    """Decide p on its quotient and lift the witness or certificate to p."""
    classes, q = quotient(p)
    result = solve_equalities(q.A, q.b, q.num_vars)
    if not result.feasible:
        y = result.certificate
        if q is not p:
            y = _tight_lift(p, y[-16:])
        return FeasibilityOutcome(feasible=False, witness=None, certificate=y)
    K = q.lambda_size
    # One object per distinct value, so validate_model's cell memo, keyed
    # on entry identity, checks each distinct cell once.
    shared = {}
    x = [shared.setdefault(v, v) for v in result.witness]
    table = tuple(tuple(tuple(x[_var(i, kappa, kappa_p, K)]
                              for kappa_p in classes)
                        for kappa in classes)
                  for i in range(4))
    return FeasibilityOutcome(feasible=True, witness=ResponseTable(table),
                              certificate=None)


def _tight_lift(p: FeasibilityProblem, born_duals) -> tuple:
    """A certificate for p from the 16 Born duals of one for its quotient:
    the same Born duals, and on cell (lambda, lambda') the normalization
    dual -max_i sum_c y_B[i, c] rho_j(lambda) rho_k(lambda').

    With rho over one denominator d (a(lambda) = d (rho1, rho2)(lambda))
    and y_B over another, e (Y_i[j][k] = e y_B[i, (j, k)]), that sum is
    a(lambda)^T Y_i a(lambda') / (d^2 e); v_i(lambda) = a(lambda)^T Y_i is
    computed once per lambda, so a cell costs four 2-term dot products."""
    scaled, d = _over_common_denominator(p.rho1.weights + p.rho2.weights)
    L = p.lambda_size
    # Born row 4 i + c holds outcome i in context c: 11, 12, 21, 22.
    Y, e = _over_common_denominator(born_duals)
    den = d * d * e
    zero = Fraction(0)
    a = list(zip(scaled[:L], scaled[L:]))
    norm = []
    for a1, a2 in a:
        if not (a1 or a2):
            norm.extend([zero] * L)
            continue
        v = [(a1 * Y[r] + a2 * Y[r + 2], a1 * Y[r + 1] + a2 * Y[r + 3])
             for r in range(0, 16, 4)]
        norm.extend(Fraction(-max(v1 * b1 + v2 * b2 for v1, v2 in v), den)
                    if b1 or b2 else zero for b1, b2 in a)
    return tuple(norm) + tuple(born_duals)


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
