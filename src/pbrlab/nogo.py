"""Mechanical verification of the two-state no-go argument.

Encodes "does a preparation-independent, non-contextual response table
reproduce the Born targets for these epistemic states?" as an exact LP
feasibility problem, solves it and audits infeasibility via Farkas
certificates. The direct normalization contradiction for overlapping
supports, which needs no LP, is derived in `forcing`.

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

Certificates are over the unreduced rows of ROW_ORDER_NOTE, an LP built
only when read: `verify_certificate` audits them from rho and the targets,
and `witness.verify_witness` a lifted witness from rho, the targets and
its table. `report` decides and audits the Born targets' LP for `pbr nogo`.
"""

from fractions import Fraction
from math import lcm

from . import hilbert
from .serialize import _table_to_json, _targets_to_json, fmt_frac
from .simplex import solve_equalities
from .values import (CONTEXTS, EpistemicState, LambdaSpace, ModelError,
                     OntologicalModel, Record, ResponseTable,
                     _over_common_denominator, _require_inputs,
                     support_overlap)

_ONE = Fraction(1)

# Exact pivots grow with the bits of the rho pair's common denominator: each
# tableau entry is a ratio of subdeterminants (Edmonds 1967, Bareiss 1968).
# K = L pairs, bits -> seconds from process start to exit, one run each
# (Python 3.11, 2 vCPUs):
#   L = 7:  24 -> 0.08, 256 -> 0.10-0.15, 669 -> 0.18
#   L = 16: 256 -> 0.13-0.36, 670 -> 0.33, 2,000 -> 3.2; 1,000 digits per
#           weight -> 39
#   L = 32: 207 -> 0.42, 256 -> 0.44-2.1, 672 -> 4.1
#   L = 64: 31 -> 0.77, 75 -> 1.2, 128 -> 3.7, 144 -> 2.0, 207 -> 3.1,
#           256 -> 4.9-10.8
# A pair over a larger denominator is refused before building.
NOGO_MAX_RHO_BITS = 256

# Fixed so certificates compare across runs; x[i][lam][lamp] is _var.
ROW_ORDER_NOTE = ("normalization rows (lambda-major), then Born rows "
                  "(outcome-major, context-minor in order 11,12,21,22); "
                  "columns x[i][lambda][lambda'] outcome-major")


class _Derived(Record):
    __slots__ = ("A", "b", "row_labels")  # set from the fields on first read

    def __getattr__(self, name):  # called while the slot `name` is unset
        if name == "row_labels":
            L = self.lambda_size
            derived = {name: tuple([f"norm lambda={lam} lambda'={lamp}"
                                    for lam in range(L) for lamp in range(L)]
                                   + [f"born outcome={i + 1} context={j}{k}"
                                      for i in range(4) for j, k in CONTEXTS])}
        elif name in ("A", "b"):
            derived = dict(zip("Ab", _build(self)))
        else:
            raise AttributeError(name)
        for key, value in derived.items():
            object.__setattr__(self, key, value)
        return derived[name]


class FeasibilityProblem(_Derived):
    # targets: 4 x 4, rows by context, columns by outcome; a row of A lists
    # its nonzero (column, coefficient) pairs by column, 4 or at most L^2.
    __slots__ = ("lambda_size", "rho1", "rho2", "targets")

    @property
    def num_vars(self) -> int:
        return 4 * self.lambda_size ** 2


class FeasibilityOutcome(Record):
    __slots__ = ("feasible", "witness", "certificate")  # either may be None


def _var(i: int, lam: int, lamp: int, L: int) -> int:
    return (i * L + lam) * L + lamp


def build_feasibility(r1: EpistemicState, r2: EpistemicState,
                      targets) -> FeasibilityProblem:
    _require_inputs(r1, r2, r1.size, targets)
    return FeasibilityProblem(lambda_size=r1.size, rho1=r1, rho2=r2,
                              targets=tuple(tuple(r) for r in targets))


def _build(p: FeasibilityProblem) -> tuple:
    """(A, b): p's LP, in ROW_ORDER_NOTE's order."""
    L = p.lambda_size
    LL = L * L
    A = [((cell, _ONE), (cell + LL, _ONE), (cell + 2 * LL, _ONE),
          (cell + 3 * LL, _ONE)) for cell in range(LL)]
    b = [_ONE] * LL

    # Each context's weights rho_j(lambda) * rho_k(lambda') over the cells
    # lambda * L + lambda' they do not vanish on, shared by its 4 Born rows.
    # With rho = a / d, a weight is the integer a_j * a_k over d^2, and each
    # distinct one is one Fraction: uniform rho has one for all L^2 cells.
    scaled, d = _over_common_denominator(p.rho1.weights + p.rho2.weights)
    a = {1: scaled[:L], 2: scaled[L:]}
    weight = {}  # numerator n -> Fraction(n, d^2)
    products = []
    for j, k in CONTEXTS:
        lamps = [lamp for lamp, n in enumerate(a[k]) if n]
        nums = [n for n in a[k] if n]
        cells, ints = [], []
        for lam, a_lam in enumerate(a[j]):
            if a_lam:
                cells.extend(map((lam * L).__add__, lamps))
                ints.extend(map(a_lam.__mul__, nums))
        for n in set(ints).difference(weight):
            weight[n] = Fraction(n, d * d)
        products.append((cells, list(map(weight.__getitem__, ints))))
    for i in range(4):
        offset = i * LL
        for c, (cells, weights) in enumerate(products):
            A.append(tuple(zip(map(offset.__add__, cells), weights)))
            b.append(Fraction(p.targets[c][i]))
    return tuple(A), tuple(b)


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
    """(classes, q): the class of each lambda, and the problem on the class
    masses; with one lambda per class, q is p itself."""
    classes = lambda_classes(p.rho1, p.rho2)
    K = max(classes) + 1
    if K == p.lambda_size:
        return classes, p
    masses = ([Fraction(0)] * K, [Fraction(0)] * K)
    for kappa, a, b in zip(classes, p.rho1.weights, p.rho2.weights):
        masses[0][kappa] += a
        masses[1][kappa] += b
    # The class masses are sums of p's validated weights.
    return classes, FeasibilityProblem(
        lambda_size=K, rho1=EpistemicState(tuple(masses[0])),
        rho2=EpistemicState(tuple(masses[1])), targets=p.targets)


def solve_feasibility(p: FeasibilityProblem) -> FeasibilityOutcome:
    """Decide p on its quotient and lift the witness or certificate to p."""
    classes, q = quotient(p)
    result = solve_equalities(q.A, q.b, q.num_vars)
    if not result.feasible:
        y = result.certificate
        if q is not p:
            y = _tight_lift(p, y[-16:])
        return FeasibilityOutcome(feasible=False, witness=None, certificate=y)
    # One tuple per row (i, kappa) of the quotient's witness, shared by the
    # lambdas of class kappa: the witness audit and the JSON writer, keyed
    # on identity, take each row and each of its at most 3 entries once
    # (a witness has disjoint supports, so K <= 3).
    x, K = result.witness, q.lambda_size
    rows = [[tuple(x[_var(i, kappa, kappa_p, K)] for kappa_p in classes)
             for kappa in range(K)] for i in range(4)]
    table = tuple(tuple(map(plane.__getitem__, classes)) for plane in rows)
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

    From rho and the targets, not A: with y = Y / e and rho = r / d, e d^2
    times column (i, lambda, lambda') of y^T A is Y_norm d^2 + sum_k u_k
    r_k(lambda'), where u_k = sum_j Y_B[i, (j, k)] r_j(lambda)."""
    L = p.lambda_size
    LL = L * L
    if len(y) != LL + 16:
        raise ModelError(f"certificate has {len(y)} entries for {LL + 16} rows")
    e = lcm(*(v.denominator for v in y))
    Y = [v.numerator * (e // v.denominator) for v in y]
    weights = p.rho1.weights + p.rho2.weights
    d = lcm(*(w.denominator for w in weights))
    r = [w.numerator * (d // w.denominator) for w in weights]
    r1, r2 = r[:L], r[L:]
    norm = list(map((d * d).__mul__, Y[:LL]))
    for lam in range(L):
        cells = norm[lam * L: lam * L + L]
        for c in range(LL, LL + 16, 4):  # one outcome, contexts 11, 12, 21, 22
            u1 = Y[c] * r1[lam] + Y[c + 2] * r2[lam]
            u2 = Y[c + 1] * r1[lam] + Y[c + 3] * r2[lam]
            if any(n + u1 * s1 + u2 * s2 > 0
                   for n, s1, s2 in zip(cells, r1, r2)):
                return False
    t = lcm(*(q.denominator for row in p.targets for q in row))
    return t * sum(Y[:LL]) + sum(
        Y[LL + 4 * i + c] * q.numerator * (t // q.denominator)
        for c, row in enumerate(p.targets) for i, q in enumerate(row)) > 0


def witness_model(p: FeasibilityProblem,
                  outcome: FeasibilityOutcome) -> OntologicalModel:
    """Package a feasible witness as the model `witness.verify_witness`
    audits."""
    if not outcome.feasible:
        raise ModelError("no witness: the problem is infeasible")
    return OntologicalModel(lambda_space=LambdaSpace(p.lambda_size),
                            rho1=p.rho1, rho2=p.rho2, response=(outcome.witness,),
                            born_targets=p.targets)


def theorem_expected_verdict(r1: EpistemicState, r2: EpistemicState) -> bool:
    """The verdict the no-go theorem predicts: feasible iff supports are
    disjoint (for targets carrying one zero per outcome, as here)."""
    return support_overlap(r1, r2).disjoint


def report(L: int, rho) -> tuple:
    """(inputs, payload, human lines) of `pbr nogo` over L hidden states,
    for the (rho1, rho2) pair of a rho file, or uniform rho for None; the
    payload's `theorem_consistent` says whether the verdict agrees with the
    theorem and its certificate or witness checks out. Both audits are
    exact and read rho and the targets, never the LP's rows: a certificate
    by `verify_certificate`, a witness by `witness.verify_witness`, which
    only this branch loads. No `nogo` run loads `ontology`."""
    if rho is None:
        r1 = r2 = EpistemicState.uniform(L)
    else:
        r1, r2 = rho
        if r1.size != L:
            raise ModelError(f"rho file is over L={r1.size}, not {L}")
        d = _over_common_denominator(r1.weights + r2.weights)[1]
        if d.bit_length() > NOGO_MAX_RHO_BITS:
            raise ModelError("the rho pair's common denominator has "
                             f"{d.bit_length()} bits; nogo takes at most "
                             f"{NOGO_MAX_RHO_BITS}")
    targets = hilbert.born_targets()
    problem = build_feasibility(r1, r2, targets)
    outcome = solve_feasibility(problem)
    overlap = support_overlap(r1, r2)
    expect_feasible = theorem_expected_verdict(r1, r2)
    mass = fmt_frac(overlap.overlap_mass)

    inputs = {"lambda_size": L,
              "rho1": list(map(fmt_frac, r1.weights)),
              "rho2": list(map(fmt_frac, r2.weights)),
              "targets": _targets_to_json(targets)}
    payload = {"arithmetic": "exact",
               "row_order": ROW_ORDER_NOTE,
               "overlap": {"disjoint": overlap.disjoint,
                           "overlap_mass": mass},
               "verdict": "feasible" if outcome.feasible else "infeasible",
               "expected_verdict": "feasible" if expect_feasible else "infeasible"}
    lines = [f"lambda_size: {L}",
             f"supports disjoint: {overlap.disjoint} (overlap mass {mass})",
             f"verdict: {payload['verdict']}"]

    if outcome.feasible:
        from .witness import verify_witness
        checked = verify_witness(witness_model(problem, outcome))
        payload["witness"] = {"p": _table_to_json(outcome.witness, {}),
                              "reproduces_targets": checked}
        lines.append(f"witness reproduces targets exactly: {checked}")
    else:
        checked = verify_certificate(problem, outcome.certificate)
        payload["certificate"] = {
            "rows": list(problem.row_labels),
            "y": list(map(fmt_frac, outcome.certificate)),
            "verified": checked}
        lines.append(f"Farkas certificate verifies: {checked}")

    consistent = outcome.feasible == expect_feasible and checked
    payload["theorem_consistent"] = consistent
    lines.append(f"consistent with the no-go theorem: {consistent}")
    return inputs, payload, lines
