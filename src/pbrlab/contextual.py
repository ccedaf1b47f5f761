"""Preparation-dependent response tables: the constructive counterexample.

A contextual model lets the response probabilities depend on which quantum
states were prepared. The interval builder below makes the strongest
possible witness: identical (maximally overlapping) epistemic states that
still reproduce every Born target exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .ontology import (CONTEXTS, EpistemicState, LambdaSpace, ModelError,
                       OntologicalModel, Record, ResponseTable,
                       _over_common_denominator, _predict, _require_inputs,
                       _require_valid, support_overlap)


class RefutationReport(Record):
    __slots__ = ("born_reproduced", "overlap_mass", "eq2_violated", "verdict")

    @property
    def collapse(self) -> bool:
        return self.born_reproduced and self.eq2_violated


def _interval_slice(targets_row, rho_j, rho_k) -> ResponseTable:
    """Inverse-CDF assignment: cells of widths rho_j[lam] * rho_k[lamp], in
    row-major order, tile [0, 1); outcome i owns the subinterval of length
    targets_row[i]. A cell's row is its overlap with each outcome interval,
    renormalized by its width: a unit row for a cell inside one outcome
    interval, computed overlaps only for a cell straddling a boundary.

    The walk runs on integers: with rho_j = a / dj, rho_k = b / dk and the
    targets t / e, every width a * b * e and bound (t_1 + ... + t_i) * dj * dk
    is a multiple of 1 / (dj * dk * e).

    A lambda whose cells all have positive width and lie inside outcome j's
    interval gets, without a walk over its cells, the table's all-1 row in
    plane j and its all-0 row in the others. Any other row is shared with
    an earlier or a constant row of the same entry objects."""
    a, dj = _over_common_denominator(rho_j)
    b, dk = _over_common_denominator(rho_k)
    t, e = _over_common_denominator(targets_row)
    bounds = [0]
    for q in t:
        bounds.append(bounds[-1] + q * dj * dk)
    zero, one = Fraction(0), Fraction(1)
    units = [tuple((zero, one)[i == j] for i in range(4)) for j in range(4)]
    constant = ((zero,) * len(b), (one,) * len(b))
    unit_rows = [tuple(constant[i == j] for i in range(4)) for j in range(4)]
    row_width = e * sum(b) if all(w > 0 for w in b) else 0
    shared = {tuple(map(id, row)): row for row in constant}  # by entry ids

    planes = ([], [], [], [])
    pos = 0
    j = 0  # the first outcome whose interval ends after pos
    for a_lam in a:
        if a_lam > 0 and row_width:
            lo, hi = pos, pos + a_lam * row_width
            while j < 3 and bounds[j + 1] <= lo:
                j += 1
            if bounds[j] <= lo and hi <= bounds[j + 1]:
                for plane, row in zip(planes, unit_rows[j]):
                    plane.append(row)
                pos = hi
                continue
        cells = []  # per cell of this lambda, the 4 outcome probabilities
        for w in [a_lam * e * b_lamp for b_lamp in b]:
            if w == 0:
                cells.append(units[0])
                continue
            lo, hi = pos, pos + w
            while j < 3 and bounds[j + 1] <= lo:
                j += 1
            if w > 0 and bounds[j] <= lo and hi <= bounds[j + 1]:
                cells.append(units[j])
            else:
                overlaps = [max(0, min(hi, bounds[i + 1]) - max(lo, bounds[i]))
                            for i in range(4)]
                cells.append(tuple(Fraction(x, w) if x else zero
                                   for x in overlaps))
            pos = hi
        for plane, row in zip(planes, zip(*cells)):
            plane.append(shared.setdefault(tuple(map(id, row)), row))
    return ResponseTable(tuple(map(tuple, planes)))


def build_interval_model(L: int, targets, rho1: EpistemicState = None,
                         rho2: EpistemicState = None) -> OntologicalModel:
    """Contextual model reproducing the targets exactly despite full overlap.

    Defaults to uniform epistemic states (overlap mass 1). Supplying rho1
    and rho2 generalizes the construction: each context's cells are widened
    by rho_j(lambda) * rho_k(lambda') before the interval assignment; both
    must be exact distributions over the L hidden states.
    """
    if L < 1:
        raise ModelError(f"lambda space size must be >= 1, got {L}")
    if rho1 is None:
        rho1 = EpistemicState.uniform(L)
    if rho2 is None:
        rho2 = EpistemicState.uniform(L)
    _require_inputs(rho1, rho2, L, targets)
    targets = tuple(tuple(Fraction(q) for q in row) for row in targets)
    rho = {1: rho1, 2: rho2}
    slices = tuple(_interval_slice(targets[c], rho[j].weights, rho[k].weights)
                   for c, (j, k) in enumerate(CONTEXTS))

    return OntologicalModel(lambda_space=LambdaSpace(L), rho1=rho1, rho2=rho2,
                            response=slices, born_targets=targets)


def refutation_report(m: OntologicalModel) -> RefutationReport:
    _require_valid(m)
    reproduced = all(_predict(m, context) == m.born_targets[c]
                     for c, context in enumerate(CONTEXTS))
    overlap = support_overlap(m.rho1, m.rho2)
    eq2_violated = not overlap.disjoint
    if reproduced and eq2_violated:
        verdict = ("collapse: overlapping epistemic states reproduce every "
                   "Born target exactly once the response may depend on the "
                   "prepared states")
    elif not reproduced:
        verdict = "no collapse claim: the model does not reproduce the Born targets"
    else:
        verdict = "no collapse claim: the supports are disjoint"
    return RefutationReport(born_reproduced=reproduced,
                            overlap_mass=overlap.overlap_mass,
                            eq2_violated=eq2_violated, verdict=verdict)
