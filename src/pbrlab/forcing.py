"""The direct forcing argument of the two-state no-go theorem
(`derive_contradiction`), and the report of `pbr contradiction`.

`nogo` decides the same question as an exact LP. The forcing argument
needs neither that LP nor the simplex, and only `contradiction` loads it.
"""

from fractions import Fraction

from . import ontology
from .serialize import fmt_frac, model_to_json
from .values import (CONTEXTS, NONCONTEXTUAL_ONLY, ModelError,
                     OntologicalModel, Record, support_overlap)


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


def derive_contradiction(m: OntologicalModel):
    """The direct argument: at any lambda* carried by both epistemic states,
    each outcome's zero-target context forces its response probability to
    vanish, so the four probabilities cannot sum to 1.

    Returns a ContradictionProof, or NoOverlap() when the supports are
    disjoint. Noncontextual models only: a response that may depend on the
    prepared states escapes the argument.
    """
    if m.contextual:
        raise ModelError(NONCONTEXTUAL_ONLY)

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


def report(model: OntologicalModel, with_json: bool) -> tuple:
    """(inputs, payload, human lines) of `pbr contradiction` for `model`,
    which must be valid; the payload's `no_overlap` says whether the
    argument applies. The inputs hold the model's JSON document only
    `with_json`."""
    ontology._require_valid(model)
    result = derive_contradiction(model)

    inputs = {"model": model_to_json(model) if with_json else None}
    if isinstance(result, NoOverlap):
        return inputs, {"no_overlap": True}, [
            "supports are disjoint: the forcing argument does not apply "
            "(NoOverlap)"]

    payload = {
        "no_overlap": False,
        "lambda_star": result.lambda_star,
        "steps": [{"outcome": s.outcome,
                   "context": f"{s.context[0]}{s.context[1]}",
                   "weight": fmt_frac(s.weight)} for s in result.steps],
        "forced_total": fmt_frac(result.total),
        "conclusion": result.conclusion,
    }
    lines = [f"overlap point lambda* = {result.lambda_star}"]
    for s in result.steps:
        lines.append(
            f"  outcome {s.outcome}: Born target 0 in context "
            f"{s.context[0]}{s.context[1]} with weight {fmt_frac(s.weight)} > 0 "
            f"forces P(xi_{s.outcome}|lambda*,lambda*) = 0")
    lines.append(result.conclusion)
    return inputs, payload, lines
