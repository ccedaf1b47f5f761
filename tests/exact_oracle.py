"""Independent oracles for `pbr basis --json` and `pbr contradiction --json`.

This module imports nothing from pbrlab. The `basis` oracle reads each
printed amplitude as a pair (p, q) of Fractions meaning p + q*sqrt2, does
its own arithmetic in Q(sqrt2), and rebuilds the four product preparations
from |0> and |+> = (|0> + |1>)/sqrt2. The `contradiction` oracle reads the
model embedded in the report and re-derives each forcing step from its
weights and Born targets.

Every oracle returns a list of error strings; an empty list means the
output is correct.
"""

from fractions import Fraction

CONTEXTS = ("11", "12", "21", "22")
ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
KET0 = (ONE, ZERO)
KET_PLUS = ((Fraction(0), Fraction(1, 2)),) * 2  # 1/sqrt2 = sqrt2/2


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y):
    # (a + b s)(c + d s) = ac + 2bd + (ad + bc) s   with s^2 = 2
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _dot(u, v):
    total = ZERO
    for x, y in zip(u, v):
        total = _add(total, _mul(x, y))
    return total


def _number(d: dict):
    return (Fraction(int(d["num"]), int(d["den"])),
            Fraction(int(d["snum"]), int(d["sden"])))


def _real(entry: dict, where: str, errors: list):
    """The real part of one printed amplitude; a nonzero imaginary part is
    reported."""
    if _number(entry["im"]) != ZERO:
        errors.append(f"{where}: imaginary part is not zero")
    return _number(entry["re"])


def basis_errors(doc: dict) -> list:
    """Complaints about one `pbr basis --json` report."""
    errors = []
    if doc.get("contexts") != list(CONTEXTS):
        errors.append(f"contexts are {doc.get('contexts')}, not {list(CONTEXTS)}")
    effects = [[_real(a, f"effect {i + 1}", errors) for a in e]
               for i, e in enumerate(doc["effects"])]
    if len(effects) != 4 or any(len(e) != 4 for e in effects):
        return errors + ["effects are not 4 vectors of dimension 4"]
    for i, e in enumerate(effects):
        for j, f in enumerate(effects):
            want = ONE if i == j else ZERO
            dot = _dot(e, f)
            if dot != want:
                errors.append(f"<xi_{i + 1}|xi_{j + 1}> is {dot[0]} + "
                              f"{dot[1]}*sqrt2, not {want[0]}")
            g = _real(doc["gram"][i][j], f"gram ({i},{j})", errors)
            if g != want:
                errors.append(f"gram ({i},{j}) is {g}, not {want[0]}")
    if doc["anchors"] != ["0"] * 4:
        errors.append(f"anchors are {doc['anchors']}, not all 0")
    for c, (j, k) in enumerate(CONTEXTS):
        a, b = (KET0 if j == "1" else KET_PLUS), (KET0 if k == "1" else KET_PLUS)
        state = [_mul(x, y) for x in a for y in b]
        for i, e in enumerate(effects):
            overlap = _dot(e, state)
            p, q = _mul(overlap, overlap)
            if q or Fraction(doc["targets"][c][i]) != p:
                errors.append(f"target ({CONTEXTS[c]}, {i + 1}) is "
                              f"{doc['targets'][c][i]}, not {p} + {q}*sqrt2")
    return errors


def contradiction_errors(doc: dict) -> list:
    """Complaints about one `pbr contradiction --json` report of exit 0
    (a forcing proof) or exit 4 (NoOverlap)."""
    model = doc["inputs"]["model"]
    rho = [[Fraction(w) for w in model[key]] for key in ("rho1", "rho2")]
    shared = [lam for lam, (w1, w2) in enumerate(zip(*rho)) if w1 and w2]
    if doc["no_overlap"]:
        return [f"NoOverlap, but rho1 and rho2 share lambda {shared}"] if shared else []
    lam = doc["lambda_star"]
    if lam not in shared:
        return [f"lambda* = {lam} is not in both supports"]
    steps = doc["steps"]
    errors = []
    if sorted(s["outcome"] for s in steps) != [1, 2, 3, 4]:
        errors.append("the steps do not cover outcomes 1-4")
    if sorted(s["context"] for s in steps) != list(CONTEXTS):
        errors.append("the steps do not cover contexts 11, 12, 21, 22")
    if errors:
        return errors
    for s in steps:
        ctx, i = s["context"], s["outcome"]
        target = Fraction(model["born_targets"][CONTEXTS.index(ctx)][i - 1])
        if target != 0:
            errors.append(f"outcome {i} in context {ctx} has Born target "
                          f"{target}, not 0")
        weight = rho[int(ctx[0]) - 1][lam] * rho[int(ctx[1]) - 1][lam]
        if Fraction(s["weight"]) != weight:
            errors.append(f"outcome {i} in context {ctx} has weight "
                          f"{s['weight']}, not {weight}")
    if doc["forced_total"] != "0":
        errors.append(f"forced total is {doc['forced_total']}, not 0")
    return errors
