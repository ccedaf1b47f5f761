"""Independent checks of `pbr ... --json` outputs.

This module imports nothing from pbrlab, so a defect in the solver, the
audit or the model code cannot hide itself by also living in the checker.
It rebuilds what it needs from the documented formats:

* the exact Born table (rows by context 11, 12, 21, 22; columns by outcome);
* the no-go LP: rows are the L^2 normalisation rows (lambda-major), then the
  16 Born rows (outcome-major, context-minor); column x[i][lam][lamp] sits at
  index (i*L + lam)*L + lamp.

Every check returns a list of error strings; an empty list means the output
is correct.
"""

from __future__ import annotations

from fractions import Fraction

CONTEXTS = ("11", "12", "21", "22")

# |<xi_i|psi_j psi_k>|^2 for psi_1 = |0>, psi_2 = |+>: rows by context,
# columns by outcome. One zero per row and per column is the theorem's anchor.
BORN = tuple(tuple(Fraction(q) for q in row) for row in (
    ("0", "1/4", "1/4", "1/2"),
    ("1/4", "0", "1/2", "1/4"),
    ("1/4", "1/2", "0", "1/4"),
    ("1/2", "1/4", "1/4", "0"),
))


def frac(s) -> Fraction:
    """Exact numbers cross the CLI boundary as "num/den" strings only."""
    if not isinstance(s, str):
        raise ValueError(f"expected a 'num/den' string, got {s!r}")
    return Fraction(s)


def fracs(xs) -> list:
    return [frac(x) for x in xs]


def _weights(rho: list, j: str) -> list:
    return rho[int(j) - 1]


def predictions(rho: list, table, L: int) -> list:
    """Outcome distribution sum_{lam,lamp} rho_j(lam) rho_k(lamp) p[i][lam][lamp]
    per context; `table(c)` gives the 4 x L x L response used in context c."""
    out = []
    for c, (j, k) in enumerate(CONTEXTS):
        wj, wk = _weights(rho, j), _weights(rho, k)
        p = table(c)
        row = []
        for i in range(4):
            total = Fraction(0)
            for lam in range(L):
                if wj[lam]:
                    total += wj[lam] * sum(wk[lp] * p[i][lam][lp] for lp in range(L))
            row.append(total)
        out.append(tuple(row))
    return out


def _check_response(p, L: int, name: str) -> list:
    errors = []
    if len(p) != 4 or any(len(plane) != L or any(len(r) != L for r in plane)
                          for plane in p):
        return [f"{name}: response is not shaped 4 x {L} x {L}"]
    for lam in range(L):
        for lp in range(L):
            cell = [p[i][lam][lp] for i in range(4)]
            if any(v < 0 for v in cell):
                errors.append(f"{name}: negative probability at ({lam},{lp})")
            if sum(cell) != 1:
                errors.append(f"{name}: outcomes at ({lam},{lp}) sum to {sum(cell)}")
    return errors


def lp_columns(rho: list, L: int):
    """Column-wise rebuild of the no-go LP: for each column, its nonzero
    (row, coefficient) pairs; and the right-hand side b."""
    cols = []
    for i in range(4):
        for lam in range(L):
            for lp in range(L):
                entries = [(lam * L + lp, Fraction(1))]
                for c, (j, k) in enumerate(CONTEXTS):
                    w = _weights(rho, j)[lam] * _weights(rho, k)[lp]
                    if w:
                        entries.append((L * L + 4 * i + c, w))
                cols.append(entries)
    b = [Fraction(1)] * (L * L) + [BORN[c][i] for i in range(4) for c in range(4)]
    return cols, b


def row_labels(L: int) -> list:
    labels = [f"norm lambda={lam} lambda'={lp}" for lam in range(L) for lp in range(L)]
    labels += [f"born outcome={i + 1} context={ctx}" for i in range(4) for ctx in CONTEXTS]
    return labels


def audit_certificate(rho: list, L: int, y: list) -> list:
    """Farkas audit: y^T A <= 0 in every column and y^T b > 0."""
    cols, b = lp_columns(rho, L)
    if len(y) != len(b):
        return [f"certificate has {len(y)} entries for {len(b)} rows"]
    errors = []
    for col, entries in enumerate(cols):
        if sum(y[r] * a for r, a in entries) > 0:
            errors.append(f"certificate: y^T A > 0 in column {col}")
            break
    if sum(yr * br for yr, br in zip(y, b)) <= 0:
        errors.append("certificate: y^T b <= 0")
    return errors


def check_nogo(out: dict, rho: list, L: int) -> list:
    """`pbr nogo --json` for the pair rho = [rho1, rho2] (Fractions over L)."""
    errors = []
    if [fracs(out["inputs"]["rho1"]), fracs(out["inputs"]["rho2"])] != rho:
        errors.append("nogo: echoed rho differs from the input file")
    if out["inputs"]["lambda_size"] != L:
        errors.append("nogo: echoed lambda_size differs")
    if [fracs(r) for r in out["inputs"]["targets"]] != [list(r) for r in BORN]:
        errors.append("nogo: targets differ from the Born table")
    disjoint = all(a * b == 0 for a, b in zip(*rho))
    if out["overlap"]["disjoint"] != disjoint:
        errors.append("nogo: overlap.disjoint is wrong")
    if frac(out["overlap"]["overlap_mass"]) != sum(min(a, b) for a, b in zip(*rho)):
        errors.append("nogo: overlap mass is wrong")
    # The theorem: feasible exactly when the supports are disjoint.
    want = "feasible" if disjoint else "infeasible"
    if out["verdict"] != want or out["expected_verdict"] != want:
        errors.append(f"nogo: verdict {out['verdict']!r}, theorem says {want!r}")
    if out["theorem_consistent"] is not True:
        errors.append("nogo: theorem_consistent is not true")

    if out["verdict"] == "infeasible":
        cert = out.get("certificate")
        if cert is None or "witness" in out:
            return errors + ["nogo: infeasible verdict without a lone certificate"]
        if cert["rows"] != row_labels(L):
            errors.append("nogo: certificate rows are not in the documented order")
        if cert["verified"] is not True:
            errors.append("nogo: certificate not marked verified")
        errors += audit_certificate(rho, L, fracs(cert["y"]))
    else:
        wit = out.get("witness")
        if wit is None or "certificate" in out:
            return errors + ["nogo: feasible verdict without a lone witness"]
        p = [[fracs(row) for row in plane] for plane in wit["p"]]
        shape_errors = _check_response(p, L, "witness")
        errors += shape_errors
        if not shape_errors and predictions(rho, lambda c: p, L) != list(BORN):
            errors.append("witness: predictions differ from the Born targets")
        if wit["reproduces_targets"] is not True:
            errors.append("witness: reproduces_targets is not true")
    return errors


def parse_model(doc: dict):
    """(L, rho, per-context response tables) from a contextual model file."""
    L = doc["lambda_size"]
    rho = [fracs(doc["rho1"]), fracs(doc["rho2"])]
    resp = doc["response"]
    if resp["kind"] != "contextual":
        raise ValueError(f"expected a contextual model, got {resp['kind']!r}")
    tables = [[[fracs(row) for row in plane] for plane in resp["p"][ctx]]
              for ctx in CONTEXTS]
    return L, rho, tables


def check_model(doc: dict, L: int) -> list:
    """The interval model: valid tables, exact Born predictions, full overlap."""
    errors = []
    if doc.get("mode") != "exact":
        errors.append("model: mode is not exact")
    if [fracs(r) for r in doc["born_targets"]] != [list(r) for r in BORN]:
        errors.append("model: born_targets differ from the Born table")
    mL, rho, tables = parse_model(doc)
    if mL != L or any(len(r) != L for r in rho):
        return errors + [f"model: not over lambda_size {L}"]
    for r, name in zip(rho, ("rho1", "rho2")):
        if any(w < 0 for w in r) or sum(r) != 1:
            errors.append(f"model: {name} is not a distribution")
    shape_errors = []
    for ctx, t in zip(CONTEXTS, tables):
        shape_errors += _check_response(t, L, f"model context {ctx}")
    errors += shape_errors
    if not shape_errors and predictions(rho, lambda c: tables[c], L) != list(BORN):
        errors.append("model: predictions differ from the Born targets")
    if sum(min(a, b) for a, b in zip(*rho)) != 1:
        errors.append("model: overlap mass is not 1")
    return errors


def check_refute(out: dict, model_file: dict, L: int) -> list:
    """`pbr refute --json --out FILE`: report fields, and the model both in
    stdout and in FILE reproduces the targets with overlap mass 1."""
    errors = []
    if out["model"] != model_file:
        errors.append("refute: --out file differs from the model in stdout")
    if out["inputs"]["lambda_size"] != L:
        errors.append("refute: echoed lambda_size differs")
    for key in ("born_reproduced", "eq2_violated", "collapse"):
        if out[key] is not True:
            errors.append(f"refute: {key} is not true")
    if frac(out["overlap_mass"]) != 1:
        errors.append("refute: reported overlap mass is not 1")
    return errors + check_model(out["model"], L)


def check_check(out: dict, model_file: dict) -> list:
    """`pbr check --json` on a model the benchmark knows to be valid."""
    errors = []
    if out["valid"] is not True or out["violations"] != []:
        errors.append("check: a valid model was not reported valid")
    if out["inputs"]["model"] != model_file:
        errors.append("check: echoed model differs from the file")
    return errors


def check_sample(out: dict, model_file: dict, context: str, n: int, seed: int,
                 predicted) -> list:
    """`pbr sample --json`: counts are a split of n over 4 outcomes, with no
    mass on outcomes the model forbids; `predicted` is the independently
    computed outcome distribution for this context."""
    errors = []
    ins = out["inputs"]
    if (ins["context"], ins["n"], ins["seed"]) != (context, n, seed):
        errors.append("sample: echoed context, n or seed differ")
    if ins["model"] != model_file:
        errors.append("sample: echoed model differs from the file")
    counts = out["counts"]
    if (len(counts) != 4
            or any(not isinstance(c, int) or isinstance(c, bool) or c < 0
                   for c in counts)):
        return errors + ["sample: counts are not 4 nonnegative integers"]
    if sum(counts) != n:
        errors.append(f"sample: counts sum to {sum(counts)}, not n = {n}")
    if fracs(out["predicted"]) != list(predicted):
        errors.append("sample: predicted distribution is wrong")
    if any(c and not q for c, q in zip(counts, predicted)):
        errors.append("sample: a count landed on a zero-probability outcome")
    return errors
