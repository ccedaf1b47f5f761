"""Finite hidden-variable models: the check of a whole model, the
product-form prediction rule, and seeded Monte Carlo sampling.

Every number is exact: response entries, like the weights and targets
`values` checks, are ints or Fractions, compared with no tolerance, since
the no-go argument turns on probabilities that are exactly 0.
`validate_model` reports any other value, a float or a bool included.
`check_report` and `sample_report` are the reports of `pbr check` and
`pbr sample`.
"""

from fractions import Fraction

from .serialize import fmt_frac
from .values import (CONTEXTS, ModelError, OntologicalModel, OutcomeCounts,
                     _check_distribution, _exact, _joined, _not_exact,
                     _over_common_denominator, _show, _shown,
                     _target_complaints)

# random.random() returns k / 2**53 for an integer k in [0, 2**53).
_RANDOM_SCALE = 1 << 53

# Recorded in sample reports so third parties can reproduce counts.
PRNG_NAME = "mersenne-twister (python random.Random)"


def _cell_complaints(cell) -> tuple:
    """What is wrong with one cell's 4 outcome probabilities, as (1-based
    outcome, text) pairs; outcome 0 stands for the row sum."""
    out = []
    for i, v in enumerate(cell):
        if not _exact(v):
            out.append((i + 1, f"= {_not_exact(v)}"))
        elif v < 0 or v > 1:
            out.append((i + 1, f"= {_show(v)} outside [0, 1]"))
    if all(map(_exact, cell)):
        row_sum = sum(cell)
        if row_sum != 1:
            out.append((0, f"sum to {_show(row_sum)}, "
                           f"deficit {_show(1 - row_sum)}"))
    return tuple(out)


def _table_complaints(p, L, checked, clean) -> list:
    """What is wrong with one response table, or None if it is not shaped
    4 x L x L. `checked` maps each cell seen, keyed by its 4 entries' ids
    (which live as long as the model; 1/2 and 0.5 never share one), to its
    complaints: a table repeats a few cells, so each is checked once.
    `clean` holds the ids of the 4 rows of each lambda found clean: a table
    repeats a few rows, so only a lambda of new rows, or of rows holding a
    complaint, is walked cell by cell."""
    if len(p) != 4 or any(len(p[i]) != L or any(len(row) != L for row in p[i])
                          for i in range(len(p))):
        return None
    report = []
    for lam, rows in enumerate(zip(*p)):
        row_ids = tuple(map(id, rows))
        if row_ids in clean:
            continue
        found = len(report)
        for lamp, cell in enumerate(zip(*rows)):
            key = tuple(map(id, cell))
            if key not in checked:
                checked[key] = _cell_complaints(cell)
            for outcome, text in checked[key]:
                where = (f"response[{outcome}][{lam}][{lamp}]" if outcome else
                         f"response rows at (lambda={lam}, lambda'={lamp})")
                report.append(f"{where} {text}")
        if len(report) == found:
            clean.add(row_ids)
    return report


def validate_model(m: OntologicalModel) -> list:
    """Every violated invariant, with indices; empty list iff the model is
    valid. A contextual model's complaints start with the context of the
    table they concern ("context 12: "). Complaints about the shared rho and
    targets carry the context of the first table checked with them: the
    rho complaints come first, the target complaints after the first table
    shaped 4 x L x L, and not at all if no table is."""
    if len(m.response) not in (1, len(CONTEXTS)):
        return ["response needs one table, or one per context"]
    prefixes = ([f"context {j}{k}: " for j, k in CONTEXTS] if m.contextual
                else [""])
    L = m.lambda_space.size
    if L < 1:
        return [f"{prefixes[0]}lambda space size must be >= 1, got {L}"]
    shared = []
    _check_distribution("rho1", m.rho1.weights, L, shared)
    _check_distribution("rho2", m.rho2.weights, L, shared)
    report = [prefixes[0] + line for line in shared]
    targets = _target_complaints(m.born_targets)
    checked, clean = {}, set()
    for prefix, table in zip(prefixes, m.response):
        lines = _table_complaints(table.p, L, checked, clean)
        if lines is None:
            report.append(f"{prefix}response table is not shaped 4 x L x L")
            continue
        report.extend(prefix + line for line in lines)
        report.extend(prefix + line for line in targets)
        targets = []
    return report


def _require_valid(m):
    report = validate_model(m)
    if report:
        raise ModelError("invalid model: " + _joined(report))


def predict(m: OntologicalModel, context) -> tuple:
    """Outcome distribution for the (j, k) preparation: the response table
    averaged against the product weighting rho_j(lambda) * rho_k(lambda')."""
    _require_valid(m)
    return _predict(m, context)


def _row_sums(b, row) -> dict:
    """Denominator of v -> sum of b * num(v) over the row's entries v."""
    sums = {}
    for b_lamp, v in zip(b, row):
        num, den = v.as_integer_ratio()
        if num and b_lamp:
            sums[den] = sums.get(den, 0) + b_lamp * num
    return sums


def _predict(m: OntologicalModel, context) -> tuple:
    """`predict` for a model the caller has validated."""
    planes = m.table(context).p
    j, k = context
    rj = (m.rho1 if j == 1 else m.rho2).weights
    rk = (m.rho1 if k == 1 else m.rho2).weights
    # With rho_j = a / dj and rho_k = b / dk, a component is
    # sum(a * b * v) / (dj * dk). The integer products a * b * num(v) are
    # summed per denominator of v, so a table of a few distinct entries
    # costs a few Fraction additions per component. Each distinct row's
    # sums of b * num(v) are taken once, keyed by its id: the model keeps
    # the row alive for the call.
    a, dj = _over_common_denominator(rj)
    b, dk = _over_common_denominator(rk)
    row_sums = {}
    out = []
    for plane in planes:
        sums = {}  # denominator of v -> sum of a * b * num(v)
        for a_lam, row in zip(a, plane):
            if a_lam:
                by_den = row_sums.get(id(row))
                if by_den is None:
                    by_den = row_sums[id(row)] = _row_sums(b, row)
                for den, num in by_den.items():
                    sums[den] = sums.get(den, 0) + a_lam * num
        total = Fraction(0)
        for den, num in sums.items():
            total += Fraction(num, den)
        out.append(total / (dj * dk))
    return tuple(out)


def _cdf(weights) -> list:
    """Cumulative sums of `weights`, each sum acc stored as the integer
    ceil(acc * 2**53): random() returns k / 2**53 for an integer k, and
    k / 2**53 < acc iff k < ceil(acc * 2**53)."""
    acc, out = 0, []
    for w in weights:
        acc = acc + w
        num, den = acc.as_integer_ratio()
        out.append(-(-num * _RANDOM_SCALE // den))
    return out


def sample(m: OntologicalModel, context, n: int, seed: int) -> OutcomeCounts:
    """Monte Carlo: lambda ~ rho_j, lambda' ~ rho_k, outcome ~ response.
    Deterministic for a fixed seed. The model is validated first. Each trial
    draws three random() values, for lambda, lambda' and the outcome, and
    takes the first index whose cumulative weight exceeds each: a valid
    distribution's thresholds are sorted and end at 2**53, so that index has
    positive weight. A cell's CDF depends only on its entries: one per entry
    tuple. Of the commands, only `sample` loads `random`."""
    _require_valid(m)
    if n < 0:
        raise ModelError(f"trial count must be >= 0, got {n}")
    import random
    from bisect import bisect_right
    p = m.table(context).p
    j, k = context
    rng = random.Random(seed)

    def pick(cdf):
        return bisect_right(cdf, int(rng.random() * _RANDOM_SCALE))
    cdf_j = _cdf((m.rho1 if j == 1 else m.rho2).weights)
    cdf_k = _cdf((m.rho1 if k == 1 else m.rho2).weights)
    cells, shared = {}, {}  # outcome CDFs by (lambda, lambda'), by entry ids
    counts = [0, 0, 0, 0]
    for _ in range(n):
        lam = pick(cdf_j)
        lamp = pick(cdf_k)
        cdf = cells.get((lam, lamp))
        if cdf is None:
            cell = [plane[lam][lamp] for plane in p]
            ids = tuple(map(id, cell))
            cdf = cells[lam, lamp] = shared[ids] = shared.get(ids) or _cdf(cell)
        counts[pick(cdf)] += 1
    return OutcomeCounts(counts=tuple(counts), n=n, seed=seed)


def chi_square_statistic(counts: OutcomeCounts, probs) -> float:
    """Pearson statistic of observed counts against predicted probabilities.
    Zero-probability cells are skipped; a count landing there is impossible
    for a valid model and flagged as infinity."""
    stat = 0.0
    for obs, p in zip(counts.counts, probs):
        expected = float(p) * counts.n
        if expected == 0.0:
            if obs:
                return float("inf")
            continue
        stat += (obs - expected) ** 2 / expected
    return stat


def check_report(m: OntologicalModel) -> tuple:
    """(inputs, payload, human lines) of `pbr check` for `m`, the model's
    JSON document aside; the payload's `valid` says whether it is."""
    violations = _shown(validate_model(m))
    lines = ["model is invalid:" if violations else "model is valid"]
    lines += [f"  {v}" for v in violations]
    return {}, {"valid": not violations, "violations": violations}, lines


def parse_context(s: str):
    """The (j, k) context spelled "jk", or ModelError."""
    spellings = [f"{j}{k}" for j, k in CONTEXTS]
    if s not in spellings:
        raise ModelError(f"context must be one of {', '.join(spellings)}; "
                         f"got {s!r}")
    return CONTEXTS[spellings.index(s)]


def sample_report(m: OntologicalModel, context, n: int, seed: int) -> tuple:
    """(inputs, payload, human lines) of `pbr sample`, the model's JSON
    document aside: `n` trials in `context` from `seed`, their counts
    against the prediction."""
    counts = sample(m, context, n, seed)
    predicted = _predict(m, context)
    stat = f"{chi_square_statistic(counts, predicted):.6g}"
    name = f"{context[0]}{context[1]}"
    shown = list(map(fmt_frac, predicted))
    payload = {"generator": PRNG_NAME,
               "counts": list(counts.counts),
               "predicted": shown,
               "frequencies": [float(f"{c / n:.6g}") if n else 0.0
                               for c in counts.counts],
               "chi_square": float(stat)}
    lines = [f"context {name}, n = {n}, seed = {seed}",
             f"generator: {PRNG_NAME}",
             "counts:    " + " ".join(map(str, counts.counts)),
             "predicted: " + " ".join(shown),
             f"chi-square: {stat}"]
    return {"context": name, "n": n, "seed": seed}, payload, lines
