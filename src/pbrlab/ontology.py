"""Finite hidden-variable models: lambda spaces, epistemic states,
response tables, the product-form prediction rule, support overlap,
and seeded Monte Carlo sampling.

Every number is exact: weights, response entries and targets are ints or
Fractions, compared with no tolerance, since the no-go argument turns on
probabilities that are exactly 0. `validate_model` reports any other value,
a float or a bool included.
"""

import math
from fractions import Fraction

# random.random() returns k / 2**53 for an integer k in [0, 2**53).
_RANDOM_SCALE = 1 << 53

# Recorded in sample reports so third parties can reproduce counts.
PRNG_NAME = "mersenne-twister (python random.Random)"


# Preparation contexts (j, k): which of the two named states each qubit got.
CONTEXTS = ((1, 1), (1, 2), (2, 1), (2, 2))


class ModelError(ValueError):
    """Raised when an operation receives an invalid model."""


class StateError(ValueError):
    """Raised for unnormalized states, dimension mismatches and unknown
    contexts."""


def context_index(context) -> int:
    try:
        return CONTEXTS.index(tuple(context))
    except ValueError:
        raise StateError(f"unknown context {context!r}; expected one of {CONTEXTS}")


class Record:
    """An immutable value whose fields are its class's __slots__, given by
    position or keyword. Records compare and hash by their field values;
    records of different classes are never equal."""
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = type(self).__slots__
        values = dict(zip(names, args), **kwargs)
        if (len(args) > len(names) or len(values) != len(args) + len(kwargs)
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in type(self).__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()


class LambdaSpace(Record):
    __slots__ = ("size",)


class EpistemicState(Record):
    __slots__ = ("weights",)  # a tuple of Fractions

    @property
    def size(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, size: int) -> "EpistemicState":
        return cls(tuple(Fraction(1, size) for _ in range(size)))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "EpistemicState":
        return cls(tuple(Fraction(1) if i == index else Fraction(0)
                         for i in range(size)))


class ResponseTable(Record):
    """p[i][lam][lamp]: probability of outcome i given the hidden pair."""
    __slots__ = ("p",)  # 4 x L x L


class OntologicalModel(Record):
    """A noncontextual model holds one response table, used in every
    preparation context; a contextual one holds one table per context, in
    CONTEXTS order, so its response may depend on the prepared states."""
    # response: ResponseTables, one or one per context; born_targets: 4 x 4,
    # rows by context in CONTEXTS order, columns by outcome.
    __slots__ = ("lambda_space", "rho1", "rho2", "response", "born_targets")

    @property
    def contextual(self) -> bool:
        return len(self.response) > 1

    def table(self, context) -> ResponseTable:
        """The response table used when `context` is prepared."""
        index = context_index(context)
        return self.response[index if self.contextual else 0]

    def target(self, outcome: int, context) -> Fraction:
        """Born target for 1-based outcome in the given (j, k) context."""
        return self.born_targets[context_index(context)][outcome - 1]


class SupportOverlap(Record):
    __slots__ = ("disjoint", "overlap_mass")


class OutcomeCounts(Record):
    __slots__ = ("counts", "n", "seed")  # counts: 4 nonnegative ints


def _show(x) -> str:
    """str(x) for a complaint; an exact number whose numerator or
    denominator has more digits than int-to-str conversion allows (4300 by
    default) is described by its bit lengths instead."""
    try:
        return str(x)
    except ValueError:
        return (f"<a fraction of {x.numerator.bit_length()} by "
                f"{x.denominator.bit_length()} bits, too long to print>")


def _exact(x) -> bool:
    """Whether x is an exact number: an int or a Fraction, but not a bool.
    A value that is not is reported as such and checked no further, and a
    sum over it is not checked."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _not_exact(x) -> str:
    return f"{x!r} is not an exact number"


def _check_distribution(name, weights, size, report):
    if len(weights) != size:
        report.append(f"{name} has {len(weights)} weights, lambda space has {size}")
        return
    for i, w in enumerate(weights):
        if not _exact(w):
            report.append(f"{name}[{i}] = {_not_exact(w)}")
        elif w < 0:
            report.append(f"{name}[{i}] is negative: {_show(w)}")
    if all(map(_exact, weights)):
        total = sum(weights)
        if total != 1:
            report.append(f"{name} sums to {_show(total)}, not 1")


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


def _target_complaints(targets) -> list:
    if len(targets) != 4 or any(len(r) != 4 for r in targets):
        return ["born_targets is not 4 x 4"]
    report = []
    for c, row in enumerate(targets):
        for i, q in enumerate(row):
            where = f"born_targets[{CONTEXTS[c]}][outcome {i + 1}] ="
            if not _exact(q):
                report.append(f"{where} {_not_exact(q)}")
            elif q < 0 or q > 1:
                report.append(f"{where} {_show(q)} outside [0, 1]")
        if all(map(_exact, row)):
            total = sum(row)
            if total != 1:
                report.append(f"born_targets row for context {CONTEXTS[c]} "
                              f"sums to {_show(total)}")
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


# One error line names at most this many complaints, then counts the rest:
# an invalid model at L = 200 has hundreds of thousands.
COMPLAINTS_SHOWN = 100


def _shown(report: list) -> list:
    """The first COMPLAINTS_SHOWN complaints, then a count of the rest."""
    more = len(report) - COMPLAINTS_SHOWN
    if more <= 0:
        return report
    return report[:COMPLAINTS_SHOWN] + [f"... and {more} more"]


def _joined(report: list) -> str:
    return "; ".join(_shown(report))


def _require_valid(m):
    report = validate_model(m)
    if report:
        raise ModelError("invalid model: " + _joined(report))


def _require_inputs(rho1, rho2, size, targets):
    """Raise one ModelError joining the first COMPLAINTS_SHOWN complaints
    validate_model makes of these epistemic states over `size` hidden
    states and these targets."""
    report = []
    _check_distribution("rho1", rho1.weights, size, report)
    _check_distribution("rho2", rho2.weights, size, report)
    report += _target_complaints(targets)
    if report:
        raise ModelError(_joined(report))


def predict(m: OntologicalModel, context) -> tuple:
    """Outcome distribution for the (j, k) preparation: the response table
    averaged against the product weighting rho_j(lambda) * rho_k(lambda')."""
    _require_valid(m)
    return _predict(m, context)


def _over_common_denominator(values):
    """(numerators, d): integers with values[i] == numerators[i] / d, d the
    least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


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


def support_overlap(r1: EpistemicState, r2: EpistemicState) -> SupportOverlap:
    if r1.size != r2.size:
        raise ModelError(f"length mismatch: {r1.size} vs {r2.size}")
    disjoint = all(w1 * w2 == 0 for w1, w2 in zip(r1.weights, r2.weights))
    mass = sum(min(w1, w2) for w1, w2 in zip(r1.weights, r2.weights))
    return SupportOverlap(disjoint=disjoint, overlap_mass=mass)


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
