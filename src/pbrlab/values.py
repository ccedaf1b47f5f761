"""The value types every command shares, and the checks of its inputs:
records for lambda spaces, epistemic states, response tables and models,
the preparation contexts, the checks of a pair of epistemic states and of
the Born targets, and support overlap.

Every number is exact: weights and targets are ints or Fractions, compared
with no tolerance. A check reports any other value, a float or a bool
included. The model-level checks, prediction and sampling are in
`ontology`, which no `nogo` run imports: `nogo` audits its witness with
`witness.verify_witness`.
"""

import math
from fractions import Fraction


# Preparation contexts (j, k): which of the two named states each qubit got.
CONTEXTS = ((1, 1), (1, 2), (2, 1), (2, 2))


class ModelError(ValueError):
    """Raised when an operation receives an invalid model."""


# Why the forcing argument refuses a contextual model.
NONCONTEXTUAL_ONLY = "the forcing argument applies to noncontextual models"


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


def _require_inputs(rho1, rho2, size, targets):
    """Raise one ModelError joining the first COMPLAINTS_SHOWN complaints
    `ontology.validate_model` makes of these epistemic states over `size`
    hidden states and these targets."""
    report = []
    _check_distribution("rho1", rho1.weights, size, report)
    _check_distribution("rho2", rho2.weights, size, report)
    report += _target_complaints(targets)
    if report:
        raise ModelError(_joined(report))


def _over_common_denominator(values):
    """(numerators, d): integers with values[i] == numerators[i] / d, d the
    least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


def support_overlap(r1: EpistemicState, r2: EpistemicState) -> SupportOverlap:
    if r1.size != r2.size:
        raise ModelError(f"length mismatch: {r1.size} vs {r2.size}")
    disjoint = all(w1 * w2 == 0 for w1, w2 in zip(r1.weights, r2.weights))
    mass = sum(min(w1, w2) for w1, w2 in zip(r1.weights, r2.weights))
    return SupportOverlap(disjoint=disjoint, overlap_mass=mass)
