"""Straightforward references for pbrlab's contextual path: the response
validation, the Monte Carlo draw, the interval slice and the exact
prediction as first written, with every cell checked, every CDF re-summed
on each draw, every cell's overlap computed in Fractions and every
prediction term added as a Fraction; and the validation of a contextual
model as first written, one slice at a time with the repeated complaints
dropped by their text. Tests require pbrlab's versions to return exactly
the same reports, counts, tables and predictions.

Validation takes a number as exact only if its type is int or Fraction
(so not bool); any other value is reported with its repr and compared
with nothing, and a sum that would include it is not checked.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from pbrlab.hilbert import CONTEXTS, context_index
from pbrlab.ontology import OutcomeCounts, ResponseTable

EXACT_TYPES = (int, Fraction)


@dataclass(frozen=True)
class Slice:
    """A model with one response table, `response`, as read below."""
    lambda_space: object
    rho1: object
    rho2: object
    response: ResponseTable
    born_targets: tuple


def slice_model(m, index: int) -> Slice:
    """The model holding only m's `index`-th response table."""
    return Slice(m.lambda_space, m.rho1, m.rho2, m.response[index],
                 m.born_targets)


def _check_distribution(name, weights, size, report):
    if len(weights) != size:
        report.append(f"{name} has {len(weights)} weights, lambda space has {size}")
        return
    inexact = [type(w) not in EXACT_TYPES for w in weights]
    for i, w in enumerate(weights):
        if inexact[i]:
            report.append(f"{name}[{i}] = {w!r} is not an exact number")
        elif w < 0:
            report.append(f"{name}[{i}] is negative: {w}")
    if not any(inexact):
        total = sum(weights)
        if total != 1:
            report.append(f"{name} sums to {total}, not 1")


def validate_model(m) -> list:
    report = []
    L = m.lambda_space.size
    if L < 1:
        report.append(f"lambda space size must be >= 1, got {L}")
        return report
    _check_distribution("rho1", m.rho1.weights, L, report)
    _check_distribution("rho2", m.rho2.weights, L, report)

    p = m.response.p
    if len(p) != 4 or any(len(p[i]) != L or any(len(row) != L for row in p[i])
                          for i in range(len(p))):
        report.append("response table is not shaped 4 x L x L")
        return report
    for lam in range(L):
        for lamp in range(L):
            row_sum = 0
            for i in range(4):
                v = p[i][lam][lamp]
                if type(v) not in EXACT_TYPES:
                    report.append(f"response[{i + 1}][{lam}][{lamp}] = {v!r} "
                                  "is not an exact number")
                    row_sum = None
                    continue
                if v < 0 or v > 1:
                    report.append(
                        f"response[{i + 1}][{lam}][{lamp}] = {v} outside [0, 1]")
                if row_sum is not None:
                    row_sum += v
            if row_sum is not None and row_sum != 1:
                report.append(
                    f"response rows at (lambda={lam}, lambda'={lamp}) "
                    f"sum to {row_sum}, deficit {1 - row_sum}")

    if len(m.born_targets) != 4 or any(len(r) != 4 for r in m.born_targets):
        report.append("born_targets is not 4 x 4")
    else:
        for c, row in enumerate(m.born_targets):
            exact = True
            for i, q in enumerate(row):
                if type(q) not in EXACT_TYPES:
                    exact = False
                    report.append(
                        f"born_targets[{CONTEXTS[c]}][outcome {i + 1}] = {q!r} "
                        "is not an exact number")
                elif q < 0 or q > 1:
                    report.append(
                        f"born_targets[{CONTEXTS[c]}][outcome {i + 1}] = {q} "
                        "outside [0, 1]")
            total = sum(row) if exact else None
            if exact and total != 1:
                report.append(
                    f"born_targets row for context {CONTEXTS[c]} sums to {total}")
    return report


def validate_contextual(m) -> list:
    """Reports of a model with four response tables, in CONTEXTS order."""
    report = []
    for c, context in enumerate(CONTEXTS):
        for line in validate_model(slice_model(m, c)):
            report.append(f"context {context[0]}{context[1]}: {line}")
    # slices share rho/targets, so deduplicate the non-response complaints
    seen = set()
    out = []
    for line in report:
        key = line.split(": ", 1)[1]
        if "response" not in key and key in seen:
            continue
        seen.add(key)
        out.append(line)
    return out


def _draw(rng: random.Random, weights) -> int:
    r = Fraction(rng.random())
    acc = 0
    for i, w in enumerate(weights):
        acc = acc + w
        if r < acc:
            return i
    return len(weights) - 1


def sample(m, context, n: int, seed: int) -> OutcomeCounts:
    """Counts of a model already known to be valid."""
    j, k = context
    context_index(context)
    rj = m.rho1 if j == 1 else m.rho2
    rk = m.rho1 if k == 1 else m.rho2
    rng = random.Random(seed)
    counts = [0, 0, 0, 0]
    for _ in range(n):
        lam = _draw(rng, rj.weights)
        lamp = _draw(rng, rk.weights)
        row = tuple(m.response.p[i][lam][lamp] for i in range(4))
        counts[_draw(rng, row)] += 1
    return OutcomeCounts(counts=tuple(counts), n=n, seed=seed)


def interval_slice(targets_row, widths) -> ResponseTable:
    L = math.isqrt(len(widths))
    bounds = [Fraction(0)]
    for q in targets_row:
        bounds.append(bounds[-1] + Fraction(q))

    rows = []
    pos = Fraction(0)
    for w in widths:
        if w == 0:
            rows.append((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
            continue
        lo, hi = pos, pos + w
        row = []
        for i in range(4):
            cut_lo = max(lo, bounds[i])
            cut_hi = min(hi, bounds[i + 1])
            row.append(max(Fraction(0), cut_hi - cut_lo) / w)
        rows.append(tuple(row))
        pos = hi

    table = tuple(tuple(tuple(rows[lam * L + lamp][i] for lamp in range(L))
                        for lam in range(L))
                  for i in range(4))
    return ResponseTable(table)


def predict(m, context) -> tuple:
    """Outcome distribution of an exact model for the (j, k) preparation,
    summed in Fractions term by term."""
    planes = m.table(context).p
    j, k = context
    rj = (m.rho1 if j == 1 else m.rho2).weights
    rk = (m.rho1 if k == 1 else m.rho2).weights
    out = []
    for plane in planes:
        total = Fraction(0)
        for wj, row in zip(rj, plane):
            if wj:
                inner = sum(wk * v for wk, v in zip(rk, row) if v)
                if inner:
                    total += wj * inner
        out.append(total)
    return tuple(out)
