"""The measurement basis as `pbr basis` prints it: amplitudes in Q(sqrt2),
the Gram matrix, the zero anchors and the Born targets.

A ray u of norm n stands for the unit vector u/sqrt(n), so sqrt 2 appears
only here, when an amplitude is printed; `hilbert` builds the Born table
from integers alone. Only `basis` loads this module.
"""

from fractions import Fraction
from math import isqrt

from . import hilbert
from .serialize import _targets_to_json, fmt_frac
from .values import CONTEXTS, StateError


def _sqrt2_parts(u, n: int):
    """u/sqrt(n) as (p, q), Fractions meaning p + q*sqrt2: u/s when
    n = s^2, (u/2s)*sqrt2 when n = 2 s^2. Any other n raises StateError."""
    s = isqrt(n)
    if s * s == n:
        return Fraction(u, s), Fraction(0)
    s = isqrt(n // 2)
    if 2 * s * s == n:
        return Fraction(0), Fraction(u, 2 * s)
    raise StateError(f"{u}/sqrt({n}) is not in Q(sqrt2)")


def _parts_json(p: Fraction, q: Fraction) -> dict:
    return {"num": str(p.numerator), "den": str(p.denominator),
            "snum": str(q.numerator), "sden": str(q.denominator)}


_ZERO_JSON = _parts_json(Fraction(0), Fraction(0))


def amplitude_json(u, n: int) -> dict:
    """The amplitude u/sqrt(n) as JSON. Every one in scope is real, but the
    schema keeps the complex form and writes the zero imaginary part."""
    return {"re": _parts_json(*_sqrt2_parts(u, n)), "im": _ZERO_JSON}


def amplitude_str(u, n: int) -> str:
    """The amplitude u/sqrt(n) as text, e.g. 1/2 or 1/2*sqrt2."""
    p, q = _sqrt2_parts(u, n)
    return f"{q}*sqrt2" if q else str(p)


def state_json(state: hilbert.PureState) -> list:
    """The state's unit vector as a list of amplitude_json entries."""
    n = state.norm_sq()
    return [amplitude_json(u, n) for u in state.ray]


def basis_json(basis: hilbert.MeasurementBasis) -> list:
    return [state_json(e) for e in basis.effects]


def gram(basis: hilbert.MeasurementBasis):
    """The normalised Gram entries <a|b>/(|a||b|) as Fractions; an entry
    with a sqrt2 part raises StateError."""
    def entry(a, b):
        p, q = _sqrt2_parts(hilbert.inner(a, b), a.norm_sq() * b.norm_sq())
        if q:
            raise StateError(f"Gram entry {q}*sqrt2 is not rational")
        return p
    return tuple(tuple(entry(a, b) for b in basis.effects)
                 for a in basis.effects)


def report() -> tuple:
    """(inputs, payload, human lines) of `pbr basis`."""
    basis = hilbert.pbr_basis()
    g = gram(basis)
    targets = hilbert.born_targets()
    anchors = [fmt_frac(hilbert.born(basis.effects[i], hilbert.product_state(j, k)))
               for i, (j, k) in enumerate(CONTEXTS)]
    payload = {
        "arithmetic": "exact",
        "effects": basis_json(basis),
        "gram": [[amplitude_json(e, 1) for e in row] for row in g],
        "anchors": anchors,
        "contexts": [f"{j}{k}" for (j, k) in CONTEXTS],
        "targets": _targets_to_json(targets),
    }
    lines = ["measurement basis (4 effects, dim 4):"]
    for i, e in enumerate(basis.effects):
        n = e.norm_sq()
        lines.append(f"  xi_{i + 1}: "
                     + ", ".join(amplitude_str(u, n) for u in e.ray))
    # pbr_basis raises unless its effects are orthogonal.
    lines.append("gram matrix: exact identity")
    lines.append("zero anchors born(xi_i, context_i): " + " ".join(anchors))
    lines.append("born targets (rows = contexts 11,12,21,22):")
    for (j, k), row in zip(CONTEXTS, targets):
        lines.append(f"  {j}{k}: " + " ".join(fmt_frac(q) for q in row))
    return {}, payload, lines
