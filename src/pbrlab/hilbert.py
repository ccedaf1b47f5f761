"""Qubit and two-qubit states with exact amplitudes, tensor products,
the Born rule, and the four-outcome measurement basis of the two-state
no-go argument.

Tensor index convention is row-major throughout:
index = (first-factor index) * (second-factor dim) + (second-factor index).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# Defined in ontology, so the model path never imports this module;
# re-exported here for callers of the Hilbert-space layer.
from .ontology import CONTEXTS, Record, StateError, context_index
from .scalar import INV_SQRT2, RootTwo, coerce

def amplitude_json(x: RootTwo) -> dict:
    """An amplitude or Gram entry as JSON. Every one in scope is real, but
    the schema keeps the complex form and writes the zero imaginary part."""
    return {"re": x.to_json(), "im": coerce(0).to_json()}


def _as_amplitude(x) -> RootTwo:
    a = coerce(x)
    if a is None:
        raise StateError(f"cannot use {type(x).__name__} as an amplitude")
    return a


class PureState(Record):
    __slots__ = ("amplitudes",)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm_sq(self) -> RootTwo:
        return inner(self, self)

    def to_json(self) -> list:
        return [amplitude_json(a) for a in self.amplitudes]


def make_state(amplitudes) -> PureState:
    """Build a PureState, rejecting anything that is not exactly unit norm."""
    amps = tuple(_as_amplitude(a) for a in amplitudes)
    if not amps:
        raise StateError("state needs at least one amplitude")
    s = PureState(amps)
    n = s.norm_sq()
    if n != 1:
        raise StateError(f"state is not normalized: squared norm is {n}, not 1")
    return s


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(tuple(x * y for x in a.amplitudes for y in b.amplitudes))


def inner(a: PureState, b: PureState) -> RootTwo:
    """<a|b>; every amplitude is real, so no conjugation is needed."""
    if a.dim != b.dim:
        raise StateError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return sum((x * y for x, y in zip(a.amplitudes, b.amplitudes)), coerce(0))


def born(effect: PureState, state: PureState) -> Fraction:
    """<effect|state>^2 as an exact rational.

    For every state and effect in scope the square lands in Q; an
    irrational result would mean the caller left that regime.
    """
    overlap = inner(effect, state)
    m = overlap * overlap
    if not m.is_rational:
        raise StateError(f"Born probability {m} is not rational")
    return m.as_fraction()


def ket0() -> PureState:
    return make_state([1, 0])


def ket1() -> PureState:
    return make_state([0, 1])


def ket_plus() -> PureState:
    return make_state([INV_SQRT2, INV_SQRT2])


def ket_minus() -> PureState:
    return make_state([INV_SQRT2, -INV_SQRT2])


def psi(j: int) -> PureState:
    """The two named preparations: psi(1) = |0>, psi(2) = (|0>+|1>)/sqrt2."""
    if j == 1:
        return ket0()
    if j == 2:
        return ket_plus()
    raise StateError(f"preparation label must be 1 or 2, got {j}")


def product_state(j: int, k: int) -> PureState:
    return tensor(psi(j), psi(k))


class MeasurementBasis(Record):
    __slots__ = ("effects",)  # 4 PureStates of dim 4

    def to_json(self) -> list:
        return [e.to_json() for e in self.effects]


def gram(basis: MeasurementBasis):
    return tuple(tuple(inner(a, b) for b in basis.effects)
                 for a in basis.effects)


def _superpose(u: PureState, v: PureState) -> PureState:
    amps = [INV_SQRT2 * (x + y) for x, y in zip(u.amplitudes, v.amplitudes)]
    return make_state(amps)


@lru_cache(maxsize=1)
def pbr_basis() -> MeasurementBasis:
    """The four-effect entangled basis with one vanishing overlap per context.

    Built from symmetrized products of {|0>,|1>,|+>,|->} and verified, not
    assumed: construction raises if orthonormality or any of the four zero
    anchors fails.
    """
    k0, k1 = ket0(), ket1()
    kp, km = ket_plus(), ket_minus()
    effects = (
        _superpose(tensor(k0, k1), tensor(k1, k0)),
        _superpose(tensor(k0, km), tensor(k1, kp)),
        _superpose(tensor(kp, k1), tensor(km, k0)),
        _superpose(tensor(kp, km), tensor(km, kp)),
    )
    basis = MeasurementBasis(effects)
    g = gram(basis)
    for r in range(4):
        for c in range(4):
            want = 1 if r == c else 0
            if g[r][c] != want:
                raise StateError(f"basis is not orthonormal at ({r},{c}): {g[r][c]}")
    for i, (j, k) in enumerate(CONTEXTS):
        if born(effects[i], product_state(j, k)) != 0:
            raise StateError(f"anchor overlap xi_{i + 1} with context ({j},{k}) is nonzero")
    return basis


@lru_cache(maxsize=1)
def born_targets():
    """4x4 exact Born probabilities, rows by context in CONTEXTS order,
    columns by outcome."""
    basis = pbr_basis()
    rows = []
    for (j, k) in CONTEXTS:
        s = product_state(j, k)
        rows.append(tuple(born(e, s) for e in basis.effects))
    return tuple(rows)
