"""Qubit and two-qubit states as integer rays, tensor products, the Born
rule, and the four-outcome measurement basis of the two-state no-go
argument.

A state is held as a ray: a tuple of integers, not all zero, standing for
the unit vector ray/|ray|. Every state and effect in scope has such a
representative, and the Born rule on rays is the rational
<u,v>^2 / (<u,u><v,v>), so the Born table is built from integers alone.
sqrt 2 appears only when an amplitude u/|ray| is printed, which `basis`
does for `pbr basis`.

Tensor index convention is row-major throughout:
index = (first-factor index) * (second-factor dim) + (second-factor index).
"""

from fractions import Fraction
from functools import lru_cache

# Defined in values, which every command imports, so `check` and `sample`
# never import this module; re-exported here for callers of the
# Hilbert-space layer.
from .values import CONTEXTS, Record, StateError, context_index


class PureState(Record):
    __slots__ = ("ray",)

    @property
    def dim(self) -> int:
        return len(self.ray)

    def norm_sq(self) -> int:
        return inner(self, self)


def make_state(ray) -> PureState:
    """Build a PureState from a nonzero ray of ints, rejecting anything else."""
    ray = tuple(ray)
    for x in ray:
        if type(x) is not int:
            raise StateError(f"cannot use {type(x).__name__} in a ray")
    if not any(ray):
        raise StateError("a state needs a nonzero ray")
    return PureState(ray)


def tensor(a: PureState, b: PureState) -> PureState:
    return PureState(tuple(x * y for x in a.ray for y in b.ray))


def inner(a: PureState, b: PureState) -> int:
    """<a|b> of the rays; every entry is real, so no conjugation is needed."""
    if a.dim != b.dim:
        raise StateError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return sum(x * y for x, y in zip(a.ray, b.ray))


def born(effect: PureState, state: PureState) -> Fraction:
    """|<effect|state>|^2 of the unit vectors, as an exact rational."""
    return Fraction(inner(effect, state) ** 2,
                    effect.norm_sq() * state.norm_sq())


def ket0() -> PureState:
    return make_state([1, 0])


def ket1() -> PureState:
    return make_state([0, 1])


def ket_plus() -> PureState:
    return make_state([1, 1])


def ket_minus() -> PureState:
    return make_state([1, -1])


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


def _superpose(u: PureState, v: PureState) -> PureState:
    """(u + v)/sqrt2 of two orthogonal unit vectors: with rays of equal
    norm, the sum of the rays."""
    if u.norm_sq() != v.norm_sq():
        raise StateError("superposed rays must have equal norms")
    return make_state([x + y for x, y in zip(u.ray, v.ray)])


@lru_cache(maxsize=1)
def pbr_basis() -> MeasurementBasis:
    """The four-effect entangled basis with one vanishing overlap per context.

    Built from symmetrized products of {|0>,|1>,|+>,|->} and verified, not
    assumed: construction raises if two effects overlap or any of the four
    zero anchors fails.
    """
    k0, k1 = ket0(), ket1()
    kp, km = ket_plus(), ket_minus()
    effects = (
        _superpose(tensor(k0, k1), tensor(k1, k0)),
        _superpose(tensor(k0, km), tensor(k1, kp)),
        _superpose(tensor(kp, k1), tensor(km, k0)),
        _superpose(tensor(kp, km), tensor(km, kp)),
    )
    for r in range(4):
        for c in range(r):
            if inner(effects[r], effects[c]):
                raise StateError(f"basis is not orthogonal at ({r},{c})")
    for i, (j, k) in enumerate(CONTEXTS):
        if born(effects[i], product_state(j, k)) != 0:
            raise StateError(f"anchor overlap xi_{i + 1} with context ({j},{k}) is nonzero")
    return MeasurementBasis(effects)


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
