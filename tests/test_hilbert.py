import itertools
import math
from fractions import Fraction

import pytest

from pbrlab import hilbert
from pbrlab.hilbert import (CONTEXTS, StateError, amplitude_json, born,
                            born_targets, inner, ket0, ket1, ket_minus,
                            ket_plus, make_state, pbr_basis, product_state,
                            psi, tensor)

# ---------------------------------------------------------------------------
# Float oracle: the same vectors built with plain floats, for the exact/float
# agreement checks. Kept free of the exact integer rays on purpose.

_S = 1 / math.sqrt(2.0)
_F0, _F1 = [1.0, 0.0], [0.0, 1.0]
_FP, _FM = [_S, _S], [_S, -_S]


def _ftensor(a, b):
    return [x * y for x in a for y in b]


def _fsuper(u, v):
    return [_S * (x + y) for x, y in zip(u, v)]


_FLOAT_EFFECTS = [
    _fsuper(_ftensor(_F0, _F1), _ftensor(_F1, _F0)),
    _fsuper(_ftensor(_F0, _FM), _ftensor(_F1, _FP)),
    _fsuper(_ftensor(_FP, _F1), _ftensor(_FM, _F0)),
    _fsuper(_ftensor(_FP, _FM), _ftensor(_FM, _FP)),
]
_FLOAT_PREPS = {(j, k): _ftensor(_F0 if j == 1 else _FP, _F0 if k == 1 else _FP)
                for (j, k) in CONTEXTS}


def _fborn(effect, state):
    return sum(e * s for e, s in zip(effect, state)) ** 2


# ---------------------------------------------------------------------------


def test_make_state_basis_vector():
    s = make_state([1, 0])
    assert s.dim == 2
    assert s.ray == (1, 0)
    assert s.norm_sq() == 1


def test_make_state_superposition():
    s = make_state([1, 1])
    assert s.ray == (1, 1)
    assert s.norm_sq() == 2
    assert born(s, s) == 1


@pytest.mark.parametrize("ray", [[0, 0], [], [True, 0], [0.5, 0]],
                         ids=["zero", "empty", "bool", "float"])
def test_make_state_rejects_non_rays(ray):
    with pytest.raises(StateError):
        make_state(ray)


def test_tensor_basis_product():
    assert tensor(ket0(), ket1()).ray == (0, 1, 0, 0)


def test_tensor_with_superposition():
    assert tensor(ket0(), psi(2)).ray == (1, 1, 0, 0)
    assert tensor(ket_plus(), ket_minus()).ray == (1, -1, 1, -1)


def _state_pool():
    return [ket0(), ket1(), ket_plus(), ket_minus(), psi(2)]


def test_tensor_norm_multiplicative():
    for a, b in itertools.product(_state_pool(), repeat=2):
        t = tensor(a, b)
        assert t.dim == a.dim * b.dim
        assert t.norm_sq() == a.norm_sq() * b.norm_sq()
        assert born(t, t) == 1


def test_inner_examples():
    assert inner(ket0(), ket1()) == 0
    assert inner(psi(1), psi(2)) == 1
    assert type(inner(psi(1), psi(2))) is int
    assert inner(psi(2), psi(2)) == 2
    assert born(psi(1), psi(2)) == Fraction(1, 2)


def test_amplitude_json_needs_a_norm_in_q_sqrt2():
    assert amplitude_json(1, 4)["re"] == {"num": "1", "den": "2",
                                          "snum": "0", "sden": "1"}
    assert amplitude_json(-2, 8)["re"] == {"num": "0", "den": "1",
                                           "snum": "-1", "sden": "2"}
    with pytest.raises(StateError, match="sqrt"):
        amplitude_json(1, make_state([1, 1, 1]).norm_sq())


def test_inner_conjugate_symmetry():
    # every amplitude is real, so <a|b> = <b|a>
    for a, b in itertools.product(_state_pool(), repeat=2):
        assert inner(a, b) == inner(b, a)


def test_inner_dimension_mismatch():
    with pytest.raises(StateError, match="mismatch"):
        inner(ket0(), tensor(ket0(), ket0()))


def test_born_same_state():
    assert born(ket0(), ket0()) == 1


def test_born_anchor_zero():
    assert born(pbr_basis().effects[0], product_state(1, 1)) == 0


def test_born_vector_context_11():
    # oracle: direct inner-product evaluation in floats, then exact match
    basis = pbr_basis()
    s = product_state(1, 1)
    exact = [born(e, s) for e in basis.effects]
    assert exact == [0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    assert sum(exact) == 1
    for e_exact, e_float in zip(exact, _FLOAT_EFFECTS):
        assert abs(float(e_exact) - _fborn(e_float, _FLOAT_PREPS[(1, 1)])) < 1e-12


def test_born_vector_context_22():
    basis = pbr_basis()
    s = product_state(2, 2)
    exact = [born(e, s) for e in basis.effects]
    assert exact == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0]


def test_pbr_basis_gram_identity():
    g = hilbert.gram(pbr_basis())
    for r in range(4):
        for c in range(4):
            assert g[r][c] == (1 if r == c else 0)
            assert type(g[r][c]) is Fraction


def test_gram_refuses_an_irrational_entry():
    basis = hilbert.MeasurementBasis((ket0(), ket_plus()))
    with pytest.raises(StateError, match="not rational"):
        hilbert.gram(basis)


def test_pbr_basis_four_anchors():
    basis = pbr_basis()
    for i, (j, k) in enumerate(CONTEXTS):
        assert born(basis.effects[i], product_state(j, k)) == 0


def test_born_sums_to_one_every_context():
    basis = pbr_basis()
    for (j, k) in CONTEXTS:
        s = product_state(j, k)
        assert sum(born(e, s) for e in basis.effects) == 1


def test_exact_float_agreement():
    # every exact Born value matches the parallel float evaluation to 1e-12
    targets = born_targets()
    for c, (j, k) in enumerate(CONTEXTS):
        for i in range(4):
            f = _fborn(_FLOAT_EFFECTS[i], _FLOAT_PREPS[(j, k)])
            assert abs(float(targets[c][i]) - f) < 1e-12


def test_born_targets_exact_table():
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    assert born_targets() == ((0, q, q, h),
                              (q, 0, h, q),
                              (q, h, 0, q),
                              (h, q, q, 0))
    assert all(type(v) is Fraction for row in born_targets() for v in row)


def test_born_targets_rows_are_distributions():
    for row in born_targets():
        assert all(q >= 0 for q in row)
        assert sum(row) == 1


def test_context_index():
    assert hilbert.context_index((1, 2)) == 1
    with pytest.raises(StateError):
        hilbert.context_index((0, 3))


def test_psi_labels():
    with pytest.raises(StateError):
        psi(3)


def test_state_json():
    payload = psi(2).to_json()
    assert payload[0]["re"]["snum"] == "1"
    assert payload[0]["re"]["sden"] == "2"
