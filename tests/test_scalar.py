import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrlab.hilbert import born_targets
from pbrlab.scalar import INV_SQRT2, SQRT2, RootTwo


def test_field_ops_exact():
    x = RootTwo(1, 1)           # 1 + sqrt2
    y = RootTwo(Fraction(3, 2), Fraction(-1, 4))
    assert x + y == RootTwo(Fraction(5, 2), Fraction(3, 4))
    assert x * y == RootTwo(Fraction(3, 2) - Fraction(1, 2),
                            Fraction(3, 2) - Fraction(1, 4))
    assert SQRT2 * SQRT2 == 2
    assert INV_SQRT2 * SQRT2 == 1


def test_inverse():
    x = RootTwo(1, 1)
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    with pytest.raises(ZeroDivisionError):
        RootTwo(0, 0).inverse()


def test_inverse_random_elements():
    rng = random.Random(3)
    for _ in range(50):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = RootTwo(a, b)
        if x:
            assert x * x.inverse() == 1


def test_rationality():
    assert RootTwo(Fraction(3, 4)).is_rational
    assert RootTwo(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    assert not SQRT2.is_rational
    with pytest.raises(ValueError):
        SQRT2.as_fraction()


def test_float_rejected():
    with pytest.raises(TypeError):
        RootTwo(0.5, 0)


def test_float_roundtrip_small_denominators():
    # denominators below 2**40: float conversion agrees to 1e-12
    rng = random.Random(11)
    for _ in range(200):
        den = rng.randint(1, 2 ** 40 - 1)
        a = Fraction(rng.randint(-den, den), den)
        b = Fraction(rng.randint(-den, den), den)
        x = RootTwo(a, b)
        reference = float(a) + float(b) * math.sqrt(2.0)
        assert math.isclose(float(x), reference, rel_tol=1e-12, abs_tol=1e-12)


def test_json_roundtrip():
    r = RootTwo(Fraction(-4, 9), Fraction(1, 2))
    assert RootTwo.from_json(r.to_json()) == r


# ---------------------------------------------------------------------------
# Reference field: p + q*sqrt2 as a pair of Fractions (p, q), written here
# from the definitions and sharing no code with pbrlab.scalar.

def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_neg(x):
    return (-x[0], -x[1])


def _ref_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_json(x):
    return {"num": str(x[0].numerator), "den": str(x[0].denominator),
            "snum": str(x[1].numerator), "sden": str(x[1].denominator)}


def _ref_str(x):
    p, q = x
    if q == 0:
        return str(p)
    if p == 0:
        return f"{q}*sqrt2"
    return f"{p}{'+' if q > 0 else ''}{q}*sqrt2"


def _matches(r: RootTwo, x) -> bool:
    """r holds the reference value x as a triple in lowest terms."""
    return (r.d > 0 and math.gcd(r.a, r.b, r.d) == 1
            and Fraction(r.a, r.d) == x[0] and Fraction(r.b, r.d) == x[1])


_rationals = st.one_of(
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12)))
_pairs = st.tuples(_rationals, _rationals)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs, _pairs)
def test_field_ops_match_reference(x, y):
    rx, ry = RootTwo(*x), RootTwo(*y)
    assert _matches(rx, x) and _matches(ry, y)
    assert _matches(rx + ry, _ref_add(x, y))
    assert _matches(rx - ry, _ref_add(x, _ref_neg(y)))
    assert _matches(-rx, _ref_neg(x))
    assert _matches(rx * ry, _ref_mul(x, y))
    # a rational operand on either side
    assert _matches(rx + y[0], _ref_add(x, (y[0], 0)))
    assert _matches(y[0] - rx, _ref_add((y[0], 0), _ref_neg(x)))
    assert _matches(y[0] * rx, _ref_mul(x, (y[0], 0)))
    if x != (0, 0):
        assert _matches(rx.inverse(), _ref_inverse(x))
        assert _matches(ry / rx, _ref_mul(y, _ref_inverse(x)))
    else:
        with pytest.raises(ZeroDivisionError):
            rx.inverse()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs, _pairs)
def test_eq_hash_bool_match_reference(x, y):
    rx, ry = RootTwo(*x), RootTwo(*y)
    assert (rx == ry) == (x == y)
    assert rx == RootTwo(*x) and hash(rx) == hash(RootTwo(*x))
    # an element reached by arithmetic equals and hashes as a constructed one
    total = rx + ry - ry
    assert total == rx and hash(total) == hash(rx)
    assert bool(rx) == (x != (0, 0))
    if x[1] == 0:
        assert rx == x[0] and hash(rx) == hash(x[0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs)
def test_to_json_and_str_match_reference(x):
    r = RootTwo(*x)
    assert (json.dumps(r.to_json(), sort_keys=True)
            == json.dumps(_ref_json(x), sort_keys=True))
    assert str(r) == _ref_str(x)


def test_born_targets_exact_table():
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    assert born_targets() == ((0, q, q, h),
                              (q, 0, h, q),
                              (q, h, 0, q),
                              (h, q, q, 0))
    assert all(type(v) is Fraction for row in born_targets() for v in row)
