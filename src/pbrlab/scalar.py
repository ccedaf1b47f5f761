"""Exact scalars: the field Q(sqrt 2) as integer triples.

Every amplitude in the two-qubit construction is real and lives in
Q(sqrt 2), so Born probabilities come out as exact rationals and the
downstream feasibility verdicts never hinge on floating-point tolerance.
An element is held as (a + b*sqrt 2)/d over one common denominator, the
representation of number-field elements in Cohen, "A Course in
Computational Algebraic Number Theory" (1993), so arithmetic runs on
integers and no Fraction is made until a rational result is read out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt

_SQRT2 = sqrt(2.0)


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact here; pass int, str or Fraction")
    return Fraction(x)


def _lowest(n: int, d: int):
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return n // g, d // g


def _qstr(n: int, d: int) -> str:
    n, d = _lowest(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


def _triple(a: int, b: int, d: int) -> "RootTwo":
    """(a + b*sqrt 2)/d from integers, d != 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    x = object.__new__(RootTwo)
    x.a, x.b, x.d = a // g, b // g, d // g
    return x


def coerce(x):
    """x as a RootTwo, or None when it is not an int, Fraction or RootTwo."""
    if isinstance(x, RootTwo):
        return x
    if isinstance(x, int):
        return _triple(x, 0, 1)
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    return None


class RootTwo:
    """(a + b*sqrt 2)/d with integers a, b, d, where d > 0 and
    gcd(a, b, d) = 1. Built from rationals: RootTwo(a, b) is a + b*sqrt 2."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0):
        a, b = _frac(a), _frac(b)
        # Over the least common denominator the triple is in lowest terms.
        d = lcm(a.denominator, b.denominator)
        self.a = a.numerator * (d // a.denominator)
        self.b = b.numerator * (d // b.denominator)
        self.d = d

    def __repr__(self) -> str:
        r = f"RootTwo({self.a}, {self.b})"
        return r if self.d == 1 else f"{r} / {self.d}"

    def __str__(self) -> str:
        a, b = _qstr(self.a, self.d), _qstr(self.b, self.d)
        if self.b == 0:
            return a
        if self.a == 0:
            return f"{b}*sqrt2"
        return f"{a}{'+' if self.b > 0 else ''}{b}*sqrt2"

    def __eq__(self, other) -> bool:
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        # A rational element hashes as the equal int or Fraction does.
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __add__(self, other) -> "RootTwo":
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        return _triple(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                       self.d * o.d)

    __radd__ = __add__

    def __neg__(self) -> "RootTwo":
        return _triple(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "RootTwo":
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RootTwo":
        return (-self) + other

    def __mul__(self, other) -> "RootTwo":
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        # (a + b s)(c + e s) = ac + 2be + (ae + bc) s   with s^2 = 2
        return _triple(self.a * o.a + 2 * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "RootTwo":
        # d/(a + b s) = d(a - b s)/(a^2 - 2 b^2); the norm vanishes only at 0
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return _triple(self.d * self.a, -self.d * self.b, n)

    def __truediv__(self, other) -> "RootTwo":
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "RootTwo":
        o = other if type(other) is RootTwo else coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} has an irrational sqrt2 component")
        return Fraction(self.a, self.d)

    def __float__(self) -> float:
        return self.a / self.d + self.b / self.d * _SQRT2

    def to_json(self) -> dict:
        num, den = _lowest(self.a, self.d)
        snum, sden = _lowest(self.b, self.d)
        return {"num": str(num), "den": str(den),
                "snum": str(snum), "sden": str(sden)}

    @classmethod
    def from_json(cls, d: dict) -> "RootTwo":
        return cls(Fraction(int(d["num"]), int(d["den"])),
                   Fraction(int(d["snum"]), int(d["sden"])))


SQRT2 = RootTwo(0, 1)
INV_SQRT2 = RootTwo(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
