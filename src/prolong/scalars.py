"""Exact scalars: arbitrary-precision rationals and prime fields.

No floating point is used anywhere in this package.  Rational scalars are
``fractions.Fraction`` values (always reduced, positive denominator); prime
field scalars are plain ints in ``[0, p)``.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Arithmetic context for scalar coefficients.

    ``Field()`` is the field of rational numbers; ``Field(p)`` for a prime
    ``p`` is the field of integers mod p.  Instances are immutable and
    compare by modulus.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def from_fraction(self, q: Fraction):
        if self.p is None:
            return q
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(
                f"denominator {q.denominator} is not invertible mod {self.p}"
            )
        return q.numerator * pow(den, -1, self.p) % self.p

    def coerce(self, value):
        """Accept an int, Fraction, or an element already in this field."""
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)
