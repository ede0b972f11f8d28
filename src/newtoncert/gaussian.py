"""Exact complex-rational scalars: numbers a + b*i with a, b rational.

Every coefficient in this package is a GaussianRational.  All arithmetic
is exact; floats are rejected outright so no rounding can sneak in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._record import Record

RationalLike = Union[int, Fraction]


def exact_fraction(value) -> Fraction:
    """Convert an int/Fraction to Fraction, rejecting floats; a Fraction is kept."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    return Fraction(value)


class GaussianRational(Record):
    """A complex number re + im*i with exact rational components."""

    __match_args__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", exact_fraction(re))
        object.__setattr__(self, "im", exact_fraction(im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re**2 + im**2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.im:  # a rational divisor needs no conjugate; 0 raises ZeroDivisionError
            return GaussianRational(self.re / other.re, self.im / other.re)
        d = other.norm()  # positive, since other.im != 0
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    # Q(i) is a field, so every quotient is exact and there is nothing to
    # floor: this lets poly.integer_determinant's Bareiss loop run on Q(i).
    __floordiv__ = __truediv__

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))
