"""Exact arithmetic in the ring Q(sqrt2) + i*Q(sqrt2), owned by this module.

An element is (a + b*sqrt2) + i*(c + d*sqrt2).  It comes in two forms, as
a rational is an int over a denominator:

- :class:`Quad` holds integer coordinates (a, b, c, d), and writes the
  ring's sum, product and conjugate once; the kernel runs on these;
- :class:`Amplitude` is a ``Quad`` over a positive denominator in lowest
  terms, with a, b, c, d read back as exact rationals; its arithmetic is
  ``Quad``'s.

The ring is closed under addition, multiplication and conjugation, which
is everything the quantum engine needs: machine constructions only use
amplitudes drawn from {0, +-1, +-1/2, +-1/sqrt2} and their products.  No
floating point ever enters: every part is an int or a ``Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

__all__ = [
    "AMP_HALF",
    "AMP_INV_SQRT2",
    "AMP_ONE",
    "AMP_ZERO",
    "Amplitude",
]

RationalLike = Union[int, Fraction]


class Quad(tuple):
    """(a, b, c, d) = (a + b*sqrt2) + i*(c + d*sqrt2), all four ints.

    ``+`` and ``*`` are the ring operations (``*`` also takes a plain int),
    so the kernel's one loop runs unchanged on int masses and on these.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int = 0, c: int = 0, d: int = 0) -> "Quad":
        return _new_quad(cls, (a, b, c, d))

    def __add__(self, other: "Quad") -> "Quad":  # type: ignore[override]
        return _new_quad(
            Quad, (self[0] + other[0], self[1] + other[1], self[2] + other[2], self[3] + other[3])
        )

    def __mul__(self, other: "Quad | int") -> "Quad":  # type: ignore[override]
        a, b, c, d = self
        if isinstance(other, int):
            return _new_quad(Quad, (a * other, b * other, c * other, d * other))
        # (A + iC)(E + iG) with A = a + b*sqrt2, C = c + d*sqrt2, and so on.
        e, f, g, h = other
        return _new_quad(
            Quad,
            (
                a * e + 2 * b * f - c * g - 2 * d * h,
                a * f + b * e - c * h - d * g,
                a * g + 2 * b * h + c * e + 2 * d * f,
                a * h + b * g + c * f + d * e,
            ),
        )

    def conjugate(self) -> "Quad":
        return _new_quad(Quad, (self[0], self[1], -self[2], -self[3]))

    def __getnewargs__(self) -> tuple[int, ...]:  # copy and pickle call Quad(a, b, c, d)
        return tuple(self)

    def __floordiv__(self, n: int) -> "Quad":
        return _new_quad(Quad, (self[0] // n, self[1] // n, self[2] // n, self[3] // n))


_new_quad = tuple.__new__
QZERO = Quad(0)


class Amplitude:
    """One ring element: the :class:`Quad` ``quad`` over the int ``den``,
    ``den`` > 0 and in lowest terms, so equal elements have equal fields."""

    __slots__ = ("quad", "den")

    def __init__(
        self,
        re_rat: RationalLike = 0,
        re_sqrt2: RationalLike = 0,
        im_rat: RationalLike = 0,
        im_sqrt2: RationalLike = 0,
    ) -> None:
        parts = (re_rat, re_sqrt2, im_rat, im_sqrt2)
        for part in parts:
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"Amplitude parts must be exact ints or Fractions, not {part!r}")
        # Each part is in lowest terms, so over their lcm no common factor is left.
        den = lcm(*(part.denominator for part in parts))
        quad = _new_quad(Quad, (part.numerator * (den // part.denominator) for part in parts))
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "den", den)

    @classmethod
    def over(cls, quad: Quad, den: int) -> "Amplitude":
        """``quad / den`` for an int ``den`` > 0, reduced to lowest terms."""
        if den <= 0:
            raise ValueError(f"Amplitude denominator must be positive, not {den}")
        common = gcd(den, *quad)
        amp = object.__new__(cls)
        object.__setattr__(amp, "quad", quad // common)
        object.__setattr__(amp, "den", den // common)
        return amp

    re_rat = property(lambda self: Fraction(self.quad[0], self.den), doc="a, as a Fraction")
    re_sqrt2 = property(lambda self: Fraction(self.quad[1], self.den), doc="b, as a Fraction")
    im_rat = property(lambda self: Fraction(self.quad[2], self.den), doc="c, as a Fraction")
    im_sqrt2 = property(lambda self: Fraction(self.quad[3], self.den), doc="d, as a Fraction")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Amplitude is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through over, not setattr
        return Amplitude.over, (self.quad, self.den)

    @classmethod
    def _coerce(cls, value: object) -> "Amplitude | None":
        if isinstance(value, Amplitude):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return None

    def __add__(self, other: object) -> "Amplitude":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Amplitude.over(self.quad * o.den + o.quad * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "Amplitude":
        return Amplitude.over(self.quad * -1, self.den)

    def __sub__(self, other: object) -> "Amplitude":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "Amplitude":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "Amplitude":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Amplitude.over(self.quad * o.quad, self.den * o.den)

    __rmul__ = __mul__

    def conjugate(self) -> "Amplitude":
        return Amplitude.over(self.quad.conjugate(), self.den)

    def abs2(self) -> tuple[Fraction, Fraction]:
        """|z|^2 as an element (rat, coef) = rat + coef*sqrt2 of Q(sqrt2)."""
        rat, coef, _, _ = self.quad.conjugate() * self.quad
        return Fraction(rat, self.den * self.den), Fraction(coef, self.den * self.den)

    def is_zero(self) -> bool:
        return self.quad == QZERO

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.quad == o.quad

    def __hash__(self) -> int:
        # An element with no sqrt2 and no imaginary part equals its Fraction,
        # so it must hash as that Fraction does.
        if self.quad[1:] == (0, 0, 0):
            return hash(Fraction(self.quad[0], self.den))
        return hash((self.quad, self.den))

    def __repr__(self) -> str:
        return "Amplitude(%s, %s, %s, %s)" % (self.re_rat, self.re_sqrt2, self.im_rat, self.im_sqrt2)


AMP_ZERO = Amplitude()
AMP_ONE = Amplitude(1)
AMP_HALF = Amplitude(Fraction(1, 2))
AMP_INV_SQRT2 = Amplitude(0, Fraction(1, 2))  # 1/sqrt2 == (1/2)*sqrt2
