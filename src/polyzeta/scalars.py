"""Scalars used as colors, shifts and coefficients.

A *color* is a nonzero scalar attached to a letter or a parameter tuple.
Three representations coexist:

* ``int`` / ``Fraction``   exact real values,
* ``complex`` / ``float``  floating values,
* ``ExactColor``           an exact polar value ``mag * exp(2*pi*i*turns)``
                           with rational ``mag > 0`` and rational ``turns``.

``exact_color`` normalises on construction: ``turns`` congruent to 0 or 1/2
collapses to a plain (signed) ``Fraction``, so an ``ExactColor`` instance
always has a genuinely complex phase. Products and quotients of exact values
stay exact; anything mixed with a float goes float.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction]
Color = Union[int, Fraction, float, complex, "ExactColor"]

_HALF = Fraction(1, 2)


@dataclass(frozen=True, slots=True)
class ExactColor:
    """``mag * exp(2*pi*i*turns)`` with rational mag > 0 and turns in (0, 1).

    Construct through :func:`exact_color`; direct construction skips the
    normalisation that keeps real values out of this class.
    """

    mag: Fraction
    turns: Fraction

    def __mul__(self, other: Color) -> Color:
        if isinstance(other, ExactColor):
            return exact_color(self.mag * other.mag, self.turns + other.turns)
        if isinstance(other, (int, Fraction)):
            return exact_color(self.mag * other, self.turns) if other else 0
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Color) -> Color:
        if isinstance(other, ExactColor):
            return exact_color(self.mag / other.mag, self.turns - other.turns)
        if isinstance(other, (int, Fraction)):
            return exact_color(self.mag / other, self.turns)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other: Color) -> Color:
        if isinstance(other, (int, Fraction)):
            return exact_color(other / self.mag, -self.turns) if other else 0
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n: int) -> Color:
        return exact_color(self.mag**n, self.turns * n)

    def __neg__(self) -> Color:
        return exact_color(self.mag, self.turns + _HALF)

    def __abs__(self) -> Fraction:
        return self.mag

    def __complex__(self) -> complex:
        return self.mag * cmath.exp(2j * cmath.pi * float(self.turns))

    def __repr__(self) -> str:
        return f"{self.mag}*e^(2*pi*i*{self.turns})"


def exact_color(mag: Real, turns: Real = 0) -> Union[Fraction, ExactColor]:
    """Exact polar color, demoted to a signed Fraction when the phase is real."""
    mag = Fraction(mag)
    turns = Fraction(turns) % 1
    if mag < 0:
        mag, turns = -mag, (turns + _HALF) % 1
    if mag == 0:
        raise ValueError("colors are nonzero")
    if turns == 0:
        return mag
    if turns == _HALF:
        return -mag
    return ExactColor(mag, turns)


def root_of_unity(k: int, n: int) -> Union[Fraction, ExactColor]:
    """exp(2*pi*i*k/n), stored exactly."""
    if n <= 0:
        raise ValueError("root order must be positive")
    return exact_color(1, Fraction(k, n))


def color_sort_key(value: Color) -> tuple:
    """Deterministic total order on colors (not a semantic order)."""
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return (0, f.numerator, f.denominator, 0, 1)
    if isinstance(value, ExactColor):
        return (1, value.mag.numerator, value.mag.denominator,
                value.turns.numerator, value.turns.denominator)
    z = complex(value)
    return (2, z.real, z.imag, 0, 1)
