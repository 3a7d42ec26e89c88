"""Scalars used as colors, shifts and coefficients.

A *color* is a nonzero, finite scalar (``check_color``) attached to a
letter or a parameter tuple. Three representations coexist:

* ``int`` / ``Fraction``   exact real values,
* ``complex`` / ``float``  floating values,
* ``ExactColor``           an exact polar value ``mag * exp(2*pi*i*turns)``
                           with rational ``mag > 0`` and rational ``turns``.

``exact_color`` normalises on construction: ``turns`` congruent to 0 or 1/2
collapses to a plain (signed) ``Fraction``, so an ``ExactColor`` instance
always has a genuinely complex phase. Products and quotients of exact values
stay exact; anything mixed with a float goes float.

Every rule that branches on scalar types lives here: ``check_color``,
``real_shift`` (a shift is a real within float range), ``scalar_tag`` (a
letter field's identity beyond ``==``), ``in_range`` (a computed value
past float range is an overflow), ``ratio``, ``cumulative``,
``float_or_complex`` (the float type a sum of colors can run in),
``unit_sign``, ``root_order`` and ``color_sort_key``. Exact values are
read through their integer numerator and denominator.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Union

Real = Union[int, float, Fraction]
Color = Union[int, Fraction, float, complex, "ExactColor"]

_HALF = Fraction(1, 2)
# the largest float as an int: an int compares with it exactly, and a
# Fraction does through its numerator and denominator
_FLOAT_MAX = int(sys.float_info.max)


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
        return (0, value.numerator, value.denominator, 0, 1)
    if isinstance(value, ExactColor):
        return (1, value.mag.numerator, value.mag.denominator,
                value.turns.numerator, value.turns.denominator)
    z = complex(value)
    return (2, z.real, z.imag, 0, 1)


def check_color(c: Color, zero: bool = False) -> None:
    """Refuses a color that is not a ``Color`` (a bool is not one), is zero
    (unless ``zero``, as a letter's monoid value may be) or is not finite."""
    if (type(c) is bool
            or not isinstance(c, (int, float, complex, ExactColor, Fraction))):
        raise ValueError(
            f"colors must be int, Fraction, float, complex or ExactColor, got {c!r}")
    if not c and not zero:
        raise ValueError("colors must be nonzero")
    scalar_tag(c)


def real_shift(t) -> Real:
    """A shift within float range, where the evaluator reads it: exact
    values become Fractions, floats stay floats, anything else is refused."""
    if (isinstance(t, bool) or not isinstance(t, (int, float, Fraction))
            or not _within_float_range(t)):
        raise ValueError(f"shifts must be reals within float range, got {t!r}")
    return t if isinstance(t, float) or type(t) is Fraction else Fraction(t)


def _within_float_range(v) -> bool:
    """|v| <= sys.float_info.max for a real v, exactly."""
    if isinstance(v, (int, float)):
        return abs(v) <= _FLOAT_MAX
    return abs(v.numerator) <= _FLOAT_MAX * v.denominator


def scalar_tag(v) -> object:
    """Type and float signs of a scalar (== ignores both); refuses non-finite."""
    if isinstance(v, (float, complex)):
        if not cmath.isfinite(v):
            raise ValueError(f"scalars must be finite, got {v!r}")
        return type(v), math.copysign(1, v.real), math.copysign(1, v.imag)
    return type(v)


def in_range(v, shift: bool = False):
    """``v``, a value the library computed from valid scalars. Past float
    range it is a float overflow (``OverflowError``), not the caller's
    error: a float or complex that is not finite, or a shift beyond
    ``sys.float_info.max``."""
    if (not _within_float_range(v) if shift
            else isinstance(v, (float, complex)) and not cmath.isfinite(v)):
        raise OverflowError("computed shift beyond float range" if shift
                            else f"computed value {v!r}")
    return v


def ratio(c: Color, prev: Color) -> Color:
    """c / prev; a ratio of ints stays exact (an int when it divides)."""
    if isinstance(c, int) and isinstance(prev, int):
        q = Fraction(c, prev)
        return q.numerator if q.denominator == 1 else q
    return in_range(c / prev)


def cumulative(xi) -> tuple:
    """Prefix products xi_1, xi_1 xi_2, ... of a color sequence."""
    return tuple(map(in_range, accumulate(xi, mul, initial=1)))[1:]


def float_or_complex(values) -> list:
    """``values`` as floats when every imaginary part is 0 (of either
    sign), else as complexes."""
    zs = [v.numerator / v.denominator if type(v) is Fraction else complex(v)
          for v in values]
    return ([complex(z) for z in zs] if any(z.imag for z in zs)
            else [z.real for z in zs])


def unit_sign(c: Color) -> int:
    """-1, 0 or 1 as |c| is below, at or above 1, exactly for exact c."""
    if isinstance(c, (float, complex)):
        n, d = abs(c), 1
    else:
        m = c.mag if isinstance(c, ExactColor) else c
        n, d = abs(m.numerator), m.denominator
    return (n > d) - (n < d)


def root_order(c: Color) -> int:
    """The order of ``c`` as an exact root of unity (never a float), else 0."""
    if isinstance(c, (float, complex)) or unit_sign(c):
        return 0
    if isinstance(c, ExactColor):
        return c.turns.denominator
    return 1 if c > 0 else 2
