"""The scalar rules of ``polyzeta.scalars``, which read an exact value's
integer numerator and denominator, against their Fraction-arithmetic
references in ``oracles`` on a seeded battery: the same answers, the same
types and the same float bits."""

import random
import sys
from fractions import Fraction as F

import pytest

from oracles import (color_is_zero_reference, color_sort_key_reference,
                     condition_e_reference, float_or_complex_reference,
                     is_convergent_reference, real_shift_reference,
                     root_order_reference, shift_in_range_reference,
                     unit_sign_reference)
from polyzeta.scalars import (check_color, color_sort_key, exact_color,
                              float_or_complex, in_range, real_shift,
                              root_of_unity, root_order, unit_sign)
from polyzeta.zeta import PolyzetaParams

MAX = int(sys.float_info.max)
# just past the largest float, by 1/10^9
PAST_MAX = F(MAX * 10**9 + 1, 10**9)


class Sub(F):
    """A Fraction subclass: the rules treat it as a Fraction."""


def exact_reals(rng, n: int = 300) -> list:
    values = [0, 1, -1, 2, F(0), F(1), F(-1), F(1, 2), True, False,
              MAX, -MAX, MAX + 1, -MAX - 1, F(MAX), F(-MAX), PAST_MAX,
              -PAST_MAX, F(MAX * 10**9 - 1, 10**9), 10**400, F(-10**400),
              Sub(1, 2), Sub(-1), Sub(MAX), Sub(3 * MAX + 1, 3)]
    for _ in range(n):
        d = rng.choice((1, 2, 3, 10**9, 2**60 + 1, rng.randint(1, 10**30)))
        num = rng.choice((rng.randint(-12, 12), rng.randint(-10**20, 10**20),
                          MAX * d + rng.randint(-3, 3),
                          -MAX * d + rng.randint(-3, 3)))
        values.append(F(num, d))
        values.append(Sub(num, d))
        values.append(rng.randint(-3, 3) * rng.choice((1, MAX, 10**300)))
    return values


def floats(rng, n: int = 200) -> list:
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, sys.float_info.max,
              -sys.float_info.max, 1e-300, float("inf"), float("nan")]
    values += [rng.uniform(-2, 2) for _ in range(n)]
    values += [rng.choice((-1, 1)) * 10.0 ** rng.randint(-320, 308)
               for _ in range(n)]
    return values


def complexes(rng, n: int = 200) -> list:
    values = [0j, complex(-0.0, 0), complex(0, -0.0), 1j, -1j, 1 + 0j,
              complex(1, -0.0), complex(0.6, 0.8), complex(-0.8, 0.6)]
    values += [complex(rng.uniform(-1.5, 1.5), rng.choice((0.0, -0.0,
                                                          rng.uniform(-1, 1))))
               for _ in range(n)]
    return values


def exact_colors(rng, n: int = 200) -> list:
    values = [root_of_unity(k, m) for m in range(1, 9) for k in range(m)]
    for _ in range(n):
        mag = rng.choice((1, F(1, 2), F(3, 2), F(rng.randint(1, 10**12),
                                                  rng.randint(1, 10**12))))
        values.append(exact_color(mag, F(rng.randint(0, 11), 12)))
    return values


RNG = random.Random(20121)
EXACT = exact_reals(RNG)
FLOATS = floats(RNG)
COMPLEXES = complexes(RNG)
POLAR = exact_colors(RNG)
COLORS = [v for v in EXACT + FLOATS + COMPLEXES + POLAR
          if type(v) is not bool and v == v and abs(v) != float("inf")]


def outcome(fn, v):
    """(type, repr) of fn(v), or the type of the error it raises."""
    try:
        out = fn(v)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return type(out), repr(out)


def test_real_shift_matches_its_reference():
    for v in EXACT + FLOATS + COMPLEXES + POLAR + ["1", None]:
        assert outcome(real_shift, v) == outcome(real_shift_reference, v), v


def test_real_shift_bound_at_the_largest_float():
    for edge in (F(MAX), F(-MAX), Sub(MAX), MAX, -MAX):
        assert real_shift(edge) == edge and type(real_shift(edge)) is F
        assert in_range(edge, shift=True) == edge
    for past in (PAST_MAX, -PAST_MAX, Sub(MAX * 10**9 + 1, 10**9)):
        with pytest.raises(ValueError):
            real_shift(past)
        with pytest.raises(OverflowError):
            in_range(past, shift=True)


def test_shift_range_matches_its_reference():
    for v in EXACT + FLOATS:
        fits = outcome(lambda u: in_range(u, shift=True), v) != OverflowError
        assert fits == shift_in_range_reference(v), v


def test_zero_colors_match_their_reference():
    for c in COLORS:
        refused = outcome(check_color, c) == ValueError
        assert refused == color_is_zero_reference(c), c
        check_color(c, zero=True)


def test_unit_sign_matches_its_reference():
    for c in COLORS:
        assert unit_sign(c) == unit_sign_reference(c), c
    for unit in (1, -1, F(1), F(-1), Sub(-1), 1.0, -1.0, 1j,
                 root_of_unity(1, 3)):
        assert unit_sign(unit) == 0
    assert unit_sign(F(MAX, MAX + 1)) == -1 and unit_sign(Sub(3, 2)) == 1


def test_root_order_and_sort_key_match_their_references():
    for c in COLORS:
        assert root_order(c) == root_order_reference(c), c
        assert color_sort_key(c) == color_sort_key_reference(c), c


def test_float_or_complex_matches_its_reference_bit_for_bit():
    rng = random.Random(7)
    for _ in range(500):
        values = rng.sample(COLORS, rng.randint(1, 4))
        assert (outcome(float_or_complex, values)
                == outcome(float_or_complex_reference, values)), values


def test_condition_e_and_convergence_match_their_references():
    rng = random.Random(11)
    shifts = [F(m * 10**20 + d, 10**20) for m in range(-1, 4)
              for d in (-1, 0, 1)]
    shifts += [0, 1, 2, -3, 0.5, 1.0, 2.9999999999999996]
    colors = [v for v in COLORS if 0 < abs(v) < 4]
    for _ in range(2000):
        depth = rng.randint(1, 3)
        p = PolyzetaParams(tuple(rng.randint(1, 3) for _ in range(depth)),
                           tuple(rng.choice(colors) for _ in range(depth)),
                           tuple(rng.choice(shifts) for _ in range(depth)))
        assert p.satisfies_condition_e() == condition_e_reference(p), p
        moduli = [abs(c) for c in p.cumulative_colors()]
        assert p.satisfies_condition_e(moduli) == condition_e_reference(p), p
        assert p.is_convergent() == is_convergent_reference(p), p
