import math
import random
import sys
from fractions import Fraction as F

import pytest

from oracles import (brute_M, double_sum_oracle, nested_sum_oracle,
                     rational_grid, single_sum_oracle)
from polyzeta.errors import DivergenceError
import polyzeta.numeric
from polyzeta.numeric import (EvalConfig, EvalResult, VerifyReport,
                              _evaluate, _partial_Ms, _tail_bound, _trie,
                              check_prop_M, eval_di, partial_M,
                              verify_relation)
from polyzeta.scalars import (exact_color, float_or_complex, root_of_unity,
                              root_order)
from polyzeta.zeta import (LinComb, PolyzetaParams, duffle_expand,
                           shuffle_expand)


def P(s, xi, t):
    return PolyzetaParams.of(s, xi, t)


HARMONIC = lambda k: F(1, k)


def test_partial_M_edge_cases():
    assert partial_M(0, (), (), HARMONIC) == 1
    assert partial_M(5, (), (), HARMONIC) == 1
    assert partial_M(1, (1,), (1,), HARMONIC) == 0
    assert partial_M(2, (1, 1), (1, 1), HARMONIC) == 0
    assert partial_M(3, (1,), (1,), HARMONIC) == F(3, 2)


def test_partial_M_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="equal lengths"):
        partial_M(5, (2, 1), (1,), HARMONIC)


def test_exact_colors_refuse_order_zero_and_magnitude_zero():
    with pytest.raises(ValueError, match="root order must be positive"):
        root_of_unity(1, 0)
    with pytest.raises(ValueError, match="colors are nonzero"):
        exact_color(0)


def test_exact_color_negation_and_powers():
    # -1 is half a turn; a power multiplies the turns and raises the modulus
    assert -root_of_unity(1, 3) == root_of_unity(5, 6)
    assert root_of_unity(1, 4) ** -1 == root_of_unity(3, 4)
    assert exact_color(F(1, 2), F(1, 3)) ** 2 == exact_color(F(1, 4), F(2, 3))


def test_partial_M_against_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        r = rng.randint(0, 3)
        n = rng.randint(0, 12)
        s = tuple(rng.randint(1, 3) for _ in range(r))
        xi = tuple(rational_grid(rng) for _ in range(r))
        assert partial_M(n, s, xi, HARMONIC) == brute_M(n, s, xi, HARMONIC)


def test_partial_M_monotone_for_nonnegative_data():
    s, xi = (2, 1), (F(1, 2), F(1, 3))
    prev = 0
    for n in range(15):
        cur = partial_M(n, s, xi, HARMONIC)
        assert cur >= prev
        prev = cur


def test_check_prop_M_hand_cases():
    assert check_prop_M((1,), (1,), (1,), (1,), 4, HARMONIC)
    assert check_prop_M((), (), (2, 1), (1, 1), 7, HARMONIC)
    t = F(1, 3)
    shifted = lambda k: 1 / (k - t)
    assert check_prop_M((2,), (F(1, 2),), (1,), (F(-1),), 6, shifted)
    # colors equal by value but not by type still give one merged term
    assert check_prop_M((2,), (1,), (2,), (F(1),), 6, HARMONIC)
    assert check_prop_M((2,), (-1,), (2,), (F(-1),), 6, HARMONIC)


def test_check_prop_M_exact_after_float_query():
    # the float query fills the shared product memo first; the exact query
    # must still see exact colors (0.5 and 1/2 are equal and hash alike)
    lam = lambda k: 1 / (k - F(1, 3))
    check_prop_M((2, 1), (0.5, 0.75), (1,), (-0.125,), 9, lam)
    assert check_prop_M((2, 1), (F(1, 2), F(3, 4)), (1,), (F(-1, 8),), 9, lam)


def test_check_prop_M_randomized_battery():
    rng = random.Random(31)
    for _ in range(200):
        l1, l2 = rng.randint(0, 3), rng.randint(0, 3)
        s = tuple(rng.randint(1, 3) for _ in range(l1))
        r = tuple(rng.randint(1, 3) for _ in range(l2))
        xi = tuple(rational_grid(rng) for _ in range(l1))
        rho = tuple(rational_grid(rng) for _ in range(l2))
        n = rng.randint(0, 10)
        t = F(rng.randint(-3, 0), rng.randint(1, 4))
        lam = lambda k: 1 / (k - t)
        assert check_prop_M(s, xi, r, rho, n, lam)


@pytest.mark.parametrize("c, order", (
    (1, 1), (-1, 2), (F(1), 1), (F(-1), 2),
    (root_of_unity(1, 3), 3), (root_of_unity(2, 6), 3),
    (root_of_unity(3, 4), 4), (root_of_unity(5, 12), 12),
    (2, 0), (F(1, 2), 0), (exact_color(F(1, 2), F(1, 3)), 0),
    (1.0, 0), (-1.0, 0), (1 + 0j, 0), (complex(0, 1), 0),
))
def test_root_order(c, order):
    assert root_order(c) == order


def test_eval_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(tolerance=0)
    with pytest.raises(ValueError):
        EvalConfig(n_start=2**12, n_max=2**10)


def test_eval_rejects_divergent_input():
    with pytest.raises(DivergenceError):
        eval_di(P((1,), (1,), (0,)))
    with pytest.raises(DivergenceError):
        eval_di(P((2,), (F(3, 2),), (0,)))  # violates the modulus condition
    with pytest.raises(DivergenceError):
        eval_di(P((2,), (1,), (2,)))  # shift past 1


@pytest.mark.parametrize("p", (P((30,), (1,), (0.999999999999999,)),
                               P((2, 30), (1, 1), (0, 0.999999999999999)),
                               P((20,), (1,), (0.9999999999999999,))))
def test_eval_refuses_a_first_column_past_float_range(p):
    # (1 - t)^30 is 0.0 in floats, so the first column would divide by zero;
    # (1 - t)^20 is subnormal, and the first column would be infinite
    assert p.satisfies_condition_e() and p.is_convergent()
    with pytest.raises(OverflowError, match="first column"):
        eval_di(p)


@pytest.mark.parametrize("p, level", (
    (P((2,), (1,), (1 - F(1, 10**20),)), "t_1 = 99999999999999999999/"
     "100000000000000000000 rounds to its least index 1"),
    (P((3, 2), (1, 1), (0, 1 - F(1, 10**20))), "t_2 = 9"),
    (P((2, 2), (1, 1), (2 - F(1, 10**20), 0)), "least index 2"),
), ids=("depth-1", "last-level", "first-level"))
def test_eval_names_a_shift_that_rounds_to_its_least_index(p, level):
    # the exact shift satisfies condition (e), but in floats the first
    # column divides by 0: the shift's rounding, not an underflow, is named
    assert p.satisfies_condition_e() and p.is_convergent()
    with pytest.raises(OverflowError, match="first column") as info:
        eval_di(p)
    assert level in str(info.value) and "in floats" in str(info.value)
    assert "underflow" not in str(info.value)


def test_eval_keeps_an_outer_level_whose_first_power_is_subnormal():
    # (1 - t1)^20 is subnormal, but n1 >= 2 keeps every term in range, and
    # column 1 only divides 0 by it
    t = 0.9999999999999999
    res = eval_di(P((20, 2), (1, 1), (t, 0)))
    direct = sum(sum(1 / m**2 for m in range(1, n)) / (n - t) ** 20
                 for n in range(2, 100))
    assert res.converged and abs(res.value - direct) < 1e-14


def test_eval_keeps_an_outer_level_whose_shift_is_just_below_one():
    # (1 - t1)^30 is 0 in floats, but level 1 starts at its least index 2
    p = P((30, 2), (1, 1), (0.999999999999999, 0))
    res = eval_di(p)
    direct = nested_sum_oracle(p.s, p.xi, p.t, 200)
    assert res.converged and abs(res.value - 1.0000000011641332) < 1e-15
    assert abs(res.value - direct) <= res.error_estimate


def test_eval_sums_a_level_whose_powers_leave_float_range():
    # k^200 overflows from k = 35 on, where 1/k^200 is at most subnormal,
    # and past n2 = 1 the inner sum adds only about 2^-200, so
    # Z((2,200);(1,1);(0,0)) = pi^2/6 - 1 in floats
    res = eval_di(P((2, 200), (1, 1), (0, 0)))
    assert res.converged
    assert abs(res.value - (math.pi**2 / 6 - 1)) <= res.error_estimate


def test_eval_divides_a_large_inner_sum_by_a_power_past_float_range():
    # (n2 - t2)^-20 is about 1e300 at n2 = 1, and (n1 - t1)^50 leaves float
    # range from n1 = 3 on: the outer columns stay about 1e-9 there, so
    # dropping them would lose half the value
    top = sys.float_info.max ** (1 / 50)
    t1, t2 = 2.5 - top, 1 - 1e-15
    assert (2 - t1) ** 50 <= sys.float_info.max
    with pytest.raises(OverflowError):
        (3 - t1) ** 50
    res = eval_di(P((50, 20), (0.5, 1), (t1, t2)))
    # the direct sum over n1 > n2 >= 1, scaled by (2 - t1)^50 to stay finite
    ref = math.fsum(
        0.5 ** n1 * ((2 - t1) / (n1 - t1)) ** 50 * math.fsum(
            (n2 - t2) ** -20 for n2 in range(1, n1)) / (2 - t1) ** 50
        for n1 in range(2, 100))
    assert res.converged and ref > 2.8e-9
    assert abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("s2, t1, t2", (
    (3, F(1), F(1, 2)),  # 13.387498515846966
    (2, F(6, 5), F(3, 5)),  # 14.880920492411709
))
def test_eval_hurwitz_sums_with_shifts_past_one(s2, t1, t2):
    # level 1 of a depth-2 sum starts at n1 = 2, so t1 < 2 keeps it finite:
    # the sum is sum over n1 >= 2 of (n1 - t1)^-2 (zeta(s2, 1 - t2) -
    # zeta(s2, n1 - t2)) with Hurwitz zetas
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a = mpmath.mpf(t1.numerator) / t1.denominator
        b = mpmath.mpf(t2.numerator) / t2.denominator
        ref = complex(mpmath.nsum(
            lambda n: (n - a) ** -2 * (mpmath.zeta(s2, 1 - b)
                                       - mpmath.zeta(s2, n - b)),
            [2, mpmath.inf]))
    res = eval_di(P((2, s2), (1, 1), (t1, t2)))
    assert res.converged and abs(res.value - ref) <= res.error_estimate


def test_eval_inner_level_just_below_its_least_index():
    # level 2 starts at n2 = 2, so t2 = 1 - 2^-53 keeps (n2 - t2)^-20 near 1
    # there; a base at 1 instead, (1 - t2)^-20, is past float range. In
    # Hurwitz form the sum is sum over n2 >= 2 of (n2 - t2)^-20
    # (zeta(2) - zeta(2, n2)) zeta(2, n2 + 1)
    mpmath = pytest.importorskip("mpmath")
    t2 = 0.9999999999999999
    with mpmath.workdps(30):
        ref = complex(mpmath.nsum(
            lambda n: (n - mpmath.mpf(t2)) ** -20
            * (mpmath.zeta(2) - mpmath.zeta(2, n)) * mpmath.zeta(2, n + 1),
            [2, mpmath.inf]))
    res = eval_di(P((2, 20, 2), (1, 1, 1), (0, t2, 0)))
    assert res.converged and abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("s, xi, t", (
    ((2,) * 10, (F(1, 2),) + (1,) * 9, (F(19, 2),) + (0,) * 9),
    ((2, 2, 2), (F(1, 2), 1, 1), (0, F(3, 2), 0)),
    ((1, 3, 2), (F(-2, 3), 1, 1), (F(5, 2), F(1, 2), F(-1, 3))),
))
def test_eval_geometric_sums_with_shifts_up_to_the_least_index(s, xi, t):
    # every column below a level's least index is 0; at depth 10 a bound on
    # the negative base N - 1 - t1 would settle the sum there, falsely, at 0
    p = P(s, xi, t)
    q = float(max(abs(c) for c in p.cumulative_colors()))
    assert _tail_bound(p, [float(v) for v in p.t], q,
                       math.floor(max(t)) + 1) == math.inf
    res = eval_di(p)
    assert res.converged and res.n_used > max(t) + 1
    direct = nested_sum_oracle(s, xi, t, 300)
    assert abs(res.value - direct) <= res.error_estimate


def test_eval_depth_zero():
    res = eval_di(PolyzetaParams())
    assert res.value == 1 and res.converged and res.error_estimate == 0


def test_eval_geometric_single_sums():
    cfg = EvalConfig()
    res = eval_di(P((1,), (F(1, 2),), (0,)), cfg)
    assert res.converged
    assert abs(res.value - math.log(2)) < 1e-12
    oracle = single_sum_oracle(1, 0.5, 0.0, res.n_used)
    assert abs(res.value - oracle) < 1e-12


def raw_sum(res: EvalResult, cutoff: int) -> complex:
    """The partial sum below ``cutoff`` as the evaluation's trace holds it."""
    (row,) = [row for row in res.trace if row.cutoff == cutoff]
    return row.partial_sum


@pytest.mark.parametrize("s", (2, 3, 4))
def test_eval_polynomial_single_sums_match_oracle(s):
    cfg = EvalConfig(n_start=2**12, n_max=2**16)
    res = eval_di(P((s,), (1,), (0,)), cfg)
    oracle = single_sum_oracle(s, 1.0, 0.0, res.n_used)
    assert abs(raw_sum(res, res.n_used) - oracle) <= 1e-9
    # classical values as cross-checks, within the reported estimate
    classical = {2: math.pi**2 / 6, 3: 1.2020569031595943, 4: math.pi**4 / 90}
    assert abs(res.value - classical[s]) <= res.error_estimate


def test_eval_error_estimate_is_honest_for_depth_two():
    cfg = EvalConfig(n_start=2**12, n_max=2**16)
    res = eval_di(P((2, 1), (1, 1), (0, 0)), cfg)
    oracle = double_sum_oracle((2, 1), (1, 1), (0, 0), res.n_used)
    assert abs(raw_sum(res, res.n_used) - oracle) <= 1e-9
    # Euler: the full sum is zeta(3); the extrapolated tail reaches it
    # within an estimate that is itself within tolerance
    assert abs(res.value - 1.2020569031595943) <= res.error_estimate <= 1e-10
    assert res.converged


@pytest.mark.parametrize("t", (F(-1, 2), F(0), F(1, 5), F(1, 3), F(1, 2),
                               F(3, 4)))
@pytest.mark.parametrize("s, n_used", ((4, 2**12), (5, 2**10)))
def test_error_estimate_covers_shifted_hurwitz_sums(s, n_used, t):
    # The float color 1.0 takes the plain check alone: converged at the
    # first cutoffs, where the shifted tail and the float rounding of the
    # large first columns decide the estimate. The exact color 1 may stop
    # sooner on the extrapolated tail, within an estimate just as honest.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s, 1 - mpmath.mpf(t.numerator) / t.denominator))
    plain = eval_di(P((s,), (1.0,), (t,)))
    assert abs(plain.value - ref) <= plain.error_estimate
    assert plain.converged and plain.n_used == n_used
    assert plain.value == raw_sum(plain, n_used)
    res = eval_di(P((s,), (1,), (t,)))
    assert abs(res.value - ref) <= res.error_estimate
    assert res.converged and res.n_used <= n_used


def test_eval_shifted_colored_depth_two():
    p = P((2, 1), (0.6, 0.9), (0.2, -0.4))
    res = eval_di(p)
    assert res.converged
    oracle = double_sum_oracle((2, 1), (0.6, 0.9), (0.2, -0.4), res.n_used)
    assert abs(res.value - oracle) < 1e-11


def test_eval_handles_color_ratios_above_one():
    # cumulative moduli (0.5, 0.9) but the level ratio is 1.8; the stable
    # recursion must not overflow
    p = P((2, 1), (0.5, 1.8), (0, 0))
    res = eval_di(p)
    assert res.converged
    assert math.isfinite(abs(res.value))
    oracle = double_sum_oracle((2, 1), (0.5, 1.8), (0, 0), res.n_used)
    assert abs(res.value - oracle) < 1e-11


def test_eval_non_doubling_mode():
    # n_start == n_max: one pass at a fixed cutoff, no doubling
    cfg = EvalConfig(n_start=2**12, n_max=2**12)
    res = eval_di(P((2,), (F(1, 2),), (0,)), cfg)
    assert res.n_used == 2**12
    oracle = single_sum_oracle(2, 0.5, 0.0, 2**12)
    assert abs(res.value - oracle) < 1e-13


_W3 = root_of_unity(1, 3)


@pytest.mark.parametrize("p, cfg, expected", [
    # s1 = 1 with a unit-modulus prefix: the last-column fallback tail
    (P((1, 2), (F(1, 2), 2), (0, 0)), EvalConfig(n_max=2**14),
     ("(0.5082152109416228+0j)", 5.591082361012277e-09, 2**14, False)),
    # zeta(2) at one fixed cutoff
    (P((2,), (1,), (0,)), EvalConfig(n_start=2**12, n_max=2**12),
     ("(1.6446898964184786+0j)", 0.00024425987796097246, 2**12, False)),
    # cube roots of unity: the extrapolated tail, unconverged by 2**13
    (P((3, 1, 2), (1, _W3, _W3 * _W3), (F(1, 3), F(-1, 2), 0)),
     EvalConfig(n_max=2**13),
     ("(-0.025366929794403654+0.026980106754555967j)",
      5.906855775826421e-09, 2**13, False)),
    # geometric tail, stopped once no later column changes the float
    (P((2, 1), (F(-2, 3), F(1, 2)), (F(1, 5), F(-1, 3))), EvalConfig(),
     ("(0.038226604194245895+0j)", 5.686452802524993e-16, 2**7, True)),
    # off the fit path, as before it: a float unit color, mixed moduli
    (P((2,), (-1.0,), (0,)), EvalConfig(n_max=2**14),
     ("(-0.822467035286872+0j)", 6.104447050040251e-05, 2**14, False)),
    (P((2, 2), (F(1, 2), 2), (0, F(1, 3))), EvalConfig(n_max=2**14),
     ("(0.4098479699594618+0j)", 0.00022889580722107894, 2**14, False)),
    # real cumulative colors sum in floats, to the bits complexes gave:
    # zeta(3,1,1) at one fixed cutoff
    (P((3, 1, 1), (1, 1, 1), (0, 0, 0)),
     EvalConfig(n_start=2**12, n_max=2**12),
     ("(0.09654986525247834+0j)", 2.551696528131629e-06, 2**12, False)),
    # t_1 = 1 divides by 0.0 at k = 1, below level 1's least index
    (P((2, 2), (F(-1, 2), -2), (1, F(1, 3))), EvalConfig(n_max=2**14),
     ("(-1.0554480758457072+0j)", 0.00022890977926571656, 2**14, False)),
    # a -0.0 imaginary part counts as real
    (P((2, 1), (complex(-0.5, -0.0), complex(-1.0, -0.0)), (0, 0)),
     EvalConfig(n_max=2**12),
     ("(-0.05835994579314065+0j)", 1.1398217616876683e-13, 64, True)),
])
def test_eval_golden_values(p, cfg, expected):
    # bit-exact pins: any change to the summation order shows up here
    res = eval_di(p, cfg)
    assert (repr(res.value), res.error_estimate, res.n_used,
            res.converged) == expected


@pytest.mark.parametrize("values, kind", [
    ((1, F(-1, 2), -3), float),
    ((complex(0.5, 0.0), complex(-1.0, -0.0), F(1, 3)), float),
    ((1, root_of_unity(1, 3), F(1, 2)), complex),
], ids=("exact-reals", "zero-imaginary-parts", "one-root-of-unity"))
def test_float_or_complex_takes_floats_only_when_every_value_is_real(
        values, kind):
    got = float_or_complex(values)
    assert all(type(v) is kind for v in got)
    assert [complex(v) for v in got] == [complex(v) for v in values]


def test_eval_trace_keeps_the_raw_partial_sums():
    # the fit reads the column loop's rows without changing them: the raw
    # partial sum below 2**13 is the one the plain evaluator returned, and
    # every row is the sum a single fixed cutoff gives
    p = P((3, 1, 2), (1, _W3, _W3 * _W3), (F(1, 3), F(-1, 2), 0))
    res = eval_di(p, EvalConfig(n_max=2**13))
    assert repr(raw_sum(res, 2**13)) == \
        "(-0.025366927686178438+0.026980105215045954j)"
    assert res.trace[-1].cutoff == res.n_used
    assert [row.cutoff for row in res.trace] == sorted(
        {row.cutoff for row in res.trace})
    for row in res.trace[::4]:
        alone = eval_di(p, EvalConfig(n_start=row.cutoff, n_max=row.cutoff))
        assert alone.value == row.partial_sum and len(alone.trace) == 1
    fits = [row for row in res.trace if row.fit_order]
    assert fits and all(row.cutoff % 3 == 0 and row.fit_gap >= 0
                        for row in fits)


def test_verify_trivial_unit_relation():
    p = P((2,), (F(1, 2),), (0,))
    rep = verify_relation((p, PolyzetaParams()), LinComb.monomial(p))
    assert rep.ok and rep.residual < 1e-14


def test_verify_worked_shuffle_example():
    a = P((3,), (0.5,), (0.2,))
    b = P((2,), (-0.7,), (-0.3,))
    rep = verify_relation((a, b), shuffle_expand(a, b))
    assert rep.ok
    assert rep.residual <= 1e-8
    assert rep.converged


def test_verify_worked_duffle_example():
    a = P((3, 1), (F(2, 3), F(-1)), (0, 0))
    b = P((2,), (F(1, 2),), (0,))
    rep = verify_relation((a, b), duffle_expand(a, b))
    assert rep.ok
    assert rep.residual <= 1e-8


def test_verify_deep_expansions():
    import cmath
    rng = random.Random(2718)

    def draw(depth, t_values):
        s = (rng.randint(2, 3),) + tuple(rng.randint(1, 2)
                                         for _ in range(depth - 1))
        cums = [cmath.rect(rng.uniform(0.25, 0.85),
                           rng.uniform(0, 2 * math.pi)) for _ in range(depth)]
        xi = [cums[0]] + [cums[i] / cums[i - 1] for i in range(1, depth)]
        return PolyzetaParams.of(s, xi,
                                 tuple(rng.choice(t_values)
                                       for _ in range(depth)))

    cfg = EvalConfig(n_start=2**9, n_max=2**16)
    p, q = draw(3, (-0.4, 0.1)), draw(2, (-0.2, 0.3))
    rep = verify_relation((p, q), shuffle_expand(p, q), cfg)
    assert rep.residual <= 1e-10

    t0 = -0.25
    p, q = draw(2, (t0,)), draw(2, (t0,))
    rep = verify_relation((p, q), duffle_expand(p, q), cfg)
    assert rep.residual <= 1e-10


def test_verify_with_exact_polar_colors():
    p = P((2,), (F(1, 2) * root_of_unity(1, 3),), (F(1, 5),))
    q = P((3,), (F(3, 4) * root_of_unity(5, 7),), (F(-1, 3),))
    rep = verify_relation((p, q), shuffle_expand(p, q),
                          EvalConfig(n_start=2**9, n_max=2**14))
    assert rep.ok and rep.residual <= 1e-10


@pytest.mark.parametrize("t", (F(1, 2), F(3, 5)))
def test_verify_shuffle_square_with_shifts_adding_past_one(t):
    # Z(2;1;t)^2 has the term Z((2,2);(1,1);(2t,t)), convergent as n1 >= 2
    p = P((2,), (1,), (t,))
    lc = shuffle_expand(p, p)
    assert P((2, 2), (1, 1), (2 * t, t)) in lc.terms
    rep = verify_relation((p, p), lc)
    assert rep.ok and rep.converged


def test_verify_names_divergent_terms():
    p = P((2,), (F(1, 2),), (0,))
    bad = P((1,), (1,), (0,))
    with pytest.raises(DivergenceError) as err:
        verify_relation((p, p), LinComb.monomial(bad))
    assert "s=(1)" in str(err.value)


def test_verify_detects_wrong_expansion():
    a = P((3,), (0.5,), (0.0,))
    b = P((2,), (0.5,), (0.0,))
    wrong = shuffle_expand(a, b) + LinComb.monomial(P((2,), (F(1, 3),), (0,)))
    rep = verify_relation((a, b), wrong)
    assert not rep.ok
    assert rep.residual > 1e-3


def test_result_types():
    res = eval_di(P((2,), (F(1, 2),), (0,)))
    assert isinstance(res, EvalResult)
    rep = verify_relation((PolyzetaParams(), PolyzetaParams()),
                          LinComb.monomial(PolyzetaParams()))
    assert isinstance(rep, VerifyReport)
    assert rep.residual == 0


def test_verify_fails_unconverged_evaluations():
    # the residual sits far inside the (unconverged) error budget, but the
    # alternating-color terms stop at one fixed cutoff, too few rows for a
    # fit, short of the tolerance
    a = P((2, 1), (1, -1), (0, 0))
    b = P((3,), (-1,), (0,))
    rep = verify_relation((a, b), duffle_expand(a, b),
                          EvalConfig(n_start=2**10, n_max=2**10))
    assert not rep.converged
    assert rep.residual <= rep.tolerance
    assert not rep.ok


@pytest.mark.parametrize("tol", (math.inf, math.nan))
def test_eval_config_refuses_non_finite_tolerance(tol):
    with pytest.raises(ValueError):
        EvalConfig(tolerance=tol)


@pytest.mark.parametrize("tol", (math.inf, math.nan, -1e-3))
def test_verify_refuses_non_finite_residual_tolerance(tol):
    # a wrong identity: an infinite tolerance used to pass it
    a = P((2,), (F(1, 2),), (0,))
    b = P((3,), (F(1, 3),), (0,))
    wrong = LinComb.monomial(P((2,), (F(1, 5),), (0,)))
    with pytest.raises(ValueError):
        verify_relation((a, b), wrong, residual_tolerance=tol)


# --- honesty battery: error_estimate >= |value - mpmath| ------------------

def _mp(v):
    mpmath = pytest.importorskip("mpmath")
    if isinstance(v, F):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpmathify(v)


def _power_sum(x, s, t):
    """sum over m >= 1 of x^m / (m - t)^s."""
    mpmath = pytest.importorskip("mpmath")
    return (mpmath.zeta(s, 1 - t) if x == 1
            else x * mpmath.lerchphi(x, s, 1 - t))


def _diagonal_ref(depth, s, xi, t):
    """The diagonal sum as the elementary symmetric function of its terms,
    by Newton's identities on the power sums."""
    mpmath = pytest.importorskip("mpmath")
    # the identities cancel about depth * s * log10(1 / (1 - t)) digits
    with mpmath.workdps(30 + int(depth * s * -math.log10(min(1, 1 - t)))):
        x, tt = _mp(xi), _mp(t)
        p = [None] + [_power_sum(x**j, j * s, tt)
                      for j in range(1, depth + 1)]
        if depth == 1:
            return complex(p[1])
        if depth == 2:
            return complex((p[1]**2 - p[2]) / 2)
        return complex((p[1]**3 - 3 * p[1] * p[2] + 2 * p[3]) / 6)


def _direct_ref(s, xi, t, cutoff):
    """The nested sum below ``cutoff`` in mpmath, level by level."""
    xs, ts = [_mp(v) for v in xi], [_mp(v) for v in t]
    below = [0] * len(s) + [1]  # below[i]: levels i.. over indices < m
    for m in range(1, cutoff):
        for i in range(len(s)):
            below[i] += xs[i]**m / (m - ts[i])**s[i] * below[i + 1]
    return below[0]


def _unit_ref(s, t):
    """All colors 1 and inner exponents >= 2: the outer terms times the
    inner partial sums have an expansion in 1/n1, so Richardson
    extrapolation of the outer sum converges."""
    mpmath = pytest.importorskip("mpmath")
    ts = [_mp(v) for v in t]
    below, inner = [0] * len(s) + [1], [0]

    def term(n):
        n = int(n)
        while len(inner) < n:
            m = len(inner)
            for i in range(1, len(s)):
                below[i] += below[i + 1] / (m - ts[i])**s[i]
            inner.append(below[1] if len(s) > 1 else 1)
        return inner[n - 1] / (n - ts[0])**s[0]

    return mpmath.nsum(term, [1, mpmath.inf], method="richardson")


def _mixed_ref(s, c1, t):
    """Depth 2 with cumulative colors (c1, 1), |c1| < 1: the sum over n2 of
    f2(n2) times the sum over k >= 1 of c1^k f1(n2 + k), whose geometric
    inner sum is cut where c1^k drops under the working precision."""
    mpmath = pytest.importorskip("mpmath")
    c, t1, t2 = _mp(c1), _mp(t[0]), _mp(t[1])
    cut = int(mpmath.mp.dps / -mpmath.log10(abs(c))) + 2
    powers = [c**k for k in range(1, cut)]
    return mpmath.nsum(lambda n: mpmath.fsum(
        ck / (n + k - t1)**s[0] for k, ck in enumerate(powers, 1))
        / (n - t2)**s[1], [1, mpmath.inf], method="richardson")


# a float root of unity whose modulus rounds to 1 - 2^-53
_FLOAT_CUBE_ROOT = complex(-0.4999999999999998, 0.8660254037844387)
_NEAR_ONE = (F(9, 10), F(99, 100), 0.999)
_SHIFTS = (F(-3, 2), F(-1, 3), F(0), F(1, 5), F(1, 2), F(3, 4)) + _NEAR_ONE
_CONFIGS = (EvalConfig(tolerance=1e-6, n_start=16, n_max=2**12),
            EvalConfig(tolerance=1e-6, n_start=2**10, n_max=2**14),
            EvalConfig(tolerance=1e-10, n_start=64, n_max=2**12),
            EvalConfig(n_start=128, n_max=128),
            EvalConfig(n_start=2**10, n_max=2**10))


def _geometric_color(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return F(rng.choice((-1, 1)) * rng.randint(1, 8), 10)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.uniform(0.1, 0.9)
    return complex(*(rng.uniform(-0.6, 0.6) for _ in range(2)))


def _misses(cases):
    """Every (params, config) whose estimate does not cover the error
    against the reference, over (params, reference) cases and _CONFIGS."""
    misses = []
    for p, ref in cases:
        for cfg in _CONFIGS:
            res = eval_di(p, cfg)
            if not abs(res.value - complex(ref)) <= res.error_estimate:
                misses.append((p.pretty(), cfg, abs(res.value - complex(ref)),
                               res.error_estimate))
    return misses


def test_error_estimates_cover_random_diagonal_sums():
    # depth 1-3, geometric (exact, float and complex) and unit (exact and
    # float) colors, shifts near 1
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261)
    cases = []
    with mpmath.workdps(30):
        for _ in range(24):
            depth, t = rng.randint(1, 3), rng.choice(_SHIFTS)
            if rng.random() < 0.5:
                s, xi = rng.randint(1, 4), _geometric_color(rng)
            else:
                s, xi = rng.randint(2, 5), rng.choice((1, -1, 1.0, -1.0, 1j,
                                                       _FLOAT_CUBE_ROOT))
            p = P((s,) * depth, (xi,) * depth, (t,) * depth)
            cases.append((p, _diagonal_ref(depth, s, xi, t)))
    assert _misses(cases) == []


def test_error_estimates_cover_random_geometric_sums():
    # cumulative moduli below 0.85, level ratios up to 2: summed in mpmath
    # far past the point where q^n drops under the working precision
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20262)
    cases = []
    with mpmath.workdps(30):
        for _ in range(12):
            depth = rng.randint(2, 3)
            s = tuple(rng.randint(1, 4) for _ in range(depth))
            cums = [rng.choice((-1, 1)) * F(rng.randint(2, 17), 20)
                    for _ in range(depth)]
            xi = [cums[0]] + [cums[i] / cums[i - 1] for i in range(1, depth)]
            if rng.random() < 0.5:
                xi = [complex(v) for v in xi]
            t = tuple(rng.choice(_SHIFTS) for _ in range(depth))
            cases.append((P(s, xi, t), _direct_ref(s, xi, t, 700)))
    assert _misses(cases) == []


def test_error_estimates_cover_random_unit_and_mixed_sums():
    # non-diagonal sums in the polynomial regime: every color 1 (depth 2-3)
    # or cumulative colors (c1, 1) with |c1| < 1 (depth 2)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20263)
    cases = []
    with mpmath.workdps(30):
        for _ in range(8):
            depth = rng.randint(2, 3)
            s = (rng.randint(2, 4),) + tuple(rng.randint(2, 3)
                                             for _ in range(depth - 1))
            t = tuple(rng.choice(_SHIFTS) for _ in range(depth))
            one = rng.choice((1, 1.0))
            cases.append((P(s, (one,) * depth, t), _unit_ref(s, t)))
        for _ in range(6):
            s = (rng.randint(2, 4), rng.randint(1, 3))
            t = tuple(rng.choice(_SHIFTS) for _ in range(2))
            c1 = rng.choice((-1, 1)) * F(rng.randint(1, 3), 5)
            cases.append((P(s, (c1, 1 / c1), t), _mixed_ref(s, c1, t)))
    assert _misses(cases) == []


def test_float_roots_of_unity_stop_on_the_polynomial_bound():
    # modulus just below 1: the geometric bound is useless, the polynomial
    # one converges as at an exact unit color
    mpmath = pytest.importorskip("mpmath")
    assert abs(_FLOAT_CUBE_ROOT) < 1
    p = P((3,), (_FLOAT_CUBE_ROOT,), (0,))
    res = eval_di(p, EvalConfig(tolerance=1e-6, n_max=2**14))
    with mpmath.workdps(30):
        ref = _diagonal_ref(1, 3, _FLOAT_CUBE_ROOT, F(0))
    assert res.converged and res.n_used == 2**10
    assert abs(res.value - ref) <= res.error_estimate


@pytest.mark.parametrize("depth, estimate_at_least", ((2, 8.0e-8),
                                                     (3, 3.7e-8)))
def test_error_estimate_covers_large_inner_sums(depth, estimate_at_least):
    # the inner levels start at (1 - 3/4)^-4 = 256; a depth-1 bound widened
    # by (1 + ln N)^(r - 1) reported 2.7e-9 and 2.0e-8 here
    mpmath = pytest.importorskip("mpmath")
    cfg = EvalConfig(tolerance=1e-6, n_start=2**10, n_max=2**14)
    res = eval_di(P((4,) * depth, (1,) * depth, (F(3, 4),) * depth), cfg)
    with mpmath.workdps(30):
        ref = complex(_diagonal_ref(depth, 4, 1, F(3, 4)))
    assert abs(res.value - ref) <= res.error_estimate
    assert res.error_estimate >= estimate_at_least and res.converged


def test_repinned_goldens_cover_their_mpmath_error():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        geometric = P((2, 1), (F(-2, 3), F(1, 2)), (F(1, 5), F(-1, 3)))
        res = eval_di(geometric)
        ref = _direct_ref(geometric.s, geometric.xi, geometric.t, 400)
        assert abs(res.value - complex(ref)) <= res.error_estimate
        mixed = P((2, 2), (F(1, 2), 2), (0, F(1, 3)))
        res = eval_di(mixed, EvalConfig(n_max=2**14))
        ref = _mixed_ref(mixed.s, F(1, 2), mixed.t)
        assert abs(res.value - complex(ref)) <= res.error_estimate
        # the README eval example, Li_2(1/2)
        res = eval_di(P((2,), (0.5,), (0,)))
        ref = mpmath.pi**2 / 12 - mpmath.log(2)**2 / 2
        assert abs(res.value - complex(ref)) <= res.error_estimate
        assert res.n_used < 2**10 and res.converged


def test_geometric_sums_stop_where_no_column_changes_the_float():
    # the value is the one the default first cutoff gives, bit for bit
    p = P((2, 1), (F(-2, 3), F(1, 2)), (F(1, 5), F(-1, 3)))
    res = eval_di(p)
    fixed = eval_di(p, EvalConfig(n_start=2**10, n_max=2**10))
    assert res.value == fixed.value and res.n_used == 2**7
    assert [row.cutoff for row in res.trace] == [8, 16, 32, 64, 128]


def test_geometric_sums_below_float_noise_stop_unconverged():
    # no estimate can fall below the rounding term, so once the sum has
    # settled the evaluator stops instead of running to n_max
    p = P((3,), (0.5,), (0.0,))
    res = eval_di(p, EvalConfig(tolerance=1e-30))
    assert not res.converged and res.n_used <= 2**10
    assert res.value == eval_di(p).value


# --- the joint pass over a relation's terms --------------------------------
# verify_relation sums p, q and every expansion term in one pass that shares
# their inner levels; each term must come out bit for bit as eval_di alone
# gives it, trace included.

_JOINT_CFG = EvalConfig(n_start=2**8, n_max=2**11)


def _joint_relations():
    """(p, q, expansion) triples: real, complex and mixed terms, fits at
    roots of unity, depth-0 factors, and terms that stop early beside
    terms that run to n_max."""
    rng = random.Random(2024)
    w3, w4 = root_of_unity(1, 3), root_of_unity(1, 4)
    colors = (F(1, 2), F(-2, 3), F(3, 4), F(-1, 3), exact_color(F(1, 2), F(1, 3)),
              0.5, complex(0.25, -0.5), w3, -1)
    shifts = (0, F(1, 3), F(-1, 2), F(1, 5))
    fixed = [
        # the README-style shuffle whose terms share suffixes
        (P((2, 1, 2), (F(1, 2), F(-2, 3), F(3, 4)), (0, F(1, 3), 0)),
         P((1, 2, 1), (F(-1, 3), F(1, 2), F(2, 3)), (F(-1, 2), 0, F(1, 5)))),
        # real and complex terms side by side, fitted at multiples of 3
        (P((2, 1), (-1, w3), (0, 0)), P((2,), (w3,), (0,))),
        (P((2,), (w4,), (0,)), P((3,), (-1,), (0,))),
        # a float unit color never fits: its terms run to n_max, while the
        # geometric factor stops below n_start
        (P((2,), (1.0,), (0,)), P((2,), (F(1, 2),), (0,))),
        # depth-0 factors
        (P((2, 1), (F(1, 2), F(1, 3)), (0, 0)), PolyzetaParams()),
        (PolyzetaParams(), PolyzetaParams()),
    ]
    for p, q in fixed:
        yield p, q, shuffle_expand(p, q)
        if p.t[:1] == q.t[:1] or not (p.depth and q.depth):
            yield p, q, duffle_expand(p, q)
    for _ in range(12):
        t = rng.choice(shifts)
        p, q = (P(tuple(rng.randint(1, 3) for _ in range(d)),
                  tuple(rng.choice(colors) for _ in range(d)), (t,) * d)
                for d in (rng.randint(1, 2), rng.randint(1, 2)))
        if not all(x.satisfies_condition_e() and x.is_convergent()
                   for x in (p, q)):
            continue
        yield p, q, (duffle_expand if rng.random() < 0.5
                     else shuffle_expand)(p, q)


def test_joint_pass_equals_each_term_alone():
    kinds, n_used = set(), set()
    for p, q, lc in _joint_relations():
        jobs = [p, q] + [term for term, _ in lc.sorted_terms()]
        joint = _evaluate(jobs, _JOINT_CFG)
        alone = [eval_di(job, _JOINT_CFG) for job in jobs]
        assert repr(joint) == repr(alone), p.pretty() + " * " + q.pretty()
        kinds |= {type(v) for job in jobs
                  for v in float_or_complex(job.cumulative_colors())}
        n_used |= {(res.n_used == _JOINT_CFG.n_max, res.n_used < 2**8)
                   for res in alone if res.n_used}
    assert kinds == {float, complex}
    # the battery has terms at n_max and terms that stop below n_start
    assert {(True, False), (False, True)} <= n_used


def test_joint_pass_mixes_early_stops_with_terms_at_n_max():
    p, q = P((2,), (1.0,), (0,)), P((2,), (F(1, 2),), (0,))
    jobs = [p, q] + [term for term, _ in shuffle_expand(p, q).sorted_terms()]
    results = _evaluate(jobs, _JOINT_CFG)
    assert results[0].n_used == _JOINT_CFG.n_max and not results[0].converged
    assert results[1].n_used < 2**8 and results[1].converged
    assert results == [eval_di(job, _JOINT_CFG) for job in jobs]


def test_joint_pass_keeps_the_sums_of_an_underflowing_geometric_level():
    # (1/9)^k underflows to 0 near k = 340, several blocks before 2^12;
    # a direct double sum of the same columns agrees
    n = 2**12
    res = eval_di(P((2, 2), (1, F(1, 9)), (0, 0)), EvalConfig(n_start=n,
                                                                n_max=n))
    inner, ref = 0.0, []
    for k in range(1, n):
        ref.append(inner / k**2)
        inner += 9.0**-k / k**2
    assert res.n_used == n
    assert abs(res.trace[-1].partial_sum - math.fsum(ref)) < 1e-15


def test_joint_pass_raises_the_first_error_in_job_order(monkeypatch):
    summed = []
    real_sum_block = polyzeta.numeric._sum_block
    monkeypatch.setattr(polyzeta.numeric, "_sum_block",
                        lambda *args: summed.append(args[4:]) or
                        real_sum_block(*args))
    good = P((2,), (F(1, 2),), (0,))
    divergent = P((1,), (1,), (0,))
    overflow = P((30,), (1,), (0.999999999999999,))
    with pytest.raises(DivergenceError, match=r"s=\(1\)"):
        _evaluate([good, divergent, overflow], EvalConfig())
    with pytest.raises(OverflowError, match="first column"):
        _evaluate([good, overflow, divergent], EvalConfig())
    with pytest.raises(DivergenceError):
        verify_relation((good, divergent), shuffle_expand(good, good))
    assert summed == []  # no column was summed before the error
    assert _evaluate([good], EvalConfig()) == [eval_di(good)]
    assert summed


def test_joint_pass_keeps_float_and_complex_levels_apart(monkeypatch):
    # the real level 1/2 is shared by two real sums, but a complex sum runs
    # it in complexes, on a node of its own
    sizes = []
    real_sum_block = polyzeta.numeric._sum_block
    monkeypatch.setattr(polyzeta.numeric, "_sum_block",
                        lambda nodes, *rest: sizes.append(len(nodes)) or
                        real_sum_block(nodes, *rest))
    w3 = root_of_unity(1, 3)
    jobs = [P((2,), (F(1, 2),), (0,)), P((3, 2), (F(1, 3), F(3, 2)), (0, 0)),
            P((2, 2), (w3, F(1, 2) / w3), (0, 0))]
    assert _evaluate(jobs, _JOINT_CFG) == [eval_di(p, _JOINT_CFG)
                                           for p in jobs]
    assert sizes[0] == 4


def test_trie_shares_suffixes_in_preorder():
    nodes, routes = _trie([["a", "b"], ["a", "c"], [], ["a", "b", "d"],
                           ["e"]])
    assert nodes == [(0, "a"), (1, "b"), (2, "d"), (1, "c"), (0, "e")]
    assert routes == [[0, 1], [0, 3], [], [0, 1, 2], [4]]


def test_shared_exact_program_equals_brute_force_term_by_term():
    rng = random.Random(41)
    for _ in range(40):
        t = F(rng.randint(-3, 0), rng.randint(1, 4))
        lam = lambda k: 1 / (k - t)
        p, q = (P([rng.randint(1, 3) for _ in range(d)],
                  [rational_grid(rng) for _ in range(d)], (0,) * d)
                for d in (rng.randint(0, 3), rng.randint(0, 3)))
        terms = [(p.s, p.xi), (q.s, q.xi)] + [
            (term.s, term.xi) for term, _ in duffle_expand(p, q)]
        n = rng.randint(0, 9)
        assert _partial_Ms(n, terms, lam) == [
            brute_M(n, s, xi, lam) for s, xi in terms]
    # equal colors of different types run apart: floats stay floats
    got = _partial_Ms(6, [((2,), (0.5,)), ((2,), (F(1, 2),))], HARMONIC)
    assert [type(v) for v in got] == [float, F]
    assert abs(got[0] - got[1]) < 1e-15
