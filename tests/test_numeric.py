import math
import random
from fractions import Fraction as F

import pytest

from oracles import brute_M, double_sum_oracle, rational_grid, single_sum_oracle
from polyzeta.errors import DivergenceError
from polyzeta.numeric import (EvalConfig, EvalResult, VerifyReport,
                              check_prop_M, eval_di, partial_M,
                              verify_relation)
from polyzeta.scalars import exact_color, root_of_unity, root_order
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
    # geometric tail, converged at the first cutoff
    (P((2, 1), (F(-2, 3), F(1, 2)), (F(1, 5), F(-1, 3))), EvalConfig(),
     ("(0.038226604194245895+0j)", 1.1272711104236649e-186, 2**10, True)),
    # off the fit path, as before it: a float unit color, mixed moduli
    (P((2,), (-1.0,), (0,)), EvalConfig(n_max=2**14),
     ("(-0.822467035286872+0j)", 6.104447050040251e-05, 2**14, False)),
    (P((2, 2), (F(1, 2), 2), (0, F(1, 3))), EvalConfig(n_max=2**14),
     ("(0.4098479699594618+0j)", 0.000653363885524515, 2**14, False)),
])
def test_eval_golden_values(p, cfg, expected):
    # bit-exact pins: any change to the summation order shows up here
    res = eval_di(p, cfg)
    assert (repr(res.value), res.error_estimate, res.n_used,
            res.converged) == expected


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
