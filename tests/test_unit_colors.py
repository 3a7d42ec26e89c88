"""Honesty battery for colors that are roots of unity, where eval_di
extrapolates the tail: every evaluation is converged and within its own
error estimate of an mpmath reference, and the evaluator meets its speed
targets."""

import math
import time
from fractions import Fraction as F

import pytest

from polyzeta.numeric import EvalConfig, eval_di, verify_relation
from polyzeta.scalars import root_of_unity
from polyzeta.zeta import PolyzetaParams, duffle_expand

mpmath = pytest.importorskip("mpmath")

SHIFTS = (F(-1, 2), F(0), F(1, 5), F(1, 3), F(1, 2), F(3, 4))


def lerch(k: int, n: int, s: int, t: F):
    """sum over m >= 1 of xi^m / (m - t)^s with xi = exp(2 pi i k / n),
    split into n Hurwitz zetas over the residues of m mod n."""
    xi = mpmath.expjpi(mpmath.mpf(2 * k) / n)
    tt = mpmath.mpf(t.numerator) / t.denominator
    return (sum(xi**j * mpmath.zeta(s, (j - tt) / n) for j in range(1, n + 1))
            / mpmath.mpf(n)**s)


def diagonal(depth: int, k: int, n: int, s: int, t: F) -> complex:
    """sum over m1 > ... > m_depth > 0 of prod xi^m_i / (m_i - t)^s: the
    elementary symmetric function of the terms, by Newton's identities on
    the power sums."""
    p = [None] + [lerch(j * k, n, j * s, t) for j in range(1, depth + 1)]
    if depth == 1:
        return complex(p[1])
    if depth == 2:
        return complex((p[1]**2 - p[2]) / 2)
    return complex((p[1]**3 - 3 * p[1] * p[2] + 2 * p[3]) / 6)


# The default configuration; one that fits rows at small N, where the
# asymptotic expansion is least accurate and a fit can agree with itself
# by chance; and a tight one that runs the fits to their highest orders,
# where their conditioning sets the floor.
@pytest.mark.parametrize("cfg", (
    EvalConfig(),
    EvalConfig(tolerance=1e-6, n_start=16, n_max=2**12),
    EvalConfig(tolerance=1e-11, n_start=8, n_max=2**14),
), ids=("default", "early-rows", "high-orders"))
def test_diagonal_sums_at_roots_of_unity_are_honest_and_converged(cfg):
    cases = [(depth, n, t) for depth in (1, 2, 3) for n in range(1, 7)
             for t in SHIFTS]
    spent = 0.0
    with mpmath.workdps(25):
        for depth, n, t in cases:
            p = PolyzetaParams.of((2,) * depth, (root_of_unity(1, n),) * depth,
                                  (t,) * depth)
            start = time.perf_counter()
            res = eval_di(p, cfg)
            spent += time.perf_counter() - start
            ref = diagonal(depth, 1, n, 2, t)
            assert res.converged, (depth, n, t, res.error_estimate)
            assert abs(res.value - ref) <= res.error_estimate, (depth, n, t)
    assert spent < 5.0, f"{len(cases)} evaluations took {spent:.2f} s"


@pytest.mark.parametrize("s, xi, ref", [
    ((2, 1), (1, 1), lambda: mpmath.zeta(3)),
    ((2, 2), (1, 1), lambda: mpmath.pi**4 / 120),
    ((3, 1, 1), (1, 1, 1),
     lambda: 2 * mpmath.zeta(5) - mpmath.zeta(2) * mpmath.zeta(3)),
    ((2, 1), (-1, 1), lambda: mpmath.zeta(3) / 8),
], ids=("zeta(2,1)", "zeta(2,2)", "zeta(3,1,1)", "zeta(-2,1)"))
def test_closed_forms_are_honest_and_converged(s, xi, ref):
    res = eval_di(PolyzetaParams.of(s, xi, (0,) * len(s)))
    with mpmath.workdps(25):
        value = complex(ref())
    assert res.converged
    assert abs(res.value - value) <= res.error_estimate


def test_zeta_two_to_1e_10_within_50_ms():
    p = PolyzetaParams.of((2,), (1,), (0,))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        res = eval_di(p)
        times.append(time.perf_counter() - start)
    assert res.converged and res.error_estimate <= 1e-10
    assert abs(res.value - math.pi**2 / 6) <= 1e-10
    assert min(times) < 0.05


def test_duffle_verify_at_alternating_colors_within_one_second():
    a = PolyzetaParams.of((2, 1), (1, -1), (0, 0))
    b = PolyzetaParams.of((3,), (-1,), (0,))
    start = time.perf_counter()
    rep = verify_relation((a, b), duffle_expand(a, b), EvalConfig())
    spent = time.perf_counter() - start
    assert rep.ok and rep.converged
    assert spent < 1.0
