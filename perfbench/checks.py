"""Oracle checks for the benchmark, independent of the code under test.

Every check returns ``None`` when the output is right and a one-line
reason when it is not. Nothing here imports polyzeta: the expected values
come from closed-form counts (binomials, Delannoy numbers), from exact
input data the generator produced, or from mpmath.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath

# Residual bound of a verified identity, and the digits floor: an error
# below one float64 ulp of the compared value reads as that ulp.
RESIDUAL_BOUND = 1e-8
EPS = sys.float_info.epsilon
REF_DPS = 30


# --- combinatorial counts -------------------------------------------------

def delannoy(m: int, n: int) -> int:
    """Number of quasi-shuffles of words of lengths m and n."""
    return sum(math.comb(m, k) * math.comb(n, k) * 2**k
               for k in range(min(m, n) + 1))


def signed_delannoy(m: int, n: int) -> int:
    """Quasi-shuffles with k contractions counted with sign (-1)^k."""
    return sum((-1)**k * math.factorial(m + n - k)
               // (math.factorial(k) * math.factorial(m - k)
                   * math.factorial(n - k))
               for k in range(min(m, n) + 1))


def star_coefficient_sum(product: str, m: int, n: int) -> int:
    """Sum of the coefficients of u * v for |u| = m, |v| = n: every
    interleaving counts 1 and every contraction multiplies by the bracket
    coefficient (1, or -1 for the minus-stuffle)."""
    if product == "shuffle":
        return math.comb(m + n, m)
    if product == "minusstuffle":
        return signed_delannoy(m, n)
    return delannoy(m, n)


# --- checks ---------------------------------------------------------------

def check_coefficient_sum(coeffs, expected: int):
    total = sum(Fraction(c) for c in coeffs)
    if total != expected:
        return f"coefficient sum {total} != {expected}"
    return None


def check_term_weights(weights, expected: int):
    bad = [w for w in weights if w != expected]
    if bad:
        return f"term weight {bad[0]} != {expected}"
    return None


def check_equal(got, expected, what: str):
    if got != expected:
        return f"{what}: {got!r} != {expected!r}"
    return None


def check_report(ok: bool, checked: int, expected_cases: int):
    if not ok:
        return "report not ok"
    if checked <= 0 or checked != expected_cases:
        return f"report checked {checked} cases, expected {expected_cases}"
    return None


def check_residual(residual: float, converged: bool):
    # A converged flag is required on its own: the library's own verdict
    # passes unconverged runs.
    if not residual <= RESIDUAL_BOUND:
        return f"residual {residual:.3g} > {RESIDUAL_BOUND:g}"
    if not converged:
        return "verify did not converge"
    return None


def check_error_estimate(value: complex, reference: complex, estimate: float):
    err = abs(value - reference)
    if not err <= estimate:
        return f"|value - reference| = {err:.3g} > error estimate {estimate:.3g}"
    return None


def check_true(flag, what: str):
    return None if flag is True else f"{what} is {flag!r}"


def error_digits(err: float, scale: float) -> float:
    """-log10 of an error, floored at one ulp of the compared value."""
    return -math.log10(max(err, EPS * scale, 1e-300))


# --- numeric references ---------------------------------------------------

def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _root(k: int, n: int):
    return mpmath.expjpi(mpmath.mpf(2 * k) / n)


def _lerch(k: int, n: int, s: int, t: Fraction):
    """sum over m >= 1 of xi^m / (m - t)^s for xi = exp(2 pi i k / n)."""
    if k % n == 0:
        return mpmath.zeta(s, 1 - _mpf(t))
    xi = _root(k, n)
    return xi * mpmath.lerchphi(xi, s, 1 - _mpf(t))


def lerch_hurwitz(k: int, n: int, s: int, t: Fraction) -> complex:
    """The same sum split into n Hurwitz zetas over residues mod n; a
    second, independent route used to validate the Lerch references."""
    with mpmath.workdps(REF_DPS):
        tt = _mpf(t)
        total = sum(_root(k, n)**j * mpmath.zeta(s, (j - tt) / n)
                    for j in range(1, n + 1))
        return complex(total / mpmath.mpf(n)**s)


@lru_cache(maxsize=None)
def diagonal_reference(depth: int, k: int, n: int, s: int,
                       t: Fraction) -> complex:
    """sum over m1 > ... > m_depth > 0 of prod xi^m_i / (m_i - t)^s, the
    elementary symmetric function e_depth of f(m) = xi^m / (m - t)^s,
    through Newton's identities on the power sums p_j = Lerch(xi^j, j s)."""
    with mpmath.workdps(REF_DPS):
        p = [None] + [_lerch(j * k, n, j * s, t) for j in range(1, depth + 1)]
        if depth == 1:
            val = p[1]
        elif depth == 2:
            val = (p[1]**2 - p[2]) / 2
        elif depth == 3:
            val = (p[1]**3 - 3 * p[1] * p[2] + 2 * p[3]) / 6
        else:
            raise ValueError("depth must be 1, 2 or 3")
        return complex(val)


@lru_cache(maxsize=None)
def closed_form_reference(name: str) -> complex:
    """Known values of depth-2 and depth-3 sums; zeta(-2,1) has the
    alternating color (-1)^n1 on the outer level."""
    z = mpmath.zeta
    with mpmath.workdps(REF_DPS):
        values = {
            "zeta(2,1)": z(3),
            "zeta(2,2)": mpmath.pi**4 / 120,
            "zeta(3,1,1)": 2 * z(5) - z(2) * z(3),
            "zeta(-2,1)": z(3) / 8,
        }
        return complex(values[name])
