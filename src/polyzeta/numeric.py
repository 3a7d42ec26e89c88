"""Numerical evaluation of the nested series and of their finite partial sums.

``partial_M`` computes the exact truncation

    M^n = sum over n > n1 > ... > nr > 0 of  prod_i  xi_i^(n_i) lam(n_i)^(s_i)

by a depth-wise prefix dynamic program in O(n*r) ring operations; it works
verbatim over exact scalars (Fractions) and over floats. ``check_prop_M``
verifies, exactly, that a product of two partial sums equals the partial
sum over the contraction-product expansion at every finite cutoff.

``eval_di`` evaluates a convergent parameter set by running the same
dynamic program with per-level weights 1/(k - t_i) and doubling the cutoff
until the increment plus an analytic tail estimate drops under tolerance.
Internally the recursion is written in terms of *cumulative* colors, whose
moduli stay <= 1 under the convergence hypothesis, so no intermediate
quantity can overflow even when individual color ratios exceed 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DivergenceError
from .zeta import LinComb, PolyzetaParams, duffle_index

_EPS = sys.float_info.epsilon


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Knobs for the doubling evaluator; ``n_start == n_max`` sums to one
    fixed cutoff."""

    tolerance: float = 1e-10
    n_start: int = 2**10
    n_max: int = 2**22

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.n_start > self.n_max:
            raise ValueError("n_start must not exceed n_max")
        if self.n_start < 2:
            raise ValueError("n_start must be at least 2")


@dataclass(frozen=True, slots=True)
class EvalResult:
    """Value of a truncated nested sum with an honest error account.

    ``value`` is the partial sum below ``n_used``; ``error_estimate`` is
    the last doubling increment plus an analytic tail estimate, including
    float rounding where the colors do not damp the sum (an estimate, not
    a certified bound). ``converged`` holds exactly when the estimate is
    within tolerance.
    """

    value: complex
    error_estimate: float
    n_used: int
    converged: bool


def partial_M(n: int, s: Sequence[int], xi: Sequence, lam: Callable[[int], object]):
    """Exact partial sum below the cutoff ``n``.

    ``lam`` maps a positive index to a ring scalar; the same sequence is
    used at every level, raised to the level exponent. The empty
    composition gives 1 for every n; a positive depth needs n > r to admit
    any index tuple.
    """
    r = len(s)
    if len(xi) != r:
        raise ValueError("s and xi must have equal lengths")
    if r == 0:
        return 1
    if n <= r:
        return 0
    cumulative = []
    c = 1
    for v in xi:
        c = c * v
        cumulative.append(c)
    # acc[i] (i < r-1) carries the geometrically weighted prefix sum feeding
    # level i+1; acc[r-1] is the partial sum
    acc = [0] * r
    cpow = 1
    levels = range(r - 2, -1, -1)
    for k in range(1, n):
        lv = lam(k)
        cpow = cpow * cumulative[r - 1]
        h = cpow * lv ** s[r - 1]
        for i in levels:
            a = acc[i]
            acc[i] = cumulative[i] * (a + h)
            h = a * lv ** s[i] if a != 0 else 0
        acc[r - 1] = acc[r - 1] + h
    return acc[r - 1]


def check_prop_M(s: Sequence[int], xi: Sequence, r: Sequence[int],
                 rho: Sequence, n: int, lam: Callable[[int], object]) -> bool:
    """Exact finite form of the contraction identity: the product of two
    partial sums equals the combined partial sum over every term of the
    contraction expansion, at every cutoff."""
    s, xi, r, rho = tuple(s), tuple(xi), tuple(r), tuple(rho)
    lhs = partial_M(n, s, xi, lam) * partial_M(n, r, rho, lam)
    rhs = 0
    for (ts, txi), coeff in duffle_index(s, xi, r, rho):
        rhs = rhs + coeff * partial_M(n, ts, txi, lam)
    return lhs == rhs


def _partial_sums(p: PolyzetaParams, cutoffs: Iterable[int]
                  ) -> Iterator[tuple[complex, complex, float]]:
    """Column-wise dynamic program for one parameter set; at each of the
    increasing ``cutoffs`` it yields the partial sum below it, the last
    column and the sum of |column| (the scale of the rounding error).

    Column k contributes H_1(k), where

        H_r(k) = c_r^k / (k - t_r)^(s_r)
        H_i(k) = acc_i(k) / (k - t_i)^(s_i)
        acc_i(k) = sum over j < k of c_i^(k - j) H_(i+1)(j),

    maintained incrementally via acc_i <- c_i (acc_i + H_(i+1)). All
    factors have modulus <= 1 under the convergence hypothesis. Every
    accumulator is a Neumaier-compensated pair (acc, comp); slot r-1 holds
    the partial sum and is never rescaled.
    """
    c = [complex(v) for v in p.cumulative_colors()]
    s = p.s
    t = [float(v) for v in p.t]
    r = p.depth
    acc = [0j] * r
    comp = [0j] * r
    cr, sr, tr = c[r - 1], s[r - 1], t[r - 1]
    levels = range(r - 2, -1, -1)
    cpow = 1 + 0j
    h = 0j
    mass = 0.0
    start = 1
    for cutoff in cutoffs:
        for k in range(start, cutoff):
            cpow *= cr
            h = cpow / (k - tr) ** sr
            for i in levels:
                a = acc[i]
                hi = (a + comp[i]) / (k - t[i]) ** s[i]
                u = a + h
                if abs(a) >= abs(h):
                    comp[i] = (comp[i] + ((a - u) + h)) * c[i]
                else:
                    comp[i] = (comp[i] + ((h - u) + a)) * c[i]
                acc[i] = u * c[i]
                h = hi
            a = acc[r - 1]
            u = a + h
            if abs(a) >= abs(h):
                comp[r - 1] += (a - u) + h
            else:
                comp[r - 1] += (h - u) + a
            acc[r - 1] = u
            mass += abs(h)
        start = cutoff
        yield acc[r - 1] + comp[r - 1], h, mass


def _tail_estimate(p: PolyzetaParams, last: complex, mass: float,
                   cutoff: int) -> float:
    """Analytic tail estimate past the cutoff, given the last column and
    the summed column magnitudes below it.

    Geometric when every cumulative color has modulus < 1. The polynomial
    regime bounds the depth-1 tail sum over k >= cutoff of (k - t1)^(-s1)
    by its integral from cutoff - 1, (cutoff - 1 - t1)^(1-s1) / (s1-1),
    widens it by (1+ln cutoff)^(r-1) for the inner levels, and adds the
    float rounding of the partial sum: a few ulps per level and per unit
    of exponent, relative to the summed column magnitudes. The leftover
    corner (s1 = 1 with a unit-modulus inner prefix product) falls back to
    the magnitude of the last column, surfaced as an estimate only.
    """
    moduli = [abs(c) for c in p.cumulative_colors()]
    q = max(moduli)
    if q < 1:
        qf = float(q)
        return abs(last) * qf / (1.0 - qf)
    s1 = p.s[0]
    if s1 > 1:
        tail = ((cutoff - 1 - float(p.t[0])) ** (1 - s1)
                * (1.0 + math.log(cutoff)) ** (p.depth - 1) / (s1 - 1))
        return tail + (p.weight + 2 * p.depth) * _EPS * mass
    return abs(last)


def eval_di(p: PolyzetaParams, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate a convergent parameter set by truncated summation.

    The cutoff doubles from ``cfg.n_start`` until increment plus tail
    estimate is within tolerance, or ``cfg.n_max`` is reached (the result
    is then flagged unconverged). Divergent input raises.
    """
    if not p.satisfies_condition_e():
        raise DivergenceError(
            f"{p.pretty()} violates the convergence hypothesis "
            "(prefix color moduli <= 1 and shifts < 1)")
    if not p.is_convergent():
        raise DivergenceError(f"{p.pretty()} is divergent")
    if p.depth == 0:
        return EvalResult(1 + 0j, 0.0, 0, True)

    cutoffs = [cfg.n_start]
    while cutoffs[-1] < cfg.n_max:
        cutoffs.append(min(2 * cutoffs[-1], cfg.n_max))
    previous = None
    for cutoff, (value, last, mass) in zip(cutoffs, _partial_sums(p, cutoffs)):
        step = abs(last) if previous is None else abs(value - previous)
        err = step + _tail_estimate(p, last, mass, cutoff)
        if err <= cfg.tolerance:
            break
        previous = value
    return EvalResult(value, err, cutoff, err <= cfg.tolerance)


@dataclass(frozen=True, slots=True)
class VerifyReport:
    """Numerical comparison of a two-factor product against an expansion;
    ``ok`` needs a converged evaluation of every term."""

    lhs_value: complex
    rhs_value: complex
    residual: float
    tolerance: float
    ok: bool
    n_used: int
    converged: bool


def verify_relation(lhs: tuple[PolyzetaParams, PolyzetaParams],
                    rhs: LinComb,
                    cfg: EvalConfig = EvalConfig(),
                    residual_tolerance: Optional[float] = None) -> VerifyReport:
    """Check that eval(p) * eval(q) matches the coefficient-weighted sum of
    term evaluations.

    Without an explicit ``residual_tolerance``, the acceptance threshold
    is the propagated error budget of the evaluations plus ``cfg.tolerance``.
    An unconverged evaluation fails the check whatever the residual.
    Terms are summed in sorted order. A divergent term raises, naming the
    term.
    """
    if residual_tolerance is not None and not 0 <= residual_tolerance < math.inf:
        raise ValueError("residual_tolerance must be finite and >= 0")
    p, q = lhs
    jobs: list[PolyzetaParams] = [p, q] + [term for term, _ in rhs.sorted_terms()]
    for params in jobs:
        if not (params.satisfies_condition_e() and params.is_convergent()):
            raise DivergenceError(f"divergent term {params.pretty()}")

    results = [eval_di(pp, cfg) for pp in jobs]

    rp, rq = results[0], results[1]
    lhs_value = rp.value * rq.value
    lhs_err = (abs(rp.value) * rq.error_estimate
               + abs(rq.value) * rp.error_estimate
               + rp.error_estimate * rq.error_estimate)
    rhs_value = 0j
    rhs_err = 0.0
    for (term, coeff), res in zip(rhs.sorted_terms(), results[2:]):
        weight = complex(coeff)
        rhs_value += weight * res.value
        rhs_err += abs(weight) * res.error_estimate
    residual = abs(lhs_value - rhs_value)
    budget = cfg.tolerance + lhs_err + rhs_err
    threshold = residual_tolerance if residual_tolerance is not None else budget
    converged = all(res.converged for res in results)
    return VerifyReport(
        lhs_value=lhs_value,
        rhs_value=rhs_value,
        residual=residual,
        tolerance=threshold,
        ok=converged and residual <= threshold,
        n_used=max(res.n_used for res in results),
        converged=converged,
    )
