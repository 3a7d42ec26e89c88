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
from typing import Callable, Optional, Sequence

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
    # acc[i] carries the geometrically weighted prefix sum feeding level i+1
    acc = [0] * (r - 1)
    cpow = 1
    total = 0
    levels = list(range(r - 2, -1, -1))
    for k in range(1, n):
        lv = lam(k)
        cpow = cpow * cumulative[r - 1]
        h = [0] * r
        h[r - 1] = cpow * lv ** s[r - 1]
        for i in levels:
            a = acc[i]
            if a != 0:
                h[i] = a * lv ** s[i]
        total = total + h[0]
        for i in range(r - 1):
            acc[i] = cumulative[i] * (acc[i] + h[i + 1])
    return total


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


class _Kahan:
    """Neumaier-compensated accumulator over complex values; supports the
    geometric rescaling used by the level recursion."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0j
        self.comp = 0j

    def add(self, value: complex) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.comp += (self.total - t) + value
        else:
            self.comp += (value - t) + self.total
        self.total = t

    def scale(self, factor: complex) -> None:
        self.total *= factor
        self.comp *= factor

    @property
    def value(self) -> complex:
        return self.total + self.comp


class _SeriesEngine:
    """Column-wise dynamic program for one parameter set.

    Column k contributes H_1(k), where

        H_r(k) = c_r^k / (k - t_r)^(s_r)
        H_i(k) = acc_i(k) / (k - t_i)^(s_i)
        acc_i(k) = sum over j < k of c_i^(k - j) H_(i+1)(j),

    maintained incrementally via acc_i <- c_i (acc_i + H_(i+1)). All
    factors have modulus <= 1 under the convergence hypothesis.
    """

    __slots__ = ("c", "s", "t", "r", "acc", "cpow", "total", "columns", "last",
                 "mass")

    def __init__(self, p: PolyzetaParams):
        self.c = [complex(v) for v in p.cumulative_colors()]
        self.s = p.s
        self.t = [float(v) for v in p.t]
        self.r = p.depth
        self.acc = [_Kahan() for _ in range(self.r - 1)]
        self.cpow = 1 + 0j
        self.total = _Kahan()
        self.columns = 0
        self.last = 0j
        self.mass = 0.0  # sum of |column|, the scale of the rounding error

    def run_until(self, cutoff: int) -> None:
        """Advance so that ``total`` equals the partial sum below ``cutoff``."""
        r = self.r
        s = self.s
        t = self.t
        c = self.c
        acc = self.acc
        h = [0j] * r
        cpow, mass, add = self.cpow, self.mass, self.total.add
        for k in range(self.columns + 1, cutoff):
            cpow *= c[r - 1]
            h[r - 1] = cpow / (k - t[r - 1]) ** s[r - 1]
            for i in range(r - 2, -1, -1):
                h[i] = acc[i].value / (k - t[i]) ** s[i]
            add(h[0])
            mass += abs(h[0])
            for i in range(r - 1):
                a = acc[i]
                a.add(h[i + 1])
                a.scale(c[i])
        if cutoff - 1 > self.columns:
            self.last = h[0]
        self.columns = cutoff - 1
        self.cpow, self.mass = cpow, mass


def _tail_estimate(p: PolyzetaParams, engine: _SeriesEngine, cutoff: int) -> float:
    """Analytic tail estimate past the cutoff.

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
        return abs(engine.last) * qf / (1.0 - qf)
    s1 = p.s[0]
    if s1 > 1:
        tail = ((cutoff - 1 - float(p.t[0])) ** (1 - s1)
                * (1.0 + math.log(cutoff)) ** (p.depth - 1) / (s1 - 1))
        return tail + (p.weight + 2 * p.depth) * _EPS * engine.mass
    return abs(engine.last)


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

    engine = _SeriesEngine(p)
    cutoff = cfg.n_start
    engine.run_until(cutoff)
    value = engine.total.value
    err = _tail_estimate(p, engine, cutoff) + abs(engine.last)
    while err > cfg.tolerance and cutoff < cfg.n_max:
        previous = value
        cutoff = min(2 * cutoff, cfg.n_max)
        engine.run_until(cutoff)
        value = engine.total.value
        increment = abs(value - previous)
        err = increment + _tail_estimate(p, engine, cutoff)
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
