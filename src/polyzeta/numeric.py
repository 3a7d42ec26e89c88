"""Numerical evaluation of the nested series and of their finite partial sums.

``partial_M`` computes the exact truncation

    M^n = sum over n > n1 > ... > nr > 0 of  prod_i  xi_i^(n_i) lam(n_i)^(s_i)

by a depth-wise prefix dynamic program in O(n*r) ring operations; it works
verbatim over exact scalars (Fractions) and over floats. ``check_prop_M``
verifies, exactly, that a product of two partial sums equals the partial
sum over the terms of ``duffle_expand`` at every finite cutoff.

``eval_di`` evaluates a convergent parameter set by running the same
dynamic program with per-level weights 1/(k - t_i) and doubling the cutoff
until the increment plus a tail bound and the float rounding drops under
tolerance. The tail bound holds at every depth: it bounds each inner level
by what it can sum to. Where every cumulative color has modulus below 1,
the sum also stops at cutoffs 8, 16, ... below the first one, once the
bound shows that no later column can change the float value. At exact
roots of unity it also extrapolates the partial sums at multiples of the
lcm of the color orders, where every oscillating factor is 1, in the basis
{1, N^-j log^k N}, and stops at whichever check passes.
Internally the recursion is written in terms of *cumulative* colors, whose
moduli stay <= 1 under the convergence hypothesis, so no intermediate
quantity can overflow even when individual color ratios exceed 1. When all
of them are real, the columns are summed in floats, to the same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from .errors import DivergenceError
from .scalars import cumulative, float_or_complex, root_order
from .zeta import LinComb, PolyzetaParams, duffle_expand

_EPS = sys.float_info.epsilon
_FIT_RATIO = 1.25  # spacing of the extrapolation cutoffs
_FIT_MAX_ORDER = 6  # largest power of 1/N in the fit basis
_FIT_ROWS = 13  # past 1 + J*depth = 13 the fit is too ill-conditioned


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Knobs for the doubling evaluator. The doubling starts at
    ``n_start``; a geometric sum may stop below it, where no later column
    can change its float value. ``n_start == n_max`` sums to one fixed
    cutoff."""

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
    """Value of a nested sum with an honest error account.

    ``value`` is the partial sum below ``n_used``, or the limit extrapolated
    from the partial sums up to it when the fit decided; ``error_estimate``
    is the last increment plus a tail bound plus the float rounding, or the
    disagreement of the fits plus rounding (an estimate; so is the plain
    one for s1 = 1 at unit modulus, where the last column stands in for the
    tail). It is infinite where no tail bound holds yet. ``converged``
    holds exactly when it is within tolerance. ``trace``: one row per
    cutoff.
    """

    value: complex
    error_estimate: float
    n_used: int
    converged: bool
    trace: tuple = ()


class TraceRow(NamedTuple):
    """One cutoff: the raw partial sum below it, its change since the last
    row, and the order and order gap of the fit made there (0, None: none)."""

    cutoff: int
    partial_sum: complex
    increment: float
    fit_order: int
    fit_gap: Optional[float]


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
    cum = cumulative(xi)
    # acc[i] (i < r-1) carries the geometrically weighted prefix sum feeding
    # level i+1; acc[r-1] is the partial sum
    acc = [0] * r
    cpow = 1
    levels = range(r - 2, -1, -1)
    for k in range(1, n):
        lv = lam(k)
        cpow = cpow * cum[r - 1]
        h = cpow * lv ** s[r - 1]
        for i in levels:
            a = acc[i]
            acc[i] = cum[i] * (a + h)
            h = a * lv ** s[i] if a != 0 else 0
        acc[r - 1] = acc[r - 1] + h
    return acc[r - 1]


def check_prop_M(s: Sequence[int], xi: Sequence, r: Sequence[int],
                 rho: Sequence, n: int, lam: Callable[[int], object]) -> bool:
    """Exact finite form of the contraction identity: the product of two
    partial sums equals the combined partial sum over every term of
    ``duffle_expand``, at every cutoff."""
    # the diagonal shift 0 only names the expansion: lam carries the shift
    p = PolyzetaParams.of(s, xi, (0,) * len(s))
    q = PolyzetaParams.of(r, rho, (0,) * len(r))
    rhs = sum(coeff * partial_M(n, term.s, term.xi, lam)
              for term, coeff in duffle_expand(p, q))
    return partial_M(n, p.s, p.xi, lam) * partial_M(n, q.s, q.xi, lam) == rhs


def _partial_sums(p: PolyzetaParams, cutoffs: Iterable[int]
                  ) -> Iterator[tuple[complex, complex, complex, float]]:
    """Column-wise dynamic program for one parameter set; at each of the
    increasing ``cutoffs`` it yields the partial sum below it as an
    unsummed compensated pair (sum, correction), the last column and the
    sum of |column| (the scale of the rounding error).

    Column k contributes H_1(k), where

        H_r(k) = c_r^k / (k - t_r)^(s_r)
        H_i(k) = acc_i(k) / (k - t_i)^(s_i)
        acc_i(k) = sum over j < k of c_i^(k - j) H_(i+1)(j),

    maintained incrementally via acc_i <- c_i (acc_i + H_(i+1)); acc_i is
    exactly 0 below level i's least index r - i + 1, and so is H_i, even
    where (k - t_i)^(s_i) is 0. All factors have modulus <= 1. Every
    accumulator is a Neumaier-compensated pair (acc, comp), and so is the
    partial sum, never rescaled. Real c_i run it all on floats, to the bits
    complexes give: on imaginary parts 0 their operations are the float ones.
    """
    c = float_or_complex(p.cumulative_colors())
    s = p.s
    t = [float(v) for v in p.t]
    r = p.depth
    zero = type(c[0])()
    acc = [zero] * (r - 1)
    comp = [zero] * (r - 1)
    cr, sr, tr = c[r - 1], s[r - 1], t[r - 1]
    levels = [(i, c[i], s[i], t[i]) for i in range(r - 2, -1, -1)]
    cpow = 1 + zero
    h = total = corr = zero
    mass = 0.0
    start = 1
    for cutoff in cutoffs:
        for k in range(start, cutoff):
            cpow *= cr
            h = cpow / (k - tr) ** sr
            for i, ci, si, ti in levels:
                a, e = acc[i], comp[i]
                try:
                    hi = (a + e) / (k - ti) ** si
                except ZeroDivisionError:  # k = t_i, below the least index
                    hi = zero
                u = a + h
                if abs(a) >= abs(h):
                    comp[i] = (e + ((a - u) + h)) * ci
                else:
                    comp[i] = (e + ((h - u) + a)) * ci
                acc[i] = u * ci
                h = hi
            u = total + h
            if abs(total) >= abs(h):
                corr += (total - u) + h
            else:
                corr += (h - u) + total
            total = u
            mass += abs(h)
        start = cutoff
        yield complex(total), complex(corr), complex(h), mass


def _tail_bound(p: PolyzetaParams, q: float, cutoff: int) -> float:
    """Bound on the sum of |term| over every index tuple with n1 >= cutoff,
    where q is the largest modulus of the cumulative colors c_i.

    A term has modulus at most q^n1 (n1 - t1)^(-s1) times its inner levels,
    and the levels below n1 sum to at most B_i(n1) = (m_i - t_i)^(-s_i) +
    integral from m_i to n1 of (x - t_i)^(-s_i) dx (all s_i >= 1), based at
    level i's least index m_i = r - i + 1. Past N = cutoff, B_i grows at
    most like B_i(N) e^(b_i (n - N)) and like B_i(N) ((n - t1) / D)^(g_i),
    where D = N - 1 - t1, b_i = (N - t_i)^(-s_i) / B_i(N) and
    g_i = max(N - t_i, D) b_i. So, with B = prod over i >= 2 of B_i(N),

        geometric (q < 1):   (N - t1)^(-s1) B q^N / (1 - q e^(sum b_i))
        polynomial (s1 > 1): B D^(1 - s1) / (s1 - 1 - sum g_i)

    and the least of those that apply; a bound is infinite where its
    denominator is not positive, or while N <= r, where no index tuple lies
    below N (past r, every t_i < m_i keeps D and N - t_i positive). At
    depth 1 the polynomial bound is the integral of the tail from N - 1.
    s1 = 1 at unit modulus has none.
    """
    if cutoff <= p.depth:
        return math.inf
    s1, t1 = p.s[0], float(p.t[0])
    d = cutoff - 1 - t1
    inner, rate, growth = 1.0, 0.0, 0.0
    for i in range(1, p.depth):
        si, ti = p.s[i], float(p.t[i])
        base = p.depth - i - ti
        if si == 1:
            b = 1 / base + math.log((cutoff - ti) / base)
        else:
            b = base ** -si + (base ** (1 - si)
                               - (cutoff - ti) ** (1 - si)) / (si - 1)
        inner *= b
        bi = (cutoff - ti) ** -si / b
        rate += bi
        growth += max(cutoff - ti, d) * bi
    bound, ratio = math.inf, q * math.exp(rate)
    if ratio < 1:
        bound = (cutoff - t1) ** -s1 * inner * q ** cutoff / (1 - ratio)
    if s1 > 1 and growth < s1 - 1:
        bound = min(bound, inner * d ** (1 - s1) / (s1 - 1 - growth))
    return bound


def _extrapolate(rows: list, order: int, depth: int) -> complex:
    """Limit N -> infinity of the interpolant through the last
    1 + order*depth rows (N, sum, correction) in the basis 1 and x^j l^k
    (1 <= j <= order, k < depth), x = N_last/N and l = log(N/N_last).

    It fits the differences S(N) - S(N_last) of the compensated pairs, which
    keep the bits that rounding each S(N) loses. With the constant as the
    last unknown, forward elimination (partial pivoting) alone yields it.
    """
    rows = rows[len(rows) - 1 - order * depth:]
    n_last, head, tail = rows[-1]
    a = [[(n_last / n) ** j * math.log(n / n_last) ** k
          for j in range(1, order + 1) for k in range(depth)]
         + [1.0, (h - head) + (c - tail)] for n, h, c in rows]
    for col in range(len(a)):
        a[col:] = sorted(a[col:], key=lambda row: -abs(row[col]))
        pivot = a[col]
        for row in a[col + 1:]:
            f = row[col] / pivot[col]
            row[col + 1:] = [x - f * y for x, y
                             in zip(row[col + 1:], pivot[col + 1:])]
    return head + (tail + a[-1][-1] / a[-1][-2])


def eval_di(p: PolyzetaParams, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate a convergent parameter set by truncated summation.

    The plain check doubles the cutoff from ``cfg.n_start`` and passes when
    increment plus tail bound plus rounding is within tolerance. When every
    cumulative color has modulus below 1 and ``n_start < n_max``, the
    checkpoints 8, 16, ... below ``n_start`` come first. One of them counts
    only once the tail bound is at most epsilon/2 times |partial sum|, so
    that no later column can change the float value; its estimate is the
    increment since the last row plus bound plus rounding. A sum settled in
    that sense also stops, flagged unconverged, once its rounding term
    alone exceeds the tolerance, which no later cutoff could meet. When
    every cumulative color is an exact root of unity, rows at multiples of
    their order lcm, spaced by about 1.25, feed a fit of order
    J + 1 <= _FIT_MAX_ORDER on at most _FIT_ROWS rows. Its estimate is the
    largest of its gap to the order-J fit and its last two changes from fit
    to fit, plus 100 times the rounding term. The first check to pass gives
    the result; at ``cfg.n_max`` the smaller estimate does, flagged
    unconverged. Only this function refuses input: ``DivergenceError``
    outside condition (e) or at s1 = 1, |xi_1| = 1, and ``OverflowError``
    for a first column with no finite 1/(r - i + 1 - t_i)^s_i at some level.
    """
    if not (p.satisfies_condition_e() and p.is_convergent()):
        raise DivergenceError(f"divergent term {p.pretty()} (needs t_i < "
                              "r - i + 1, |c_i| <= 1, s1 > 1 or |xi_1| < 1)")
    if p.depth == 0:
        return EvalResult(1 + 0j, 0.0, 0, True)
    # a subnormal power is not 0, but its reciprocal is not a finite float;
    # an exact shift just below its least index may round up to it
    gaps = [p.depth - i - float(ti) for i, ti in enumerate(p.t)]
    if not all((f := g ** si) and math.isfinite(1 / f)
               for g, si in zip(gaps, p.s)):
        i = gaps.index(min(gaps))
        raise OverflowError("first column: " + (
            f"shift t_{i + 1} = {p.t[i]} rounds to its least index "
            f"{p.depth - i} in floats" if gaps[i] <= 0
            else "(r - i + 1 - t_i)^s_i underflows"))

    cum = p.cumulative_colors()
    checkpoints = [cfg.n_start]
    while checkpoints[-1] < cfg.n_max:
        checkpoints.append(min(2 * checkpoints[-1], cfg.n_max))
    q = float(max(abs(c) for c in cum))
    if checkpoints[1:] and q < 1:
        checkpoints[:0] = [2**k for k in
                           range(3, (cfg.n_start - 1).bit_length())]
    lcm = math.lcm(*map(root_order, cum))  # 0: no grid
    grid, n = set(), float(cfg.n_start)
    while lcm and n <= cfg.n_max:
        if cfg.n_start <= lcm * round(n / lcm) <= cfg.n_max:
            grid.add(lcm * round(n / lcm))
        n *= _FIT_RATIO
    cutoffs = sorted(grid.union(checkpoints))
    trace, aligned, changes = [], [], [math.inf]
    noise = 100 * (p.weight + 2 * p.depth) * _EPS  # 100 x the rounding term
    # the plain rounding term per unit of summed |column| also covers an
    # exact shift rounded to a float: 1 / (k - t_i)^s_i amplifies that error
    # by at most s_i / gap_i, the gap from t_i to its level's least index
    ulps = (p.weight + 2 * p.depth) * _EPS + sum(
        si * math.ulp(tf) / 2 / g for si, ti, g in zip(p.s, p.t, gaps)
        if (tf := float(ti)) != ti)
    previous = plain = fit = None  # plain and fit: (value, error estimate)
    settled = False
    for cutoff, (head, tail, last, mass) in zip(cutoffs,
                                                 _partial_sums(p, cutoffs)):
        value = head + tail
        order, gap = min(_FIT_MAX_ORDER, (_FIT_ROWS - 1) // p.depth,
                         len(aligned) // p.depth), None
        if cutoff in grid:
            aligned.append((cutoff, head, tail))
            if order >= 2:
                hi = _extrapolate(aligned, order, p.depth)
                gap = abs(hi - _extrapolate(aligned, order - 1, p.depth))
                changes.append(math.inf if fit is None else abs(hi - fit[0]))
                fit = (hi, max(gap, *changes[-2:]) + noise * mass)
        increment = abs(value - trace[-1].partial_sum) if trace else abs(last)
        trace.append(TraceRow(cutoff, value, increment,
                              0 if gap is None else order, gap))
        if cutoff in checkpoints:
            bound = _tail_bound(p, q, cutoff)
            rounding = ulps * mass
            # a geometric sum settles where no later column can change it
            settled = q < 1 and bound <= _EPS / 2 * abs(value)
            if cutoff < cfg.n_start:
                if not settled:
                    continue
                step = increment
            else:
                step = abs(last) if previous is None else abs(value - previous)
                previous = value
            # s1 = 1 at unit modulus has no bound: the last column estimates
            plain = (value, step + (abs(last) if p.s[0] == 1 and q >= 1
                                    else bound + rounding))
        best = plain if fit is None or plain[1] <= fit[1] else fit
        if best[1] <= cfg.tolerance or settled and rounding > cfg.tolerance:
            break
    return EvalResult(best[0], best[1], cutoff, best[1] <= cfg.tolerance,
                      tuple(trace))


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
    Terms are summed in sorted order. ``eval_di`` raises on a divergent
    term, naming it; p and q are evaluated first.
    """
    if residual_tolerance is not None and not 0 <= residual_tolerance < math.inf:
        raise ValueError("residual_tolerance must be finite and >= 0")
    p, q = lhs
    jobs: list[PolyzetaParams] = [p, q] + [term for term, _ in rhs.sorted_terms()]
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
