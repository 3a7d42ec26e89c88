"""Numerical evaluation of the nested series and of their finite partial sums.

``partial_M`` computes the exact truncation

    M^n = sum over n > n1 > ... > nr > 0 of  prod_i  xi_i^(n_i) lam(n_i)^(s_i)

by a depth-wise prefix dynamic program in O(n*r) ring operations, over
exact scalars or floats. ``check_prop_M`` verifies, exactly, that a product
of two partial sums equals the sum over the terms of ``duffle_expand``.

``eval_di`` runs the same program in floats, on *cumulative* colors (their
moduli stay <= 1, so nothing overflows) with weights 1/(k - t_i), and
doubles the cutoff until the increment, a tail bound valid at every depth
and the rounding fall under tolerance. Geometric sums may stop earlier, and
sums at exact roots of unity also extrapolate (see ``eval_di``).

Level i of a sum depends only on levels i..r, so ``verify_relation``
evaluates p, q and every term in one joint pass in which terms sharing
inner levels sum them once; ``check_prop_M`` does the same exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, truediv
from typing import Callable, Generator, NamedTuple, Optional, Sequence

from .errors import DivergenceError
from .scalars import cumulative, float_or_complex, root_order, scalar_tag
from .zeta import LinComb, PolyzetaParams, duffle_expand

_EPS = sys.float_info.epsilon
_FIT_RATIO = 1.25  # spacing of the extrapolation cutoffs
_FIT_MAX_ORDER = 6  # largest power of 1/N in the fit basis
_FIT_ROWS = 13  # past 1 + J*depth = 13 the fit is too ill-conditioned
_BLOCK = 1024  # most columns a trie node sums at a time


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


def _trie(paths: Sequence[Sequence[tuple]]) -> tuple[list, list]:
    """Merge key paths, innermost level first, into the trie of their
    shared suffixes: its nodes in depth-first preorder as (depth, key)
    pairs (a parent is the last node one level up) and each path's nodes."""
    index: dict = {}  # (parent, key) -> node, named by the ids on its route
    routes = []
    for path in paths:
        route = [()]
        for key in path:
            route.append(index.setdefault((route[-1], key),
                                          route[-1] + (len(index),)))
        routes.append(route[1:])
    order = sorted((node, key) for (_, key), node in index.items())
    place = {node: i for i, (node, _) in enumerate(order)}
    return ([(len(node) - 1, key) for node, key in order],
            [[place[node] for node in route] for route in routes])


def _partial_Ms(n: int, terms: Sequence[tuple], lam: Callable[[int], object]
                ) -> list:
    """``partial_M`` of every (s, xi) pair of ``terms`` in one pass: the
    pairs share the levels of their common (c_i, s_i) suffixes, and every
    column computes lam(k) once and lam(k)^s once per exponent s."""
    if any(len(xi) != len(s) for s, xi in terms):
        raise ValueError("s and xi must have equal lengths")
    # below n = r + 1 no index tuple fits: such a pair sums nothing
    nodes, routes = _trie([[(scalar_tag(c), c, si) for c, si in zip(
        reversed(cumulative(xi)), reversed(s))] if len(s) < n else []
        for s, xi in terms])
    exponents = {key[2] for _, key in nodes}
    # acc: level i's prefix sum feeding its column, or c_r^k at the innermost
    acc = [0 if depth else 1 for depth, _ in nodes]
    sums = {route[-1]: 0 for route in routes if route}
    for k in range(1, n):
        lv = lam(k)
        power = {si: lv ** si for si in exponents}
        path = []  # the columns of the current node's ancestors
        for i, (depth, (_, c, si)) in enumerate(nodes):
            del path[depth:]
            a = acc[i]
            if depth:
                acc[i] = c * (a + path[-1])
                h = a * power[si] if a != 0 else 0
            else:
                acc[i] = a = a * c
                h = a * power[si]
            path.append(h)
            if i in sums:
                sums[i] = sums[i] + h
    return [sums[route[-1]] if route else 0 if s else 1
            for route, (s, _) in zip(routes, terms)]


def partial_M(n: int, s: Sequence[int], xi: Sequence, lam: Callable[[int], object]):
    """Exact partial sum below the cutoff ``n``.

    ``lam`` maps a positive index to a ring scalar; the same sequence is
    used at every level, raised to the level exponent. The empty
    composition gives 1 for every n; a positive depth needs n > r to admit
    any index tuple.
    """
    return _partial_Ms(n, [(s, xi)], lam)[0]


def check_prop_M(s: Sequence[int], xi: Sequence, r: Sequence[int],
                 rho: Sequence, n: int, lam: Callable[[int], object]) -> bool:
    """Exact finite form of the contraction identity: the product of two
    partial sums equals the combined partial sum over every term of
    ``duffle_expand``, at every cutoff. One pass sums every partial sum."""
    # the diagonal shift 0 only names the expansion: lam carries the shift
    p = PolyzetaParams.of(s, xi, (0,) * len(s))
    q = PolyzetaParams.of(r, rho, (0,) * len(r))
    terms = list(duffle_expand(p, q))
    mp, mq, *ms = _partial_Ms(n, [(p.s, p.xi), (q.s, q.xi)]
                              + [(term.s, term.xi) for term, _ in terms], lam)
    return mp * mq == sum(coeff * m for (_, coeff), m in zip(terms, ms))


def _sum_block(nodes: list, live: list, state: list, sums: dict,
               start: int, stop: int) -> None:
    """Add the columns start..stop-1 to every ``live`` node of the float
    trie, node by node in preorder, with the block columns of one
    root-to-leaf path alive at a time. Column k of the node of level i is

        H_r(k) = c_r^k / (k - t_r)^(s_r)  at the innermost level r, else
        H_i(k) = acc_i(k) / (k - t_i)^(s_i),
        acc_i(k) = sum over j < k of c_i^(k - j) H_(i+1)(j),

    kept as c_r^k or as a Neumaier-compensated pair in ``state`` through
    acc_i <- c_i (acc_i + H_(i+1)); acc_i, and so H_i, is exactly 0 below
    level i's least index, even where (k - t_i)^(s_i) is 0. All factors
    have modulus <= 1. ``sums`` holds, where a sum ends, its unscaled
    compensated pair, its sum of |column| (the rounding scale) and its last
    column. Real c_i run on floats, to the bits complexes give.
    """
    powers: dict = {}  # (s, t) -> (k - t)^s over the block
    path: list = []
    for i in live:
        depth, (tag, c, s, t) = nodes[i]
        if (s, t) not in powers:
            try:
                powers[s, t] = [(k - t) ** s for k in range(start, stop)]
            except OverflowError:  # the column itself need not be
                powers[s, t] = [_power(k - t, s) for k in range(start, stop)]
        pw = powers[s, t]
        del path[depth:]
        zero = tag[0]()
        if state[i] is None:
            state[i] = (zero, zero) if depth else 1 + zero
        if depth:
            a, e = state[i]
            col = []
            for h, f in zip(path[-1], pw):
                col.append((a + e) / f if f else zero)  # f = 0: k = t_i
                u = a + h
                e = (e + ((a - u) + h if abs(a) >= abs(h)
                          else (h - u) + a)) * c
                a = u * c
            state[i] = a, e
        else:
            cpow = list(accumulate(repeat(c, stop - start), mul,
                                   initial=state[i]))[1:]
            state[i] = cpow[-1]
            col = list(map(truediv, cpow, pw))
        path.append(col)
        if i in sums:
            total, corr, mass, _ = sums[i] or (zero, zero, 0.0, None)
            for h in col:
                u, m = total + h, abs(h)
                corr += (total - u) + h if abs(total) >= m else (h - u) + total
                total = u
                mass += m
            sums[i] = total, corr, mass, h


class _Steps(list):
    """A power x^s past float range, as float factors of modulus >= 1 that
    a column is divided by in turn. Each step rounds as a plain quotient
    does and only shrinks it, so precision is lost only where the column
    is itself subnormal."""

    def __rtruediv__(self, y):
        for f in self:
            y /= f
        return y


def _power(x: float, s: int):
    """x^s: a float below 2^1023, else ``_Steps`` of powers x^h below it."""
    h = min(s, int(1023 / math.log2(abs(x))) or 1) if abs(x) > 1 else s
    return x ** s if h == s else _Steps([x ** h] * (s // h) + [x ** (s % h)])


def _tail_bound(p: PolyzetaParams, t: list, q: float, cutoff: int) -> float:
    """Bound on the sum of |term| over every index tuple with n1 >= cutoff,
    where t holds the float shifts and q is the largest cumulative modulus.

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
    s1, t1 = p.s[0], t[0]
    d = cutoff - 1 - t1
    inner, rate, growth = 1.0, 0.0, 0.0
    for i in range(1, p.depth):
        si, ti = p.s[i], t[i]
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


def _steps(p: PolyzetaParams, t: list, cfg: EvalConfig, checkpoints: list,
           q: float, lcm: int, ulps: float
           ) -> Generator[int, tuple, EvalResult]:
    """``eval_di``'s checks on a valid set of positive depth, with float
    shifts ``t``, largest cumulative modulus ``q``, root-order lcm ``lcm``
    (0: none) and rounding term ``ulps``: yields each cutoff it needs, is
    sent the row there (sum, correction, last column, sum of |column|) and
    returns the result."""
    grid, n = set(), float(cfg.n_start)
    while lcm and n <= cfg.n_max:
        if cfg.n_start <= lcm * round(n / lcm) <= cfg.n_max:
            grid.add(lcm * round(n / lcm))
        n *= _FIT_RATIO
    cutoffs = sorted(grid.union(checkpoints)) if grid else checkpoints
    trace, aligned, changes = [], [], [math.inf]
    noise = 100 * (p.weight + 2 * p.depth) * _EPS  # 100 x the rounding term
    previous = plain = fit = None  # plain and fit: (value, error estimate)
    settled = False
    for cutoff in cutoffs:
        head, tail, last, mass = yield cutoff
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
            bound = _tail_bound(p, t, q, cutoff)
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


def _evaluate(ps: Sequence[PolyzetaParams], cfg: EvalConfig
              ) -> list[EvalResult]:
    """``eval_di`` of every parameter set of ``ps`` in one pass: all are
    checked, in order, before any column is summed; their levels share the
    nodes of a trie keyed from the innermost level by (number kind, c_i,
    s_i, t_i). Each set's ``_steps`` reads the rows at its own cutoffs; the
    nodes that no running set needs are dropped as the sets stop."""
    results: list = [None] * len(ps)
    steppers, paths, doubling = [], [], [cfg.n_start]
    while doubling[-1] < cfg.n_max:
        doubling.append(min(2 * doubling[-1], cfg.n_max))
    # a geometric sum also tries 8, 16, ... below n_start
    early = [2**k for k in range(3, (cfg.n_start - 1).bit_length())
             if doubling[1:]] + doubling
    for j, p in enumerate(ps):
        cum = p.cumulative_colors()
        moduli = [abs(c) for c in cum]
        if not (p.satisfies_condition_e(moduli) and p.is_convergent()):
            raise DivergenceError(
                f"divergent term {p.pretty()} (needs t_i < r - i + 1, "
                "|c_i| <= 1, s1 > 1 or |xi_1| < 1)")
        if p.depth == 0:
            results[j] = EvalResult(1 + 0j, 0.0, 0, True)
            continue
        # a subnormal power is not 0, but its reciprocal is not a finite
        # float; an exact shift just below its least index may round up to it
        shifts = [float(ti) for ti in p.t]
        gaps = [p.depth - i - tf for i, tf in enumerate(shifts)]
        if not all((f := g ** si) and math.isfinite(1 / f)
                   for g, si in zip(gaps, p.s)):
            i = gaps.index(min(gaps))
            raise OverflowError("first column: " + (
                f"shift t_{i + 1} = {p.t[i]} rounds to its least index "
                f"{p.depth - i} in floats" if gaps[i] <= 0
                else "(r - i + 1 - t_i)^s_i underflows"))
        paths.append([(scalar_tag(c), c, si, tf) for c, si, tf in zip(
            reversed(float_or_complex(cum)), reversed(p.s), reversed(shifts))])
        # the rounding term per unit of summed |column| also covers an exact
        # shift rounded to a float: 1 / (k - t_i)^s_i amplifies that error
        # by at most s_i / gap_i, the gap from t_i to its level's least index
        ulps = (p.weight + 2 * p.depth) * _EPS + sum(
            si * math.ulp(tf) / 2 / g
            for si, ti, tf, g in zip(p.s, p.t, shifts, gaps)
            if tf.as_integer_ratio() != ti.as_integer_ratio())
        q = float(max(moduli))  # below 1, every root order is 0
        steppers.append((j, _steps(
            p, shifts, cfg, early if q < 1 else doubling, q,
            math.lcm(*map(root_order, cum)) if q == 1 else 0, ulps)))
    nodes, paths = _trie(paths)  # each path as the positions of its nodes
    jobs = [(j, steps, next(steps), path)
            for (j, steps), path in zip(steppers, paths)]
    state, live = [None] * len(nodes), list(range(len(nodes)))
    sums, start = dict.fromkeys(path[-1] for path in paths), 1
    while jobs:
        stop = min(start + _BLOCK, *(job[2] for job in jobs))
        _sum_block(nodes, live, state, sums, start, stop)
        start, running = stop, []
        for j, steps, cutoff, path in jobs:
            if cutoff == stop:
                total, corr, mass, last = sums[path[-1]]
                try:
                    cutoff = steps.send((complex(total), complex(corr),
                                         complex(last), mass))
                except StopIteration as done:
                    results[j] = done.value
                    continue
            running.append((j, steps, cutoff, path))
        jobs, needed = running, {i for job in running for i in job[3]}
        live = [i for i in live if i in needed]
    return results


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
    return _evaluate([p], cfg)[0]


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
    Terms are summed in sorted order. A divergent term raises, naming it;
    every term is checked before any is summed, p and q first.
    """
    if residual_tolerance is not None and not 0 <= residual_tolerance < math.inf:
        raise ValueError("residual_tolerance must be finite and >= 0")
    p, q = lhs
    terms = rhs.sorted_terms()
    results = _evaluate([p, q] + [term for term, _ in terms], cfg)

    rp, rq = results[0], results[1]
    lhs_value = rp.value * rq.value
    lhs_err = (abs(rp.value) * rq.error_estimate
               + abs(rq.value) * rp.error_estimate
               + rp.error_estimate * rq.error_estimate)
    rhs_value, rhs_err = 0j, 0.0
    for (_, coeff), res in zip(terms, results[2:]):
        weight = complex(coeff)
        rhs_value += weight * res.value
        rhs_err += abs(weight) * res.error_estimate
    residual = abs(lhs_value - rhs_value)
    budget = cfg.tolerance + lhs_err + rhs_err
    threshold = residual_tolerance if residual_tolerance is not None else budget
    converged = all(res.converged for res in results)
    return VerifyReport(lhs_value, rhs_value, residual, threshold,
                        converged and residual <= threshold,
                        max(res.n_used for res in results), converged)
