"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import gc
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from math import comb

import pytest

from oracles import rational_grid, single_sum_oracle
from polyzeta import zeta
from polyzeta.hopf import (antipode, antipode_recursive, check_antipode,
                           check_bialgebra, coproduct, counit,
                           default_alphabet)
from polyzeta.numeric import (EvalConfig, check_prop_M, eval_di,
                              verify_relation)
from polyzeta.products import Bracket, PRODUCTS, star
from polyzeta.words import (EMPTY_WORD, Combination, MonoidLetter,
                            PairLetter, Polynomial, Word, word, x, y)
from polyzeta.zeta import (LinComb, PolyzetaParams, decode, duffle_expand,
                           encode, shuffle_expand, tbar, tbar_inverse)
from relations import D_W, double_shuffle_quotient


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    # a full collection walks the heap every earlier test left (tens of ms)
    # and falls wherever the allocation counters reach their threshold; run
    # it now, so the clock times the criterion's own work
    gc.collect()
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number}: FAIL ({elapsed:.3f}s) - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.3f}s < {budget_seconds}s) "
          f"- {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget")


def fresh(name: str) -> Bracket:
    """Cold-cache copy of a named bracket, so timings are honest."""
    br = PRODUCTS[name]
    return Bracket(br.name, br.fn, br.kinds)


def test_criterion_1_shuffle_example():
    left = word(x(0), x(2))          # x0 x'
    right = word(x(0), x(0), x(1))   # x0^2 x
    expected = Polynomial([
        (word(x(0), x(2), x(0), x(0), x(1)), 1),
        (word(x(0), x(0), x(2), x(0), x(1)), 2),
        (word(x(0), x(0), x(0), x(2), x(1)), 3),
        (word(x(0), x(0), x(0), x(1), x(2)), 3),
        (word(x(0), x(0), x(1), x(0), x(2)), 1),
    ])
    br = fresh("shuffle")
    with criterion(1, "five-term interleaving expansion, coefficients "
                      "(1,2,3,3,1)", 1e-3):
        got = star(br, left, right)
        assert got == expected
    assert sorted(got.terms.values()) == [1, 1, 2, 3, 3]


def test_criterion_2_stuffle_and_mulstuffle_examples():
    st_expected = Polynomial([
        (word(y(3), y(1), y(2)), 1),
        (word(y(3), y(2), y(1)), 1),
        (word(y(3), y(3)), 1),
        (word(y(2), y(3), y(1)), 1),
        (word(y(5), y(1)), 1),
    ])
    br = fresh("stuffle")
    with criterion(2, "additive-contraction five-term expansion", 1e-3):
        assert star(br, word(y(3), y(1)), word(y(2))) == st_expected

    def m(v):
        return MonoidLetter(F(v))
    mu_expected = Polynomial([
        (word(m("2/3"), m(-1), m("1/2")), 1),
        (word(m("2/3"), m("1/2"), m(-1)), 1),
        (word(m("2/3"), m("-1/2")), 1),
        (word(m("1/2"), m("2/3"), m(-1)), 1),
        (word(m("1/3"), m(-1)), 1),
    ])
    br = fresh("mulstuffle")
    with criterion(2, "multiplicative-contraction five-term expansion", 1e-3):
        assert star(br, word(m("2/3"), m(-1)), word(m("1/2"))) == mu_expected


def test_criterion_3_duffle_parameter_expansion():
    t = F(0)
    left = PolyzetaParams.of((3, 1), (F(2, 3), F(-1)), (t, t))
    right = PolyzetaParams.of((2,), (F(1, 2),), (t,))
    expected = LinComb({
        PolyzetaParams.of((3, 1, 2), (F(2, 3), F(-1), F(1, 2)), (t, t, t)): 1,
        PolyzetaParams.of((3, 2, 1), (F(2, 3), F(1, 2), F(-1)), (t, t, t)): 1,
        PolyzetaParams.of((3, 3), (F(2, 3), F(-1, 2)), (t, t)): 1,
        PolyzetaParams.of((2, 3, 1), (F(1, 2), F(2, 3), F(-1)), (t, t, t)): 1,
        PolyzetaParams.of((5, 1), (F(1, 3), F(-1)), (t, t)): 1,
    })
    with criterion(3, "contraction expansion of ((3,1);(2/3,-1)) x ((2);(1/2)), "
                      "five unit-coefficient terms", 1e-3):
        got = duffle_expand(left, right)
        assert got == expected


def test_criterion_4_shuffle_parameter_expansion():
    xi, xip = F(1, 2), F(-2, 3)
    t, tp = F(1, 5), F(-3, 10)
    p = PolyzetaParams.of((3,), (xi,), (t,))
    q = PolyzetaParams.of((2,), (xip,), (tp,))
    first_class = ((xip, xi / xip), (t + tp, t))
    second_class = ((xi, xip / xi), (t + tp, tp))
    expected = LinComb({
        PolyzetaParams.of((2, 3), *first_class): 1,
        PolyzetaParams.of((3, 2), *first_class): 2,
        PolyzetaParams.of((4, 1), *first_class): 3,
        PolyzetaParams.of((4, 1), *second_class): 3,
        PolyzetaParams.of((3, 2), *second_class): 1,
    })
    PRODUCTS["shuffle"]._star_memo.clear()
    with criterion(4, "interleaving expansion of ((3);xi;t) x ((2);xi';t'): "
                      "five classes, coefficients (1,2,3,3,1)", 1e-2):
        got = shuffle_expand(p, q)
        assert got == expected
    assert sum(got.terms.values()) == comb(5, 2)


def _coalgebra_axioms(alphabet, maxlen):
    for n in range(maxlen + 1):
        for letters in itertools.product(alphabet, repeat=n):
            w = Word(letters)
            cop = coproduct(w)
            # coassociativity
            left, right = {}, {}
            for (u, v), c in cop.terms.items():
                for (a, b), d in coproduct(u).terms.items():
                    key = (a, b, v)
                    left[key] = left.get(key, 0) + c * d
                for (b, cc), d in coproduct(v).terms.items():
                    key = (u, b, cc)
                    right[key] = right.get(key, 0) + c * d
            assert left == right
            # counit laws
            lhs = Polynomial()
            rhs = Polynomial()
            for (u, v), c in cop.terms.items():
                lhs += (c * counit(u)) * Polynomial.monomial(v)
                rhs += (c * counit(v)) * Polynomial.monomial(u)
            assert lhs == Polynomial.monomial(w)
            assert rhs == Polynomial.monomial(w)
            # structure identity for every letter prefix
            for a in alphabet:
                grown = coproduct(w.prepended(a))
                built = (Combination({(u.prepended(a), v): c
                                      for (u, v), c in cop.terms.items()})
                         + Combination({(EMPTY_WORD, w.prepended(a)): 1}))
                assert grown == built


def test_criterion_5_hopf_axiom_suite():
    with criterion(5, "coassociativity, counit, structure identity, "
                      "bialgebra compatibility, both antipode axioms, and "
                      "closed = recursive antipode, all five products, "
                      "length <= 5", 60.0):
        for name in sorted(PRODUCTS):
            br = fresh(name)
            alphabet = default_alphabet(br)
            _coalgebra_axioms(alphabet, 5)
            rep = check_bialgebra(br, 5, alphabet)
            assert rep.ok, (name, rep.counterexample)
            rep = check_antipode(br, 5, alphabet)
            assert rep.ok, (name, rep.counterexample)
            for n in range(6):
                for letters in itertools.product(alphabet, repeat=n):
                    w = Word(letters)
                    assert antipode(br, w) == antipode_recursive(br, w)


def test_criterion_6_exact_finite_contraction_identity():
    rng = random.Random(20260808)
    with criterion(6, "exact finite contraction identity on 200 randomized "
                      "rational instances (depths <= 3, n <= 10)", 10.0):
        for _ in range(200):
            l1, l2 = rng.randint(0, 3), rng.randint(0, 3)
            s = tuple(rng.randint(1, 3) for _ in range(l1))
            r = tuple(rng.randint(1, 3) for _ in range(l2))
            xi = tuple(rational_grid(rng) for _ in range(l1))
            rho = tuple(rational_grid(rng) for _ in range(l2))
            n = rng.randint(0, 10)
            t0 = F(rng.randint(-3, 0), rng.randint(1, 4))
            lam = lambda k: 1 / (k - t0)
            assert check_prop_M(s, xi, r, rho, n, lam)


def test_criterion_7_evaluator_against_plain_summation():
    cfg = EvalConfig(n_start=2**12, n_max=2**16)
    with criterion(7, "evaluator matches the plain-summation oracle to 1e-9 "
                      "for s=(2),(3),(4) at xi=1, t=0", 5.0):
        for s in (2, 3, 4):
            res = eval_di(PolyzetaParams.of((s,), (1,), (0,)), cfg)
            oracle = single_sum_oracle(s, 1.0, 0.0, res.n_used)
            # the raw partial sum below n_used; value may be extrapolated
            (raw,) = [row.partial_sum for row in res.trace
                      if row.cutoff == res.n_used]
            assert abs(raw - oracle) <= 1e-9, s
        # classical constants stay within the reported estimates
        for s, ref in ((2, math.pi**2 / 6), (3, 1.2020569031595943),
                       (4, math.pi**4 / 90)):
            res = eval_di(PolyzetaParams.of((s,), (1,), (0,)), cfg)
            assert abs(res.value - ref) <= res.error_estimate


def _random_convergent(rng, max_depth, t_values):
    depth = rng.randint(1, max_depth)
    s = (rng.randint(2, 3),) + tuple(rng.randint(1, 3)
                                     for _ in range(depth - 1))
    cums = []
    for _ in range(depth):
        radius = rng.uniform(0.2, 0.9)
        angle = rng.uniform(0, 2 * math.pi)
        cums.append(complex(radius * math.cos(angle),
                            radius * math.sin(angle)))
    xi = [cums[0]] + [cums[i] / cums[i - 1] for i in range(1, depth)]
    t = tuple(rng.choice(t_values) for _ in range(depth))
    return PolyzetaParams.of(s, xi, t)


def test_criterion_8_numeric_morphism_verification():
    cfg = EvalConfig(tolerance=1e-10, n_start=2**9, n_max=2**18)
    rng = random.Random(97)
    t_values = [-0.8, -0.45, -0.2, 0.0, 0.15, 0.3, 0.45]
    with criterion(8, "numeric verification: both worked examples and a "
                      "randomized battery of 50 parameter sets per mode, "
                      "residual <= 1e-8", 300.0):
        a = PolyzetaParams.of((3,), (0.5,), (0.2,))
        b = PolyzetaParams.of((2,), (-0.7,), (-0.3,))
        rep = verify_relation((a, b), shuffle_expand(a, b), cfg)
        assert rep.ok and rep.residual <= 1e-8

        da = PolyzetaParams.of((3, 1), (F(2, 3), F(-1)), (0, 0))
        db = PolyzetaParams.of((2,), (F(1, 2),), (0,))
        rep = verify_relation((da, db), duffle_expand(da, db), cfg)
        assert rep.ok and rep.residual <= 1e-8

        for mode in ("shuffle", "duffle"):
            for _ in range(50):
                p = _random_convergent(rng, 2, t_values)
                if mode == "duffle":
                    t0 = p.t[0]
                    q = _random_convergent(rng, 2, [t0])
                    q = PolyzetaParams.of(q.s, q.xi, (t0,) * q.depth)
                    p = PolyzetaParams.of(p.s, p.xi, (t0,) * p.depth)
                    lc = duffle_expand(p, q)
                else:
                    q = _random_convergent(rng, 2, t_values)
                    lc = shuffle_expand(p, q)
                rep = verify_relation((p, q), lc, cfg)
                assert rep.residual <= 1e-8, (mode, p, q, rep.residual)


def test_criterion_9_property_suites():
    rng = random.Random(40)
    with criterion(9, "randomized property suites: commutativity, "
                      "associativity, grading, length/weight bounds, "
                      "round-trips", 120.0):
        # star commutativity and associativity within the stated bounds
        for name in sorted(PRODUCTS):
            br = PRODUCTS[name]
            alpha = default_alphabet(br)
            words = [Word(rng.choices(alpha, k=rng.randint(0, 3)))
                     for _ in range(8)]
            for u in words:
                for v in words:
                    if len(u) + len(v) <= 6:
                        assert star(br, u, v) == star(br, v, u)
            for u, v, w in zip(words[::3], words[1::3], words[2::3]):
                if len(u) + len(v) + len(w) <= 6:
                    left = star(br, star(br, u, v), Polynomial.monomial(w))
                    right = star(br, Polynomial.monomial(u), star(br, v, w))
                    assert left == right
        # grading and mass for the graded pair; length bounds for all
        for _ in range(40):
            u = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
            v = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
            wu = sum(l.index for l in u)
            wv = sum(l.index for l in v)
            sh = star(PRODUCTS["shuffle"], u, v)
            assert sum(sh.terms.values()) == comb(len(u) + len(v), len(u))
            for br_name in ("shuffle", "stuffle"):
                for w in star(PRODUCTS[br_name], u, v).terms:
                    assert sum(l.index for l in w) == wu + wv
            for w in star(PRODUCTS["minusstuffle"], u, v).terms:
                assert max(len(u), len(v)) <= len(w) <= len(u) + len(v)
        # encode/decode and shift-transform round-trips
        for _ in range(60):
            depth = rng.randint(1, 4)
            s = tuple(rng.randint(1, 4) for _ in range(depth))
            cums = [F(rng.randint(1, 6), 6) * rng.choice((1, -1))
                    for _ in range(depth)]
            xi = [cums[0]] + [cums[i] / cums[i - 1] for i in range(1, depth)]
            t = tuple(F(rng.randint(-4, 0), rng.randint(1, 3))
                      for _ in range(depth))
            p = PolyzetaParams.of(s, xi, t)
            assert decode(encode(p)) == p
            assert tbar_inverse(tbar(p.t)) == p.t


def test_criterion_10_double_shuffle_reaches_d_w():
    with criterion(10, "finite double shuffle with Hoffman's relation: "
                       "quotient d_w = 1,1,2,2,3,4,5 at w = 3..9, over Q",
                   5.0):
        got = {w: double_shuffle_quotient(w) for w in D_W}
        assert got == D_W


def _mutant_duffle(monkeypatch, fn):
    monkeypatch.setattr(zeta, "DUFFLE", Bracket("mutant", fn, ("pair",)))


def test_criterion_10_fails_on_doubled_equal_letter_contraction(monkeypatch):
    def doubled(a, b):
        return (2 if a == b else 1,
                PairLetter(a.index + b.index, a.value * b.value))

    _mutant_duffle(monkeypatch, doubled)
    got = [double_shuffle_quotient(w) for w in range(3, 9)]
    assert got == [1, 1, 2, 1, 0, 0]
    assert got != [D_W[w] for w in range(3, 9)]


def test_criterion_10_raises_on_index_sum_off_by_one(monkeypatch):
    def off_by_one(a, b):
        return (1, PairLetter(a.index + b.index + 1, a.value * b.value))

    _mutant_duffle(monkeypatch, off_by_one)
    with pytest.raises(ValueError, match=r"Z\(s=\(4\); .* weight 3"):
        double_shuffle_quotient(3)
