"""Randomized law checks; bounds follow the per-module invariants."""

from fractions import Fraction as F
from math import comb

from hypothesis import example, given, settings, strategies as st

from polyzeta.hopf import antipode, antipode_recursive, coproduct, counit
from polyzeta.products import (DUFFLE, MINUS_STUFFLE, MULSTUFFLE, SHUFFLE,
                               STUFFLE, star)
from polyzeta.words import (EMPTY_WORD, MonoidLetter, PairLetter, Polynomial,
                            Word, concat, y)
from polyzeta.zeta import (PolyzetaParams, decode, duffle_expand, encode,
                           shuffle_expand, tbar, tbar_inverse)

nonzero_rationals = st.fractions(
    min_value=F(-3), max_value=F(3), max_denominator=4).filter(lambda f: f != 0)

indexed_words = st.builds(
    Word, st.lists(st.integers(1, 4).map(y), max_size=4))
monoid_words = st.builds(
    Word, st.lists(st.builds(MonoidLetter, nonzero_rationals), max_size=3))
pair_words = st.builds(
    Word, st.lists(st.builds(PairLetter, st.integers(1, 3), nonzero_rationals),
                   max_size=3))

shifts = st.fractions(min_value=F(-2), max_value=F(0), max_denominator=5)
shifts_below_one = st.fractions(min_value=F(-2), max_value=F(1),
                                max_denominator=5).filter(lambda f: f < 1)


@st.composite
def convergent_params(draw, max_depth=3, shift=shifts):
    depth = draw(st.integers(1, max_depth))
    s = (draw(st.integers(2, 4)),) + tuple(
        draw(st.integers(1, 3)) for _ in range(depth - 1))
    # draw cumulative colors with moduli <= 1, read colors off ratios
    cums = [draw(st.fractions(min_value=F(1, 6), max_value=F(1),
                              max_denominator=6))
            * draw(st.sampled_from((1, -1))) for _ in range(depth)]
    xi = [cums[0]] + [cums[i] / cums[i - 1] for i in range(1, depth)]
    t = tuple(draw(shift) for _ in range(depth))
    return PolyzetaParams.of(s, xi, t)


@settings(max_examples=60, deadline=None)
@given(indexed_words, indexed_words, indexed_words)
def test_concat_monoid_laws(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))
    assert concat(EMPTY_WORD, u) == u == concat(u, EMPTY_WORD)
    assert len(concat(u, v)) == len(u) + len(v)


@settings(max_examples=40, deadline=None)
@given(indexed_words, indexed_words)
def test_products_commute(u, v):
    for br in (SHUFFLE, STUFFLE, MINUS_STUFFLE):
        assert star(br, u, v) == star(br, v, u)


@settings(max_examples=30, deadline=None)
@given(monoid_words, monoid_words)
def test_mulstuffle_commutes(u, v):
    assert star(MULSTUFFLE, u, v) == star(MULSTUFFLE, v, u)


@settings(max_examples=25, deadline=None)
@given(indexed_words, indexed_words, indexed_words)
def test_products_associate(u, v, w):
    if len(u) + len(v) + len(w) > 6:
        return
    for br in (STUFFLE, MINUS_STUFFLE):
        left = star(br, star(br, u, v), Polynomial.monomial(w))
        right = star(br, Polynomial.monomial(u), star(br, v, w))
        assert left == right


@settings(max_examples=25, deadline=None)
@given(pair_words, pair_words, pair_words)
def test_duffle_associates(u, v, w):
    if len(u) + len(v) + len(w) > 5:
        return
    left = star(DUFFLE, star(DUFFLE, u, v), Polynomial.monomial(w))
    right = star(DUFFLE, Polynomial.monomial(u), star(DUFFLE, v, w))
    assert left == right


@settings(max_examples=40, deadline=None)
@given(indexed_words, indexed_words)
def test_grading_and_length_bounds(u, v):
    wu = sum(letter.index for letter in u)
    wv = sum(letter.index for letter in v)
    for br, graded in ((SHUFFLE, True), (STUFFLE, True), (MINUS_STUFFLE, False)):
        for w in star(br, u, v).terms:
            assert max(len(u), len(v)) <= len(w) <= len(u) + len(v)
            if graded:
                assert sum(letter.index for letter in w) == wu + wv


@settings(max_examples=40, deadline=None)
@given(indexed_words, indexed_words)
def test_shuffle_mass_is_binomial(u, v):
    assert sum(star(SHUFFLE, u, v).terms.values()) == comb(len(u) + len(v), len(u))


@settings(max_examples=60, deadline=None)
@given(indexed_words)
def test_coproduct_counts_and_counit(w):
    cop = coproduct(w)
    assert sum(cop.terms.values()) == len(w) + 1
    recon = Polynomial()
    for (u, v), c in cop.terms.items():
        recon += (c * counit(u)) * Polynomial.monomial(v)
    assert recon == Polynomial.monomial(w)


@settings(max_examples=25, deadline=None)
@given(indexed_words)
def test_antipode_routes_agree(w):
    for br in (STUFFLE, MINUS_STUFFLE):
        assert antipode(br, w) == antipode_recursive(br, w)


@settings(max_examples=25, deadline=None)
@given(indexed_words)
def test_antipode_axiom_random_words(w):
    expect = Polynomial.one() if len(w) == 0 else Polynomial.zero()
    total = Polynomial()
    for i in range(len(w) + 1):
        total += star(STUFFLE, antipode(STUFFLE, w[:i]),
                      Polynomial.monomial(w[i:]))
    assert total == expect


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(min_value=F(-5), max_value=F(5),
                             max_denominator=6), min_size=1, max_size=6))
def test_tbar_roundtrip(ts):
    t = tuple(ts)
    assert tbar_inverse(tbar(t)) == t
    assert tbar(tbar_inverse(t)) == t


@settings(max_examples=50, deadline=None)
@given(convergent_params(max_depth=4))
def test_decode_encode_roundtrip(p):
    assert decode(encode(p)) == p


@settings(max_examples=25, deadline=None)
@given(convergent_params(max_depth=2), convergent_params(max_depth=2))
def test_expanders_commute(p, q):
    assert shuffle_expand(p, q) == shuffle_expand(q, p)
    t0 = p.t[0]
    pd = PolyzetaParams.of(p.s, p.xi, (t0,) * p.depth)
    qd = PolyzetaParams.of(q.s, q.xi, (t0,) * q.depth)
    assert duffle_expand(pd, qd) == duffle_expand(qd, pd)


@settings(max_examples=25, deadline=None)
@given(convergent_params(max_depth=2), convergent_params(max_depth=2))
def test_shuffle_expand_conservation(p, q):
    lc = shuffle_expand(p, q)
    assert sum(lc.terms.values()) == comb(p.weight + q.weight, p.weight)
    for term, _ in lc:
        assert term.depth == p.depth + q.depth
        assert term.weight == p.weight + q.weight
        assert term.satisfies_condition_e()
        assert term.is_convergent()


@settings(max_examples=40, deadline=None)
@given(convergent_params(max_depth=2, shift=shifts_below_one),
       convergent_params(max_depth=2, shift=shifts_below_one))
@example(PolyzetaParams.of((2,), (1,), (F(3, 5),)),
         PolyzetaParams.of((2,), (1,), (F(3, 5),)))
def test_shuffle_terms_keep_condition_e(p, q):
    # a term's shift at a level sums at most one shift of each factor, each
    # below that factor's count of letters from there on
    assert p.satisfies_condition_e() and q.satisfies_condition_e()
    for term, _ in shuffle_expand(p, q):
        assert term.satisfies_condition_e() and term.is_convergent()
