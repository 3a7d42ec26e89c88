import copy
import math
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from polyzeta import words
from polyzeta.errors import AlphabetMismatchError
from polyzeta.hopf import coproduct
from polyzeta.products import mulstuffle
from polyzeta.scalars import root_of_unity
from polyzeta.words import (EMPTY_WORD, Indexed, MonoidLetter, PairLetter,
                            Polynomial, Word, X0, XForm, concat, word, x, y)
from polyzeta.zeta import LinComb, PolyzetaParams


def test_letter_invariants():
    with pytest.raises(ValueError):
        Indexed(-1)
    with pytest.raises(ValueError):
        PairLetter(0, F(1, 2))
    for index in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError):
            Indexed(index, "y")
        with pytest.raises(ValueError):
            PairLetter(index, 2)
    with pytest.raises(ValueError):
        XForm(0, F(1, 2))
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0),
                complex(1, math.inf)):
        for make in (MonoidLetter, lambda v: PairLetter(1, v),
                     lambda v: XForm(v, 0), lambda v: XForm(1, v)):
            with pytest.raises(ValueError):
                make(bad)
    # a color or a letter's monoid value is a number, and a bool is not one
    for bad in ("a", None, (1, 2), b"x", True):
        for make in (MonoidLetter, lambda v: PairLetter(1, v),
                     lambda v: XForm(v, 0)):
            with pytest.raises(ValueError):
                make(bad)
    # a monoid value may be 0, as an additive exponent
    assert MonoidLetter(0).value == PairLetter(1, 0).value == 0
    # a shift difference is a real within float range
    for bad in (root_of_unity(1, 3), complex(0.5, 1), True, 10**400,
                F(-10**400)):
        with pytest.raises(ValueError):
            XForm(1, bad)
    for family in (5, None, b"y"):
        with pytest.raises(ValueError):
            Indexed(1, family)
    assert X0() == X0()
    assert x(3) == Indexed(3, "x")
    assert x(3) != y(3)


def test_concat_definition():
    u = word(x(0), x(1))
    assert concat(u, word(x(0))) == word(x(0), x(1), x(0))
    assert concat(EMPTY_WORD, u) == u
    assert concat(u, EMPTY_WORD) == u
    assert word(y(3)) + word(y(1), y(2)) == word(y(3), y(1), y(2))
    assert len(concat(u, u)) == 4


def test_concat_associativity_and_unit():
    ws = [EMPTY_WORD, word(x(0)), word(x(1), x(0)), word(x(0), x(0), x(1))]
    for u in ws:
        for v in ws:
            for w in ws:
                assert concat(concat(u, v), w) == concat(u, concat(v, w))
    for w in ws:
        assert concat(EMPTY_WORD, w) == w == concat(w, EMPTY_WORD)


def test_mixed_kinds_rejected():
    with pytest.raises(AlphabetMismatchError):
        word(x(0), MonoidLetter(F(1, 2)))
    with pytest.raises(AlphabetMismatchError):
        concat(word(x(0)), word(MonoidLetter(F(1, 2))))
    # the encoded alphabet mixes its two letter classes freely
    w = word(X0(), XForm(F(1, 2), F(0)))
    assert w.kind == "encoded"


def test_coeff_lookup():
    p = Polynomial([(word(x(0), x(1)), 2), (word(x(1), x(0)), 1)])
    assert p.coeff(word(x(0), x(1))) == 2
    assert p.coeff(word(x(0))) == 0
    assert Polynomial().coeff(word(x(0))) == 0


def test_polynomial_canonical_form():
    w1, w2 = word(x(0)), word(x(1))
    p = Polynomial([(w1, 1), (w1, -1), (w2, 3)])
    assert p == Polynomial([(w2, 3)])
    assert w1 not in p.terms
    assert Polynomial([(w1, 0)]) == Polynomial()
    assert not Polynomial()
    q = Polynomial([(w2, 3), (w1, 2)])
    r = Polynomial([(w1, 2), (w2, 3)])
    assert q == r and hash(q) == hash(r)


def test_polynomial_module_axioms():
    w1, w2 = word(x(0)), word(x(0), x(1))
    p = Polynomial([(w1, F(1, 2)), (w2, 2)])
    q = Polynomial([(w2, 1)])
    assert p + q == q + p
    assert (p + q) + p == p + (q + p)
    assert p - p == Polynomial()
    assert 2 * p == p + p
    assert 0 * p == Polynomial()
    assert -p + p == Polynomial.zero()


def test_coeff_linearity():
    w = word(x(0), x(1))
    p = Polynomial([(w, F(1, 3)), (word(x(0)), 1)])
    q = Polynomial([(w, 2)])
    a, b = F(2), F(-5, 7)
    combo = a * p + b * q
    assert combo.coeff(w) == a * p.coeff(w) + b * q.coeff(w)


def test_word_slicing_and_prepending():
    w = word(x(0), x(1), x(0))
    assert w[1:] == word(x(1), x(0))
    assert w[:0] == EMPTY_WORD
    assert w[:0].kind is None
    assert w[0] == x(0)
    assert EMPTY_WORD.prepended(x(1)) == word(x(1))
    with pytest.raises(AlphabetMismatchError):
        w.prepended(MonoidLetter(F(2)))


def test_pretty_forms():
    assert word(x(0), x(0), x(1)).pretty() == "x₀²x₁"
    assert EMPTY_WORD.pretty() == "1"
    p = Polynomial([(word(y(1), y(1)), 2), (word(y(2)), -1)])
    assert p.pretty() == "-y₂ + 2y₁²"


@pytest.mark.parametrize("coeff, text", (
    (1 + 2j, "(1+2j)y₁"), (2j, "(2j)y₁"), (-2j, "(-0-2j)y₁")))
def test_pretty_brackets_a_complex_coefficient_once(coeff, text):
    assert Polynomial.monomial(word(y(1)), coeff).pretty() == text


def test_scaling_drops_coefficients_that_underflow():
    p = Polynomial.monomial(word(y(1)), 1e-200)
    assert 1e-200 * p == Polynomial.zero()
    assert 0 * p == Polynomial.zero() and 2 * p == p + p


@pytest.mark.parametrize("coeff, text", (
    (1, "1"), (3, "3"), (F(1, 2), "1/2"), (-1, "-1"), (F(-3, 4), "-3/4")))
def test_pretty_prints_the_empty_word_as_its_coefficient(coeff, text):
    assert Polynomial.monomial(EMPTY_WORD, coeff).pretty() == text
    p = Polynomial([(EMPTY_WORD, coeff), (word(y(1)), 2)])
    assert p.pretty() == text + " + 2y₁"


def test_words_are_hash_consed():
    ls = [x(0), x(1), x(0)]
    assert Word(ls) is Word(ls) is word(*ls)
    w = Word(ls)
    assert w[1:] is Word(ls[1:]) and w[:0] is EMPTY_WORD
    assert w[2:] is w[:1] and (w[:1] + w[1:]) is w
    assert EMPTY_WORD.prepended(x(1)) is word(x(1))


def test_words_compare_by_letter_value_and_type():
    for a, b in ((0.5, F(1, 2)), (1, F(1))):
        assert MonoidLetter(a) == MonoidLetter(b)
        assert hash(MonoidLetter(a)) == hash(MonoidLetter(b))
        assert word(MonoidLetter(a)) != word(MonoidLetter(b))
    assert word(PairLetter(1, 2)) != word(PairLetter(1, 2.0))
    assert word(XForm(1, 0)) != word(XForm(F(1), 0))


@pytest.mark.parametrize("values", ((0.375, F(3, 8)), (F(5, 8), 0.625)))
def test_letters_keep_the_callers_value_types(values):
    # fresh values for each order, so no earlier query interned them
    for v in values:
        w = word(MonoidLetter(v), MonoidLetter(v))
        assert [type(letter.value) for letter in w.letters] == [type(v)] * 2
        assert all(type(letter.value) is type(v) for letter in w)
        for u in mulstuffle(w, w).terms:
            assert all(type(letter.value) is type(v) for letter in u)


def test_threads_build_identical_words():
    n_threads, rounds = 4, 200
    barrier = threading.Barrier(n_threads)
    built = [None] * n_threads

    def build(slot):
        barrier.wait()
        built[slot] = [Word(MonoidLetter(F(k, 7919)) for k in range(r % 5 + 1))
                       for r in range(rounds)] + \
            [Word([y(r + 100), y(r + 101)]) for r in range(rounds)] + \
            [word(y(r + 100)).prepended(y(r + 500)) for r in range(rounds)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for words in built[1:]:
        assert all(a is b for a, b in zip(words, built[0], strict=True))


def test_copy_and_pickle_return_the_canonical_word():
    for w in (EMPTY_WORD, word(x(0), x(1)),
              word(MonoidLetter(F(1, 3)), MonoidLetter(0.25)),
              word(XForm(F(1, 2), F(1, 3)), X0())):
        assert copy.copy(w) is w
        assert copy.deepcopy(w) is w
        assert pickle.loads(pickle.dumps(w)) is w
    assert len(Word()) == 0 and Word() is EMPTY_WORD
    letter = MonoidLetter(F(2, 7))
    assert pickle.loads(pickle.dumps(letter))._id == letter._id


def test_letters_keep_the_sign_of_a_float_zero():
    # equal by value, but a word hands back the caller's own zero sign
    for make, plus, minus in (
            (lambda z: XForm(1, z), 0.0, -0.0),
            (MonoidLetter, complex(-1, 0.0), complex(-1, -0.0))):
        first, second = make(plus), make(minus)
        assert first == second
        assert word(first) is not word(second)
        for letter in (first, second):
            got = word(letter)[0]
            for field in letter.__match_args__:
                a, b = getattr(got, field), getattr(letter, field)
                assert str(a) == str(b) and type(a) is type(b)
    assert math.copysign(1, word(XForm(1, -0.0))[0].tbar) == -1


def test_combinations_copy_and_pickle():
    left = word(MonoidLetter(F(1, 3)), MonoidLetter(0.25))
    p = mulstuffle(left, word(MonoidLetter(F(2, 5))))
    for q in (Polynomial.one(), Polynomial.zero(), p, coproduct(left),
              LinComb({PolyzetaParams.of((2,), (F(1, 2),), (0,)): 3})):
        for back in (pickle.loads(pickle.dumps(q)), copy.copy(q),
                     copy.deepcopy(q)):
            assert type(back) is type(q) and back == q
            # words compare by identity, so equal keys are the canonical ones
            assert list(back.terms) == list(q.terms)


def test_prepended_is_the_interned_word():
    for w in (EMPTY_WORD, word(x(1)), word(x(0), x(1), x(0))):
        for a in (x(0), x(2), x(0)):  # the second x0 reads the stored edge
            assert w.prepended(a) is words._word((a._id,) + w._ids)


def test_block_sums_are_the_canonical_sums_of_their_pairs():
    rng = random.Random(24)
    keys = [word(y(i)) for i in range(1, 5)]

    def terms():
        return {k: rng.choice((-2, -1, 1, 2, F(1, 2)))
                for k in rng.sample(keys, rng.randint(0, 3))}

    for _ in range(300):
        blocks, pairs = [], []
        for _ in range(rng.randint(0, 4)):
            left = terms()
            if rng.random() < 0.5:
                scale = rng.choice((-1, 1, 3, F(-1, 2), 0.5))
                pairs += [(k, scale * c) for k, c in left.items()]
                blocks.append((left, scale))
            else:
                right = terms()
                pairs += [((a, b), ca * cb) for a, ca in left.items()
                          for b, cb in right.items()]
                blocks.append((left, right))
        # same sums, zeros dropped, keys in order of first appearance
        assert (list(words._canonical_blocks(blocks).items())
                == list(words._canonical(pairs).items()))
