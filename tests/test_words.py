from fractions import Fraction as F

import pytest

from polyzeta.errors import AlphabetMismatchError
from polyzeta.words import (EMPTY_WORD, Indexed, MonoidLetter, PairLetter,
                            Polynomial, X0, XForm, concat, word, x, y)


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
