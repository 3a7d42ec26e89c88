import inspect
import random
import sys
from fractions import Fraction as F
from math import comb

import pytest

from oracles import star_oracle
from polyzeta import words
from polyzeta.errors import AlphabetMismatchError
from polyzeta.hopf import check_antipode, check_bialgebra, default_alphabet
from polyzeta.products import (DUFFLE, MINUS_STUFFLE, PRODUCTS, SHUFFLE,
                               STUFFLE, Bracket, duffle, minus_stuffle,
                               mulstuffle, shuffle, star, stuffle)
from polyzeta.words import (EMPTY_WORD, MonoidLetter, PairLetter, Polynomial,
                            Word, concat, word, x, y)


def m(v):
    return MonoidLetter(F(v))


def pair(i, v):
    return PairLetter(i, F(v))


def test_shuffle_worked_example():
    # x0 x' sh x0^2 x with x' = x2, x = x1
    left = word(x(0), x(2))
    right = word(x(0), x(0), x(1))
    got = shuffle(left, right)
    expected = Polynomial([
        (word(x(0), x(2), x(0), x(0), x(1)), 1),
        (word(x(0), x(0), x(2), x(0), x(1)), 2),
        (word(x(0), x(0), x(0), x(2), x(1)), 3),
        (word(x(0), x(0), x(0), x(1), x(2)), 3),
        (word(x(0), x(0), x(1), x(0), x(2)), 1),
    ])
    assert got == expected
    assert got.coeff(word(x(0), x(0), x(0), x(2), x(1))) == 3


def test_unit_laws():
    w = word(y(3), y(1))
    for br in PRODUCTS.values():
        if br.kinds is not None and "indexed" not in br.kinds:
            continue
        assert star(br, EMPTY_WORD, w) == Polynomial.monomial(w)
        assert star(br, w, EMPTY_WORD) == Polynomial.monomial(w)
    assert star(DUFFLE, EMPTY_WORD, word(pair(1, 2))) == Polynomial.monomial(word(pair(1, 2)))
    assert stuffle(word(y(1)), EMPTY_WORD) == Polynomial.monomial(word(y(1)))


def test_stuffle_worked_example():
    got = stuffle(word(y(3), y(1)), word(y(2)))
    expected = Polynomial([
        (word(y(3), y(1), y(2)), 1),
        (word(y(3), y(2), y(1)), 1),
        (word(y(3), y(3)), 1),
        (word(y(2), y(3), y(1)), 1),
        (word(y(5), y(1)), 1),
    ])
    assert got == expected


def test_minus_stuffle_one_step():
    got = minus_stuffle(word(y(1)), word(y(1)))
    assert got == Polynomial([(word(y(1), y(1)), 2), (word(y(2)), -1)])


def test_mulstuffle_worked_example():
    got = mulstuffle(word(m("2/3"), m(-1)), word(m("1/2")))
    expected = Polynomial([
        (word(m("2/3"), m(-1), m("1/2")), 1),
        (word(m("2/3"), m("1/2"), m(-1)), 1),
        (word(m("2/3"), m("-1/2")), 1),
        (word(m("1/2"), m("2/3"), m(-1)), 1),
        (word(m("1/3"), m(-1)), 1),
    ])
    assert got == expected


def test_duffle_combines_both_tables():
    left = word(pair(3, "2/3"), pair(1, -1))
    right = word(pair(2, "1/2"))
    got = duffle(left, right)
    # index words match the contraction example, monoid words the
    # multiplicative one; in particular the doubly-contracted term:
    assert got.coeff(word(pair(3, "2/3"), pair(3, "-1/2"))) == 1
    assert got.coeff(word(pair(5, "1/3"), pair(1, -1))) == 1
    assert len(got.terms) == 5
    index_words = {tuple(l.index for l in w) for w in got.terms}
    assert index_words == {(3, 1, 2), (3, 2, 1), (3, 3), (2, 3, 1), (5, 1)}


def test_duffle_one_step():
    a, b = F(2), F(5)
    got = duffle(word(pair(1, a)), word(pair(1, b)))
    assert got == Polynomial([
        (word(pair(1, a), pair(1, b)), 1),
        (word(pair(1, b), pair(1, a)), 1),
        (word(pair(2, a * b)), 1),
    ])


def test_bilinearity():
    p = Polynomial([(word(y(1)), 2), (word(y(2)), F(1, 3))])
    q = Polynomial([(word(y(1)), 1)])
    direct = star(STUFFLE, p, q)
    expanded = (2 * star(STUFFLE, word(y(1)), word(y(1)))
                + F(1, 3) * star(STUFFLE, word(y(2)), word(y(1))))
    assert direct == expanded


def test_alphabet_guards():
    with pytest.raises(AlphabetMismatchError):
        stuffle(word(m(2)), word(m(3)))
    with pytest.raises(AlphabetMismatchError):
        mulstuffle(word(y(1)), word(y(2)))
    with pytest.raises(AlphabetMismatchError):
        stuffle(word(x(1)), word(y(1)))


SAMPLES = {
    "shuffle": [word(x(0)), word(x(1)), word(x(0), x(1)), word(x(1), x(1), x(0))],
    "stuffle": [word(y(1)), word(y(2)), word(y(3), y(1)), word(y(1), y(2), y(1))],
    "minusstuffle": [word(y(1)), word(y(2), y(2)), word(y(1), y(3))],
    "mulstuffle": [word(m("2/3")), word(m(-1), m("1/2")), word(m(3), m(3))],
    "duffle": [word(pair(1, "2/3")), word(pair(2, -1), pair(1, "1/2"))],
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_star_matches_enumeration_oracle(name):
    br = PRODUCTS[name]
    for u in SAMPLES[name]:
        for v in SAMPLES[name]:
            assert star(br, u, v).terms == star_oracle(br, u, v)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_commutativity_up_to_bound(name):
    br = PRODUCTS[name]
    for u in SAMPLES[name]:
        for v in SAMPLES[name]:
            if len(u) + len(v) <= 6:
                assert star(br, u, v) == star(br, v, u)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_associativity_up_to_bound(name):
    br = PRODUCTS[name]
    ws = SAMPLES[name]
    for u in ws:
        for v in ws:
            for w in ws:
                if len(u) + len(v) + len(w) <= 6:
                    left = star(br, star(br, u, v), Polynomial.monomial(w))
                    right = star(br, Polynomial.monomial(u), star(br, v, w))
                    assert left == right


def test_shuffle_term_count_is_binomial():
    rng = random.Random(7)
    for _ in range(25):
        nu, nv = rng.randint(0, 4), rng.randint(0, 4)
        u = Word(x(rng.randint(0, 2)) for _ in range(nu))
        v = Word(x(rng.randint(0, 2)) for _ in range(nv))
        assert sum(shuffle(u, v).terms.values()) == comb(nu + nv, nu)


def test_quasi_product_grading():
    # any weight for the zero bracket; the index weight for the additive one
    rng = random.Random(11)
    wt = lambda letter: letter.index
    for _ in range(30):
        u = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        v = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        wu = sum(wt(l) for l in u)
        wv = sum(wt(l) for l in v)
        for br in (SHUFFLE, STUFFLE):
            for w in star(br, u, v).terms:
                assert sum(wt(l) for l in w) == wu + wv


def test_length_bounds():
    rng = random.Random(13)
    for _ in range(30):
        u = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        v = Word(y(rng.randint(1, 3)) for _ in range(rng.randint(0, 3)))
        for br in (STUFFLE, MINUS_STUFFLE):
            for w in star(br, u, v).terms:
                assert max(len(u), len(v)) <= len(w) <= len(u) + len(v)


def _add_exponents(a, b):
    return (1, MonoidLetter(a.value + b.value))


def exponents_bracket():
    """Mulstuffle over the additive-integer monoid (exponents of a fixed
    root of unity), built as a custom bracket."""
    return Bracket("mulstuffle+", _add_exponents, kinds=("monoid",))


def test_additive_monoid_variant():
    # monoid letters as exponents of a fixed root of unity: indices add
    br = exponents_bracket()
    got = star(br, word(MonoidLetter(2)), word(MonoidLetter(3)))
    assert got == Polynomial([
        (word(MonoidLetter(2), MonoidLetter(3)), 1),
        (word(MonoidLetter(3), MonoidLetter(2)), 1),
        (word(MonoidLetter(5)), 1),
    ])


def test_custom_bracket_passes_the_hopf_checks():
    br = exponents_bracket()
    alphabet = (MonoidLetter(1), MonoidLetter(2), MonoidLetter(-3))
    rep = check_bialgebra(br, 4, alphabet)
    assert rep.ok and rep.checked == sum((t + 1) * 3**t for t in range(5))
    rep = check_antipode(br, 4, alphabet)
    assert rep.ok and rep.checked == sum(3**n for n in range(5))
    with pytest.raises(ValueError, match="no default alphabet"):
        default_alphabet(br)


def _bracket_closure(br, letters, depth=2):
    seen = set(letters)
    frontier = list(letters)
    for _ in range(depth):
        new = []
        for a in seen.copy():
            for b in frontier:
                hit = br.apply(a, b)
                if hit is not None and hit[1] not in seen:
                    seen.add(hit[1])
                    new.append(hit[1])
        frontier = new
    return sorted(seen, key=lambda l: l.sort_key())


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_bracket_axioms_on_sampled_letters(name):
    br = PRODUCTS[name]
    base = {letter for w in SAMPLES[name] for letter in w}
    letters = _bracket_closure(br, base)
    # S2: symmetry
    for a in letters:
        for b in letters:
            assert br.apply(a, b) == br.apply(b, a)
    # S3: associativity of the pairing, [[a,b],c] = [a,[b,c]]
    for a in letters:
        for b in letters:
            for c in letters:
                ab = br.apply(a, b)
                bc = br.apply(b, c)
                left = None if ab is None else (
                    None if br.apply(ab[1], c) is None
                    else (ab[0] * br.apply(ab[1], c)[0], br.apply(ab[1], c)[1]))
                right = None if bc is None else (
                    None if br.apply(a, bc[1]) is None
                    else (bc[0] * br.apply(a, bc[1])[0], br.apply(a, bc[1])[1]))
                assert left == right


def test_long_words_need_no_recursion():
    p = shuffle(Word([x(0)] * 3000), word(x(0)))
    assert p == Polynomial.monomial(Word([x(0)] * 3001), 3001)
    # stuffle(y1^n, y2) keeps about 2n^3/3 letter ids in its memo, so n stays
    # small and the interpreter's recursion limit is lowered below n instead
    depth = len(inspect.stack(0))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        p = stuffle(Word([y(1)] * 200), word(y(2)))
    finally:
        sys.setrecursionlimit(old)
    assert len(p) == 401 and set(p.terms.values()) == {1}
    assert p.coeff(Word([y(1)] * 199 + [y(3)])) == 1


def _recursion_keys(br, u, v, keys):
    """The memo keys the recursive expansion of u * v fills."""
    if (u, v) in keys:
        return
    if u and v:
        _recursion_keys(br, u[1:], v, keys)
        _recursion_keys(br, u, v[1:], keys)
        if br.apply(u[0], v[0]) is not None:
            _recursion_keys(br, u[1:], v[1:], keys)
    keys.add((u, v))


def _equal_indices(a, b):
    return (1, y(a.index + b.index)) if a.index == b.index else None


def test_expansion_fills_the_memo_entries_of_the_recursion():
    rng = random.Random(17)
    for fn in (STUFFLE.fn, _equal_indices, lambda a, b: None):
        br = Bracket("probe", fn, kinds=("indexed",))
        keys: set = set()
        for _ in range(40):
            u = Word(y(rng.randint(1, 2)) for _ in range(rng.randint(0, 4)))
            v = Word(y(rng.randint(1, 2)) for _ in range(rng.randint(0, 4)))
            assert star(br, u, v).terms == star_oracle(br, u, v)
            _recursion_keys(br, u, v, keys)
            assert set(br._star_memo) == keys


def test_fill_order_leaves_the_same_memo_entries():
    # by ascending total length nearly every query fills one cell; in the
    # reverse order each query fills the whole staircase below it
    rng = random.Random(24)
    for name in sorted(PRODUCTS):
        base = PRODUCTS[name]
        letters = default_alphabet(base)[:2]
        queries = sorted(
            ((Word(rng.choice(letters) for _ in range(rng.randint(0, 4))),
              Word(rng.choice(letters) for _ in range(rng.randint(0, 4))))
             for _ in range(40)), key=lambda q: len(q[0]) + len(q[1]))
        memos = []
        for order in (queries, queries[::-1]):
            br = Bracket(base.name, base.fn, base.kinds)
            for u, v in order:
                assert star(br, u, v).terms == star_oracle(br, u, v)
            memos.append(br._star_memo)
        first, second = memos
        assert first.keys() == second.keys()
        assert all(list(first[k].items()) == list(second[k].items())
                   for k in first)


def test_star_refuses_a_word_of_another_kind_however_short():
    # the pairing is never applied when a factor is the unit word
    for left, right in ((word(y(1)), EMPTY_WORD), (EMPTY_WORD, word(y(1))),
                        (Polynomial.monomial(word(y(1))), Polynomial.one())):
        br = Bracket("duffle", DUFFLE.fn, DUFFLE.kinds)
        with pytest.raises(AlphabetMismatchError, match="undefined on"):
            star(br, left, right)
        assert not br._star_memo
    assert star(SHUFFLE, word(y(1)), EMPTY_WORD) == Polynomial.monomial(
        word(y(1)))


def test_an_interrupted_expansion_leaves_a_consistent_memo():
    # the suffix pair (y1, y2) is filled before x1 * y2 fails, so the
    # memo holds a pair whose parent (x1 y1, y2) is missing
    br = Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds)
    with pytest.raises(AlphabetMismatchError):
        star(br, word(x(1), y(1)), word(y(2)))
    assert (word(y(1)), word(y(2))) in br._star_memo
    assert (word(x(1), y(1)), word(y(2))) not in br._star_memo
    for u, v in ((word(y(1)), word(y(2))),
                 (word(y(3), y(1)), word(y(2))),
                 (word(y(2), y(1)), word(y(1), y(2))),
                 (word(y(1), y(1)), word(y(2), y(2))),
                 (word(y(3), y(2), y(1)), word(y(1), y(2)))):
        fresh = Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds)
        assert star(br, u, v).terms == star_oracle(br, u, v)
        assert star(br, u, v) == star(fresh, u, v)


def test_bracket_memoizes_its_pairing_on_letter_ids():
    calls = []

    def fn(a, b):
        calls.append((a, b))
        return _add_exponents(a, b)

    br = Bracket("counted", fn, kinds=("monoid",))
    for _ in range(3):
        assert br.apply(m(2), m(3)) == (1, MonoidLetter(F(5)))
    assert br.apply(MonoidLetter(2), MonoidLetter(3)) == (1, MonoidLetter(5))
    assert len(calls) == 2


@pytest.mark.parametrize("a, b", ((y(1), MonoidLetter(2)),
                                  (MonoidLetter(2), y(1))))
def test_bracket_checks_the_kind_of_both_letters(a, b):
    with pytest.raises(AlphabetMismatchError):
        STUFFLE.apply(a, b)


def test_words_of_two_kinds_do_not_multiply():
    with pytest.raises(AlphabetMismatchError):
        shuffle(word(x(0)), word(m(2)))
    leaves = Bracket("leaves", lambda a, b: (1, y(1)), kinds=("monoid",))
    with pytest.raises(AlphabetMismatchError):
        star(leaves, word(m(2)), word(m(3)))


@pytest.mark.parametrize("make, br", [
    (lambda a, b: Word([a, b]), SHUFFLE),
    (lambda a, b: word(a) + word(b), SHUFFLE),
    (lambda a, b: concat(word(a), word(b)), SHUFFLE),
    (lambda a, b: word(a).prepended(b), SHUFFLE),
] + [(lambda a, b, br=br: star(br, word(a, a), word(b)), br)
     for br in PRODUCTS.values()],
    ids=["Word", "add", "concat", "prepended"]
    + ["star-" + name for name in PRODUCTS])
def test_every_path_that_makes_a_word_refuses_two_kinds(make, br):
    alphabet = default_alphabet(br)
    other = x(1) if br.kinds == ("monoid",) else m(2)  # of another kind
    with pytest.raises(AlphabetMismatchError):
        make(alphabet[0], other)
    assert all(len({letter.kind for letter in w}) <= 1
               for w in list(words._WORDS.values()))
    # the refusal left no wrong entry in the bracket's memos
    u, v = word(alphabet[0], alphabet[0]), Word(alphabet[::-1])
    fresh = Bracket(br.name, br.fn, br.kinds)
    assert star(br, u, v).terms == star(fresh, u, v).terms


def test_terms_are_read_only():
    u, v = word(y(1), y(2)), word(y(3))
    p = stuffle(u, v)
    before = dict(p.terms)
    with pytest.raises(TypeError):
        p.terms[word(y(9))] = 1
    assert stuffle(u, v).terms == before
    with pytest.raises(TypeError):
        Polynomial([(u, 1)]).terms[v] = 1
