import itertools
import random
from fractions import Fraction as F

import pytest

import polyzeta.hopf
import polyzeta.products
from oracles import antipode_composition_sum, check_bialgebra_ordered
from polyzeta.hopf import (CheckReport, antipode, antipode_recursive,
                           check_antipode, check_bialgebra, coproduct,
                           counit, default_alphabet)
from polyzeta.products import (DUFFLE, MULSTUFFLE, PRODUCTS, SHUFFLE,
                               STUFFLE, Bracket, star)
from polyzeta.errors import AlphabetMismatchError
from polyzeta.words import (EMPTY_WORD, X0, Combination, Indexed,
                            MonoidLetter, PairLetter, Polynomial, Word, word,
                            x, y)

Y12 = word(y(1), y(2))


def test_coproduct_splittings():
    assert coproduct(EMPTY_WORD) == Combination({(EMPTY_WORD, EMPTY_WORD): 1})
    w = word(x(0), x(1))
    assert coproduct(w) == Combination({
        (w, EMPTY_WORD): 1,
        (word(x(0)), word(x(1))): 1,
        (EMPTY_WORD, w): 1,
    })
    assert len(coproduct(word(x(0), x(0), x(1))).terms) == 4


def test_coproduct_sorts_its_splits_shortest_prefix_first():
    w = word(x(0), x(1), x(0))
    assert [u for (u, _), _ in coproduct(w).sorted_terms()] == [
        w[:i] for i in range(4)]


def test_coproduct_lemma_identity():
    # coproduct(aw) = (a (x) 1) coproduct(w) + 1 (x) aw
    for letters in itertools.product((x(0), x(1)), repeat=3):
        w = Word(letters[1:])
        a = letters[0]
        lhs = coproduct(w.prepended(a))
        rhs = (Combination({(u.prepended(a), v): c
                            for (u, v), c in coproduct(w).terms.items()})
               + Combination({(EMPTY_WORD, w.prepended(a)): 1}))
        assert lhs == rhs


def test_counit():
    assert counit(EMPTY_WORD) == 1
    assert counit(word(x(0), x(1))) == 0
    p = Polynomial([(EMPTY_WORD, 3), (word(x(0)), 2)])
    assert counit(p) == 3


def test_counit_laws():
    for n in range(5):
        for letters in itertools.product((y(1), y(2)), repeat=n):
            w = Word(letters)
            left = Polynomial()
            right = Polynomial()
            for (u, v), c in coproduct(w).terms.items():
                left += (c * counit(u)) * Polynomial.monomial(v)
                right += (c * counit(v)) * Polynomial.monomial(u)
            assert left == Polynomial.monomial(w)
            assert right == Polynomial.monomial(w)


def test_coassociativity():
    for n in range(6):
        for letters in itertools.product((y(1), y(2)), repeat=n):
            w = Word(letters)
            left = {}
            right = {}
            for (u, v), c in coproduct(w).terms.items():
                for (a, b), d in coproduct(u).terms.items():
                    key = (a, b, v)
                    left[key] = left.get(key, 0) + c * d
                for (b, cc), d in coproduct(v).terms.items():
                    key = (u, b, cc)
                    right[key] = right.get(key, 0) + c * d
            assert left == right


def test_antipode_single_letter():
    for br, letter in ((SHUFFLE, x(0)), (STUFFLE, y(2)), (DUFFLE, None)):
        if letter is None:
            continue
        w = word(letter)
        assert antipode(br, w) == Polynomial.monomial(w, -1)
    assert antipode(SHUFFLE, EMPTY_WORD) == Polynomial.one()


def test_antipode_shuffle_is_signed_reversal():
    for n in range(5):
        for letters in itertools.product((x(0), x(1)), repeat=n):
            w = Word(letters)
            expected = Polynomial.monomial(Word(reversed(letters)), (-1) ** n)
            assert antipode(SHUFFLE, w) == expected


def test_antipode_stuffle_y1y1():
    # composition sum: -(y1 y1) + y1 * y1 = y1 y1 + y2
    got = antipode(STUFFLE, word(y(1), y(1)))
    assert got == Polynomial([(word(y(1), y(1)), 1), (word(y(2)), 1)])
    assert got == antipode_recursive(STUFFLE, word(y(1), y(1)))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_antipode_closed_equals_recursive(name):
    br = PRODUCTS[name]
    alphabet = default_alphabet(br)[:2]
    for n in range(5):
        for letters in itertools.product(alphabet, repeat=n):
            w = Word(letters)
            assert antipode(br, w) == antipode_recursive(br, w)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_antipode_matches_composition_sum_oracle(name):
    br = PRODUCTS[name]
    alphabet = default_alphabet(br)[:2]
    for n in range(6):
        for letters in itertools.product(alphabet, repeat=n):
            w = Word(letters)
            assert antipode(br, w).terms == antipode_composition_sum(br, w)


# MonoidLetter(0.5) == MonoidLetter(Fraction(1, 2)), with equal hashes, but
# the words they make differ: words compare by value and value type
FLOATS = word(MonoidLetter(0.5), MonoidLetter(0.75))
EXACT = word(MonoidLetter(F(1, 2)), MonoidLetter(F(3, 4)))


def fresh(br):
    return Bracket(br.name, br.fn, br.kinds)


@pytest.mark.parametrize("route", (antipode, antipode_recursive))
def test_antipode_memo_keeps_exact_results_exact(route):
    def as_floats(poly):
        return {tuple(float(letter.value) for letter in w): c
                for w, c in poly.terms.items()}

    for order in ((FLOATS, EXACT), (EXACT, FLOATS)):
        br = fresh(MULSTUFFLE)
        for w in order:
            route(br, w)
        got = {w: route(br, w) for w in order}
        assert as_floats(got[EXACT]) == as_floats(got[FLOATS])
        for w, kind in ((EXACT, F), (FLOATS, float)):
            assert all(type(letter.value) is kind
                       for term in got[w].terms for letter in term)


def test_antipode_axiom_hand_example():
    # a(x0 x1) sh 1 + a(x0) sh x1 + 1 sh x0 x1 = 0
    w = word(x(0), x(1))
    total = Polynomial()
    for i in range(3):
        total += star(SHUFFLE, antipode(SHUFFLE, w[:i]), Polynomial.monomial(w[i:]))
    assert total == Polynomial()


def test_check_antipode_empty_word_case():
    rep = check_antipode(STUFFLE, 0)
    assert rep.ok and rep.checked == 1


def test_checks_refuse_an_empty_alphabet():
    # the unit word alone passes every check: no case over letters is made
    for check in (check_bialgebra, check_antipode):
        with pytest.raises(ValueError, match="alphabet must not be empty"):
            check(SHUFFLE, 3, ())


@pytest.mark.parametrize("maxlen", (0, 1, 2))
@pytest.mark.parametrize("check", (check_bialgebra, check_antipode))
def test_checks_refuse_an_alphabet_of_another_kind_at_every_length(check,
                                                                    maxlen):
    # at max length 0 and 1 the bracket is never applied to two letters
    with pytest.raises(AlphabetMismatchError, match="undefined on 'encoded'"):
        check(Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds), maxlen, (X0(),))


def test_checks_refuse_a_repeated_letter():
    # (y1, y1) would count each case of (y1,) several times
    for check in (check_bialgebra, check_antipode):
        with pytest.raises(ValueError, match="must not repeat a letter"):
            check(STUFFLE, 3, (y(1), y(2), y(1)))
    # letters equal in value but not in type are distinct letters
    assert check_antipode(MULSTUFFLE, 2, (MonoidLetter(1),
                                          MonoidLetter(F(1)))).ok


def test_antipode_refuses_a_word_of_another_kind_however_short():
    br = Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds)
    for w in (word(X0()), word(MonoidLetter(2), MonoidLetter(3))):
        with pytest.raises(AlphabetMismatchError, match="undefined on"):
            antipode(br, w)
    assert not br._antipode_memo
    assert antipode(br, EMPTY_WORD) == Polynomial.one()


def test_antipode_recursive_refuses_a_word_of_another_kind_however_short():
    # a one-letter word never reaches the bracket, so only the kind rule
    # can refuse it, as it does for the closed formula
    br = Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds)
    for w in (word(X0()), word(MonoidLetter(2), MonoidLetter(3))):
        with pytest.raises(AlphabetMismatchError, match="undefined on"):
            antipode_recursive(br, w)
    assert not br._antipode_rec_memo
    assert antipode_recursive(br, EMPTY_WORD) == Polynomial.one()


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_check_bialgebra_and_antipode(name):
    br = PRODUCTS[name]
    rep1 = check_bialgebra(br, 4)
    assert rep1.ok, rep1.counterexample
    rep2 = check_antipode(br, 3)
    assert rep2.ok, rep2.counterexample


def test_non_symmetric_bracket_is_caught():
    # violating S2 breaks the compatibility; used as a negative control
    def bad(a, b):
        return (1, y(a.index + 2 * b.index))

    bad_bracket = Bracket("bad", bad, kinds=("indexed",))
    rep = check_bialgebra(bad_bracket, 3, alphabet=(y(1), y(2)))
    assert not rep.ok
    assert rep.status == "counterexample"
    assert set(rep.counterexample) == {"left", "right"}
    assert rep == check_bialgebra_ordered(fresh(bad_bracket), 3, (y(1), y(2)))
    # [a, b] = a keeps the coproduct compatibility of y1 * y1 and fails
    # commutativity at y1 * y2
    leftproj = Bracket("leftproj", lambda a, b: (1, a), ("indexed",))
    rep = check_bialgebra(leftproj, 4, (y(1), y(2)))
    assert rep == CheckReport(
        "bialgebra-commutativity", False, 11,
        {"left": word(y(1)), "right": word(y(2))})
    assert rep == check_bialgebra_ordered(fresh(leftproj), 4, (y(1), y(2)))


def test_a_product_off_the_coproduct_fails_compatibility(monkeypatch):
    # doubling every coefficient of u * v for |u| + |v| >= 2 keeps the
    # product commutative, but no longer a coalgebra morphism: the
    # componentwise product of 1 (x) 1 with the splittings of y1 y1 doubles
    # only the outer two of its three terms
    plain = polyzeta.products._star_words

    def doubled(br, u, v):
        terms = plain(br, u, v)
        if len(u) + len(v) < 2:
            return terms
        return {w: 2 * c for w, c in terms.items()}

    for module in (polyzeta.products, polyzeta.hopf):
        monkeypatch.setattr(module, "_star_words", doubled)
    rep = check_bialgebra(STUFFLE, 3, (y(1), y(2)))
    assert rep == CheckReport(
        "bialgebra-compatibility", False, 6,
        {"left": EMPTY_WORD, "right": word(y(1), y(1))})
    assert rep == check_bialgebra_ordered(fresh(STUFFLE), 3, (y(1), y(2)))


def test_a_product_off_the_coproduct_on_squares_fails_compatibility(
        monkeypatch):
    # doubling only the squares w * w of nonempty words keeps the product
    # commutative; the first failure is the diagonal pair (y1, y1), where
    # y1 (x) y1 comes twice from 1 * y1 and y1 * 1 but four times from
    # the doubled y1 * y1
    plain = polyzeta.products._star_words

    def doubled(br, u, v):
        terms = plain(br, u, v)
        if u != v or not u:
            return terms
        return {w: 2 * c for w, c in terms.items()}

    for module in (polyzeta.products, polyzeta.hopf):
        monkeypatch.setattr(module, "_star_words", doubled)
    rep = check_bialgebra(fresh(STUFFLE), 3, (y(1), y(2)))
    assert rep == CheckReport(
        "bialgebra-compatibility", False, 10,
        {"left": word(y(1)), "right": word(y(1))})
    assert rep == check_bialgebra_ordered(fresh(STUFFLE), 3, (y(1), y(2)))


def test_a_product_off_the_antipode_fails_the_right_convolution(monkeypatch):
    # over (y1, y2) only the antipodes carry letters of index > 2, so
    # doubling u * v for such v changes only the right-hand side
    # sum u * a(v); y1 y2 is the first word where a(v) has one
    plain = polyzeta.products._star_words

    def doubled(br, u, v):
        terms = plain(br, u, v)
        if all(letter.index <= 2 for letter in v):
            return terms
        return {w: 2 * c for w, c in terms.items()}

    for module in (polyzeta.products, polyzeta.hopf):
        monkeypatch.setattr(module, "_star_words", doubled)
    assert check_antipode(Bracket("stuffle", STUFFLE.fn, STUFFLE.kinds), 3,
                          (y(1), y(2))) == CheckReport(
        "antipode-right", False, 5, {"word": word(y(1), y(2))})


# (bialgebra, antipode) cases at max length 4 on the default alphabet of
# k letters: every pair with |w1| + |w2| = t <= 4, (t + 1) k^t of them, and
# every word, k^n of length n <= 4
CASES_AT_4 = {"shuffle": (129, 31), "stuffle": (547, 121),
              "minusstuffle": (547, 121), "duffle": (547, 121),
              "mulstuffle": (1593, 341)}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_checks_visit_every_case(name):
    br = fresh(PRODUCTS[name])
    k = len(default_alphabet(br))
    pairs, words = CASES_AT_4[name]
    assert pairs == sum((t + 1) * k**t for t in range(5))
    assert words == sum(k**n for n in range(5))
    assert check_bialgebra(br, 4) == CheckReport("bialgebra", True, pairs)
    assert check_antipode(br, 4) == CheckReport("antipode", True, words)


def test_non_associative_bracket_is_caught_by_the_antipode_check():
    # commutative, but [[a,b],c] = 4a + 4b + 2c and [a,[b,c]] = 2a + 4b + 4c;
    # check_bialgebra does not test associativity, check_antipode fails
    twice = Bracket("twice", lambda a, b: (
        1, Indexed(2 * a.index + 2 * b.index, a.family)), kinds=("indexed",))
    alphabet = (y(1), y(2))
    assert check_bialgebra(twice, 4, alphabet) == CheckReport(
        "bialgebra", True, 129) == check_bialgebra_ordered(
            fresh(twice), 4, alphabet)
    assert check_antipode(twice, 4, alphabet) == CheckReport(
        "antipode-left", False, 9, {"word": word(y(1), y(1), y(2))})


def test_report_shape():
    rep = check_bialgebra(SHUFFLE, 2)
    assert isinstance(rep, CheckReport)
    assert rep.status == "ok"
    assert rep.counterexample is None
    assert rep.checked > 0


def value_types(key):
    """The scalar types that the letters of a memo key carry."""
    return {type(letter.value) for w in (key if isinstance(key, tuple)
                                         else (key,)) for letter in w}


@pytest.mark.parametrize("exact_first", (False, True),
                         ids=("float-first", "exact-first"))
@pytest.mark.parametrize("route, table, key", (
    (lambda br, w: star(br, w, w), "_star_memo", lambda w: (w, w)),
    (antipode, "_antipode_memo", lambda w: w),
    (antipode_recursive, "_antipode_rec_memo", lambda w: w),
), ids=("star", "antipode", "antipode_recursive"))
def test_float_and_exact_queries_fill_disjoint_memo_keys(route, table, key,
                                                         exact_first):
    br = fresh(MULSTUFFLE)
    memo = getattr(br, table)
    queries = ((FLOATS, {float}), (EXACT, {F}))
    for w, kinds in queries[::-1 if exact_first else 1]:
        before = set(memo)
        route(br, w)
        added = set(memo) - before
        # the query fills entries of its own type, none read from the other's
        assert key(w) in added
        assert all(value_types(k) == kinds for k in added if value_types(k))
    assert memo[key(FLOATS)] is not memo[key(EXACT)]
    # both queries persist: repeating them is all memo hits
    size = len(memo)
    for w, _ in queries:
        route(br, w)
    assert len(memo) == size


SCALARS = (2, F(2), 2.0, complex(2, 0), F(1, 2), 0.5, complex(0.5, 0),
           F(-3, 4), -0.75, complex(0, 1))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_results_do_not_depend_on_memo_history(name):
    rng = random.Random(name)

    def letter():
        if name in ("stuffle", "minusstuffle"):
            return y(rng.randint(1, 3))
        if name == "duffle":
            return PairLetter(rng.randint(1, 2), rng.choice(SCALARS))
        return MonoidLetter(rng.choice(SCALARS))

    def draw():
        return Word(letter() for _ in range(rng.randint(0, 3)))

    shared = fresh(PRODUCTS[name])
    for _ in range(60):
        op = rng.choice(("star", "poly", "antipode", "antipode_recursive"))
        if op == "star":
            args = (draw(), draw())
            call = star
        elif op == "poly":
            left = Polynomial({draw(): rng.choice(SCALARS),
                               draw(): rng.choice(SCALARS)})
            args = (left, draw())
            call = star
        else:
            args = (draw(),)
            call = antipode if op == "antipode" else antipode_recursive
        got = call(shared, *args)
        want = call(fresh(shared), *args)
        assert got.terms == want.terms
        assert ({w: repr(c) for w, c in got.terms.items()}
                == {w: repr(c) for w, c in want.terms.items()})


@pytest.mark.parametrize("compute", (
    lambda: star(STUFFLE, Y12, word(y(3))),
    lambda: antipode(STUFFLE, Y12),
    lambda: antipode_recursive(STUFFLE, Y12),
), ids=("star", "antipode", "antipode_recursive"))
def test_arithmetic_leaves_memoized_results_unchanged(compute):
    first = compute()
    before = dict(first.terms)
    results = (first + Polynomial.monomial(word(y(9))), first - first,
               -first, 3 * first, first * F(1, 2))
    assert all(res is not first for res in results)
    assert first.terms == before
    assert compute().terms == before


@pytest.mark.parametrize("check", (check_bialgebra, check_antipode))
def test_checks_refuse_negative_length_bound(check):
    with pytest.raises(ValueError):
        check(STUFFLE, -1)


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_check_bialgebra_matches_the_ordered_reference(name):
    br = PRODUCTS[name]
    assert check_bialgebra(fresh(br), 5) == check_bialgebra_ordered(
        fresh(br), 5)


def test_check_bialgebra_matches_the_ordered_reference_on_random_tables():
    # a symmetric table passes commutativity, so every case reaches the
    # coproduct comparison; most tables are not associative and fail the
    # antipode check, which runs first to leave a partly filled memo
    rng = random.Random(23)
    letters = (y(1), y(2), y(3))
    antipode_axioms = set()
    for _ in range(30):
        table = {}
        for a, b in itertools.combinations_with_replacement(letters, 2):
            table[a, b] = table[b, a] = None if rng.random() < 0.3 else (
                rng.choice((1, -1, 2)), rng.choice(letters))

        def fn(a, b, table=table):
            return table[a, b]

        warm = Bracket("table", fn, ("indexed",))
        antipode_axioms.add(check_antipode(warm, 3, letters).axiom)
        assert check_bialgebra(warm, 4, letters) == check_bialgebra_ordered(
            Bracket("table", fn, ("indexed",)), 4, letters)
    assert antipode_axioms == {"antipode", "antipode-left"}
