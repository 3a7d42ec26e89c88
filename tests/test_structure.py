"""Structural oracles for the product engine at word lengths above the
exhaustive Hopf checks: Lyndon leading terms and Hoffman's exponential,
for all five brackets. Each oracle also runs against a mutant of
``products._expand`` that changes one coefficient only on suffix pairs of
total length >= 6, which the Hopf checks at length 5 never reach."""

import inspect
import random
import textwrap
from itertools import product

import pytest

from oracles import hoffman_failures, lyndon_factors, lyndon_failures
from polyzeta import products
from polyzeta.hopf import default_alphabet
from polyzeta.products import PRODUCTS, Bracket
from polyzeta.words import Word, word, x, y

# word length of the Lyndon check, per bracket, over two letters
LYNDON_LENGTH = {"shuffle": 8, "stuffle": 7, "minusstuffle": 7,
                 "mulstuffle": 7, "duffle": 7}


def fresh(name: str) -> Bracket:
    """A cold copy of a named bracket, so no test reads another's memo."""
    br = PRODUCTS[name]
    return Bracket(br.name, br.fn, br.kinds)


def hoffman_pairs(name: str, count: int = 8) -> list:
    """Every pair over two letters of total length <= 3, and a seeded
    sample of ``count`` pairs of total length 6 or 7."""
    letters = default_alphabet(PRODUCTS[name])[:2]
    words = [[Word(w) for w in product(letters, repeat=n)] for n in range(7)]
    pairs = [(u, v) for total in range(4) for n in range(total + 1)
             for u in words[n] for v in words[total - n]]
    rng = random.Random(name)
    for _ in range(count):
        total = rng.choice((6, 7))
        n = rng.randint(1, total - 1)
        pairs.append((rng.choice(words[n]), rng.choice(words[total - n])))
    return pairs


def mutant_expand(target: str, replacement: str):
    """``products._expand`` with one source fragment replaced."""
    source = textwrap.dedent(inspect.getsource(products._expand))
    assert target in source
    namespace = dict(vars(products))
    exec(source.replace(target, replacement), namespace)
    return namespace["_expand"]


LONG = "(2 if len(u) - i + len(v) - j >= 6 else 1)"
DOUBLED_LEFT_PREPEND = ("(_entry(memo, us[i + 1], vs[j]), a, 1)",
                        f"(_entry(memo, us[i + 1], vs[j]), a, {LONG})")
DOUBLED_CONTRACTION = ("pair[1], pair[0])",
                       f"pair[1], pair[0] * {LONG})")


def test_lyndon_factors():
    a, b = x(0), x(1)
    w = word(b, a, b, b, a, a, b, a, b)
    assert lyndon_factors(w) == [word(b), word(a, b, b), word(a, a, b, a, b)]
    assert lyndon_factors(word(a, a, b)) == [word(a, a, b)]
    assert (lyndon_factors(word(y(2), y(2), y(1)))
            == [word(y(2)), word(y(2)), word(y(1))])


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_lyndon_leading_terms(name):
    br = fresh(name)
    length = LYNDON_LENGTH[name]
    assert lyndon_failures(br, default_alphabet(br)[:2], length) == []


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_hoffman_exponential(name):
    assert hoffman_failures(fresh(name), hoffman_pairs(name)) == []


@pytest.mark.parametrize("name", ("shuffle", "stuffle", "mulstuffle"))
def test_lyndon_oracle_fails_on_doubled_left_prepend(monkeypatch, name):
    monkeypatch.setattr(products, "_expand",
                        mutant_expand(*DOUBLED_LEFT_PREPEND))
    br = fresh(name)
    assert lyndon_failures(br, default_alphabet(br)[:2], 6)


@pytest.mark.parametrize("name", ("stuffle", "mulstuffle", "duffle"))
def test_hoffman_oracle_fails_on_doubled_contraction(monkeypatch, name):
    monkeypatch.setattr(products, "_expand",
                        mutant_expand(*DOUBLED_CONTRACTION))
    assert hoffman_failures(fresh(name), hoffman_pairs(name))
