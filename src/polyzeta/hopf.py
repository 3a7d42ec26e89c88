"""Deconcatenation coproduct, counit, antipode and checkable Hopf axioms.

The coproduct splits a word into its prefix/suffix pairs; with any product
from the bracket family acting on each side, this yields a bialgebra, and
Hoffman's closed formula over compositions of the reversed word provides
the antipode (the recursion forced by the convolution axiom is kept as a
second, independent route). ``check_bialgebra`` and ``check_antipode``
verify the defining identities exhaustively on one sample of words over a
finite alphabet, with their coproducts, and report the first counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .products import Bracket, _star_words
from .words import (EMPTY_WORD, Combination, Letter, MonoidLetter, PairLetter,
                    Polynomial, Word, _canonical_blocks, _word, x, y)


def coproduct(w: Union[Word, Polynomial]) -> Combination:
    """Sum of the splittings u (x) v, uv = w, as (u, v) word pairs, extended
    linearly to polynomials; (u, v) determines uv, so none collide."""
    terms = w.terms.items() if isinstance(w, Polynomial) else ((w, 1),)
    return Combination._raw({(_word(wd._ids[:i]), _word(wd._ids[i:])): c
                             for wd, c in terms for i in range(len(wd) + 1)})


def counit(s: Union[Word, Polynomial]):
    """Coefficient of the empty word."""
    if isinstance(s, Word):
        return 1 if len(s) == 0 else 0
    return s.coeff(EMPTY_WORD)


def antipode(br: Bracket, w: Word) -> Polynomial:
    """Antipode by Hoffman's closed formula (Hoffman, "Quasi-shuffle
    products", J. Algebraic Combin. 11, 2000):

        S(x1...xn) = (-1)^n  sum over compositions I of n of  I[xn...x1]

    where I[.] cuts the reversed word into consecutive blocks of the sizes
    in I and contracts each block to one scaled letter through the bracket
    (a block containing a zero bracket contributes nothing); S(1) = 1.
    Grouping the compositions by their first block gives

        S(x1...xn) = sum over 0 < j <= n of
                     (-1)^j [xn ... x(n-j+1)] S(x1...x(n-j)),

    so the antipodes of the prefixes of w are built shortest first, each
    once, from contractions and concatenations alone.
    """
    memo = br._antipode_memo
    hit = memo.get(w)
    if hit is not None:
        return hit
    br.check_kinds(w.kind)
    letters = w.letters
    prefixes = [Polynomial.one()]
    for m in range(1, len(letters) + 1):
        prefix = w[:m]
        res = memo.get(prefix)
        if res is None:
            blocks = []  # (contracted first block, its sign, the rest's S)
            coeff, head = -1, letters[m - 1]
            for j in range(1, m + 1):
                blocks.append((head, coeff, prefixes[m - j]))
                pair = br.apply(head, letters[m - 1 - j]) if j < m else None
                if pair is None:
                    break
                coeff, head = -coeff * pair[0], pair[1]
            res = memo[prefix] = Polynomial(
                (u.prepended(a), k * c) for a, k, rest in blocks
                for u, c in rest)
        prefixes.append(res)
    return prefixes[-1]


def antipode_recursive(br: Bracket, w: Word) -> Polynomial:
    """Antipode through the characterization forced by the convolution
    axiom: summing a(prefix) * suffix over all splittings kills every
    nonempty word, hence

        a(w) = -w - sum over 0 < k < n of a(x1...xk) * x(k+1)...xn

    with a(1) = 1 (and so a(letter) = -letter). The prefixes of w are
    handled shortest first, as in ``antipode``."""
    memo = br._antipode_rec_memo
    hit = memo.get(w)
    if hit is not None:
        return hit
    br.check_kinds(w.kind)
    prefixes = [Polynomial.one()]
    for m in range(1, len(w) + 1):
        prefix = w[:m]
        res = memo.get(prefix)
        if res is None:
            res = memo[prefix] = Polynomial._raw(_canonical_blocks(
                itertools.chain((({prefix: 1}, -1),), (
                    (_star_words(br, u, prefix[k:]), -c) for k in range(1, m)
                    for u, c in prefixes[k].terms.items()))))
        prefixes.append(res)
    return prefixes[-1]


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Outcome of an exhaustive axiom check over a finite alphabet."""

    axiom: str
    ok: bool
    checked: int
    counterexample: Optional[dict] = None

    @property
    def status(self) -> str:
        return "ok" if self.ok else "counterexample"


def default_alphabet(br: Bracket) -> tuple[Letter, ...]:
    """Finite sample alphabet used by the exhaustive checks.

    The contraction brackets close over these letters (index sums and
    rational products stay representable), so checks never escape the
    alphabet kind.
    """
    name = br.name
    if name == "shuffle":
        return (x(0), x(1))
    if name in ("stuffle", "minusstuffle"):
        return (y(1), y(2), y(3))
    rationals = (Fraction(2, 3), Fraction(-1), Fraction(1, 2), Fraction(3))
    if name == "mulstuffle":
        return tuple(MonoidLetter(v) for v in rationals)
    if name == "duffle":
        return tuple(PairLetter(i + 1, v) for i, v in enumerate(rationals[:3]))
    raise ValueError(f"no default alphabet for bracket {name!r}")


def _sample(br: Bracket, maxlen: int, alphabet: Optional[Sequence[Letter]]):
    """Per length n <= maxlen, the words of length n over the alphabet (by
    default the bracket's) with their coproducts."""
    if maxlen < 0:
        raise ValueError(f"maxlen must be >= 0, got {maxlen}")
    if alphabet is None:
        alphabet = default_alphabet(br)
    if not alphabet:  # the unit word alone would pass every check
        raise ValueError("the sample alphabet must not be empty")
    if len({a._id for a in alphabet}) < len(alphabet):  # cases would repeat
        raise ValueError("the sample alphabet must not repeat a letter")
    br.check_kinds(*{a.kind for a in alphabet})
    return [[(w, coproduct(w)) for w in map(Word, itertools.product(
        alphabet, repeat=n))] for n in range(maxlen + 1)]


def check_bialgebra(br: Bracket, maxlen: int,
                    alphabet: Optional[Sequence[Letter]] = None) -> CheckReport:
    """Verify, on all word pairs with |w1| + |w2| <= maxlen over the sample
    alphabet, that the product is commutative (where a symmetry violation
    of the bracket surfaces) and that it is compatible with the coproduct:
    coproduct(w1 * w2) = coproduct(w1) * coproduct(w2). Associativity is
    not tested here: a non-associative bracket shows up in
    ``check_antipode``."""
    by_len = _sample(br, maxlen, alphabet)
    # each word's splittings, for this call only: product terms repeat
    splits = {w: cop.terms for words in by_len for w, cop in words}
    checked = 0
    for total in range(maxlen + 1):
        for n1 in range(total + 1):
            for k1, (w1, cop1) in enumerate(by_len[n1]):
                for k2, (w2, cop2) in enumerate(by_len[total - n1]):
                    prod = _star_words(br, w1, w2)
                    checked += 1
                    if prod != _star_words(br, w2, w1):
                        return CheckReport(
                            "bialgebra-commutativity", False, checked,
                            {"left": w1, "right": w2})
                    # the mirror (w2, w1) came earlier and passed. w1 * w2 =
                    # w2 * w1 was just checked, and the coproduct products
                    # agree in both orders as every pair up to this total
                    # commutes, which the loop has checked by now
                    if (n1, k1) > (total - n1, k2):
                        continue
                    # (u (x) v)(u' (x) v') = (u * u') (x) (v * v'), and a
                    # word's splittings have unit coefficients
                    cops = _canonical_blocks(
                        (_star_words(br, u1, v1), _star_words(br, u2, v2))
                        for (u1, u2), (v1, v2)
                        in itertools.product(cop1.terms, cop2.terms))
                    if cops != {uv: c for wd, c in prod.items() for uv in (
                            splits.get(wd) or splits.setdefault(
                                wd, coproduct(wd).terms))}:
                        return CheckReport(
                            "bialgebra-compatibility", False, checked,
                            {"left": w1, "right": w2})
    return CheckReport("bialgebra", True, checked)


def check_antipode(br: Bracket, maxlen: int,
                   alphabet: Optional[Sequence[Letter]] = None) -> CheckReport:
    """Verify both convolution axioms,

        sum a(u) * v = sum u * a(v) = <w|1> 1   over splittings uv = w,

    on all words of length <= maxlen over the sample alphabet."""
    checked = 0
    for n, words in enumerate(_sample(br, maxlen, alphabet)):
        for w, cop in words:
            expect = {EMPTY_WORD: 1} if n == 0 else {}
            left = _canonical_blocks(
                (_star_words(br, a, v), c) for u, v in cop.terms
                for a, c in antipode(br, u).terms.items())
            right = _canonical_blocks(
                (_star_words(br, u, a), c) for u, v in cop.terms
                for a, c in antipode(br, v).terms.items())
            checked += 1
            if left != expect:
                return CheckReport("antipode-left", False, checked, {"word": w})
            if right != expect:
                return CheckReport("antipode-right", False, checked, {"word": w})
    return CheckReport("antipode", True, checked)
