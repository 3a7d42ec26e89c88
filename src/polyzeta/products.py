"""The bracketed interleaving product and its five named instances.

One recursive engine covers the whole product family: a product is selected
by a *bracket*, a symmetric associative pairing on scaled letters. The
bracket returns ``None`` for zero (plain shuffle) or a ``(coefficient,
letter)`` pair for a contraction; the recursion is

    au * bv  =  a (u * bv)  +  b (au * v)  +  [a, b] (u * v)

extended bilinearly, with the empty word as unit. Each bracket memoizes its
pairing on letter-id pairs and the expansions of word pairs, as the antipodes
in ``hopf`` do; an expansion computes only the suffix pairs its memo lacks.
Words key on letter value and value type, so float and exact queries fill
disjoint entries; the tables grow for the life of the process.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .errors import AlphabetMismatchError
from .scalars import in_range
from .words import (_LETTERS, Indexed, Letter, MonoidLetter, PairLetter,
                    Polynomial, Word, _canonical, _canonical_blocks, _word)

BracketResult = Optional[tuple[object, Letter]]


class Bracket:
    """A commutative, associative pairing on scaled letters.

    ``fn(a, b)`` returns ``None`` (bracket is zero) or ``(coeff, letter)``.
    ``kinds`` restricts the alphabet kinds the bracket accepts; ``None``
    accepts any kind (the pairing never inspects the letters).
    """

    __slots__ = ("name", "fn", "kinds", "_table", "_star_memo",
                 "_antipode_memo", "_antipode_rec_memo")

    def __init__(self, name: str, fn: Callable[[Letter, Letter], BracketResult],
                 kinds: Optional[tuple[str, ...]] = None):
        self.name = name
        self.fn = fn
        self.kinds = kinds
        self._table: dict = {}
        self._star_memo: dict = {}
        self._antipode_memo: dict = {}
        self._antipode_rec_memo: dict = {}

    def apply(self, a: Letter, b: Letter) -> BracketResult:
        key = (a._id, b._id)
        if key in self._table:
            return self._table[key]
        self.check_kinds(a.kind, b.kind)
        res = self.fn(a, b)
        if res is not None and res[1].kind != a.kind:
            raise AlphabetMismatchError(
                f"bracket {self.name!r} leaves the {a.kind!r} alphabet")
        self._table[key] = res
        return res

    def check_kinds(self, *kinds) -> None:
        """Refuse a kind outside ``kinds``; the unit word's (None) passes."""
        for kind in kinds:
            if self.kinds is not None and kind not in (None, *self.kinds):
                raise AlphabetMismatchError(
                    f"bracket {self.name!r} is undefined on {kind!r} letters")

    def __repr__(self) -> str:
        return f"Bracket({self.name!r})"


def _star_words(br: Bracket, u: Word, v: Word) -> dict:
    """Raw expansion of u * v as a word -> coefficient dict, memoized on
    the typed word pair; the dict is shared and must not be mutated."""
    hit = br._star_memo.get((u, v))
    return hit if hit is not None else _expand(br._star_memo, br, u, v)


def _entry(memo: dict, u: Word, v: Word) -> dict:
    hit = memo.get((u, v))  # only a pair with a unit factor is missing here
    return hit if hit is not None else memo.setdefault((u, v), {u + v: 1})


def _expand(memo: dict, br: Bracket, u: Word, v: Word) -> dict:
    """Fill ``memo`` at the suffix pairs (u[i:], v[j:]) that the recursion
    reaches and that it lacks, last suffixes (children) first. An entry is
    written only after its children, so the lacking pairs form a staircase
    anchored at (0, 0): row i lacks the columns j < ends[i], and ends[i]
    never grows down the rows. It is the one cell (u, v) when the children
    are present, is found from the top otherwise, and is filled from the
    bottom; only the suffixes it touches are built."""
    lu, lv = u._ids, v._ids
    if not (lu and lv):
        return _entry(memo, u, v)
    us, vs, ends, end = [u, _word(lu[1:])], [v, _word(lv[1:])], [], len(lv)
    if (len(lu) == 1 or (us[1], v) in memo) and (
            len(lv) == 1 or (u, vs[1]) in memo):
        ends, end = [1], 0
    while end and len(ends) < len(lu):
        row, limit, end = us[len(ends)], end, 0
        while end < limit and (row, vs[end]) not in memo:
            end += 1
            if end == len(vs):
                vs.append(_word(lv[end:]))
        if end:
            ends.append(end)
            if len(ends) == len(us):
                us.append(_word(lu[len(ends):]))

    for i in reversed(range(len(ends))):
        for j in reversed(range(ends[i])):
            a, b = _LETTERS[lu[i]], _LETTERS[lv[j]]
            pair = br.apply(a, b)
            parts = [(_entry(memo, us[i + 1], vs[j]), a, 1),
                     (_entry(memo, us[i], vs[j + 1]), b, 1)]
            if pair is not None:
                parts.append((_entry(memo, us[i + 1], vs[j + 1]),
                              pair[1], pair[0]))
            memo[us[i], vs[j]] = _canonical(
                (w.prepended(head), factor * c)
                for terms, head, factor in parts for w, c in terms.items())
    return _entry(memo, u, v)


def star(br: Bracket, left: Union[Word, Polynomial], right: Union[Word, Polynomial]) -> Polynomial:
    """The bracket-selected product, extended bilinearly to polynomials.
    On two words the result shares its terms with the memo."""
    if isinstance(left, Word) and isinstance(right, Word):
        br.check_kinds(left.kind, right.kind)
        return Polynomial._raw(_star_words(br, left, right))
    lt = left.terms if isinstance(left, Polynomial) else {left: 1}
    rt = right.terms if isinstance(right, Polynomial) else {right: 1}
    br.check_kinds(*{w.kind for w in (*lt, *rt)})
    return Polynomial._raw(_canonical_blocks(
        (_star_words(br, u, v), cu * cv) for u, cu in lt.items()
        for v, cv in rt.items()))


def _zero_bracket(a: Letter, b: Letter) -> BracketResult:
    return None


def _index_sum(sign: int) -> Callable[[Indexed, Indexed], BracketResult]:
    """Contraction on indexed letters of one family: indices add and the
    coefficient is ``sign``."""

    def fn(a: Indexed, b: Indexed) -> BracketResult:
        if a.family != b.family:
            raise AlphabetMismatchError(
                f"cannot contract letters from families {a.family!r} and {b.family!r}")
        return (sign, Indexed(a.index + b.index, a.family))

    return fn


def _value_product(a: MonoidLetter, b: MonoidLetter) -> BracketResult:
    return (1, MonoidLetter(in_range(a.value * b.value)))


def _pair_contraction(a: PairLetter, b: PairLetter) -> BracketResult:
    return (1, PairLetter(a.index + b.index, in_range(a.value * b.value)))


SHUFFLE = Bracket("shuffle", _zero_bracket, kinds=None)
STUFFLE = Bracket("stuffle", _index_sum(1), kinds=("indexed",))
MINUS_STUFFLE = Bracket("minusstuffle", _index_sum(-1), kinds=("indexed",))
MULSTUFFLE = Bracket("mulstuffle", _value_product, kinds=("monoid",))
DUFFLE = Bracket("duffle", _pair_contraction, kinds=("pair",))

PRODUCTS: dict[str, Bracket] = {
    br.name: br for br in (SHUFFLE, STUFFLE, MINUS_STUFFLE, MULSTUFFLE, DUFFLE)
}


def shuffle(left, right) -> Polynomial:
    return star(SHUFFLE, left, right)


def stuffle(left, right) -> Polynomial:
    return star(STUFFLE, left, right)


def minus_stuffle(left, right) -> Polynomial:
    return star(MINUS_STUFFLE, left, right)


def mulstuffle(left, right) -> Polynomial:
    return star(MULSTUFFLE, left, right)


def duffle(left, right) -> Polynomial:
    return star(DUFFLE, left, right)
