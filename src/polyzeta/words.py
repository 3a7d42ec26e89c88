"""Free monoid over the parameterized alphabets, and noncommutative polynomials.

Letters come in four alphabet kinds:

* ``Indexed``      natural-number index with a display family ("x", "y", ...),
* ``MonoidLetter`` indexed by an element of a commutative monoid
                   (default: nonzero rationals under multiplication),
* ``PairLetter``   a positive index paired with a monoid element,
* ``X0`` / ``XForm``   the encoding alphabet: a plain integration slot and a
                   form letter carrying a cumulative color and a shift
                   difference.

Words are immutable; ``u + v`` concatenates and ``Word()`` is the unit.
:class:`Combination` is the one canonical formal-combination type (keys
to coefficients over any ring whose elements support ``+``, ``*`` and
``== 0``: int, Fraction and complex all qualify); a :class:`Polynomial`
is a combination of words. Combinations are immutable values and
``terms`` is read-only: a product may share it with its memo.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain, groupby
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Union

from .errors import AlphabetMismatchError
from .scalars import (Color, Real, check_color, color_sort_key, real_shift,
                      scalar_tag)

_SUB = str.maketrans("0123456789-", "₀₁₂₃₄₅₆₇₈₉₋")
_SUP = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _subscript(value) -> str:
    text = str(value)
    if text.lstrip("-").isdigit():
        return text.translate(_SUB)
    return "_{%s}" % text


# Hash-cons tables, which only grow: letter key -> id, id -> first letter,
# and id tuple -> word. A letter key hashes in Python code, so interning
# takes the lock; dict.setdefault on a tuple of ints is atomic.
_LETTER_IDS: dict = {}
_LETTERS: list = []
_LETTER_LOCK = threading.Lock()
_WORDS: dict = {}


class _Letter:
    """Base of the letter dataclasses: validates the fields, then interns
    the letter. Equality and hash stay the dataclass ones, by value."""

    __slots__ = ("_id",)

    def _check(self):
        pass

    def __post_init__(self):
        self._check()
        key = (self, tuple(scalar_tag(getattr(self, f))
                           for f in self.__match_args__))
        with _LETTER_LOCK:
            i = _LETTER_IDS.get(key)
            if i is None:
                i = _LETTER_IDS[key] = len(_LETTERS)
                _LETTERS.append(self)
        object.__setattr__(self, "_id", i)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


@dataclass(frozen=True, slots=True)
class Indexed(_Letter):
    """Letter indexed by a nonnegative integer, e.g. x0, x1 or y3."""

    index: int
    family: str = "x"
    kind = "indexed"

    def _check(self):
        i = self.index
        if type(i) is not int or i < 0:
            raise ValueError(f"index must be an integer >= 0, got {i!r}")
        if type(self.family) is not str:
            raise ValueError(f"family must be a string, got {self.family!r}")

    def pretty(self) -> str:
        return self.family + _subscript(self.index)

    def sort_key(self) -> tuple:
        return (self.family, self.index)


@dataclass(frozen=True, slots=True)
class MonoidLetter(_Letter):
    """Letter indexed by an element of a commutative monoid."""

    value: object
    kind = "monoid"

    def _check(self):
        check_color(self.value, zero=True)

    def pretty(self) -> str:
        return "x" + _subscript(self.value)

    def sort_key(self) -> tuple:
        return color_sort_key(self.value)


@dataclass(frozen=True, slots=True)
class PairLetter(_Letter):
    """Paired letter (index, monoid element); the paired-alphabet product
    contracts indices additively and values multiplicatively."""

    index: int
    value: object
    kind = "pair"

    def _check(self):
        i = self.index
        if type(i) is not int or i < 1:
            raise ValueError(f"pair index must be an integer >= 1, got {i!r}")
        check_color(self.value, zero=True)

    def pretty(self) -> str:
        return "(y%s,e%s)" % (_subscript(self.index), _subscript(self.value))

    def sort_key(self) -> tuple:
        return (self.index,) + color_sort_key(self.value)


@dataclass(frozen=True, slots=True)
class X0(_Letter):
    """The integration-slot letter of the encoding alphabet."""

    kind = "encoded"

    def pretty(self) -> str:
        return "x₀"

    def sort_key(self) -> tuple:
        return (0,)


@dataclass(frozen=True, slots=True)
class XForm(_Letter):
    """Form letter of the encoding alphabet.

    Carries the *cumulative* color (the running product of the colors up to
    this position) and the shift difference attached to the position. The
    cumulative convention makes decoding well defined on arbitrary
    interleavings of encoded words.
    """

    color: Color
    tbar: Real
    kind = "encoded"

    def _check(self):
        check_color(self.color)
        real_shift(self.tbar)

    def pretty(self) -> str:
        return "x_{%s;%s}" % (self.color, self.tbar)

    def sort_key(self) -> tuple:
        return (1,) + color_sort_key(self.color) + (float(self.tbar),)


Letter = Union[Indexed, MonoidLetter, PairLetter, X0, XForm]


def x(i: int) -> Indexed:
    return Indexed(i, "x")


def y(i: int) -> Indexed:
    return Indexed(i, "y")


class Word:
    """An immutable word over a single alphabet kind.

    Words form the free monoid: ``u + v`` concatenates, ``Word()`` is the
    two-sided unit (compatible with every kind). Slicing returns words.
    Words are hash-consed: equality is identity, by letter value and value
    type (and the sign of a float zero), so a memo keyed on words never
    hands one query's scalar types to another. A word of two kinds is
    refused where every word is first made, in ``_word``. Each word keeps
    its prepend edges (head letter id -> word) for ``prepended``.
    """

    __slots__ = ("_ids", "_heads")

    def __new__(cls, letters: Iterable[Letter] = ()):
        return _word(tuple(letter._id for letter in letters))

    def __reduce__(self):
        return Word, (self.letters,)

    @property
    def letters(self) -> tuple:
        return tuple(map(_LETTERS.__getitem__, self._ids))

    @property
    def kind(self):
        return _LETTERS[self._ids[0]].kind if self._ids else None

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Letter]:
        return map(_LETTERS.__getitem__, self._ids)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return _word(self._ids[item])
        return _LETTERS[self._ids[item]]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return concat(self, other)

    def __repr__(self) -> str:
        return "Word(%s)" % (list(self.letters),)

    def prepended(self, letter: Letter) -> "Word":
        w = self._heads.get(letter._id)
        if w is None:  # racing threads store the same interned word
            w = self._heads[letter._id] = _word((letter._id,) + self._ids)
        return w

    def sort_key(self) -> tuple:
        return (len(self._ids), tuple(l.sort_key() for l in self))

    def pretty(self) -> str:
        runs = ((_LETTERS[i].pretty(), len(list(g)))
                for i, g in groupby(self._ids))
        return "".join(p + (str(n).translate(_SUP) if n > 1 else "")
                       for p, n in runs) or "1"


def _word(ids: tuple) -> Word:
    """The canonical word for a tuple of letter ids. Every word is first
    made here, so only here are its letters checked to share one kind."""
    w = _WORDS.get(ids)
    if w is None:
        kinds = {_LETTERS[i].kind for i in ids}
        if len(kinds) > 1:
            raise AlphabetMismatchError(f"word mixes kinds {sorted(kinds)}")
        w = object.__new__(Word)
        w._ids, w._heads = ids, {}
        w = _WORDS.setdefault(ids, w)
    return w


EMPTY_WORD = Word()


def word(*letters: Letter) -> Word:
    return Word(letters)


def concat(u: Word, v: Word) -> Word:
    """Concatenation, the free-monoid product. Lengths add."""
    return _word(u._ids + v._ids)


def _canonical(items) -> dict:
    """Sum ``(key, coefficient)`` pairs in one pass: equal keys add, keys
    keep the order in which they first appear, and zero sums are dropped
    at the end. Every combination is summed here or in its block form."""
    out: dict = {}
    for key, c in items:
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return _nonzero(out)


def _canonical_blocks(blocks) -> dict:
    """``_canonical`` of the pairs of each block in order, read straight
    from its dicts, one dict step per term: ``(terms, scale)`` holds
    (key, scale * c) for key, c in terms, and ``(left, right)``, two
    dicts, their tensor product ((a, b), ca * cb), row by row."""
    out: dict = {}
    for terms, scale in blocks:
        if type(scale) is dict:
            right = scale.items()
            for a, ca in terms.items():
                for b, cb in right:
                    key = a, b
                    prev = out.get(key)
                    out[key] = ca * cb if prev is None else prev + ca * cb
        else:
            for key, c in terms.items():
                prev = out.get(key)
                out[key] = scale * c if prev is None else prev + scale * c
    return _nonzero(out)


def _nonzero(out: dict) -> dict:
    if 0 in out.values():  # rebuilding rehashes every key, which may be slow
        out = {k: c for k, c in out.items() if c != 0}
    return out


def _sort_key(key):
    """Deterministic order on combination keys: their own sort key,
    componentwise on tuples, the repr otherwise."""
    if isinstance(key, tuple):
        return tuple(_sort_key(k) for k in key)
    return key.sort_key() if hasattr(key, "sort_key") else repr(key)


class Combination:
    """Finite formal linear combination of hashable keys, in canonical form.

    Stored as a key -> coefficient map with no zero coefficients, so
    structural equality is semantic equality. Coefficients may be any
    scalars supporting ``+``, ``*`` and comparison with 0. Combinations of
    different classes never compare equal. ``terms`` is a read-only view;
    the dict behind it may be a memo's, shared and never mutated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple], None] = None):
        items = (terms.items() if isinstance(terms, Mapping) else terms) or ()
        self.terms = MappingProxyType(_canonical(items))

    @classmethod
    def _raw(cls, data: dict):
        # internal: data already canonical (no zeros, merged)
        obj = object.__new__(cls)
        obj.terms = MappingProxyType(data)
        return obj

    def __reduce__(self):
        return type(self)._raw, (dict(self.terms),)

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def monomial(cls, key, coeff=1):
        return cls._raw({key: coeff}) if coeff != 0 else cls._raw({})

    def coeff(self, key):
        """The coefficient of ``key``, 0 if absent."""
        return self.terms.get(key, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(chain(self, other))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, Combination):
            raise TypeError("combinations multiply through a product such "
                            "as star, not '*'")
        return type(self)((k, scalar * c) for k, c in self)

    __mul__ = __rmul__

    def sorted_terms(self) -> list:
        """Terms in the deterministic order of their keys."""
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, dict(self.terms))


class Polynomial(Combination):
    """Noncommutative polynomial: a combination of words; products go
    through a bracket (see ``products.star``)."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({EMPTY_WORD: 1})

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        text = ""
        for w, c in self.sorted_terms():
            if isinstance(c, complex):
                # str already brackets a complex with a real part
                coeff, sign = str(c), "+"
                coeff = coeff if coeff.startswith("(") else f"({coeff})"
            else:
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                coeff = "" if mag == 1 and w else str(mag)
            text += f" {sign} {coeff}{w.pretty() if w else ''}"
        return text[3:] if text.startswith(" + ") else "-" + text[3:]
