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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import AlphabetMismatchError
from .scalars import Color, ExactColor, Real, color_sort_key

# Scalar types that keep a letter exact; anything else (float, complex)
# makes a word inexact.
_EXACT_TYPES = frozenset((int, Fraction, ExactColor))
_SUB = str.maketrans("0123456789-", "₀₁₂₃₄₅₆₇₈₉₋")
_SUP = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _subscript(value) -> str:
    text = str(value)
    if text.lstrip("-").isdigit():
        return text.translate(_SUB)
    return "_{%s}" % text


def _value_is_exact(letter) -> bool:
    return type(letter.value) in _EXACT_TYPES


@dataclass(frozen=True, slots=True)
class Indexed:
    """Letter indexed by a nonnegative integer, e.g. x0, x1 or y3."""

    index: int
    family: str = "x"
    kind = "indexed"
    exact = True

    def __post_init__(self):
        i = self.index
        if type(i) is not int or i < 0:
            raise ValueError(f"index must be an integer >= 0, got {i!r}")

    def pretty(self) -> str:
        return self.family + _subscript(self.index)

    def sort_key(self) -> tuple:
        return (self.family, self.index)


@dataclass(frozen=True, slots=True)
class MonoidLetter:
    """Letter indexed by an element of a commutative monoid."""

    value: object
    kind = "monoid"
    exact = property(_value_is_exact)

    def pretty(self) -> str:
        return "x" + _subscript(self.value)

    def sort_key(self) -> tuple:
        return color_sort_key(self.value)


@dataclass(frozen=True, slots=True)
class PairLetter:
    """Paired letter (index, monoid element); the paired-alphabet product
    contracts indices additively and values multiplicatively."""

    index: int
    value: object
    kind = "pair"
    exact = property(_value_is_exact)

    def __post_init__(self):
        i = self.index
        if type(i) is not int or i < 1:
            raise ValueError(f"pair index must be an integer >= 1, got {i!r}")

    def pretty(self) -> str:
        return "(y%s,e%s)" % (_subscript(self.index), _subscript(self.value))

    def sort_key(self) -> tuple:
        return (self.index,) + color_sort_key(self.value)


@dataclass(frozen=True, slots=True)
class X0:
    """The integration-slot letter of the encoding alphabet."""

    kind = "encoded"
    exact = True

    def pretty(self) -> str:
        return "x₀"

    def sort_key(self) -> tuple:
        return (0,)


@dataclass(frozen=True, slots=True)
class XForm:
    """Form letter of the encoding alphabet.

    Carries the *cumulative* color (the running product of the colors up to
    this position) and the shift difference attached to the position. The
    cumulative convention makes decoding well defined on arbitrary
    interleavings of encoded words.
    """

    color: Color
    tbar: Real
    kind = "encoded"

    def __post_init__(self):
        if self.color == 0:
            raise ValueError("cumulative color must be nonzero")

    @property
    def exact(self) -> bool:
        return (type(self.color) in _EXACT_TYPES
                and type(self.tbar) in _EXACT_TYPES)

    def pretty(self) -> str:
        return "x_{%s;%s}" % (self.color, self.tbar)

    def sort_key(self) -> tuple:
        t = self.tbar
        tf = Fraction(t) if isinstance(t, (int, Fraction)) else t
        return (1,) + color_sort_key(self.color) + (float(tf),)


Letter = Union[Indexed, MonoidLetter, PairLetter, X0, XForm]


def x(i: int) -> Indexed:
    return Indexed(i, "x")


def y(i: int) -> Indexed:
    return Indexed(i, "y")


class Word:
    """An immutable word over a single alphabet kind.

    Words form the free monoid: ``u + v`` concatenates, ``Word()`` is the
    two-sided unit (compatible with every kind). Slicing returns words.
    ``exact`` holds when every scalar the letters carry is exact.
    """

    __slots__ = ("letters", "kind", "exact", "_hash")

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        kind = None
        for letter in letters:
            if kind is None:
                kind = letter.kind
            elif letter.kind != kind:
                raise AlphabetMismatchError(
                    f"word mixes alphabet kinds {kind!r} and {letter.kind!r}")
        self.letters = letters
        self.kind = kind
        self.exact = all(letter.exact for letter in letters)
        self._hash = hash(letters)

    @classmethod
    def _make(cls, letters: tuple, kind, exact: bool) -> "Word":
        # internal fast path: letters already validated
        w = object.__new__(cls)
        w.letters = letters
        w.kind = kind
        w.exact = exact
        w._hash = hash(letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            sub = self.letters[item]
            return Word._make(sub, self.kind if sub else None, self.exact
                              or all(letter.exact for letter in sub))
        return self.letters[item]

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return concat(self, other)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return "Word(%s)" % (list(self.letters),)

    def prepended(self, letter: Letter) -> "Word":
        if self.kind is not None and letter.kind != self.kind:
            raise AlphabetMismatchError(
                f"cannot prepend {letter.kind!r} letter to {self.kind!r} word")
        return Word._make((letter,) + self.letters, letter.kind,
                          self.exact and letter.exact)

    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(l.sort_key() for l in self.letters))

    def pretty(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            j = i
            while j < len(self.letters) and self.letters[j] == self.letters[i]:
                j += 1
            run = self.letters[i].pretty()
            if j - i > 1:
                run += str(j - i).translate(_SUP)
            parts.append(run)
            i = j
        return "".join(parts)


EMPTY_WORD = Word()


def word(*letters: Letter) -> Word:
    return Word(letters)


def concat(u: Word, v: Word) -> Word:
    """Concatenation, the free-monoid product. Lengths add."""
    if u.kind is not None and v.kind is not None and u.kind != v.kind:
        raise AlphabetMismatchError(
            f"cannot concatenate {u.kind!r} word with {v.kind!r} word")
    if not u.letters:
        return v
    if not v.letters:
        return u
    return Word._make(u.letters + v.letters, u.kind, u.exact and v.exact)


def _merge(data: dict, items) -> dict:
    """Add ``(key, coefficient)`` pairs into ``data`` in place, deleting
    keys whose coefficients cancel; returns ``data``."""
    for key, c in items:
        prev = data.get(key)
        if prev is None:
            data[key] = c
        else:
            prev = prev + c
            if prev == 0:
                del data[key]
            else:
                data[key] = prev
    return data


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
    different classes never compare equal. The map is shared, never mutated.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Union[Mapping, Iterable[tuple], None] = None):
        items = (terms.items() if isinstance(terms, Mapping) else terms) or ()
        self.terms = _merge({}, ((k, c) for k, c in items if c != 0))

    @classmethod
    def _raw(cls, data: dict):
        # internal: data already canonical (no zeros, merged)
        obj = object.__new__(cls)
        obj.terms = data
        return obj

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
        return self._raw(_merge(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, Combination):
            raise TypeError("combinations multiply through a product such "
                            "as star, not '*'")
        if scalar == 0:
            return self._raw({})
        return self._raw({k: scalar * c for k, c in self.terms.items()})

    __mul__ = __rmul__

    def sorted_terms(self) -> list:
        """Terms in the deterministic order of their keys."""
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.terms)


class Polynomial(Combination):
    """Noncommutative polynomial: a combination of words; products go
    through a bracket (see ``products.star``)."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({EMPTY_WORD: 1})

    def prepended(self, letter: Letter, factor=1) -> "Polynomial":
        """Left-multiply every word by a letter, optionally scaling."""
        if factor == 0:
            return Polynomial._raw({})
        return Polynomial._raw(
            {w.prepended(letter): factor * c for w, c in self.terms.items()})

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            if isinstance(c, complex):
                coeff, sign = f"({c})", "+"
            else:
                sign = "-" if c < 0 else "+"
                mag = -c if c < 0 else c
                coeff = "" if mag == 1 and w else str(mag)
            term = (coeff + w.pretty()) if coeff else w.pretty()
            parts.append((sign, term))
        first_sign, first = parts[0]
        text = ("-" if first_sign == "-" else "") + first
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text
