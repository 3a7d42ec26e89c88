"""Parameter-level calculus for colored, shifted nested series.

A parameter set (s, xi, t) of equal length r describes the nested sum

    sum over n1 > ... > nr > 0 of
        xi_1^n1 ... xi_r^nr / ((n1 - t_1)^s1 ... (nr - t_r)^sr)

with a composition s, nonzero colors xi and shifts t_i below level i's
least index r - i + 1 (condition (e)). This module provides the word
encoding of such parameter sets over the ``X0``/``XForm`` alphabet, its
inverse, and the two symbolic expansions of a product of two series into a
formal combination of series: through the word interleaving of the
encodings (``shuffle_expand``) and through the contraction product on
(s, xi) pairs at a common diagonal shift (``duffle_expand``). Both encode
their factors as words, multiply them with ``products.star``'s engine and
decode the terms. Both are formal: only the evaluator refuses divergence.
Each product word is read back once and kept in the term table ``_TERMS``,
so a warm expansion decodes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DiagonalError, ShapeError
from .products import DUFFLE, SHUFFLE, star
from .scalars import (Color, Real, check_color, color_sort_key, cumulative,
                      in_range, ratio, real_shift, scalar_tag, unit_sign)
from .words import Combination, PairLetter, Word, X0, XForm

_X0 = X0()
# Term table, which only grows: an interned encoded word -> its decoded
# parameters, and (paired word, scalar_tag(t), t) -> its duffle term. Words
# and the key are typed, so a term keeps its query's types and zero signs.
_TERMS: dict = {}


@dataclass(frozen=True, slots=True)
class PolyzetaParams:
    """A parameter triple (s, xi, t) of common depth r >= 0.

    Depth 0 is the empty triple and stands for the constant 1.
    """

    s: tuple[int, ...] = ()
    xi: tuple[Color, ...] = ()
    t: tuple[Real, ...] = ()
    # combinations of terms hash them often, and colors and shifts are
    # mostly Fractions, which hash slowly
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.s) == len(self.xi) == len(self.t)):
            raise ValueError("s, xi and t must have equal lengths")
        if any(type(si) is not int or si < 1 for si in self.s):
            raise ValueError("exponents must be positive integers")
        for c, ti in zip(self.xi, self.t):
            check_color(c)
            real_shift(ti)
        object.__setattr__(self, "_hash", hash((self.s, self.xi, self.t)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through the constructor, so the hash is recomputed
        return (PolyzetaParams, (self.s, self.xi, self.t))

    @classmethod
    def of(cls, s: Iterable[int], xi: Iterable[Color],
           t: Iterable[Real]) -> "PolyzetaParams":
        return cls(tuple(s), tuple(xi), tuple(map(real_shift, t)))

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def weight(self) -> int:
        return sum(self.s)

    def cumulative_colors(self) -> tuple[Color, ...]:
        return cumulative(self.xi)

    def satisfies_condition_e(self, moduli: Optional[list] = None) -> bool:
        """All prefix products of colors have modulus <= 1 and every shift
        t_i lies below its level's least index r - i + 1 (the convergence
        hypothesis). ``moduli``: those of the cumulative colors, if known."""
        return (all(unit_sign(m) <= 0
                    for m in moduli or self.cumulative_colors())
                and all(n < (self.depth - i) * d for i, (n, d) in enumerate(
                    ti.as_integer_ratio() for ti in self.t)))

    def is_convergent(self) -> bool:
        """True when the nested sum converges: s1 > 1, or s1 = 1 with
        |xi_1| < 1 (geometric damping)."""
        return self.depth == 0 or self.s[0] > 1 or unit_sign(self.xi[0]) < 0

    def sort_key(self) -> tuple:
        # n / d is float(Fraction(n, d)), without the method call
        return (self.depth, self.s,
                tuple(color_sort_key(c) for c in self.xi),
                tuple(v.numerator / v.denominator if type(v) is Fraction
                      else float(v) for v in self.t))

    def pretty(self) -> str:
        s = ",".join(str(v) for v in self.s)
        xi = ",".join(str(v) for v in self.xi)
        t = ",".join(str(v) for v in self.t)
        return f"Z(s=({s}); xi=({xi}); t=({t}))"


class LinComb(Combination):
    """Formal finite combination of hashable terms, in canonical form."""

    __slots__ = ()

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for term, c in self.sorted_terms():
            name = term.pretty() if hasattr(term, "pretty") else repr(term)
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts)


def tbar(t: Sequence[Real]) -> tuple[Real, ...]:
    """Consecutive differences of the shifts: tb_i = t_i - t_(i+1) for
    i < r and tb_r = t_r, the unique map inverted by suffix sums."""
    return tuple(in_range(a - b, shift=True)
                 for a, b in zip(t, t[1:])) + tuple(t[-1:])


def tbar_inverse(tb: Sequence[Real]) -> tuple[Real, ...]:
    """Suffix sums: t_i = tb_i + ... + tb_r."""
    out = []
    acc: Real = 0
    for v in reversed(tb):
        acc = in_range(v + acc, shift=True)
        out.append(acc)
    return tuple(reversed(out))


def encode(p: PolyzetaParams) -> Word:
    """Encoding word x0^(s1-1) X1 ... x0^(sr-1) Xr where the i-th form
    letter carries the cumulative color xi_1...xi_i and the shift
    difference tb_i. Depth 0 encodes to the empty word."""
    letters: list = []
    tb = tbar(p.t)
    for si, ci, tbi in zip(p.s, p.cumulative_colors(), tb):
        letters.extend([_X0] * (si - 1))
        letters.append(XForm(ci, tbi))
    return Word(letters)


def decode(w: Word) -> PolyzetaParams:
    """Read a word of shape (x0^* XForm)+ back into parameters.

    With cumulative colors c_1..c_r and shift differences tb_1..tb_r in
    word order: s_i = 1 + (number of x0 before the i-th form letter since
    the previous one), xi_1 = c_1, xi_i = c_i / c_(i-1), and
    t_i = tb_i + ... + tb_r. Each word is read once; errors are not kept.
    """
    p = _TERMS.get(w)
    if p is None:  # racing threads share the first term stored
        p = _TERMS.setdefault(w, _decode(w))
    return p


def _decode(w: Word) -> PolyzetaParams:
    if len(w) == 0:
        raise ShapeError("cannot decode the empty word")
    if w.kind != "encoded":
        raise ShapeError(f"cannot decode a word over the {w.kind!r} alphabet")
    if not isinstance(w.letters[-1], XForm):
        raise ShapeError("encoded word must end with a form letter")
    s: list[int] = []
    colors: list[Color] = []
    tbs: list[Real] = []
    run = 0
    for letter in w.letters:
        if isinstance(letter, X0):
            run += 1
        else:
            s.append(run + 1)
            colors.append(letter.color)
            tbs.append(letter.tbar)
            run = 0
    xi = colors[:1] + [ratio(c, prev) for prev, c in zip(colors, colors[1:])]
    return PolyzetaParams(tuple(s), tuple(xi), tbar_inverse(tbs))


def shuffle_expand(p: PolyzetaParams, q: PolyzetaParams) -> LinComb:
    """Expand the product of two series through the word interleaving of
    their encodings: every interleaving decodes to a parameter set, and
    the multiplicities become the coefficients.

    The expansion is formal. Convergent factors give convergent terms: an
    interleaving's first form letter is one input's, so leading exponents
    or moduli carry over, and a level's shift is a sum of at most one shift
    of each factor, each below its count of letters from there on.
    """
    if p.depth == 0:
        return LinComb.monomial(q)
    if q.depth == 0:
        return LinComb.monomial(p)
    return LinComb((decode(wd), c)
                   for wd, c in star(SHUFFLE, encode(p), encode(q)))


def _diagonal_shift(p: PolyzetaParams) -> Optional[Real]:
    if p.depth == 0:
        return None
    first = p.t[0]
    if any(ti != first for ti in p.t[1:]):
        raise DiagonalError(
            f"shift tuple ({', '.join(map(str, p.t))}) is not constant; the "
            "contraction expansion needs one common diagonal shift")
    return first


def duffle_expand(p: PolyzetaParams, q: PolyzetaParams) -> LinComb:
    """Expand the product of two series sharing one diagonal shift t
    through the contraction product on (s, xi) pairs:

        (s1,s; x1,x) . (r1,r; p1,p) =
              (s1; x1) . (s,x  *  r1,r; p1,p)
            + (r1; p1) . (s1,s; x1,x  *  r,p)
            + (s1+r1; x1*p1) . (s,x  *  r,p)

    with the empty pair as unit. This is the duffle product on words of
    paired letters (s_i, xi_i); each product word reads back as the term
    with the diagonal shift tuple of its own depth. Words that differ only
    in value type read back as one term, whose coefficient is their sum."""
    tp = _diagonal_shift(p)
    tq = _diagonal_shift(q)
    if tp is not None and tq is not None and tp != tq:
        raise DiagonalError(
            f"shifts differ between factors ({tp} vs {tq})")
    t = tp if tp is not None else tq
    if p.depth == 0:
        return LinComb.monomial(q)
    if q.depth == 0:
        return LinComb.monomial(p)
    product = star(DUFFLE, Word(map(PairLetter, p.s, p.xi)),
                   Word(map(PairLetter, q.s, q.xi)))
    tag = scalar_tag(t)
    return LinComb((_duffle_term(w, tag, t), c) for w, c in product)


def _duffle_term(w: Word, tag, t: Real) -> PolyzetaParams:
    key = w, tag, t
    p = _TERMS.get(key)
    if p is None:
        p = _TERMS.setdefault(key, PolyzetaParams(
            tuple(l.index for l in w), tuple(l.value for l in w),
            (t,) * len(w)))
    return p
