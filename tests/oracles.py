"""Independent reference implementations used to freeze expected values.

Each oracle is deliberately structured differently from the library path
it checks: direct enumeration instead of memoized recursion, plain
summation instead of the level dynamic program.
"""

import sys
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import factorial, fsum, prod

from polyzeta import products
from polyzeta.hopf import CheckReport, _sample, coproduct
from polyzeta.products import SHUFFLE, Bracket, star
from polyzeta.scalars import ExactColor
from polyzeta.words import Polynomial, Word, _canonical


def star_oracle(br: Bracket, u: Word, v: Word) -> dict:
    """Expand u * v by walking every interleaving, optionally merging the
    two current heads through the bracket. No memoization, no polynomial
    algebra."""
    out: dict = {}

    def walk(prefix, coeff, left, right):
        if not left and not right:
            w = Word(prefix)
            out[w] = out.get(w, 0) + coeff
            return
        if left:
            walk(prefix + [left[0]], coeff, left[1:], right)
        if right:
            walk(prefix + [right[0]], coeff, left, right[1:])
        if left and right:
            hit = br.apply(left[0], right[0])
            if hit is not None:
                factor, head = hit
                walk(prefix + [head], coeff * factor, left[1:], right[1:])

    walk([], 1, tuple(u.letters), tuple(v.letters))
    return {w: c for w, c in out.items() if c != 0}


def antipode_composition_sum(br: Bracket, w: Word) -> dict:
    """The antipode as the signed composition sum

        a(x1...xn) = sum over (i1,...,ik) of (-1)^k  block1 * ... * blockk,

    cutting w into consecutive blocks of the sizes i1..ik and multiplying
    the blocks left to right with the enumeration oracle above; a(1) = 1.
    Compositions sharing their first blocks share those products."""
    out: dict = {}

    def extend(cur: dict, pos: int, sign: int) -> None:
        if pos == len(w):
            for v, c in cur.items():
                out[v] = out.get(v, 0) + sign * c
            return
        for end in range(pos + 1, len(w) + 1):
            nxt: dict = {}
            for u, c in cur.items():
                for v, d in star_oracle(br, u, w[pos:end]).items():
                    nxt[v] = nxt.get(v, 0) + c * d
            extend(nxt, end, -sign)

    extend({Word(): 1}, 0, 1)
    return {v: c for v, c in out.items() if c != 0}


def check_bialgebra_ordered(br: Bracket, maxlen: int, alphabet=None):
    """``hopf.check_bialgebra`` comparing the coproducts of every ordered
    pair (w1, w2), mirrored ones included, in the library's order of
    cases. Reads ``products._star_words`` when called, so a test that
    patches it patches this reference too."""
    star_words = products._star_words
    by_len = _sample(br, maxlen, alphabet)
    splits = {w: cop.terms for words in by_len for w, cop in words}
    checked = 0
    for total in range(maxlen + 1):
        for n1 in range(total + 1):
            for w1, cop1 in by_len[n1]:
                for w2, cop2 in by_len[total - n1]:
                    w12 = star_words(br, w1, w2)
                    checked += 1
                    if w12 != star_words(br, w2, w1):
                        return CheckReport(
                            "bialgebra-commutativity", False, checked,
                            {"left": w1, "right": w2})
                    cops = _canonical(
                        ((a, b), ca * cb) for (u1, u2), (v1, v2)
                        in product(cop1.terms, cop2.terms)
                        for (a, ca), (b, cb) in product(
                            star_words(br, u1, v1).items(),
                            star_words(br, u2, v2).items()))
                    if cops != {uv: c for wd, c in w12.items() for uv in (
                            splits.get(wd) or splits.setdefault(
                                wd, coproduct(wd).terms))}:
                        return CheckReport(
                            "bialgebra-compatibility", False, checked,
                            {"left": w1, "right": w2})
    return CheckReport("bialgebra", True, checked)


def brute_M(n: int, s, xi, lam):
    """Partial sum below n by enumerating all strictly decreasing tuples."""
    r = len(s)
    if r == 0:
        return 1
    total = 0
    for increasing in combinations(range(1, n), r):
        idx = tuple(reversed(increasing))
        prod = 1
        for i in range(r):
            prod *= xi[i] ** idx[i] * lam(idx[i]) ** s[i]
        total += prod
    return total


def single_sum_oracle(s: int, color: complex, shift: float, cutoff: int) -> complex:
    """Depth-1 truncated sum below the cutoff, via plain high-accuracy
    summation (fsum over real and imaginary parts separately)."""
    color = complex(color)
    reals, imags = [], []
    cpow = 1 + 0j
    for n in range(1, cutoff):
        cpow *= color
        term = cpow / (n - shift) ** s
        reals.append(term.real)
        imags.append(term.imag)
    return complex(fsum(reals), fsum(imags))


def double_sum_oracle(s, xi, shifts, cutoff: int) -> complex:
    """Depth-2 truncated sum below the cutoff over per-level colors: the
    inner sum is carried as a running prefix, so the whole computation is
    one explicit loop."""
    (s1, s2) = s
    (x1, x2) = (complex(xi[0]), complex(xi[1]))
    (t1, t2) = (float(shifts[0]), float(shifts[1]))
    inner = 0j  # sum over n2 < n1 of x2^(n2) / (n2 - t2)^(s2)
    x2_pow = 1 + 0j
    x1_pow = 1 + 0j
    total = 0j
    for n1 in range(1, cutoff):
        if n1 > 1:
            x2_pow *= x2
            inner += x2_pow / ((n1 - 1) - t2) ** s2
        x1_pow *= x1
        total += x1_pow / (n1 - t1) ** s1 * inner
    return total


def nested_sum_oracle(s, xi, shifts, cutoff: int) -> complex:
    """Truncated sum below the cutoff at any depth, level by level from the
    innermost: a level's value at n is its term at n times the sum of the
    deeper level's values below n, and indices below the level's least
    index (where that sum is empty) are skipped, never divided by."""
    values = [1 + 0j] + [0j] * (cutoff - 1)  # the empty level: 1 at n = 0
    for si, x, t in reversed(list(zip(s, xi, shifts))):
        x, t = complex(x), float(t)
        below, nxt = 0j, [0j] * cutoff
        for n in range(1, cutoff):
            below += values[n - 1]
            if below:
                nxt[n] = x ** n / (n - t) ** si * below
        values = nxt
    return complex(fsum(v.real for v in values), fsum(v.imag for v in values))


# The scalar rules of ``polyzeta.scalars`` written in Fraction arithmetic:
# abs(), comparisons with ints and floats, and Fraction copies. The library
# reads the integer numerator and denominator instead; these references
# pin that both give the same answers.

FLOAT_MAX = int(sys.float_info.max)


def real_shift_reference(t):
    if (isinstance(t, bool) or not isinstance(t, (int, Fraction, float))
            or not abs(t) <= FLOAT_MAX):
        raise ValueError(f"shifts must be reals within float range, got {t!r}")
    return t if isinstance(t, float) else Fraction(t)


def shift_in_range_reference(v) -> bool:
    return abs(v) <= FLOAT_MAX


def color_is_zero_reference(c) -> bool:
    return c == 0


def unit_sign_reference(c) -> int:
    """-1, 0 or 1 as abs(c) < 1, == 1 or > 1."""
    m = abs(c)
    return (m > 1) - (m < 1)


def color_sort_key_reference(value) -> tuple:
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        return (0, f.numerator, f.denominator, 0, 1)
    if isinstance(value, ExactColor):
        return (1, value.mag.numerator, value.mag.denominator,
                value.turns.numerator, value.turns.denominator)
    z = complex(value)
    return (2, z.real, z.imag, 0, 1)


def params_sort_key_reference(p) -> tuple:
    return (p.depth, p.s, tuple(color_sort_key_reference(c) for c in p.xi),
            tuple(float(v) for v in p.t))


def float_or_complex_reference(values) -> list:
    zs = [complex(v) for v in values]
    return zs if any(z.imag for z in zs) else [z.real for z in zs]


def root_order_reference(c) -> int:
    if isinstance(c, ExactColor):
        return c.turns.denominator if c.mag == 1 else 0
    if isinstance(c, (int, Fraction)) and abs(c) == 1:
        return 1 if c == 1 else 2
    return 0


def condition_e_reference(p) -> bool:
    return (all(abs(c) <= 1 for c in p.cumulative_colors())
            and all(ti < p.depth - i for i, ti in enumerate(p.t)))


def is_convergent_reference(p) -> bool:
    return p.depth == 0 or p.s[0] > 1 or abs(p.xi[0]) < 1


def rational_grid(rng, lo=-3, hi=3, qmax=4) -> Fraction:
    """Small random nonzero rational."""
    p = 0
    while p == 0:
        p = rng.randint(lo, hi)
    return Fraction(p, rng.randint(1, qmax))


def lyndon_factors(w: Word) -> list:
    """Chen-Fox-Lyndon factors l1 >= l2 >= ... of w in the letter order of
    ``sort_key``, by Duval's algorithm (J. Algorithms 4, 1983)."""
    keys = [letter.sort_key() for letter in w]
    factors, i = [], 0
    while i < len(w):
        j, k = i + 1, i
        while j < len(w) and keys[k] <= keys[j]:
            k = i if keys[k] < keys[j] else k + 1
            j += 1
        while i <= k:
            factors.append(w[i:i + j - k])
            i += j - k
    return factors


def lyndon_failures(br: Bracket, alphabet, length: int) -> list:
    """Words w of the given length that break the leading-term theorem
    (Radford, J. Algebra 58, 1979): the product of w's Lyndon factors has
    w as its lexicographically largest word of length |w|, with
    coefficient prod m_i! over the multiplicities of equal factors."""
    failures = []
    for letters in product(alphabet, repeat=length):
        w = Word(letters)
        factors = lyndon_factors(w)
        p = Polynomial.monomial(factors[0])
        for f in factors[1:]:
            p = star(br, p, f)
        top = max((u for u, _ in p if len(u) == length),
                  key=lambda u: [letter.sort_key() for letter in u])
        counts: dict = {}
        for f in factors:
            counts[f] = counts.get(f, 0) + 1
        if top != w or p.coeff(w) != prod(map(factorial, counts.values())):
            failures.append(w)
    return failures


def compositions(n: int):
    """Every composition of n, as a tuple of positive block sizes."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def _contract(br: Bracket, block: Word):
    """(coefficient / |block|!, letter) of a block contracted through the
    bracket, or None when a bracket in it is zero."""
    coeff, head = Fraction(1, factorial(len(block))), block[0]
    for b in block[1:]:
        hit = br.apply(head, b)
        if hit is None:
            return None
        coeff, head = coeff * hit[0], hit[1]
    return coeff, head


def hoffman_exp(br: Bracket, terms) -> Polynomial:
    """Hoffman's exponential on (word, coefficient) pairs: exp(w) sums
    I[w] / (i1! ... ik!) over the compositions I of |w|, where I[w]
    contracts each block of w into one scaled letter through the bracket
    (a zero bracket drops the term)."""
    out: dict = {}
    for w, c in terms:
        for sizes in compositions(len(w)):
            cuts = list(accumulate(sizes, initial=0))
            blocks = [_contract(br, w[a:b]) for a, b in zip(cuts, cuts[1:])]
            if None not in blocks:
                key = Word(head for _, head in blocks)
                out[key] = out.get(key, 0) + c * prod(k for k, _ in blocks)
    return Polynomial(out)


def hoffman_failures(br: Bracket, pairs) -> list:
    """Word pairs (u, v) that break exp(u) * exp(v) = exp(u sh v), the
    isomorphism from the shuffle algebra onto the bracket's algebra
    (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11, 2000);
    the shuffle comes from ``star_oracle``."""
    return [(u, v) for u, v in pairs
            if star(br, hoffman_exp(br, [(u, 1)]), hoffman_exp(br, [(v, 1)]))
            != hoffman_exp(br, star_oracle(SHUFFLE, u, v).items())]
