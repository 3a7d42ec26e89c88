import copy
import pickle
import random
from fractions import Fraction as F
from math import comb

import pytest

from oracles import star_oracle
from polyzeta.errors import DiagonalError, DivergenceError, ShapeError
from polyzeta.numeric import verify_relation
from polyzeta.products import DUFFLE
from polyzeta.scalars import root_of_unity
from polyzeta.words import PairLetter, Word, X0, XForm, word
from polyzeta.zeta import (LinComb, PolyzetaParams, decode, duffle_expand,
                           encode, shuffle_expand, tbar, tbar_inverse)


def P(s, xi, t):
    return PolyzetaParams.of(s, xi, t)


def test_params_validation():
    with pytest.raises(ValueError):
        PolyzetaParams((1,), (), ())
    with pytest.raises(ValueError):
        P((0,), (1,), (0,))
    with pytest.raises(ValueError):
        P((2,), (0,), (0,))
    unit = PolyzetaParams()
    assert unit.depth == 0 and unit.is_convergent()


def test_params_hash_and_equality_follow_the_fields():
    a = P((2, 1), (F(1, 2), root_of_unity(1, 3)), (F(1, 3), 0))
    b = P((2, 1), (F(1, 2), root_of_unity(1, 3)), (F(1, 3), 0))
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.s, a.xi, a.t))
    # equal by value across types, as the fields themselves are
    assert P((2,), (F(1, 2),), (0,)) == P((2,), (0.5,), (0,))
    assert hash(P((2,), (F(1, 2),), (0,))) == hash(P((2,), (0.5,), (0,)))
    assert a != P((2, 1), (F(1, 2), root_of_unity(1, 3)), (F(1, 4), 0))
    assert len({a, b, P((3,), (1,), (0,))}) == 2
    assert repr(a) == ("PolyzetaParams(s=(2, 1), xi=(Fraction(1, 2), "
                       f"{root_of_unity(1, 3)!r}), "
                       "t=(Fraction(1, 3), Fraction(0, 1)))")
    with pytest.raises(AttributeError):
        a.s = (3, 1)


def test_params_pickle_round_trip():
    a = P((2, 1, 3), (F(1, 2), -1.5, root_of_unity(1, 4)), (F(1, 3), -0.25, 0))
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert LinComb.monomial(b, 2) == LinComb.monomial(a, 2)
    assert pickle.loads(pickle.dumps(PolyzetaParams())) == PolyzetaParams()


@pytest.mark.parametrize("xi, t", (
    ((float("inf"),), (0,)), ((complex(0.5, float("nan")),), (0,)),
    ((1,), (float("-inf"),)), ((1,), (float("nan"),)),
    # a shift is a real within float range
    ((1,), (root_of_unity(1, 3),)), ((1,), (complex(0.5, 1),)),
    ((1,), (True,)), ((1,), (10**400,)), ((1,), (F(-10**400),)),
    # a color is a number, and a bool is not one
    (("a",), (0,)), ((None,), (0,)), (((1, 2),), (0,)), ((b"x",), (0,)),
    ((True,), (0,)),
))
def test_params_reject_non_finite_scalars(xi, t):
    with pytest.raises(ValueError):
        P((2,), xi, t)
    with pytest.raises(ValueError):
        PolyzetaParams((2,), xi, t)


@pytest.mark.parametrize("zero", (0, F(0), 0.0, -0.0, 0j, complex(-0.0, 0)),
                         ids=repr)
def test_params_reject_zero_colors(zero):
    for make in (P, PolyzetaParams):
        with pytest.raises(ValueError, match="colors must be nonzero"):
            make((2, 2), (F(1, 2), zero), (0, 0))


def test_condition_e_and_convergence():
    assert P((2,), (1,), (0,)).satisfies_condition_e()
    assert not P((2,), (2,), (0,)).satisfies_condition_e()
    assert not P((2,), (1,), (1,)).satisfies_condition_e()
    # prefix products may dip below 1 even when a later ratio exceeds 1
    assert P((2, 1), (F(1, 2), F(3, 2)), (0, 0)).satisfies_condition_e()
    assert P((2,), (1,), (0,)).is_convergent()
    assert not P((1,), (1,), (0,)).is_convergent()
    assert P((1,), (F(1, 2),), (0,)).is_convergent()


def test_condition_e_bounds_each_shift_by_its_least_index():
    # level i of a depth-r sum starts at n_i = r - i + 1
    assert P((2, 2), (1, 1), (F(6, 5), F(3, 5))).satisfies_condition_e()
    assert P((2, 2, 2), (1, 1, 1), (F(29, 10), F(19, 10), 0)
             ).satisfies_condition_e()
    assert not P((2, 2), (1, 1), (2, 0)).satisfies_condition_e()
    assert not P((2, 2), (1, 1), (0, 1)).satisfies_condition_e()


def test_tbar_depth_one_and_worked_pair():
    assert tbar((F(7),)) == (F(7),)
    assert tbar((F(5), F(2))) == (F(3), F(2))
    assert tbar_inverse((F(3), F(2))) == (F(5), F(2))


def test_tbar_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        r = rng.randint(1, 5)
        t = tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(r))
        assert tbar_inverse(tbar(t)) == t
        assert tbar(tbar_inverse(t)) == t


def test_encode_depth_one():
    xi, t = F(1, 3), F(1, 5)
    assert encode(P((2,), (xi,), (t,))) == word(X0(), XForm(xi, t))
    assert encode(P((3,), (xi,), (t,))) == word(X0(), X0(), XForm(xi, t))
    assert encode(PolyzetaParams()) == Word()


def test_encode_carries_cumulative_colors():
    xi1, xi2 = F(1, 2), F(1, 3)
    got = encode(P((2, 3), (xi1, xi2), (F(1, 5), F(0))))
    expected = word(X0(), XForm(xi1, F(1, 5)), X0(), X0(), XForm(xi1 * xi2, F(0)))
    assert got == expected


def test_decode_depth_one():
    c, tb = F(2, 5), F(-1, 3)
    got = decode(word(XForm(c, tb)))
    assert got == P((1,), (c,), (tb,))


def test_decode_worked_shape():
    # x0 X(c';t') x0^2 X(c;t) -> s=(2,3), xi=(c', c/c'), t=(t'+t, t)
    cp, c = F(-2, 3), F(1, 2)
    tp, t = F(-3, 10), F(1, 5)
    w = word(X0(), XForm(cp, tp), X0(), X0(), XForm(c, t))
    got = decode(w)
    assert got == P((2, 3), (cp, c / cp), (tp + t, t))


def test_decode_shape_errors():
    with pytest.raises(ShapeError):
        decode(Word())
    with pytest.raises(ShapeError):
        decode(word(XForm(F(1, 2), 0), X0()))
    with pytest.raises(ShapeError):
        decode(word(X0()))
    with pytest.raises(ShapeError):
        decode(word(PairLetter(1, F(1, 2))))


def test_roundtrip_random_params():
    rng = random.Random(5)
    for _ in range(60):
        r = rng.randint(1, 4)
        s = tuple(rng.randint(1, 4) for _ in range(r))
        # draw cumulative moduli <= 1, then read colors off the ratios
        cs = [F(rng.randint(1, 6), 6) * rng.choice((1, -1)) for _ in range(r)]
        xi = [cs[0]] + [cs[i] / cs[i - 1] for i in range(1, r)]
        t = tuple(F(rng.randint(-4, 0), rng.randint(1, 3)) for _ in range(r))
        p = P(s, xi, t)
        assert decode(encode(p)) == p


def test_roundtrip_with_exact_polar_colors():
    # decoding divides cumulative colors: ExactColor / ExactColor, then
    # ExactColor / Fraction, then Fraction / ExactColor
    w = root_of_unity(1, 3)
    for xi in ((F(1, 2) * w, w), (F(1, 2), w), (w, w * w)):
        p = P((2, 1), xi, (F(0), F(0)))
        assert p.satisfies_condition_e()
        assert decode(encode(p)) == p


def test_exact_colors_mixed_with_floats_go_float():
    # the float and complex branches of ExactColor's *, / and reflected /
    w = root_of_unity(1, 3)
    p = P((2, 1), (w, 0.5), (0, 0))
    assert p.cumulative_colors() == (w, complex(w) * 0.5)
    assert abs(p.cumulative_colors()[1] - complex(-0.25, 3**0.5 / 4)) < 1e-15
    back = decode(encode(p))  # the second ratio is complex / ExactColor
    assert (back.s, back.t, back.xi[0]) == (p.s, p.t, w)
    assert type(back.xi[1]) is complex and abs(back.xi[1] - 0.5) < 1e-15
    # ExactColor / float
    assert decode(word(XForm(0.5, 0), XForm(w, 0))).xi == (0.5,
                                                           complex(w) / 0.5)


def test_params_repr_is_the_dataclass_repr():
    # the cached hash stays out of it
    assert repr(P((2, 1), (1, 0.5), (0, -0.25))) == (
        "PolyzetaParams(s=(2, 1), xi=(1, 0.5), t=(Fraction(0, 1), -0.25))")
    assert repr(PolyzetaParams()) == "PolyzetaParams(s=(), xi=(), t=())"


@pytest.mark.parametrize("colors, expected", (((-1, 1), (-1, -1)),
                                              ((2, 6), (2, 3)),
                                              ((2, 3), (2, F(3, 2)))))
def test_decode_keeps_integer_colors_exact(colors, expected):
    # integer cumulative colors: a ratio that divides stays an int, any
    # other one becomes a Fraction
    got = decode(word(*(XForm(c, 0) for c in colors))).xi
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_shuffle_expand_worked_example():
    xi, xip = F(1, 2), F(-2, 3)
    t, tp = F(1, 5), F(-3, 10)
    lc = shuffle_expand(P((3,), (xi,), (t,)), P((2,), (xip,), (tp,)))
    a_colors = (xip, xi / xip)
    a_shifts = (t + tp, t)
    b_colors = (xi, xip / xi)
    b_shifts = (t + tp, tp)
    expected = LinComb({
        P((2, 3), a_colors, a_shifts): 1,
        P((3, 2), a_colors, a_shifts): 2,
        P((4, 1), a_colors, a_shifts): 3,
        P((4, 1), b_colors, b_shifts): 3,
        P((3, 2), b_colors, b_shifts): 1,
    })
    assert lc == expected
    assert sum(lc.terms.values()) == comb(5, 2)


def test_shuffle_expand_unit():
    p = P((2,), (F(1, 2),), (0,))
    assert shuffle_expand(p, PolyzetaParams()) == LinComb.monomial(p)
    assert shuffle_expand(PolyzetaParams(), p) == LinComb.monomial(p)


def test_shuffle_expand_is_formal():
    # the expansion accepts divergent factors; only evaluation refuses them
    div = P((1,), (1,), (0,))
    ok = P((2,), (1,), (0,))
    expected = LinComb({P((1, 2), (1, 1), (0, 0)): 1,
                        P((2, 1), (1, 1), (0, 0)): 2})
    assert shuffle_expand(div, ok) == shuffle_expand(ok, div) == expected
    with pytest.raises(DivergenceError, match=r"Z\(s=\(1\);"):
        verify_relation((div, ok), expected)


def test_shuffle_expand_leading_one_allowed_with_damping():
    # s1 = 1 is fine when |xi1| < 1; every term stays convergent
    p = P((1,), (F(1, 2),), (0,))
    q = P((2,), (F(1, 3),), (0,))
    lc = shuffle_expand(p, q)
    assert all(term.is_convergent() for term, _ in lc)
    assert sum(lc.terms.values()) == comb(3, 1)


def test_duffle_expand_worked_example():
    t = F(1, 7)
    left = P((3, 1), (F(2, 3), F(-1)), (t, t))
    right = P((2,), (F(1, 2),), (t,))
    lc = duffle_expand(left, right)
    expected = LinComb({
        P((3, 1, 2), (F(2, 3), F(-1), F(1, 2)), (t, t, t)): 1,
        P((3, 2, 1), (F(2, 3), F(1, 2), F(-1)), (t, t, t)): 1,
        P((3, 3), (F(2, 3), F(-1, 2)), (t, t)): 1,
        P((2, 3, 1), (F(1, 2), F(2, 3), F(-1)), (t, t, t)): 1,
        P((5, 1), (F(1, 3), F(-1)), (t, t)): 1,
    })
    assert lc == expected


def test_duffle_expand_unit_and_depth_one():
    p = P((3,), (F(1, 2),), (F(1, 9),))
    assert duffle_expand(p, PolyzetaParams()) == LinComb.monomial(p)
    assert duffle_expand(PolyzetaParams(), p) == LinComb.monomial(p)
    a, b = F(1, 2), F(-1, 3)
    t = F(0)
    got = duffle_expand(P((2,), (a,), (t,)), P((3,), (b,), (t,)))
    assert got == LinComb({
        P((2, 3), (a, b), (t, t)): 1,
        P((3, 2), (b, a), (t, t)): 1,
        P((5,), (a * b,), (t,)): 1,
    })


def test_duffle_expand_diagonal_violations():
    p = P((2, 1), (F(1, 2), 1), (F(1, 5), F(0)))
    q = P((2,), (F(1, 2),), (F(1, 5),))
    with pytest.raises(DiagonalError):
        duffle_expand(p, q)
    r = P((2,), (F(1, 2),), (F(2, 5),))
    with pytest.raises(DiagonalError):
        duffle_expand(q, r)


def test_duffle_expand_merges_identical_terms():
    t = F(0)
    p = P((1,), (F(1, 2),), (t,))
    got = duffle_expand(p, p)
    assert got == LinComb({
        P((1, 1), (F(1, 2), F(1, 2)), (t, t)): 2,
        P((2,), (F(1, 4),), (t,)): 1,
    })


def test_duffle_expand_matches_word_level_product():
    # the (s, xi) <-> paired-word correspondence turns the expansion into
    # the paired-alphabet product, expanded here by the enumeration oracle
    rng = random.Random(9)
    for _ in range(30):
        l1, l2 = rng.randint(0, 3), rng.randint(0, 3)
        s = tuple(rng.randint(1, 3) for _ in range(l1))
        r = tuple(rng.randint(1, 3) for _ in range(l2))
        xi = tuple(F(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3)))
                   for _ in range(l1))
        rho = tuple(F(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 3)))
                    for _ in range(l2))
        lhs = duffle_expand(P(s, xi, (0,) * l1), P(r, rho, (0,) * l2))
        wl = Word(PairLetter(si, ci) for si, ci in zip(s, xi))
        wr = Word(PairLetter(ri, ci) for ri, ci in zip(r, rho))
        from_words = LinComb(
            (P([l.index for l in wd], [l.value for l in wd], [0] * len(wd)), c)
            for wd, c in star_oracle(DUFFLE, wl, wr).items())
        assert lhs == from_words


@pytest.mark.parametrize("a, b", ((-1, -1.0), (1, F(1)), (F(1, 2), 0.5)))
def test_duffle_merges_terms_equal_by_value(a, b):
    # the words (2,a)(2,b) and (2,b)(2,a) differ by value type but read back
    # as one term, whose coefficient is their sum
    t = F(0)
    assert duffle_expand(P((2,), (a,), (t,)), P((2,), (b,), (t,))) == LinComb({
        P((2, 2), (a, a), (t, t)): 2, P((4,), (a * b,), (t,)): 1})


@pytest.mark.parametrize("expand", (shuffle_expand, duffle_expand))
def test_memo_hit_keeps_exact_results_exact(expand):
    # letters carrying 0.5 and Fraction(1, 2) are equal and hash alike, so
    # the product memo must not hand one query's scalars to the other
    exact = (P((2, 1), (F(1, 2), F(3, 4)), (0, 0)), P((1,), (F(-1, 8),), (0,)))
    inexact = tuple(P(p.s, tuple(float(c) for c in p.xi), p.t) for p in exact)
    for first, second, kinds in ((inexact, exact, (int, F)),
                                 (exact, inexact, (float,))):
        expand(*first)
        got = expand(*second)
        assert got
        assert all(isinstance(c, kinds) for term, _ in got for c in term.xi)


def test_expand_commutativity_and_weight_conservation():
    rng = random.Random(17)
    for _ in range(15):
        r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
        def draw(r, t0):
            s = (rng.randint(2, 3),) + tuple(rng.randint(1, 3) for _ in range(r - 1))
            cs = [F(rng.randint(1, 5), 5) for _ in range(r)]
            xi = [cs[0]] + [cs[i] / cs[i - 1] for i in range(1, r)]
            return P(s, xi, (t0,) * r)
        t0 = F(rng.randint(-3, 0), 4)
        p, q = draw(r1, t0), draw(r2, t0)
        sh_pq, sh_qp = shuffle_expand(p, q), shuffle_expand(q, p)
        assert sh_pq == sh_qp
        assert duffle_expand(p, q) == duffle_expand(q, p)
        for term, _ in sh_pq:
            assert term.weight == p.weight + q.weight
            assert term.depth == r1 + r2
            # colors telescope: the total color product is the cumulative
            # color of whichever factor supplied the final form letter
            cum = term.cumulative_colors()[-1]
            assert cum in (p.cumulative_colors()[-1], q.cumulative_colors()[-1])
            # and every intermediate prefix product is a prefix product of
            # one of the factors
            inputs = set(p.cumulative_colors()) | set(q.cumulative_colors())
            assert set(term.cumulative_colors()) <= inputs
            assert term.satisfies_condition_e()
        for term, _ in duffle_expand(p, q):
            assert term.weight == p.weight + q.weight
            assert max(r1, r2) <= term.depth <= r1 + r2
            assert term.satisfies_condition_e()


def test_expand_associativity_at_parameter_level():
    t0 = F(-1, 4)
    a = P((2,), (F(1, 2),), (t0,))
    b = P((3,), (F(-1, 3),), (t0,))
    c = P((2, 1), (F(1, 2), F(1, 2)), (t0, t0))
    for expand in (shuffle_expand, duffle_expand):
        left = LinComb((term2, coeff * coeff2)
                       for term, coeff in expand(a, b)
                       for term2, coeff2 in expand(term, c))
        right = LinComb((term2, coeff * coeff2)
                        for term, coeff in expand(b, c)
                        for term2, coeff2 in expand(a, term))
        assert left == right


def test_lincomb_algebra():
    p = P((2,), (1,), (0,))
    q = P((3,), (1,), (0,))
    lc = LinComb({p: 2, q: -1})
    assert (lc + LinComb({q: 1})) == LinComb({p: 2})
    assert 2 * lc == LinComb({p: 4, q: -2})
    assert lc.coeff(q) == -1
    assert len(LinComb({p: 1, q: 0})) == 1


@pytest.mark.parametrize("s", ((2.5,), (2.0,), (F(2),), ("2",)))
def test_of_refuses_non_integer_exponents(s):
    with pytest.raises(ValueError):
        P(s, (1,), (0,))


def test_params_refuse_boolean_exponents():
    with pytest.raises(ValueError):
        PolyzetaParams((True,), (1,), (0,))
