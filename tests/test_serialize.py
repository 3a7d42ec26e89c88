import json
import math
from fractions import Fraction as F

import pytest

from polyzeta.hopf import check_bialgebra
from polyzeta.numeric import (EvalConfig, EvalResult, VerifyReport,
                              eval_di, verify_relation)
from polyzeta.products import SHUFFLE, Bracket
from polyzeta.scalars import ExactColor, exact_color, root_of_unity
from polyzeta.serialize import (ParseError, eval_result_to_json,
                                letter_from_json, letter_to_json,
                                lincomb_from_json, lincomb_to_json,
                                params_from_json, params_to_json,
                                polynomial_from_json, polynomial_to_json,
                                report_to_json, scalar_from_json,
                                scalar_to_json, verify_report_to_json,
                                word_from_json, word_to_json)
from polyzeta.words import (Indexed, MonoidLetter, PairLetter, Polynomial,
                            X0, XForm, word, x, y)
from polyzeta.zeta import LinComb, PolyzetaParams, shuffle_expand


def roundtrip_scalar(v):
    return scalar_from_json(json.loads(json.dumps(scalar_to_json(v))))


def test_scalar_roundtrips():
    assert roundtrip_scalar(3) == 3
    assert roundtrip_scalar(F(2, 7)) == F(2, 7)
    assert roundtrip_scalar(-1.5) == -1.5
    assert roundtrip_scalar(complex(0.5, -0.25)) == complex(0.5, -0.25)
    w = root_of_unity(1, 3)
    assert roundtrip_scalar(w) == w
    scaled = exact_color(F(1, 2), F(1, 5))
    assert roundtrip_scalar(scaled) == scaled


def test_scalar_parse_forms():
    assert scalar_from_json("3/4") == F(3, 4)
    assert scalar_from_json({"re": 1.0, "im": 2.0}) == 1 + 2j
    assert scalar_from_json({"q": 1, "n": 4}) == root_of_unity(1, 4)
    assert isinstance(scalar_from_json({"q": 1, "n": 4}), ExactColor)
    assert scalar_from_json({"q": 1, "n": 2}) == -1  # real phases demote
    with pytest.raises(ParseError):
        scalar_from_json("3//4")
    with pytest.raises(ParseError):
        scalar_from_json(True)
    for bad in ({"q": True, "n": 3}, {"q": 1, "n": True}, {"q": 1.0, "n": 3}):
        with pytest.raises(ParseError):
            scalar_from_json(bad)
    with pytest.raises(ParseError):
        scalar_from_json({"weird": 1})


def test_letter_roundtrips():
    letters = [x(0), y(3), Indexed(2, "z"), MonoidLetter(F(2, 3)),
               PairLetter(2, F(-1)), X0(), XForm(F(1, 2), F(1, 5)),
               XForm(complex(0.3, 0.1), -0.25)]
    for letter in letters:
        back = letter_from_json(json.loads(json.dumps(letter_to_json(letter))))
        assert back == letter
    assert letter_from_json({"kind": "indexed", "index": 1}) == x(1)
    with pytest.raises(ParseError):
        letter_from_json({"kind": "nope"})
    with pytest.raises(ParseError):
        letter_from_json(["not", "a", "letter"])


def test_word_and_polynomial_roundtrips():
    w = word(x(0), x(0), x(1))
    assert word_from_json(word_to_json(w)) == w
    p = Polynomial([(w, F(3, 2)), (word(x(1)), -2)])
    assert polynomial_from_json(polynomial_to_json(p)) == p
    with pytest.raises(ParseError):
        word_from_json({"kind": "indexed", "index": 1})


def test_params_roundtrips():
    p = PolyzetaParams.of((2, 3), (F(1, 2), root_of_unity(1, 3)),
                          (F(1, 5), 0))
    assert params_from_json(params_to_json(p)) == p
    q = params_from_json({"s": [2], "xi": [{"re": 0.5, "im": 0.0}], "t": [0.25]})
    assert q.xi == (complex(0.5, 0.0),)
    with pytest.raises(ParseError):
        params_from_json({"s": [2], "xi": ["0/1"], "t": [0]})
    with pytest.raises(ParseError):
        params_from_json([1, 2])


def test_lincomb_roundtrip():
    a = PolyzetaParams.of((3,), (F(1, 2),), (F(1, 5),))
    b = PolyzetaParams.of((2,), (F(-2, 3),), (F(-3, 10),))
    lc = shuffle_expand(a, b)
    assert lincomb_from_json(json.loads(json.dumps(lincomb_to_json(lc)))) == lc


def test_report_and_result_payloads_are_json():
    rep = check_bialgebra(SHUFFLE, 2)
    payload = report_to_json(rep)
    assert payload["status"] == "ok" and "counterexample" not in payload
    json.dumps(payload)

    def bad(a, b):
        return (1, y(a.index + 2 * b.index))
    rep2 = check_bialgebra(Bracket("bad", bad, kinds=("indexed",)), 3,
                           alphabet=(y(1), y(2)))
    payload2 = report_to_json(rep2)
    assert payload2["status"] == "counterexample"
    json.dumps(payload2)

    res = eval_di(PolyzetaParams.of((2,), (F(1, 2),), (0,)))
    json.dumps(eval_result_to_json(res))
    vrep = verify_relation(
        (PolyzetaParams(), PolyzetaParams()),
        LinComb.monomial(PolyzetaParams()), EvalConfig())
    json.dumps(verify_report_to_json(vrep))


def test_payloads_hold_only_finite_floats():
    # an infinite bound means no tail bound holds: null
    res = EvalResult(0.5 + 0j, math.inf, 256, False)
    assert eval_result_to_json(res)["error"] is None
    rep = VerifyReport(0.5 + 0j, 0.5 + 0j, 0.0, math.inf, False, 256, False)
    assert verify_report_to_json(rep)["tolerance"] is None
    assert verify_report_to_json(rep)["residual"] == 0.0
    # any other non-finite float is past float range
    nan = math.nan
    cases = ((eval_result_to_json, EvalResult(complex(nan, 0), 1e-3, 8, False)),
             (eval_result_to_json, EvalResult(0.5 + 0j, nan, 8, False)),
             (verify_report_to_json,
              VerifyReport(0j, 0j, nan, 1e-8, False, 8, True)),
             (verify_report_to_json,
              VerifyReport(0j, 0j, 0.0, nan, False, 8, True)),
             (scalar_to_json, math.inf),
             (scalar_to_json, complex(0, -math.inf)))
    for writer, value in cases:
        with pytest.raises(OverflowError):
            writer(value)


@pytest.mark.parametrize("s", ([2.5], [2.0], [True], ["2"]))
def test_params_reader_accepts_only_integer_exponents(s):
    with pytest.raises(ParseError):
        params_from_json({"s": s, "xi": [1], "t": [0]})


@pytest.mark.parametrize("letter", (
    {"kind": "indexed", "family": "y", "index": 1.7},
    {"kind": "indexed", "index": True},
    {"kind": "indexed", "index": "3"},
    {"kind": "pair", "index": 1.0, "value": "1/2"},
    {"kind": "pair", "index": True, "value": 1},
))
def test_letter_reader_accepts_only_integer_indices(letter):
    with pytest.raises(ParseError):
        letter_from_json(letter)
