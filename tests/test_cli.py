import argparse
import json
import math
import re

import pytest

from polyzeta import cli
from polyzeta.cli import main
from polyzeta.serialize import (lincomb_from_json, params_to_json,
                                polynomial_from_json, word_to_json)
from polyzeta.words import Polynomial, Word, word, x, y
from polyzeta.zeta import LinComb, PolyzetaParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def yw(*indices):
    return json.dumps([
        {"kind": "indexed", "family": "y", "index": i} for i in indices])


def test_expand_stuffle_example(capsys):
    code, out, _ = run(capsys, "expand", "--product", "stuffle",
                       "--left", yw(3, 1), "--right", yw(2))
    assert code == 0
    poly = polynomial_from_json(json.loads(out))
    assert len(poly.terms) == 5
    assert poly.coeff(word(y(5), y(1))) == 1
    assert poly.coeff(word(y(3), y(3))) == 1


def test_expand_unit_word(capsys):
    code, out, _ = run(capsys, "expand", "--product", "shuffle",
                       "--left", "[]",
                       "--right", json.dumps(word_to_json(word(x(0), x(1)))))
    assert code == 0
    poly = polynomial_from_json(json.loads(out))
    assert poly.coeff(word(x(0), x(1))) == 1 and len(poly.terms) == 1


def test_expand_pretty(capsys):
    code, out, _ = run(capsys, "expand", "--product", "stuffle",
                       "--left", yw(3, 1), "--right", yw(2),
                       "--format", "pretty")
    assert code == 0
    assert "y₅y₁" in out


def test_expand_json_round_trips_stably(capsys):
    code, first, _ = run(capsys, "expand", "--product", "stuffle",
                         "--left", yw(3, 1), "--right", yw(2))
    assert code == 0
    code, second, _ = run(capsys, "expand", "--product", "stuffle",
                          "--left", yw(3, 1), "--right", yw(2))
    assert first == second
    payload = json.loads(first)
    assert json.dumps(json.loads(json.dumps(payload))) == json.dumps(payload)


def test_antipode_command(capsys):
    code, out, _ = run(capsys, "antipode", "--product", "shuffle",
                       "--word", json.dumps(word_to_json(word(x(0), x(1)))))
    assert code == 0
    poly = polynomial_from_json(json.loads(out))
    assert poly.coeff(word(x(1), x(0))) == 1 and len(poly.terms) == 1


def test_hopf_check_success_and_failure(capsys):
    code, out, _ = run(capsys, "hopf-check", "--product", "stuffle",
                       "--max-len", "3")
    assert code == 0
    payload = json.loads(out)
    assert [rep["status"] for rep in payload] == ["ok", "ok"]

    alphabet = json.dumps([{"kind": "indexed", "family": "y", "index": 1}])
    code, out, _ = run(capsys, "hopf-check", "--product", "stuffle",
                       "--max-len", "2", "--alphabet", alphabet)
    assert code == 0

    code, out, err = run(capsys, "hopf-check", "--product", "stuffle",
                         "--alphabet", "{}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "alphabet must be a list" in err

    code, out, err = run(capsys, "hopf-check", "--product", "shuffle",
                         "--alphabet", "[]")
    assert code == 2 and out == ""
    assert err == "error: the sample alphabet must not be empty\n"

    code, out, err = run(capsys, "hopf-check", "--product", "stuffle",
                         "--max-len", "3", "--alphabet", yw(1, 1))
    assert code == 2 and out == ""
    assert err == "error: the sample alphabet must not repeat a letter\n"


def test_encode_decode_round_trip(capsys):
    params = {"s": [2, 3], "xi": ["1/2", "1/3"], "t": ["1/5", 0]}
    code, out, _ = run(capsys, "encode", "--params", json.dumps(params))
    assert code == 0
    code, out2, _ = run(capsys, "decode", "--word", out.strip())
    assert code == 0
    got = json.loads(out2)
    assert got["s"] == [2, 3]
    assert got["xi"] == ["1/2", "1/3"]
    assert got["t"] == ["1/5", "0/1"]


def test_zeta_expand_keeps_integer_colors_exact(capsys):
    code, out, _ = run(capsys, "zeta-expand", "--mode", "shuffle",
                       "--left", '{"s":[2],"xi":[1],"t":[0]}',
                       "--right", '{"s":[2],"xi":[-1],"t":[0]}')
    assert code == 0
    assert [item["params"]["xi"] for item in json.loads(out)] == [
        [-1, -1], [1, -1], [-1, -1], [1, -1]]
    assert "-1.0" not in out


POLAR_LEFT = json.dumps([{"kind": "x0"},
                         {"kind": "xform", "color": {"q": 1, "n": 3},
                          "tbar": "1/2"}])
POLAR_RIGHT = json.dumps([{"kind": "xform",
                           "color": {"q": 2, "n": 3, "mag": "1/2"},
                           "tbar": 0}])


def test_expand_encoded_words_with_polar_colors(capsys):
    # terms are ordered by the form letters' sort keys
    code, out, _ = run(capsys, "expand", "--product", "shuffle",
                       "--left", POLAR_LEFT, "--right", POLAR_RIGHT)
    assert code == 0
    a, b, x0 = (json.loads(POLAR_LEFT)[1], json.loads(POLAR_RIGHT)[0],
                {"kind": "x0"})
    assert [(item["coeff"], item["word"]) for item in json.loads(out)] == [
        (1, [x0, a, b]), (1, [x0, b, a]), (1, [b, x0, a])]
    code, out, _ = run(capsys, "expand", "--product", "shuffle",
                       "--left", POLAR_LEFT, "--right", POLAR_RIGHT,
                       "--format", "pretty")
    assert code == 0
    a, b = "x_{1*e^(2*pi*i*1/3);1/2}", "x_{1/2*e^(2*pi*i*2/3);0}"
    assert out == f"x₀{a}{b} + x₀{b}{a} + {b}x₀{a}\n"


def test_zeta_expand_duffle_worked_example(capsys):
    left = {"s": [3, 1], "xi": ["2/3", "-1"], "t": [0, 0]}
    right = {"s": [2], "xi": ["1/2"], "t": [0]}
    code, out, _ = run(capsys, "zeta-expand", "--mode", "duffle",
                       "--left", json.dumps(left), "--right", json.dumps(right))
    assert code == 0
    lc = lincomb_from_json(json.loads(out))
    assert len(lc) == 5
    ss = {term.s for term, _ in lc}
    assert ss == {(3, 1, 2), (3, 2, 1), (3, 3), (2, 3, 1), (5, 1)}


def test_zeta_expand_duffle_merges_colors_equal_by_value(capsys):
    left = {"s": [2], "xi": [-1], "t": [0]}
    right = {"s": [2], "xi": [-1.0], "t": [0]}
    code, out, _ = run(capsys, "zeta-expand", "--mode", "duffle",
                       "--left", json.dumps(left), "--right", json.dumps(right))
    assert code == 0
    coeffs = {term.s: c for term, c in lincomb_from_json(json.loads(out))}
    assert coeffs == {(2, 2): 2, (4,): 1}


def test_eval_command(capsys):
    params = {"s": [2], "xi": [{"re": 0.5, "im": 0}], "t": [0]}
    code, out, _ = run(capsys, "eval", "--params", json.dumps(params))
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["value"]["re"] - 0.5822405264650125) < 1e-10


def test_verify_command_shuffle(capsys):
    left = {"s": [3], "xi": [{"re": 0.5, "im": 0}], "t": [0.2]}
    right = {"s": [2], "xi": [{"re": -0.7, "im": 0}], "t": [-0.3]}
    code, out, _ = run(capsys, "verify", "--mode", "shuffle",
                       "--left", json.dumps(left), "--right", json.dumps(right),
                       "--tol", "1e-8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["residual"] <= 1e-8


def test_verify_shuffle_with_shifts_adding_past_one(capsys):
    # the expansion has Z((2,2);(1,1);(6/5,3/5)), convergent as n1 >= 2
    factor = '{"s": [2], "xi": [1], "t": ["3/5"]}'
    code, out, _ = run(capsys, "verify", "--mode", "shuffle",
                       "--left", factor, "--right", factor)
    assert code == 0 and json.loads(out)["ok"] is True


def test_shuffle_expansion_is_formal_and_verify_refuses_divergence(capsys):
    div, ok = '{"s": [1], "xi": [1], "t": [0]}', ZETA2
    code, out, _ = run(capsys, "zeta-expand", "--mode", "shuffle",
                       "--left", div, "--right", ok)
    assert code == 0
    assert sorted(term.s for term, _ in lincomb_from_json(json.loads(out))) \
        == [(1, 2), (2, 1)]
    code, out, err = run(capsys, "verify", "--mode", "shuffle",
                         "--left", div, "--right", ok)
    assert code == 3 and out == ""
    assert err.startswith("error: divergent term Z(s=(1);")


def test_eval_deep_shift_stays_unconverged_at_a_small_nmax(capsys):
    # t1 = 9.5 is below level 1's least index 10; 64 columns do not converge
    params = {"s": [2] * 10, "xi": [1] * 10, "t": [9.5] + [0] * 9}
    code, out, _ = run(capsys, "eval", "--nmax", "64",
                       "--params", json.dumps(params))
    assert code == 1
    payload = json.loads(out)
    assert payload["converged"] is False
    assert payload["error"] is not None and 0 < payload["error"] < math.inf


def test_eval_inner_level_just_below_its_least_index(capsys):
    # t2 = 1 - 2^-53 is just below level 2's least index 2, where the
    # column is finite: exit 0, converged
    code, out, _ = run(capsys, "eval", "--params", json.dumps(
        {"s": [2, 20, 2], "xi": [1, 1, 1], "t": [0, 0.9999999999999999, 0]}))
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["value"]["re"] - 0.394934405278166) < 1e-10


def test_verify_tol_zero_is_judged_on_the_residual(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "shuffle",
                       "--left", ZETA2, "--right", ZETA2, "--tol", "0")
    assert code == 1 and json.loads(out)["residual"] > 0
    empty = '{"s": [], "xi": [], "t": []}'
    code, out, _ = run(capsys, "verify", "--mode", "shuffle",
                       "--left", empty, "--right", empty, "--tol", "0")
    assert code == 0 and json.loads(out)["residual"] == 0


def test_verify_command_duffle_at_zero_shift(capsys):
    left = {"s": [3, 1], "xi": ["2/3", "-1"], "t": [0, 0]}
    right = {"s": [2], "xi": ["1/2"], "t": [0]}
    code, out, _ = run(capsys, "verify", "--mode", "duffle",
                       "--left", json.dumps(left), "--right", json.dumps(right),
                       "--tol", "1e-8")
    assert code == 0


def test_exit_code_2_on_bad_json(capsys):
    code, _, err = run(capsys, "expand", "--product", "stuffle",
                       "--left", "[{", "--right", yw(2))
    assert code == 2
    assert "JSON" in err or "error" in err


def test_exit_code_2_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_exit_code_3_on_domain_errors(capsys):
    # mixed alphabets
    left = json.dumps([{"kind": "monoid", "value": "1/2"}])
    code, _, err = run(capsys, "expand", "--product", "stuffle",
                       "--left", left, "--right", yw(2))
    assert code == 3
    # a short input of another kind, where the bracket is never applied
    x0 = json.dumps([{"kind": "x0"}])
    for argv in (("hopf-check", "--product", "stuffle", "--max-len", "0",
                  "--alphabet", x0),
                 ("hopf-check", "--product", "stuffle", "--max-len", "1",
                  "--alphabet", x0),
                 ("antipode", "--product", "stuffle", "--word", x0),
                 ("expand", "--product", "duffle", "--left", yw(1),
                  "--right", "[]")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert re.fullmatch(
            r"error: bracket '\w+' is undefined on '\w+' letters\n", err)
    # divergent evaluation
    params = {"s": [1], "xi": [1], "t": [0]}
    code, _, err = run(capsys, "eval", "--params", json.dumps(params))
    assert code == 3
    # diagonal violation
    left = {"s": [2, 1], "xi": ["1/2", 1], "t": [0, "1/5"]}
    right = {"s": [2], "xi": ["1/2"], "t": [0]}
    code, _, err = run(capsys, "verify", "--mode", "duffle",
                       "--left", json.dumps(left), "--right", json.dumps(right))
    assert code == 3
    # bad word shape, and a word that is not encoded
    code, _, err = run(capsys, "decode", "--word", json.dumps([{"kind": "x0"}]))
    assert code == 3
    code, _, err = run(capsys, "decode", "--word", yw(1))
    assert code == 3
    # float overflow in the evaluator's kernel
    for argv in (
            ("eval", "--params", '{"s": [2], "xi": [-1.0], "t": [-1e300]}'),
            # (1 - t)^30 underflows to 0: the first column is past float range
            ("eval", "--params", UNDERFLOW),
            ("verify", "--mode", "duffle", "--left", UNDERFLOW,
             "--right", '{"s": [2], "xi": [1], "t": [0.999999999999999]}'),
            # (1 - t)^20 is subnormal: its reciprocal is past float range
            ("eval", "--params", SUBNORMAL),
            ("eval", "--params", SUBNORMAL, "--format", "pretty")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "Traceback" not in err
        assert err.startswith("error: float range exceeded")


def test_power_past_float_range_is_not_an_overflow(capsys):
    # k^400 leaves float range where 1/k^400 is only subnormal: the column
    # is divided in float steps, not an overflow, and the sums converge
    code, out, _ = run(capsys, "eval", "--params",
                       '{"s": [400], "xi": [1], "t": [0]}')
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True and payload["value"]["re"] == 1.0
    code, out, _ = run(capsys, "verify", "--mode", "duffle", "--left",
                       '{"s": [400], "xi": [1], "t": [0]}', "--right", ZETA2)
    assert code == 0 and json.loads(out)["ok"] is True


def test_eval_names_a_shift_that_rounds_to_its_least_index(capsys):
    # t = 1 - 10^-20 is below 1, but float(t) = 1.0: exit 3, and the error
    # names the rounded shift, not an underflow
    code, out, err = run(capsys, "eval", "--params", json.dumps(
        {"s": [2], "xi": [1],
         "t": ["99999999999999999999/100000000000000000000"]}))
    assert code == 3 and out == "" and "Traceback" not in err
    assert err.startswith("error: float range exceeded: first column: ")
    assert "t_1 = 99999999999999999999/100000000000000000000 rounds to " \
        "its least index 1 in floats" in err


UNDERFLOW = '{"s": [30], "xi": [1], "t": [0.999999999999999]}'
SUBNORMAL = '{"s": [20], "xi": [1], "t": [0.9999999999999999]}'
MONOID_MAX = '[{"kind": "monoid", "value": 1e308}]'
PAIR_MAX = '[{"kind": "pair", "index": 1, "value": 1e308}]'
FORM_MAX = '{"kind": "xform", "color": 1, "tbar": 1e308}'


@pytest.mark.parametrize("argv", (
    ("expand", "--product", "mulstuffle", "--left", MONOID_MAX,
     "--right", MONOID_MAX),
    ("expand", "--product", "duffle", "--left", PAIR_MAX, "--right", PAIR_MAX),
    ("encode", "--params", '{"s": [1, 1], "xi": [1, 1], "t": [-1e308, 1e308]}'),
    ("encode", "--params",
     '{"s": [1, 1], "xi": [1, 1], "t": ["-1e308", "1e308"]}'),
    ("encode", "--params", '{"s": [1, 1], "xi": [1e200, 1e200], "t": [0, 0]}'),
    ("decode", "--word", f"[{FORM_MAX}, {FORM_MAX}]"),
    ("verify", "--mode", "shuffle",
     "--left", '{"s": [2], "xi": [1], "t": ["1/3"]}',
     "--right", '{"s": [2], "xi": [{"re": -1e-320, "im": 0}], "t": [0]}'),
), ids=("mulstuffle-value-product", "duffle-pair-contraction",
        "float-tbar-difference", "exact-tbar-difference", "cumulative-color",
        "tbar-suffix-sum", "color-ratio"))
def test_library_float_overflow_is_a_domain_error(capsys, argv):
    # valid inputs whose library arithmetic leaves float range
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: float range exceeded")


def test_antipode_of_the_empty_word_pretty(capsys):
    code, out, _ = run(capsys, "antipode", "--product", "stuffle",
                       "--word", "[]", "--format", "pretty")
    assert (code, out) == (0, "1\n")


def test_exit_code_1_on_failed_residual(capsys):
    # a residual threshold below float noise cannot be met
    a = PolyzetaParams.of((3,), (0.5,), (0.0,))
    b = PolyzetaParams.of((2,), (0.5,), (0.0,))
    code, out, _ = run(capsys, "verify", "--mode", "shuffle",
                       "--left", json.dumps(params_to_json(a)),
                       "--right", json.dumps(params_to_json(b)),
                       "--tol", "1e-30")
    assert code == 1


def test_file_at_reference(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text(yw(3, 1), encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--product", "stuffle",
                       "--left", f"@{path}", "--right", yw(2))
    assert code == 0
    code2, _, err = run(capsys, "expand", "--product", "stuffle",
                        "--left", "@/nonexistent/file.json", "--right", yw(2))
    assert code2 == 2


def test_verify_command_fails_unconverged_run(capsys):
    # --nmax 1024 sums to one fixed cutoff: too few rows for a fit
    left = {"s": [2, 1], "xi": [1, -1], "t": [0, 0]}
    right = {"s": [3], "xi": [-1], "t": [0]}
    argv = ("verify", "--mode", "duffle", "--left", json.dumps(left),
            "--right", json.dumps(right), "--nmax", "1024")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["converged"] is False and payload["ok"] is False
    code, out, _ = run(capsys, *argv, "--format", "pretty")
    assert code == 1
    assert out.rstrip().endswith("-> FAILED (unconverged)")


ZETA2 = json.dumps({"s": [2], "xi": [1], "t": [0]})
ROOT_SHIFT = '{"s": [2], "xi": [1], "t": [{"q": 1, "n": 3}]}'
HUGE_SHIFT = '{"s": [2], "xi": [1], "t": ["-1e400"]}'
TINY_COLOR = '{"s": [2], "xi": [1e-200], "t": [0]}'
TINY_RATIO = ('[{"kind": "xform", "color": 1e300, "tbar": 0}, '
              '{"kind": "xform", "color": 1e-300, "tbar": 0}]')


@pytest.mark.parametrize("argv", (
    ("hopf-check", "--product", "stuffle", "--max-len", "-3"),
    ("eval", "--params", ZETA2, "--nmax", "1"),
    ("eval", "--params", ZETA2, "--tol", "-1"),
    ("verify", "--mode", "shuffle", "--left", ZETA2, "--right", ZETA2,
     "--nmax", "1"),
    ("verify", "--mode", "shuffle", "--left", ZETA2, "--right", ZETA2,
     "--tol", "-1"),
    # JSON 1e999 parses to inf
    ("eval", "--params", '{"s": [2], "xi": [1], "t": [-1e999]}'),
    ("eval", "--params", ZETA2, "--tol", "inf"),
    ("eval", "--params", ZETA2, "--tol", "nan"),
    ("verify", "--mode", "shuffle", "--left", ZETA2, "--right", ZETA2,
     "--tol", "inf"),
    ("verify", "--mode", "shuffle", "--left", ZETA2, "--right", ZETA2,
     "--tol", "nan"),
    ("eval", "--params", '{"s": [2.5], "xi": [1], "t": [0]}'),
    ("eval", "--params", '{"s": [true], "xi": [1], "t": [0]}'),
    ("eval", "--params", '{"s": ["2"], "xi": [1], "t": [0]}'),
    ("expand", "--product", "stuffle", "--right", yw(2), "--left",
     '[{"kind": "indexed", "family": "y", "index": 1.7}]'),
    # JSON NaN and Infinity parse to non-finite floats
    ("expand", "--product", "mulstuffle",
     "--left", '[{"kind": "monoid", "value": NaN}]',
     "--right", '[{"kind": "monoid", "value": Infinity}]'),
    ("hopf-check", "--product", "mulstuffle",
     "--alphabet", '[{"kind": "monoid", "value": NaN}]'),
    ("expand", "--product", "stuffle", "--format", "pretty",
     "--left", '[{"kind": "indexed", "family": 5, "index": 1}]',
     "--right", '[{"kind": "indexed", "family": 5, "index": 2}]'),
    # a shift is a real within float range, at both places shifts come in
    ("eval", "--params", ROOT_SHIFT),
    ("encode", "--params", ROOT_SHIFT),
    ("decode", "--word", '[{"kind": "xform", "color": {"q": 1, "n": 3}, '
     '"tbar": {"q": 1, "n": 4}}]'),
    ("expand", "--product", "shuffle", "--right", "[]", "--left",
     '[{"kind": "xform", "color": 1, "tbar": {"re": 0.5, "im": 1}}]'),
    ("eval", "--params", HUGE_SHIFT),
    ("zeta-expand", "--mode", "shuffle", "--left", HUGE_SHIFT,
     "--right", ZETA2, "--format", "pretty"),
    ("eval", "--params", '{"s": [2], "xi": [{"q": true, "n": 3}], "t": [0]}'),
    # computed colors that underflow to 0 are refused as zero colors: the
    # contraction of two 1e-200 colors, and the ratio 1e-300 / 1e300
    ("zeta-expand", "--mode", "duffle", "--left", TINY_COLOR,
     "--right", TINY_COLOR),
    ("decode", "--word", TINY_RATIO),
), ids=("negative-max-len", "eval-nmax-1", "eval-negative-tol",
        "verify-nmax-1", "verify-negative-tol", "non-finite-shift",
        "eval-tol-inf", "eval-tol-nan", "verify-tol-inf", "verify-tol-nan",
        "float-exponent",
        "bool-exponent", "string-exponent", "float-letter-index",
        "non-finite-letter-value", "non-finite-alphabet",
        "non-string-family", "root-of-unity-shift",
        "encode-root-of-unity-shift", "root-of-unity-tbar", "complex-tbar",
        "huge-shift", "huge-shift-pretty-expansion", "boolean-root-numerator",
        "underflowing-contraction-color", "underflowing-color-ratio"))
def test_refused_argument_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")
    if TINY_COLOR in argv or TINY_RATIO in argv:
        assert err == "error: colors must be nonzero\n"
    if argv[0] == "verify" and "--tol" in argv:
        # the residual threshold is refused, not an evaluation tolerance
        assert "residual_tolerance must be finite and >= 0" in err


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


DEPTH_12 = json.dumps({"s": [2] + [1] * 11, "xi": [1] * 12, "t": [0] * 12})


def test_unbounded_error_is_written_null(capsys):
    # no tail bound holds at depth 12 by n = 256
    code, out, _ = run(capsys, "eval", "--params", DEPTH_12, "--nmax", "256")
    payload = strict_json(out)
    assert code == 1 and payload["error"] is None
    assert payload["converged"] is False
    code, out, _ = run(capsys, "verify", "--mode", "duffle",
                       "--left", DEPTH_12,
                       "--right", '{"s": [2], "xi": ["1/2"], "t": [0]}',
                       "--nmax", "256")
    payload = strict_json(out)
    assert code == 1 and payload["tolerance"] is None
    assert payload["ok"] is False and payload["converged"] is False


HALF = '{"s": [2], "xi": ["1/2"], "t": [0]}'
COMMANDS = {
    "expand": ("--product", "stuffle", "--left", yw(3, 1), "--right", yw(2)),
    "antipode": ("--product", "stuffle", "--word", yw(1, 1)),
    "hopf-check": ("--product", "stuffle", "--max-len", "2"),
    "encode": ("--params", HALF),
    "decode": ("--word", json.dumps(
        [{"kind": "x0"}, {"kind": "xform", "color": "1/2", "tbar": 0}])),
    "zeta-expand": ("--mode", "shuffle", "--left", HALF, "--right", HALF),
    "eval": ("--params", HALF),
    "verify": ("--mode", "shuffle", "--left", HALF, "--right", HALF),
}
JSON_WRITERS = ("polynomial_to_json", "report_to_json", "word_to_json",
                "params_to_json", "lincomb_to_json", "eval_result_to_json",
                "verify_report_to_json")


def test_every_command_is_checked_for_its_output_format():
    usage = cli.build_parser().format_usage()
    assert set(COMMANDS) == set(re.search(r"{(.*?)}", usage)[1].split(","))


@pytest.mark.parametrize("fmt", ("json", "pretty"))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_only_the_requested_format_is_built(capsys, monkeypatch, command,
                                            fmt):
    def refuse(*args, **kwargs):
        raise AssertionError(f"--format {fmt} built the other format")

    if fmt == "json":
        for cls in (Word, Polynomial, PolyzetaParams, LinComb):
            monkeypatch.setattr(cls, "pretty", refuse)
    else:
        for name in JSON_WRITERS:
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(cli.json, "dumps", refuse)
    built, run_command = [], cli._run

    def traced_run(args):
        code, to_json, to_pretty = run_command(args)
        return (code, lambda: built.append("json") or to_json(),
                lambda: built.append("pretty") or to_pretty())

    monkeypatch.setattr(cli, "_run", traced_run)
    code, out, err = run(capsys, command, *COMMANDS[command], "--format", fmt)
    assert (code, err, built) == (0, "", [fmt]) and out.strip()


@pytest.mark.parametrize("color, message", (
    ({"re": True, "im": 0}, "bad complex"), ({"im": True}, "bad complex"),
    ({"re": "1", "im": 0}, "bad complex"), ({"re": None}, "bad complex"),
    ({"re": [1], "im": 0}, "bad complex"),
    ({"re": 0.5, "im": False}, "bad complex"),
    ({"q": 1, "n": 0}, "bad exact color"),
    ({"q": 1, "n": 3, "mag": 0}, "bad exact color"),
    ({"q": 0, "n": 1, "mag": 0}, "bad exact color")),
    ids=("bool-re", "bool-im-alone", "string-re", "null-re", "list-re",
         "bool-im", "order-zero", "magnitude-zero", "real-magnitude-zero"))
def test_malformed_color_is_a_usage_error(capsys, color, message):
    # complex parts must be JSON numbers, as booleans are not scalars
    params = json.dumps({"s": [2], "xi": [color], "t": [0]})
    code, out, err = run(capsys, "eval", "--params", params)
    assert (code, out, err) == (2, "", f"error: {message} {color!r}\n")


@pytest.mark.parametrize("left, right, message", (
    ('{"s": [2, 2], "xi": [1, 1], "t": ["1/2", 0]}', HALF,
     "shift tuple (1/2, 0) is not constant; the contraction expansion "
     "needs one common diagonal shift"),
    ('{"s": [2], "xi": [1], "t": [0.25]}', '{"s": [2], "xi": [1], "t": ["1/3"]}',
     "shifts differ between factors (0.25 vs 1/3)")),
    ids=("not-constant", "differ-between-factors"))
@pytest.mark.parametrize("command", ("zeta-expand", "verify"))
def test_diagonal_errors_print_shifts_as_written(capsys, command, left,
                                                 right, message):
    code, out, err = run(capsys, command, "--mode", "duffle",
                         "--left", left, "--right", right)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert "Fraction(" not in err


@pytest.mark.parametrize("argv, expected", (
    (("expand", "--product", "mulstuffle",
      "--left", '[{"kind": "monoid", "value": "-2/3"}]',
      "--right", '[{"kind": "monoid", "value": {"q": 1, "n": 3}}]'),
     "x_{2/3*e^(2*pi*i*5/6)} + x_{-2/3}x_{1*e^(2*pi*i*1/3)} "
     "+ x_{1*e^(2*pi*i*1/3)}x_{-2/3}\n"),
    (("antipode", "--product", "duffle", "--word",
      '[{"kind": "pair", "index": 1, "value": "1/2"}, '
      '{"kind": "pair", "index": 2, "value": {"q": 1, "n": 3}}]'),
     "(y₃,e_{1/2*e^(2*pi*i*1/3)}) + (y₂,e_{1*e^(2*pi*i*1/3)})(y₁,e_{1/2})\n"),
), ids=("monoid-letters", "pair-letters"))
def test_monoid_and_pair_letters_pretty(capsys, argv, expected):
    assert run(capsys, *argv, "--format", "pretty") == (0, expected, "")


FLAGS = {
    "expand": {"--product", "--left", "--right"},
    "antipode": {"--product", "--word"},
    "hopf-check": {"--product", "--max-len", "--alphabet"},
    "encode": {"--params"},
    "decode": {"--word"},
    "zeta-expand": {"--mode", "--left", "--right"},
    "eval": {"--params", "--tol", "--nmax"},
    "verify": {"--mode", "--left", "--right", "--tol", "--nmax"},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_help_lists_exactly_its_flags(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: polyzeta {command} [-h]")
    assert set(re.findall(r"--[a-z-]+", out)) == (
        FLAGS[command] | {"--help", "--format"})


def test_the_parser_is_built_once(capsys, monkeypatch):
    assert run(capsys, "encode", "--params", HALF)[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a second call built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run(capsys, "encode", "--params", HALF)[0] == 0
    assert run(capsys, "frobnicate")[0] == 2
