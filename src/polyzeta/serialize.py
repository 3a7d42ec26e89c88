"""JSON encoding and decoding for every value the CLI exchanges.

Conventions: exact rationals travel as "p/q" strings, complex numbers as
{"re": ..., "im": ...}, exact polar colors as {"q": k, "n": N} for the
root of unity exp(2*pi*i*k/N), optionally with a rational "mag". Words are
lists of letter objects tagged by variant; polynomials and formal
combinations are lists of {"coeff", "word"/"params"} pairs. Output is
strict JSON: an infinite error bound is null, and any other non-finite
float fails ``scalars.in_range``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .hopf import CheckReport
from .numeric import EvalResult, VerifyReport
from .scalars import ExactColor, exact_color, in_range
from .words import (Combination, Indexed, Letter, MonoidLetter, PairLetter,
                    Polynomial, Word, X0, XForm)
from .zeta import LinComb, PolyzetaParams


class ParseError(ValueError):
    """Malformed JSON payload (shape, tags or scalar syntax)."""


def scalar_to_json(value):
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, (int, float)):
        return in_range(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        value = in_range(value)
        return {"re": value.real, "im": value.imag}
    if isinstance(value, ExactColor):
        out = {"q": value.turns.numerator, "n": value.turns.denominator}
        if value.mag != 1:
            out["mag"] = scalar_to_json(value.mag)
        return out
    raise ParseError(f"cannot serialize scalar {value!r}")


def scalar_from_json(data):
    if isinstance(data, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(data, (int, float)):
        return data
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {data!r}") from exc
    if isinstance(data, dict):
        if "re" in data or "im" in data:
            parts = (data.get("re", 0.0), data.get("im", 0.0))
            if not all(type(v) in (int, float) for v in parts):
                raise ParseError(f"bad complex {data!r}")
            return complex(*parts)
        if type(data.get("q")) is int and type(data.get("n")) is int:
            mag = scalar_from_json(data["mag"]) if "mag" in data else 1
            try:
                return exact_color(Fraction(mag), Fraction(data["q"], data["n"]))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad exact color {data!r}") from exc
    raise ParseError(f"cannot parse scalar {data!r}")


def letter_to_json(letter: Letter) -> dict:
    if isinstance(letter, Indexed):
        return {"kind": "indexed", "family": letter.family, "index": letter.index}
    if isinstance(letter, MonoidLetter):
        return {"kind": "monoid", "value": scalar_to_json(letter.value)}
    if isinstance(letter, PairLetter):
        return {"kind": "pair", "index": letter.index,
                "value": scalar_to_json(letter.value)}
    if isinstance(letter, X0):
        return {"kind": "x0"}
    if isinstance(letter, XForm):
        return {"kind": "xform", "color": scalar_to_json(letter.color),
                "tbar": scalar_to_json(letter.tbar)}
    raise ParseError(f"cannot serialize letter {letter!r}")


def letter_from_json(data) -> Letter:
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError(f"letter must be an object with a 'kind': {data!r}")
    kind = data["kind"]
    try:
        if kind == "indexed":
            return Indexed(data["index"], data.get("family", "x"))
        if kind == "monoid":
            return MonoidLetter(scalar_from_json(data["value"]))
        if kind == "pair":
            return PairLetter(data["index"], scalar_from_json(data["value"]))
        if kind == "x0":
            return X0()
        if kind == "xform":
            return XForm(scalar_from_json(data["color"]),
                         scalar_from_json(data["tbar"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad letter {data!r}: {exc}") from exc
    raise ParseError(f"unknown letter kind {kind!r}")


def word_to_json(w: Word) -> list:
    return [letter_to_json(letter) for letter in w]


def word_from_json(data) -> Word:
    if not isinstance(data, list):
        raise ParseError("a word is a list of letter objects")
    return Word(letter_from_json(item) for item in data)


def polynomial_to_json(p: Polynomial) -> list:
    return [{"coeff": scalar_to_json(c), "word": word_to_json(w)}
            for w, c in p.sorted_terms()]


def _combination_from_json(data, cls, key: str, parse) -> Combination:
    """A ``cls`` combination from a list of {coeff, key} pairs."""
    if not isinstance(data, list):
        raise ParseError(f"a combination is a list of {{coeff, {key}}} pairs")
    terms = []
    for item in data:
        if not isinstance(item, dict) or key not in item:
            raise ParseError(f"bad combination term {item!r}")
        terms.append((parse(item[key]), scalar_from_json(item.get("coeff", 1))))
    return cls(terms)


def polynomial_from_json(data) -> Polynomial:
    return _combination_from_json(data, Polynomial, "word", word_from_json)


def params_to_json(p: PolyzetaParams) -> dict:
    return {"s": list(p.s),
            "xi": [scalar_to_json(c) for c in p.xi],
            "t": [scalar_to_json(v) for v in p.t]}


def params_from_json(data) -> PolyzetaParams:
    if not isinstance(data, dict):
        raise ParseError("params must be an object with s, xi, t")
    try:
        xi = [scalar_from_json(v) for v in data.get("xi", [])]
        t = [scalar_from_json(v) for v in data.get("t", [])]
        return PolyzetaParams.of(data.get("s", []), xi, t)
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad params {data!r}: {exc}") from exc


def lincomb_to_json(lc: LinComb) -> list:
    return [{"coeff": scalar_to_json(c), "params": params_to_json(term)}
            for term, c in lc.sorted_terms()]


def lincomb_from_json(data) -> LinComb:
    return _combination_from_json(data, LinComb, "params", params_from_json)


def report_to_json(report: CheckReport) -> dict:
    out = {"axiom": report.axiom, "status": report.status,
           "checked": report.checked}
    if report.counterexample is not None:
        out["counterexample"] = {
            key: word_to_json(value) if isinstance(value, Word) else value
            for key, value in report.counterexample.items()}
    return out


def _bound_to_json(bound: float):
    """An error bound or tolerance; null where infinite (no tail bound)."""
    return None if bound == math.inf else in_range(bound)


def eval_result_to_json(res: EvalResult) -> dict:
    return {"value": scalar_to_json(res.value),
            "error": _bound_to_json(res.error_estimate),
            "n_used": res.n_used,
            "converged": res.converged}


def verify_report_to_json(rep: VerifyReport) -> dict:
    return {"lhs": scalar_to_json(rep.lhs_value),
            "rhs": scalar_to_json(rep.rhs_value),
            "residual": in_range(rep.residual),
            "tolerance": _bound_to_json(rep.tolerance),
            "ok": rep.ok,
            "n_used": rep.n_used,
            "converged": rep.converged}
