"""Seeded inputs, the timed operation and the oracle check of each workload.

``build(lib, name, seed)`` makes a workload's inputs: a list of op specs,
cycled for as long as the run lasts, so every op runs many times, spread
over the run. The benchmark's own generator, seeded with the workload name
and ``seed``, draws everything; the library sees only the generated
inputs. ``run(lib, rec, spec)`` is the timed op: every call into
a layer goes through ``rec.call`` under the layer's span name.
``check(spec, out)`` compares the op's outputs against the oracles in
``checks`` and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from types import SimpleNamespace

import checks

WORKLOADS = ("hopf-exhaustive", "identity-geometric", "eval-unit-color")


@dataclass
class Outcome:
    """Oracle verdict of one op: failing spans with reasons, and the op's
    numeric error (0 for exact results) against the scale of its value."""

    failures: list = field(default_factory=list)
    err: float = 0.0
    scale: float = 1.0
    converged: bool = True

    def expect(self, span: str, reason) -> None:
        if reason is not None:
            self.failures.append((span, reason))


def _frac_json(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


def build(lib, name: str, seed: int) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "hopf-exhaustive":
        return _build_hopf(lib, rng)
    if name == "identity-geometric":
        return _build_identity(rng)
    if name == "eval-unit-color":
        return _build_eval(lib, rng)
    raise ValueError(f"unknown workload {name!r}")


def run(lib, rec, spec: dict):
    return _RUN[spec["workload"]](lib, rec, spec)


def check(spec: dict, out) -> Outcome:
    return _CHECK[spec["workload"]](spec, out)


# --- hopf-exhaustive ------------------------------------------------------
# One op per product, rotating through all five: index every word of length
# <= MAX_LEN over a fresh 3-letter alphabet, fill a cold bracket's product
# table, both antipodes on every word, then both exhaustive axiom checks.

MAX_LEN = 5
HOPF_PRODUCTS = ("shuffle", "stuffle", "minusstuffle", "mulstuffle", "duffle")


def _rational(rng) -> F:
    return F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _alphabet(lib, rng, product: str) -> tuple:
    w = lib.words
    if product == "shuffle":
        return tuple(w.x(i) for i in rng.sample(range(10), 3))
    if product in ("stuffle", "minusstuffle"):
        return tuple(w.y(i) for i in rng.sample(range(1, 10), 3))
    values: list = []
    while len(values) < 3:
        v = _rational(rng)
        if v not in values:
            values.append(v)
    if product == "mulstuffle":
        return tuple(w.MonoidLetter(v) for v in values)
    return tuple(w.PairLetter(rng.randint(1, 5), v) for v in values)


def _build_hopf(lib, rng) -> list:
    return [{"workload": "hopf-exhaustive", "product": p,
             "alphabet": _alphabet(lib, rng, p)} for p in HOPF_PRODUCTS]


def _index_words(lib, alphabet):
    """All words of length <= MAX_LEN in a dict, then a lookup of both
    halves of every split of every word."""
    Word = lib.words.Word
    words = [Word(c) for n in range(MAX_LEN + 1)
             for c in itertools.product(alphabet, repeat=n)]
    index = {w: i for i, w in enumerate(words)}
    lookups = missing = 0
    for w in words:
        for i in range(len(w) + 1):
            lookups += 2
            if index.get(w[:i]) is None or index.get(w[i:]) is None:
                missing += 1
    return words, len(index), lookups, missing


def _nterms(poly) -> int:
    return len(poly.terms)


def _run_hopf(lib, rec, spec):
    base = lib.products.PRODUCTS[spec["product"]]
    br = lib.products.Bracket(base.name, base.fn, base.kinds)
    alphabet = spec["alphabet"]
    words, n_index, _, missing = rec.call(
        "words.index", _index_words, lib, alphabet, work=lambda r: r[2])
    by_len = [[w for w in words if len(w) == n] for n in range(MAX_LEN + 1)]
    star = lib.products.star
    table = []
    for total in range(MAX_LEN + 1):
        for m in range(total + 1):
            for u in by_len[m]:
                for v in by_len[total - m]:
                    table.append((m, total - m, rec.call(
                        "products.star", star, br, u, v, work=_nterms)))
    hopf = lib.hopf
    rec_anti = [rec.call("hopf.antipode_recursive", hopf.antipode_recursive,
                         br, w) for w in words]
    closed = [rec.call("hopf.antipode", hopf.antipode, br, w, work=_nterms)
              for w in words]
    bialg = rec.call("hopf.check_bialgebra", hopf.check_bialgebra, br,
                     MAX_LEN, alphabet, work=lambda r: r.checked)
    anti = rec.call("hopf.check_antipode", hopf.check_antipode, br,
                    MAX_LEN, alphabet, work=lambda r: r.checked)
    return SimpleNamespace(n_index=n_index, missing=missing, table=table,
                           rec_anti=rec_anti, closed=closed,
                           bialg=bialg, anti=anti)


def _check_hopf(spec, out) -> Outcome:
    k = len(spec["alphabet"])
    n_words = sum(k**n for n in range(MAX_LEN + 1))
    n_pairs = sum((t + 1) * k**t for t in range(MAX_LEN + 1))
    res = Outcome()
    res.expect("words.index", checks.check_equal(
        (out.n_index, out.missing), (n_words, 0), "indexed words, missing"))
    res.expect("products.star", checks.check_equal(
        len(out.table), n_pairs, "product table size"))
    for m, n, poly in out.table:
        reason = checks.check_coefficient_sum(
            poly.terms.values(),
            checks.star_coefficient_sum(spec["product"], m, n))
        if reason:
            res.expect("products.star", f"|u|={m}, |v|={n}: {reason}")
            break
    for a, b in zip(out.closed, out.rec_anti):
        if a.terms != b.terms:
            res.expect("hopf.antipode", "antipode != antipode_recursive")
            break
    res.expect("hopf.check_bialgebra", checks.check_report(
        out.bialg.ok, out.bialg.checked, n_pairs))
    res.expect("hopf.check_antipode", checks.check_report(
        out.anti.ok, out.anti.checked, n_words))
    return res


# --- identity-geometric ---------------------------------------------------
# Each op expands p * q (modes alternate), serializes the combination,
# repeats the expansion through the CLI, and verifies it numerically. The
# library's shuffle memo fills during the first pass over the inputs and
# serves reads after it, so peak memory does not depend on how many ops fit
# in a run. Depths and exponents are fixed per position in the list; colors
# and shifts are drawn, so the cost of a pass hardly depends on the seed.

IDENTITY_POOL_ROUNDS = 2
DEPTH_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
LEFT_EXPONENTS = (2, 1, 2)
RIGHT_EXPONENTS = (1, 2, 1)
CUMULATIVE_MODULI = (F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4),
                     F(4, 5))
# Every term of a shuffle expansion has shifts t_p[i] + t_q[j], so shifts
# stay below 1/2 to keep every term convergent.
GEOMETRIC_SHIFTS = (F(-1, 2), F(-1, 3), F(-1, 5), F(0), F(1, 5), F(1, 3),
                    F(2, 5))
PROP_M_CUTOFF = 10


def _geometric_factor(rng, s: tuple, shifts: tuple) -> dict:
    cums = [rng.choice((-1, 1)) * rng.choice(CUMULATIVE_MODULI) for _ in s]
    xi = tuple([cums[0]] + [cums[i] / cums[i - 1] for i in range(1, len(s))])
    return {"s": s, "xi": xi, "t": shifts,
            "json": {"s": list(s), "xi": [_frac_json(v) for v in xi],
                     "t": [_frac_json(v) for v in shifts]}}


def _build_identity(rng) -> list:
    ops = []
    for _ in range(IDENTITY_POOL_ROUNDS):
        for dp, dq in DEPTH_PAIRS:
            sp, sq = LEFT_EXPONENTS[:dp], RIGHT_EXPONENTS[:dq]
            for mode in ("shuffle", "duffle"):
                if mode == "shuffle":
                    left = _geometric_factor(rng, sp, tuple(
                        rng.choice(GEOMETRIC_SHIFTS) for _ in sp))
                    right = _geometric_factor(rng, sq, tuple(
                        rng.choice(GEOMETRIC_SHIFTS) for _ in sq))
                    coeff_sum = math.comb(sum(sp) + sum(sq), sum(sp))
                else:
                    t = rng.choice(GEOMETRIC_SHIFTS)
                    left = _geometric_factor(rng, sp, (t,) * dp)
                    right = _geometric_factor(rng, sq, (t,) * dq)
                    coeff_sum = checks.delannoy(dp, dq)
                ops.append({
                    "workload": "identity-geometric", "mode": mode,
                    "left": left, "right": right, "coeff_sum": coeff_sum,
                    "weight": sum(left["s"]) + sum(right["s"]),
                    "argv": ["zeta-expand", "--mode", mode,
                             "--left", json.dumps(left["json"]),
                             "--right", json.dumps(right["json"])]})
    return ops


def _cli(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(argv)
    return code, buf.getvalue()


def _run_identity(lib, rec, spec):
    parse = lib.serialize.params_from_json
    p = rec.call("serialize.params_from_json", parse, spec["left"]["json"])
    q = rec.call("serialize.params_from_json", parse, spec["right"]["json"])
    mode = spec["mode"]
    expand = (lib.zeta.shuffle_expand if mode == "shuffle"
              else lib.zeta.duffle_expand)
    lc = rec.call(f"zeta.{mode}_expand", expand, p, q, work=len)
    payload = rec.call("serialize.lincomb_to_json",
                       lib.serialize.lincomb_to_json, lc)
    text = json.dumps(payload, ensure_ascii=False) + "\n"
    cli = rec.call("cli.main", _cli, lib, spec["argv"])
    prop_m = None
    if mode == "duffle":
        t = spec["left"]["t"][0]
        prop_m = rec.call("numeric.check_prop_M", lib.numeric.check_prop_M,
                          p.s, p.xi, q.s, q.xi, PROP_M_CUTOFF,
                          lambda k: 1 / (k - t))
    rep = rec.call("numeric.verify_relation", lib.numeric.verify_relation,
                   (p, q), lc, work=lambda r: len(lc) + 2)
    return SimpleNamespace(p=p, q=q, lc=lc, payload=payload, text=text,
                           cli=cli, prop_m=prop_m, rep=rep)


def _check_identity(spec, out) -> Outcome:
    res = Outcome()
    for got, factor in ((out.p, spec["left"]), (out.q, spec["right"])):
        res.expect("serialize.params_from_json", checks.check_equal(
            (got.s, got.xi, got.t), (factor["s"], factor["xi"], factor["t"]),
            "parsed params"))
    span = f"zeta.{spec['mode']}_expand"
    res.expect(span, checks.check_coefficient_sum(
        out.lc.terms.values(), spec["coeff_sum"]))
    res.expect(span, checks.check_term_weights(
        [sum(term.s) for term in out.lc.terms], spec["weight"]))
    res.expect("serialize.lincomb_to_json", checks.check_coefficient_sum(
        [item["coeff"] for item in out.payload], spec["coeff_sum"]))
    res.expect("cli.main", checks.check_equal(
        out.cli, (0, out.text), "zeta-expand exit code and stdout"))
    if spec["mode"] == "duffle":
        res.expect("numeric.check_prop_M",
                   checks.check_true(out.prop_m, "check_prop_M"))
    rep = out.rep
    res.expect("numeric.verify_relation",
               checks.check_residual(rep.residual, rep.converged))
    res.err = rep.residual
    res.scale = max(abs(rep.lhs_value), abs(rep.rhs_value))
    res.converged = rep.converged
    return res


# --- eval-unit-color ------------------------------------------------------
# Each op parses, evaluates and serializes one parameter set whose colors
# are exact roots of unity. The list holds six depth-1 Lerch sums at s = 2
# (one per color order 1..6), one at s = 3 and one at s = 4..5, a depth-2
# and a depth-3 diagonal sum at s = 2, and four closed forms; 11 of its 14
# ops have s1 = 2, where the evaluator runs to n_max.

EVAL_TOLERANCE = 1e-10
EVAL_N_START = 2**10
EVAL_N_MAX = 2**16
UNIT_SHIFTS = (F(-1, 2), F(-1, 4), F(0), F(1, 5), F(1, 3), F(1, 2), F(3, 4))
CLOSED_FORMS = {  # name -> (s, roots (k, n) per level)
    "zeta(2,1)": ((2, 1), ((0, 1), (0, 1))),
    "zeta(2,2)": ((2, 2), ((0, 1), (0, 1))),
    "zeta(3,1,1)": ((3, 1, 1), ((0, 1), (0, 1), (0, 1))),
    "zeta(-2,1)": ((2, 1), ((1, 2), (0, 1))),
}


def _unit_case(s: tuple, roots: tuple, t: tuple, ref: tuple, cfg) -> dict:
    return {"workload": "eval-unit-color", "s": s, "roots": roots, "t": t,
            "ref": ref, "cfg": cfg,
            "json": {"s": list(s),
                     "xi": [{"q": k, "n": n} for k, n in roots],
                     "t": [_frac_json(v) for v in t]}}


def _diagonal(rng, depth: int, s: int, orders, cfg) -> dict:
    n = rng.choice(orders)
    k = rng.choice([k for k in range(n) if math.gcd(k, n) == 1])
    t = rng.choice(UNIT_SHIFTS)
    return _unit_case((s,) * depth, ((k, n),) * depth, (t,) * depth,
                      ("diagonal", depth, k, n, s, t), cfg)


def _build_eval(lib, rng) -> list:
    cfg = lib.numeric.EvalConfig(tolerance=EVAL_TOLERANCE,
                                 n_start=EVAL_N_START, n_max=EVAL_N_MAX)
    ops = [_diagonal(rng, 1, 2, (n,), cfg) for n in range(1, 7)]
    ops.append(_diagonal(rng, 1, 3, range(1, 7), cfg))
    ops.append(_diagonal(rng, 1, rng.randint(4, 5), range(1, 7), cfg))
    ops.append(_diagonal(rng, 2, 2, range(2, 7), cfg))
    ops.append(_diagonal(rng, 3, 2, range(2, 7), cfg))
    for name, (s, roots) in CLOSED_FORMS.items():
        ops.append(_unit_case(s, roots, (F(0),) * len(s), ("closed", name),
                              cfg))
    return ops


def _run_eval(lib, rec, spec):
    p = rec.call("serialize.params_from_json",
                 lib.serialize.params_from_json, spec["json"])
    depth = len(spec["s"])
    res = rec.call("numeric.eval_di", lib.numeric.eval_di, p, spec["cfg"],
                   work=lambda r: (depth, r.n_used - 1, r.converged))
    js = rec.call("serialize.eval_result_to_json",
                  lib.serialize.eval_result_to_json, res)
    return SimpleNamespace(p=p, res=res, js=js)


def reference(spec: dict) -> complex:
    ref = spec["ref"]
    if ref[0] == "closed":
        return checks.closed_form_reference(ref[1])
    return checks.diagonal_reference(*ref[1:])


def _root_value(k: int, n: int) -> complex:
    return complex(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))


def _check_eval(spec, out) -> Outcome:
    res = Outcome()
    p = out.p
    colors_ok = len(p.xi) == len(spec["roots"]) and all(
        abs(complex(c) - _root_value(k, n)) <= 1e-15
        for c, (k, n) in zip(p.xi, spec["roots"]))
    res.expect("serialize.params_from_json", checks.check_equal(
        (p.s, p.t, colors_ok), (spec["s"], spec["t"], True),
        "parsed s, t and colors"))
    ev = out.res
    ref = reference(spec)
    res.expect("numeric.eval_di",
               checks.check_error_estimate(ev.value, ref, ev.error_estimate))
    res.expect("serialize.eval_result_to_json", checks.check_equal(
        out.js, {"value": {"re": ev.value.real, "im": ev.value.imag},
                 "error": ev.error_estimate, "n_used": ev.n_used,
                 "converged": ev.converged}, "eval JSON"))
    res.err = abs(ev.value - ref)
    res.scale = abs(ref)
    res.converged = ev.converged
    return res


_RUN = {"hopf-exhaustive": _run_hopf, "identity-geometric": _run_identity,
        "eval-unit-color": _run_eval}
_CHECK = {"hopf-exhaustive": _check_hopf,
          "identity-geometric": _check_identity,
          "eval-unit-color": _check_eval}
