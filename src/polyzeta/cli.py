"""Command-line front door.

Subcommands: expand, antipode, hopf-check, encode, decode, zeta-expand,
eval, verify. Word and parameter arguments take inline JSON or @file
references; only the output format asked for is built, and JSON output is
strict (null where no tail bound holds). Exit codes: 0 success, 1 failed
check or exceeded residual, 2 usage or parse errors, 3 domain errors
(divergence, bad shapes, diagonal violations, float overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Optional, Sequence

from .errors import PolyzetaError
from .hopf import check_antipode, check_bialgebra, antipode as hopf_antipode
from .numeric import EvalConfig, eval_di, verify_relation
from .products import PRODUCTS, star
from .serialize import (ParseError, eval_result_to_json, letter_from_json,
                        lincomb_to_json, params_from_json, params_to_json,
                        polynomial_to_json, report_to_json,
                        verify_report_to_json, word_from_json, word_to_json)
from .zeta import decode, duffle_expand, encode, shuffle_expand

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

_EXPANSIONS = {"shuffle": shuffle_expand, "duffle": duffle_expand}


def _load_json(arg: str):
    """Inline JSON, or @path to read a JSON file."""
    if arg.startswith("@"):
        try:
            with open(arg[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg[1:]!r}: {exc}") from exc
    else:
        text = arg
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built at its first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="polyzeta",
        description="Shuffle-family word products, Hopf checks, series "
                    "encodings and numeric verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    choices = {"--product": sorted(PRODUCTS), "--mode": tuple(_EXPANSIONS)}

    def command(name: str, about: str, kind: str, *flags: str):
        """Subparser with required flags, each a choice or ``kind`` JSON."""
        p = sub.add_parser(name, help=about)
        for flag in flags:
            if flag in choices:
                p.add_argument(flag, required=True, choices=choices[flag])
            else:
                p.add_argument(flag, required=True, help=f"{kind} JSON or @file")
        return p

    command("expand", "product of two words", "word",
            "--product", "--left", "--right")
    command("antipode", "antipode of a word", "word", "--product", "--word")
    p = command("hopf-check", "exhaustive bialgebra and antipode axiom checks",
                "", "--product")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--alphabet", help="letters JSON or @file (list of letters)")
    command("encode", "parameters -> encoded word", "params", "--params")
    command("decode", "encoded word -> parameters", "word", "--word")
    command("zeta-expand", "symbolic expansion of a product of two series",
            "params", "--mode", "--left", "--right")
    for name, about, flags, tol_help in (
            ("eval", "numerically evaluate one series", ("--params",), None),
            ("verify", "expand then numerically verify the identity",
             ("--mode", "--left", "--right"),
             "residual threshold (default: propagated budget)")):
        p = command(name, about, "params", *flags)
        p.add_argument("--tol", type=float, help=tol_help)
        p.add_argument("--nmax", type=int)
    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "pretty"),
                       default="json", help="output format (default json)")
    return parser


def _make_config(nmax: Optional[int], eval_tol: Optional[float]) -> EvalConfig:
    kwargs = {} if eval_tol is None else {"tolerance": eval_tol}
    if nmax is not None:  # n_start keeps its default where it can
        kwargs.update(n_max=nmax, n_start=min(EvalConfig().n_start, nmax))
    return EvalConfig(**kwargs)


def _run(args: argparse.Namespace) -> tuple[int, Callable, Callable]:
    """Run one command: its exit code and two zero-argument builders, of
    the JSON payload and of the pretty text; main calls only one."""
    if args.command == "expand":
        left = word_from_json(_load_json(args.left))
        right = word_from_json(_load_json(args.right))
        result = star(PRODUCTS[args.product], left, right)
        return EXIT_OK, lambda: polynomial_to_json(result), result.pretty

    if args.command == "antipode":
        w = word_from_json(_load_json(args.word))
        result = hopf_antipode(PRODUCTS[args.product], w)
        return EXIT_OK, lambda: polynomial_to_json(result), result.pretty

    if args.command == "hopf-check":
        br = PRODUCTS[args.product]
        alphabet = None
        if args.alphabet:
            data = _load_json(args.alphabet)
            if not isinstance(data, list):
                raise ParseError("alphabet must be a list of letters")
            alphabet = tuple(letter_from_json(item) for item in data)
        reports = [check_bialgebra(br, args.max_len, alphabet),
                   check_antipode(br, args.max_len, alphabet)]
        code = EXIT_OK if all(rep.ok for rep in reports) else EXIT_CHECK_FAILED
        return code, lambda: [report_to_json(rep) for rep in reports], (
            lambda: "\n".join(f"{r.axiom}: {r.status} ({r.checked} cases)"
                              for r in reports))

    if args.command == "encode":
        w = encode(params_from_json(_load_json(args.params)))
        return EXIT_OK, lambda: word_to_json(w), w.pretty

    if args.command == "decode":
        p = decode(word_from_json(_load_json(args.word)))
        return EXIT_OK, lambda: params_to_json(p), p.pretty

    if args.command == "eval":
        p = params_from_json(_load_json(args.params))
        res = eval_di(p, _make_config(args.nmax, args.tol))
        return (EXIT_OK if res.converged else EXIT_CHECK_FAILED,
                lambda: eval_result_to_json(res), lambda: (
                    f"value = {res.value.real:+.12g}{res.value.imag:+.12g}i  "
                    f"error ~ {res.error_estimate:.3g}  n = {res.n_used}  "
                    f"converged = {res.converged}"))

    if args.command in ("zeta-expand", "verify"):
        left = params_from_json(_load_json(args.left))
        right = params_from_json(_load_json(args.right))
        lc = _EXPANSIONS[args.mode](left, right)
        if args.command == "zeta-expand":
            return EXIT_OK, lambda: lincomb_to_json(lc), lc.pretty
        # evaluate noticeably tighter than a positive residual threshold
        eval_tol = min(1e-10, args.tol / 100) if (args.tol or 0) > 0 else None
        cfg = _make_config(args.nmax, eval_tol)
        rep = verify_relation((left, right), lc, cfg,
                              residual_tolerance=args.tol)
        verdict = ("ok" if rep.ok else "FAILED" if rep.converged
                   else "FAILED (unconverged)")
        return (EXIT_OK if rep.ok else EXIT_CHECK_FAILED,
                lambda: verify_report_to_json(rep), lambda: (
                    f"lhs = {rep.lhs_value:.12g}  rhs = {rep.rhs_value:.12g}  "
                    f"residual = {rep.residual:.3g} "
                    f"(tolerance {rep.tolerance:.3g})  -> {verdict}"))

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        code, to_json, to_pretty = _run(args)
        # every float the serializers pass on is finite: strict JSON
        text = (to_pretty() if args.format == "pretty" else
                json.dumps(to_json(), ensure_ascii=False, allow_nan=False))
    except ValueError as exc:  # ParseError, or an argument the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PolyzetaError, OverflowError) as exc:
        if isinstance(exc, OverflowError):
            exc = f"float range exceeded: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
