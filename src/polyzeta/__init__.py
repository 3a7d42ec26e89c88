"""Shuffle-family products on noncommutative words, their Hopf-algebra
structure, word encodings of colored shifted nested series, symbolic
expansion of series products, and a truncated-series numeric verifier."""

from .errors import (AlphabetMismatchError, DiagonalError, DivergenceError,
                     PolyzetaError, ShapeError)
from .hopf import (CheckReport, antipode, antipode_recursive,
                   check_antipode, check_bialgebra, coproduct, counit,
                   default_alphabet)
from .numeric import (EvalConfig, EvalResult, VerifyReport, check_prop_M,
                      eval_di, partial_M, verify_relation)
from .products import (DUFFLE, MINUS_STUFFLE, MULSTUFFLE, PRODUCTS, SHUFFLE,
                       STUFFLE, Bracket, duffle, minus_stuffle, mulstuffle,
                       shuffle, star, stuffle)
from .scalars import ExactColor, exact_color, root_of_unity
from .words import (EMPTY_WORD, Combination, Indexed, Letter, MonoidLetter,
                    PairLetter, Polynomial, Word, X0, XForm, concat, word, x,
                    y)
from .zeta import (LinComb, PolyzetaParams, decode, duffle_expand, encode,
                   shuffle_expand, tbar, tbar_inverse)

__version__ = "0.1.0"

__all__ = [
    "AlphabetMismatchError", "Bracket", "CheckReport", "Combination",
    "DiagonalError", "DivergenceError", "DUFFLE", "EMPTY_WORD", "EvalConfig",
    "EvalResult", "ExactColor", "Indexed", "Letter", "LinComb",
    "MINUS_STUFFLE", "MULSTUFFLE", "MonoidLetter", "PairLetter", "Polynomial",
    "PolyzetaError", "PolyzetaParams", "PRODUCTS", "SHUFFLE", "STUFFLE",
    "ShapeError", "VerifyReport", "Word", "X0", "XForm", "antipode",
    "antipode_recursive", "check_antipode", "check_bialgebra", "check_prop_M",
    "concat", "coproduct", "counit", "decode", "default_alphabet", "duffle",
    "duffle_expand", "encode", "eval_di", "exact_color", "minus_stuffle",
    "mulstuffle", "partial_M", "root_of_unity", "shuffle", "shuffle_expand",
    "star", "stuffle", "tbar", "tbar_inverse", "verify_relation", "word", "x",
    "y",
]
