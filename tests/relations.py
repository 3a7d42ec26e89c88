"""Relation generators for the acceptance gates, built on the library's own
expansions. Test-side only: nothing here is public API.

``double_shuffle_quotient(w)`` is the exact dimension gate at level N = 1
and shift t = 0. Its unknowns are the admissible compositions of w (s_1 >= 2),
each standing for the multiple zeta value Z(s; 1, ..., 1; 0, ..., 0). Its
relations are

* the finite double shuffle ``shuffle_expand(p, q) - duffle_expand(p, q)``
  for admissible p, q whose weights add to w, and
* Hoffman's relation ``shuffle_expand(Z(1), q) - duffle_expand(Z(1), q)``
  for admissible q of weight w - 1. The divergent term Z(1, q) appears once
  in each expansion and cancels, so every term left is admissible.

The quotient is the number of unknowns minus the rank of the relations over
Q. Ihara, Kaneko and Zagier conjecture that these relations give all
relations (Compositio Math. 142, 2006), and d_w = 1, 1, 2, 2, 3, 4, 5 at
w = 3..9 bounds the true dimension from above (Terasoma, Invent. Math. 149,
2002). A wrong expansion that makes a relation false generally drops the
quotient below d_w; one that makes a term outside the weight's admissible
basis raises ``ValueError``.

Blind spot: scaling the contraction by any constant lambda (lambda = 2, 1/2,
-1 for the minus-stuffle, or 0 for no contraction at all) leaves every
quotient at d_w for w <= 8. Multiplying each term by lambda^depth undoes the
scaling, and the shuffle keeps depths additive, so the relation space is
only conjugated; with no contraction the relations are the depth-graded
ones, whose quotients agree at these weights. Only a numeric check of the
relations (their values vanish) sees such a product.
"""

from __future__ import annotations

from fractions import Fraction

from polyzeta.zeta import PolyzetaParams, duffle_expand, shuffle_expand

D_W = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4, 9: 5}


def compositions(w: int, first_min: int = 1) -> list[tuple[int, ...]]:
    """Every composition of w whose first part is at least ``first_min``."""
    if w == 0:
        return [()]
    return [(head,) + rest for head in range(first_min, w + 1)
            for rest in compositions(w - head)]


def mzv(s: tuple[int, ...]) -> PolyzetaParams:
    """Z(s; 1, ..., 1; 0, ..., 0)."""
    return PolyzetaParams.of(s, (1,) * len(s), (0,) * len(s))


def double_shuffle_relations(w: int) -> tuple[list, list]:
    """The unknowns of weight w and the relations among them, each a
    dict from unknown position to nonzero coefficient."""
    basis = [mzv(s) for s in compositions(w, first_min=2)]
    column = {p: i for i, p in enumerate(basis)}
    by_weight = {v: [mzv(s) for s in compositions(v, first_min=2)]
                 for v in range(2, w)}
    pairs = [(p, q) for v in range(2, w // 2 + 1)
             for p in by_weight[v] for q in by_weight[w - v]]
    pairs += [(mzv((1,)), q) for q in by_weight[w - 1]]
    rows = []
    for p, q in pairs:
        row = {}
        for term, c in shuffle_expand(p, q) - duffle_expand(p, q):
            if term not in column:
                raise ValueError(f"relation term {term.pretty()} is outside "
                                 f"the admissible basis of weight {w}")
            row[column[term]] = c
        rows.append(row)
    return basis, rows


def rank(rows: list[dict]) -> int:
    """Rank over Q, by insertion into a row echelon form whose rows lead
    with their least column at coefficient 1."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row[col]
                pivots[col] = {k: v / lead for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivot.items():
                left = row.get(k, 0) - factor * v
                if left:
                    row[k] = left
                else:
                    del row[k]
    return len(pivots)


def double_shuffle_quotient(w: int) -> int:
    """Admissible compositions of w minus the rank of their relations."""
    basis, rows = double_shuffle_relations(w)
    return len(basis) - rank(rows)
