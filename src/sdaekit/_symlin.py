"""Small symbolic linear algebra over expression matrices.

Matrices are plain lists of lists of expressions.  Determinants and inverses
use cofactor expansion, which is exact and prunes structural zeros well but
grows factorially; reductions in this package keep the algebraic dimension
small, so that is the right trade.
"""

from __future__ import annotations

from .expr import Constant, Expression, add, div, mul, neg, sub

SymMatrix = list[list[Expression]]
SymVector = list[Expression]


def zeros(rows: int, cols: int) -> SymMatrix:
    return [[Constant(0.0) for _ in range(cols)] for _ in range(rows)]


def matmul(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        for j in range(cols):
            acc: Expression = Constant(0.0)
            for k in range(inner):
                acc = add(acc, mul(a[i][k], b[k][j]))
            out[i][j] = acc
    return out


def matvec(a: SymMatrix, v: SymVector) -> SymVector:
    return [row[0] for row in matmul(a, [[x] for x in v])]


def matsub(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    return [[sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a: SymMatrix, s: Expression) -> SymMatrix:
    return [[mul(s, x) for x in row] for row in a]


def quad_trace(left: SymMatrix, h: SymMatrix, right: SymMatrix) -> Expression:
    """The Ito-trace pattern sum_j sum_k sum_l left[k][j] h[k][l] right[l][j].

    One add chain from 0 in (j, k, l) order, so every caller builds the
    same expression tree for the same sum.
    """
    acc: Expression = Constant(0.0)
    for j in range(len(left[0]) if left else 0):
        for k in range(len(left)):
            for l in range(len(right)):
                acc = add(acc, mul(mul(left[k][j], h[k][l]), right[l][j]))
    return acc


def _minor(a: SymMatrix, i: int, j: int) -> SymMatrix:
    return [[x for cj, x in enumerate(row) if cj != j] for ri, row in enumerate(a) if ri != i]


def det(a: SymMatrix) -> Expression:
    n = len(a)
    if n == 0:
        return Constant(1.0)
    if n == 1:
        return a[0][0]
    if n == 2:
        return sub(mul(a[0][0], a[1][1]), mul(a[0][1], a[1][0]))
    acc: Expression = Constant(0.0)
    for j in range(n):
        term = mul(a[0][j], det(_minor(a, 0, j)))
        acc = add(acc, term) if j % 2 == 0 else sub(acc, term)
    return acc


def inverse(a: SymMatrix) -> SymMatrix:
    """Adjugate inverse; entries carry the determinant in their denominator."""
    n = len(a)
    d = det(a)
    if n == 1:
        return [[div(Constant(1.0), a[0][0])]]
    out = zeros(n, n)
    for i in range(n):
        for j in range(n):
            cof = det(_minor(a, j, i))
            if (i + j) % 2 == 1:
                cof = neg(cof)
            out[i][j] = div(cof, d)
    return out
