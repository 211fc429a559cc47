"""Dense exact linear algebra (internal): integer cofactors, fraction-free elimination.

Determinants and adjugates are computed by fraction-free integer
elimination (Bareiss, Math. Comp. 22, 1968): every intermediate entry is a
minor of the input, so each division by the previous pivot is exact and no
rational or field arithmetic is needed.  Solving and null spaces over
FieldElement matrices share one reduced-row-echelon routine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover  (field imports this module)
    from .field import FieldContext, FieldElement


def _fraction_free(m: list[list[int]], n: int, jordan: bool) -> tuple[int, int]:
    """Eliminate the first n columns of the integer rows m in place.

    Forward elimination by default; with jordan=True the rows above each
    pivot are cleared as well (fraction-free Gauss-Jordan).  Returns
    (sign of the row permutation, last pivot), whose product is the
    determinant of the leading n x n block; the pivot is 0 when that block
    is singular, and m is then left part-way reduced.
    """
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return sign, 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(len(m)) if jordan else range(k + 1, len(m)):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = pivot
    return sign, prev


def integer_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det(M), adj(M)) of a square integer matrix, so that M . adj(M) = det(M) I.

    Fraction-free Gauss-Jordan on [M | I] leaves [d I | E] with E . M = d I
    and d = +-det(M); a singular M falls back to signed minors.
    """
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    sign, pivot = _fraction_free(m, n, True)
    if pivot:
        return sign * pivot, [[sign * x for x in row[n:]] for row in m]
    adj = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = [[x for j, x in enumerate(row) if j != r]
                     for i, row in enumerate(matrix) if i != c]
            s, p = _fraction_free(minor, n - 1, False)
            adj[r][c] = (-1) ** (r + c) * s * p
    return 0, adj


def determinant(matrix: Sequence[Sequence[FieldElement | int]],
                context: FieldContext) -> FieldElement:
    """Exact determinant of a matrix of rational field elements (or ints).

    Each row is scaled to integers by the lcm of its denominators, and the
    integer determinant is divided by the product of those scales.  Raises
    ValidationError on an irrational entry.
    """
    rows, scale = [], 1
    for row in matrix:
        values = [x if type(x) is int else x.as_fraction() for x in row]
        den = math.lcm(*(v.denominator for v in values))
        rows.append([v.numerator * (den // v.denominator) for v in values])
        scale *= den
    sign, pivot = _fraction_free(rows, len(rows), False)
    return context.from_rational(Fraction(sign * pivot, scale))


def _rref(m: list[list[FieldElement]], cols: int) -> list[tuple[int, int]]:
    """Bring the rows of m in place to reduced row echelon form on the first cols columns.

    Returns the (row, column) pivot positions; pivots are scaled to one.
    """
    rows = len(m)
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(cols):
        if row == rows:
            break
        pivot_row = next((r for r in range(row, rows) if not m[r][col].is_zero()), None)
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = m[row][col].inverse()
        m[row] = [v * inv for v in m[row]]
        for r in range(rows):
            if r != row and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append((row, col))
        row += 1
    return pivots


def solve(matrix: Sequence[Sequence[FieldElement]],
          rhs: Sequence[FieldElement],
          context: FieldContext) -> list[FieldElement] | None:
    """One exact solution of matrix . x = rhs (free variables set to zero).

    Returns None when the system is inconsistent.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivots = _rref(aug, cols)
    if any(not aug[r][cols].is_zero() for r in range(len(pivots), rows)):
        return None
    solution = [context.zero] * cols
    for r, c in pivots:
        solution[c] = aug[r][cols]
    return solution


def kernel_basis(matrix: Sequence[Sequence[FieldElement]],
                 context: FieldContext) -> list[list[FieldElement]]:
    """Basis of the null space of matrix over the field."""
    cols = len(matrix[0]) if matrix else 0
    m = [list(r) for r in matrix]
    pivots = _rref(m, cols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        vec = [context.zero] * cols
        vec[f] = context.one
        for r, p in pivots:
            vec[p] = -m[r][f]
        basis.append(vec)
    return basis
