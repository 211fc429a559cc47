"""Dense exact linear algebra (internal): one fraction-free elimination core.

Every elimination is fraction-free integer elimination (Bareiss, Math.
Comp. 22, 1968): every intermediate entry is a minor of the input, so each
division by the previous pivot is exact and no rational or field
arithmetic is needed.  Exactness also lets the numpy stacks of the same
elimination (lift's batched facet rows and determinants) divide by
field._divide_exact, which multiplies by a 2-adic inverse in place of a
hardware division.  Determinants, lifted-facet rows, field inverses,
affine interpolation and null spaces over Q(c) all run through
_fraction_free; a matrix over the field enters it as the integer matrix of
its entries' multiplication maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover  (field imports this module)
    from .field import FieldContext, FieldElement


def _fraction_free(m: list[list[int]], n: int, jordan: bool) -> tuple[int, int, list[int]]:
    """Eliminate the first n columns of the integer rows m in place.

    Columns with no nonzero entry left below the current row are skipped.
    Forward elimination by default; with jordan=True the rows above each
    pivot are cleared as well (fraction-free Gauss-Jordan), which leaves
    the last pivot d in every pivot position, so m / d is the reduced row
    echelon form.  Returns (sign of the row permutation, last pivot d,
    pivot columns), with d = 1 when there is no pivot; row r holds the
    pivot of column cols[r].  For a square block of full rank,
    sign * d is its determinant.
    """
    sign, prev, cols = 1, 1, []
    for k in range(n):
        r = len(cols)
        p = next((i for i in range(r, len(m)) if m[i][k]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        pivot_row = m[r]
        pivot = pivot_row[k]
        for i in range(len(m)) if jordan else range(r + 1, len(m)):
            if i != r:
                f = m[i][k]
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = pivot
        cols.append(k)
    return sign, prev, cols


def _integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    m = [list(row) for row in matrix]
    sign, pivot, cols = _fraction_free(m, len(m), False)
    return sign * pivot if len(cols) == len(m) else 0


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
    return context.from_rational(Fraction(_integer_determinant(rows), scale))


def kernel_basis(matrix: Sequence[Sequence[FieldElement]],
                 context: FieldContext) -> list[list[FieldElement]]:
    """Basis of the null space of matrix over the field, one vector per free column.

    The vector of free column f has 1 at f, 0 at the other free columns and
    minus the reduced row echelon entries of column f at the pivot columns.
    Each entry becomes its n x n integer multiplication matrix (times q and
    the lcm of its row's denominators), so that one fraction-free
    Gauss-Jordan pass over the rationals does the field's reduction: a
    column of the field matrix is a pivot exactly when all n of its
    rational columns are, and the rational column of c**0 below a free
    column holds the coefficients of that column's field entries.
    """
    cols = len(matrix[0]) if matrix else 0
    n = context.degree
    big: list[list[int]] = []
    for row in matrix:
        den = math.lcm(*(e.den for e in row))
        blocks = [context.multiplication_matrix([v * (den // e.den) for v in e.num]).tolist()
                  for e in row]
        big.extend([x for block in blocks for x in block[i]] for i in range(n))
    _, d, pivots = _fraction_free(big, cols * n, True)
    row_of = {col: r for r, col in enumerate(pivots)}
    pivot_cols = sorted({col // n for col in pivots})
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        vec = [context.zero] * cols
        vec[f] = context.one
        for p in pivot_cols:
            vec[p] = context.element([Fraction(-big[row_of[p * n + t]][f * n], d)
                                      for t in range(n)])
        basis.append(vec)
    return basis
