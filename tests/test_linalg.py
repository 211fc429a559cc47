from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxcert._linalg import _fraction_free, determinant, kernel_basis
from relaxcert.errors import ValidationError
from relaxcert.field import make_context

CTX1 = make_context(1, 2)


def square_matrices(max_size=6):
    return st.integers(0, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# the fraction-free integer core
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(square_matrices(5), st.integers(0, 3), st.integers(0, 5), st.data())
def test_gauss_jordan_solves_square_systems_like_sympy(matrix, width, doubled, data):
    """On [M | B], Gauss-Jordan leaves [d I | sign * adj(M) B] with sign * d = det(M),
    the solve behind lifted-facet rows; a singular M (often made so by a doubled
    row) leaves a missing pivot."""
    n = len(matrix)
    if n >= 2 and doubled < n:
        matrix[doubled] = [2 * x for x in matrix[(doubled + 1) % n]]
    rhs = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                             min_size=n, max_size=n))
    m = [row + extra for row, extra in zip(matrix, rhs)]
    sign, d, cols = _fraction_free(m, n, jordan=True)
    reference = sympy.Matrix(n, n, [x for row in matrix for x in row])
    if reference.det() == 0:
        assert len(cols) < n
        return
    assert cols == list(range(n)) and sign * d == reference.det()
    assert all(row[:n] == [d * (i == j) for j in range(n)] for i, row in enumerate(m))
    if n and width:
        assert sympy.Matrix([[sign * x for x in row[n:]] for row in m]) == \
            reference.adjugate() * sympy.Matrix(rhs)


def integer_adjugate(matrix):
    """(det(M), adj(M)) of a square integer matrix: Gauss-Jordan on [M | I] leaves
    [d I | sign * adj(M)] with sign * d = det(M); a singular M leaves a missing pivot,
    and its adjugate is taken from signed minors through `determinant`."""
    n = len(matrix)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    sign, d, cols = _fraction_free(m, n, jordan=True)
    if len(cols) == n:
        return sign * d, [[sign * x for x in row[n:]] for row in m]
    assert determinant(matrix, CTX1).is_zero()
    adj = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            minor = [[x for j, x in enumerate(row) if j != r]
                     for i, row in enumerate(matrix) if i != c]
            adj[r][c] = (-1) ** (r + c) * int(determinant(minor, CTX1).as_fraction())
    return 0, adj


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_integer_adjugate_matches_sympy(matrix):
    n = len(matrix)
    det, adj = integer_adjugate(matrix)
    reference = sympy.Matrix(n, n, [x for row in matrix for x in row])
    assert det == reference.det()
    if n:
        assert sympy.Matrix(adj) == reference.adjugate()


@settings(max_examples=50, deadline=None)
@given(square_matrices(5), st.integers(0, 4))
def test_integer_adjugate_of_singular_matrices(matrix, row):
    n = len(matrix)
    if n < 2:
        return
    matrix[row % n] = [2 * x for x in matrix[(row + 1) % n]]
    _, _, cols = _fraction_free([list(r) for r in matrix], n, jordan=True)
    assert len(cols) < n
    det, adj = integer_adjugate(matrix)
    assert det == 0
    assert sympy.Matrix(adj) == sympy.Matrix(matrix).adjugate()


def test_gauss_jordan_tracks_row_swaps():
    matrix = [[0, 2, 1], [1, 0, 0], [3, 1, 0]]
    m = [row + [int(i == j) for j in range(3)] for i, row in enumerate(matrix)]
    sign, d, _ = _fraction_free(m, 3, jordan=True)
    det, adj = sign * d, [[sign * x for x in row[3:]] for row in m]
    assert det == sympy.Matrix(matrix).det() == 1 and sign == -1
    product = [[sum(matrix[i][t] * adj[t][j] for t in range(3)) for j in range(3)]
               for i in range(3)]
    assert product == [[det * (i == j) for j in range(3)] for i in range(3)]


@st.composite
def integer_matrices(draw):
    """Non-square integer matrices, many of them rank-deficient (a product B C of low rank)."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.integers(-4, 4)
    if draw(st.booleans()):
        rank = draw(st.integers(0, min(rows, cols)))
        b = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                          min_size=rows, max_size=rows))
        c = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=rank, max_size=rank))
        return [[sum(b[i][t] * c[t][j] for t in range(rank)) for j in range(cols)]
                for i in range(rows)]
    return draw(st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]),
                                  min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_fraction_free_rank_and_null_space_match_sympy(matrix):
    """Skipping zero columns, both passes find sympy's pivots; Gauss-Jordan its null space."""
    cols = len(matrix[0])
    reference = sympy.Matrix(matrix)
    rref, ref_pivots = reference.rref()
    _, _, forward = _fraction_free([list(r) for r in matrix], cols, jordan=False)
    assert forward == list(ref_pivots)
    m = [list(r) for r in matrix]
    _, d, pivots = _fraction_free(m, cols, jordan=True)
    assert pivots == list(ref_pivots)
    # every division was exact: m / d is the reduced row echelon form
    assert sympy.Matrix(m) / d == rref
    null = []
    for f in range(cols):
        if f not in pivots:
            vec = [Fraction(int(f == j)) for j in range(cols)]
            for r, p in enumerate(pivots):
                vec[p] = Fraction(-m[r][f], d)
            null.append(vec)
    assert null == [[Fraction(str(x)) for x in v] for v in reference.nullspace()]


# ---------------------------------------------------------------------------
# determinant over field elements
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=7),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_of_rational_entries_matches_sympy(rows):
    for degree in (1, 2):
        ctx = make_context(degree, 2)
        matrix = [[ctx.from_rational(v) for v in row] for row in rows]
        det = determinant(matrix, ctx)
        assert det.context is ctx
        assert det.as_fraction() == Fraction(str(sympy.Matrix(rows).det()))


def test_determinant_accepts_integer_entries():
    assert determinant([[2, 1], [7, 4]], CTX1).as_fraction() == 1
    assert determinant([], CTX1) == CTX1.one
    assert determinant([[1, 2], [2, 4]], CTX1).is_zero()


def test_determinant_rejects_irrational_entry():
    ctx = make_context(2, 2)
    matrix = [[ctx.one, ctx.zero], [ctx.zero, ctx.root_power(1)]]
    with pytest.raises(ValidationError):
        determinant(matrix, ctx)


# ---------------------------------------------------------------------------
# null spaces over the field
# ---------------------------------------------------------------------------

def field_matrix(ctx, rows):
    return [[ctx.from_rational(v) for v in row] for row in rows]


def test_kernel_basis_of_rational_matrix():
    ctx = make_context(2, 2)
    matrix = field_matrix(ctx, [[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    basis = kernel_basis(matrix, ctx)
    assert [[v.as_fraction() for v in vec] for vec in basis] == [[-2, 1, 0]]


def test_kernel_basis_with_irrational_pivot():
    ctx = make_context(2, 2)
    c = ctx.root_power(1)
    assert kernel_basis([[c, ctx.one]], ctx) == [[-c.inverse(), ctx.one]]


def _reference_rref(m, cols):
    """Reduced row echelon form over the field with pivots scaled to one (the
    field-division reduction kernel_basis used before it ran on integers)."""
    rows = len(m)
    pivots = []
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


def _reference_kernel_basis(matrix, context):
    cols = len(matrix[0]) if matrix else 0
    m = [list(r) for r in matrix]
    pivots = _reference_rref(m, cols)
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


@st.composite
def field_matrices(draw):
    """Field matrices at degrees 1, 2, 3 and 5 with rational and irrational entries,
    often with a row that is a field combination of the others."""
    degree, radicand = draw(st.sampled_from([(1, 2), (2, 2), (3, Fraction(3, 2)), (5, 2)]))
    ctx = make_context(degree, radicand)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    zero = st.just(Fraction(0))
    entry = st.one_of(
        st.just(ctx.zero),
        rational.map(ctx.from_rational),
        st.lists(st.one_of(zero, rational), min_size=degree, max_size=degree).map(ctx.element))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        factors = draw(st.lists(entry, min_size=rows - 1, max_size=rows - 1))
        matrix[-1] = [sum((f * r[j] for f, r in zip(factors, matrix)), ctx.zero)
                      for j in range(cols)]
    return ctx, matrix


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_kernel_basis_equals_field_reduction(case):
    ctx, matrix = case
    assert kernel_basis(matrix, ctx) == _reference_kernel_basis(matrix, ctx)
