from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxcert._linalg import determinant, integer_adjugate, kernel_basis, solve
from relaxcert.errors import ValidationError
from relaxcert.field import make_context

CTX1 = make_context(1, 2)


def square_matrices(max_size=6):
    return st.integers(0, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


# ---------------------------------------------------------------------------
# the fraction-free integer core
# ---------------------------------------------------------------------------

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
    det, adj = integer_adjugate(matrix)
    assert det == 0
    assert sympy.Matrix(adj) == sympy.Matrix(matrix).adjugate()


def test_integer_adjugate_inverts_with_row_swaps():
    matrix = [[0, 2, 1], [1, 0, 0], [3, 1, 0]]
    det, adj = integer_adjugate(matrix)
    assert det == sympy.Matrix(matrix).det() == 1
    product = [[sum(matrix[i][t] * adj[t][j] for t in range(3)) for j in range(3)]
               for i in range(3)]
    assert product == [[det * (i == j) for j in range(3)] for i in range(3)]


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
# the shared row reduction
# ---------------------------------------------------------------------------

def field_matrix(ctx, rows):
    return [[ctx.from_rational(v) for v in row] for row in rows]


def test_solve_and_kernel_share_one_reduction():
    ctx = make_context(2, 2)
    matrix = field_matrix(ctx, [[1, 2, 3], [2, 4, 7], [0, 0, 1]])
    rhs = field_matrix(ctx, [[1, 3, 1]])[0]
    solution = solve(matrix, rhs, ctx)
    assert [v.as_fraction() for v in solution] == [-2, 0, 1]
    basis = kernel_basis(matrix, ctx)
    assert [[v.as_fraction() for v in vec] for vec in basis] == [[-2, 1, 0]]
    assert solve(matrix, field_matrix(ctx, [[1, 3, 2]])[0], ctx) is None


def test_solve_with_irrational_pivot():
    ctx = make_context(2, 2)
    c = ctx.root_power(1)
    solution = solve([[c, ctx.one]], [ctx.one], ctx)
    assert solution[0] * c == ctx.one and solution[1].is_zero()
    assert kernel_basis([[c, ctx.one]], ctx) == [[-c.inverse(), ctx.one]]
