import concurrent.futures
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxcert import poly
from relaxcert.construct import (composed_simplex_relaxation, pipeline_run,
                                 projected_simplex_relaxation, simplex5_relaxation)
from relaxcert.errors import ResourceLimitError, ValidationError
from relaxcert.field import FieldContext, FieldElement, make_context
from relaxcert.poly import Box, LinearSystem, PointSet, Row, VarBounds

CTX2 = make_context(2, 2)
CTX1 = make_context(1, 2)


def system_from(rows, num_vars, ctx=CTX2):
    return LinearSystem.from_rows(ctx, rows, num_vars)


def sqrt2():
    return CTX2.element((0, 1))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_contains_five_row_system_tight_sets():
    P = projected_simplex_relaxation(Fraction(1, 8))
    m = P.contains((1, 0, 1, 1))
    assert m.inside and set(m.tight_rows) == {0, 1, 2, 4}
    m = P.contains((0, 0, 0, 0))
    assert m.inside and set(m.tight_rows) == {0, 1, 3}
    m = P.contains((0, 1, 1, 1))
    assert not m.inside and 2 in m.violated_rows


def test_contains_dimension_mismatch():
    P = projected_simplex_relaxation()
    with pytest.raises(ValidationError):
        P.contains((0, 0, 0))


def test_contains_accepts_field_coordinates():
    P = projected_simplex_relaxation(Fraction(1, 8))
    minus_inv = CTX2.element((0, Fraction(-1, 2)))
    m = P.contains((0, 1, 1, minus_inv))
    assert m.inside and set(m.tight_rows) >= {2, 3}


_ORACLE_FIELDS = tuple(make_context(n, r) for n, r in
                       ((1, 2), (2, 2), (2, Fraction(3, 2)), (5, 2), (5, Fraction(3, 2))))


def _elements(ctx):
    """Zero, small integers and full elements of ctx, so that zero products are common."""
    full = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                    min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    return st.one_of(st.just(ctx.zero), st.integers(-2, 2).map(ctx.from_rational), full)


@st.composite
def _membership_cases(draw):
    """A system and a point mixing int, Fraction and field coordinates.

    Each row's rhs is its value at the point plus 0, +-1 or a random element,
    so tight, strictly satisfied and violated rows all occur.
    """
    ctx = draw(st.sampled_from(_ORACLE_FIELDS))
    num_vars = draw(st.integers(0, 3))
    coordinate = st.one_of(st.integers(-3, 3),
                           st.fractions(min_value=-3, max_value=3, max_denominator=4),
                           _elements(ctx))
    point = tuple(draw(st.lists(coordinate, min_size=num_vars, max_size=num_vars)))
    at = [ctx.coerce(x) for x in point]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(_elements(ctx), min_size=num_vars, max_size=num_vars))
        value = sum((c * x for c, x in zip(coeffs, at)), ctx.zero)
        rows.append((coeffs, value + draw(st.one_of(st.sampled_from((0, 1, -1)),
                                                    _elements(ctx)))))
    return LinearSystem.from_rows(ctx, rows, num_vars), point


def _row_slack_membership(system, point):
    """Membership by the per-row slack loop over a point coerced into the field."""
    p = tuple(system.context.coerce(x) for x in point)
    tight, violated = [], []
    for i, row in enumerate(system.rows):
        total = row.rhs
        for c, x in zip(row.coeffs, p):
            if not c.is_zero() and not x.is_zero():
                total = total - c * x
        s = total.sign()
        if s < 0:
            violated.append(i)
        elif s == 0:
            tight.append(i)
    return poly.Membership(not violated, tuple(tight), tuple(violated))


@settings(max_examples=120, deadline=None)
@given(case=_membership_cases())
def test_contains_matches_row_slack_reference(case):
    """The pull-back to a point gives the same inside, tight and violated rows."""
    system, point = case
    assert system.contains(point) == _row_slack_membership(system, point)


_BATCH_FIELDS = _ORACLE_FIELDS + (make_context(27, 2),)
_BIG = 1 << 40  # numerators of 2**40 and more send _evaluate down the Python-integer path


def _scaled(elements):
    """Elements as drawn, or times 2**40."""
    return st.one_of(elements, elements.map(lambda e: e * _BIG))


@st.composite
def _batch_cases(draw):
    """A system and a batch of points: int and Fraction coordinates, the last one
    possibly a field element, and numerators that are small or at least 2**40.

    Each row's rhs is its value at the first point plus 0, +-1 or a random
    element, so tight, strictly satisfied and violated rows all occur.
    """
    ctx = draw(st.sampled_from(_BATCH_FIELDS))
    num_vars = draw(st.integers(1, 3))
    rational = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda v: v * _BIG),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))
    last = st.one_of(rational, _scaled(_elements(ctx)))
    point = st.tuples(*[rational] * (num_vars - 1), last)
    points = draw(st.lists(point, min_size=1, max_size=4))
    at = [ctx.coerce(x) for x in points[0]]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(_scaled(_elements(ctx)), min_size=num_vars, max_size=num_vars))
        value = sum((c * x for c, x in zip(coeffs, at)), ctx.zero)
        rows.append((coeffs, value + draw(st.one_of(st.sampled_from((0, 1, -1)),
                                                    _elements(ctx)))))
    return LinearSystem.from_rows(ctx, rows, num_vars), points


@settings(max_examples=80, deadline=None)
@given(case=_batch_cases())
def test_memberships_match_row_slack_reference(case):
    """One batched call gives every point's tight and violated rows in its sign row."""
    system, points = case
    signs = system.memberships(points)
    assert len(signs) == len(points)
    for s, p in zip(signs, points):
        expected = _row_slack_membership(system, p)
        assert tuple(np.flatnonzero(s == 0)) == expected.tight_rows
        assert tuple(np.flatnonzero(s < 0)) == expected.violated_rows


def test_memberships_are_one_int64_sign_matrix():
    """Entry [i, r] is the sign of row r's slack at point i: -1, 0 or +1."""
    P = projected_simplex_relaxation(Fraction(1, 8))
    points = [(0, 0, 0, 0), (1, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 1)]
    signs = P.memberships(points)
    assert signs.dtype == np.int64 and signs.shape == (len(points), P.num_rows)
    assert signs.tolist() == [[0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 0, -1],
                              [-1, -1, 1, 1, 1]]


def test_memberships_of_an_empty_batch_and_a_wrong_length_point():
    P = projected_simplex_relaxation(Fraction(1, 8))
    empty = P.memberships([])
    assert empty.shape == (0, P.num_rows) and empty.dtype == np.int64
    with pytest.raises(ValidationError):
        P.memberships([(0, 0, 0, 0), (0, 0, 0)])


@pytest.mark.parametrize("chunk", [1 << 9, 1 << 11])
def test_memberships_and_fibers_sign_at_most_chunk_integers_per_call(chunk):
    """The k = 3 bundle (12 rows at degree 5) at all 128 points of {0, 1}^7, and
    its mixed system's fibers at the 8 cube points, chunked and in one chunk."""
    run = pipeline_run(3, certify=False)
    system, mixed = run.bundle.system, run.mixed_system
    points = list(itertools.product((0, 1), repeat=7))
    cube = list(itertools.product((0, 1), repeat=3))
    kernel, largest = FieldContext.signs_of_int_vectors, []

    def recording(context, w):
        largest.append(w.size)
        return kernel(context, w)

    with mock.patch.object(FieldContext, "signs_of_int_vectors", recording):
        whole = system.memberships(points)
        assert largest == [system.num_rows * len(points) * 5]
        fibers = mixed.fiber_bounds(cube)
        with mock.patch.object(poly, "_CHUNK", chunk):
            largest.clear()
            assert np.array_equal(system.memberships(points), whole)
            assert mixed.fiber_bounds(cube) == fibers
    assert len(largest) > 2 and max(largest) <= chunk
    assert fibers == [mixed.restrict_to_subspace(dict(enumerate(p))).coordinate_bounds(0)
                      for p in cube]


# ---------------------------------------------------------------------------
# fibers of the last variable
# ---------------------------------------------------------------------------

_FIBER_FIELDS = tuple(make_context(n, r) for n in (1, 2, 5, 27) for r in (2, Fraction(3, 2)))


@st.composite
def _fiber_cases(draw):
    """A system in (x, y) and integer points x: rows bound y at a drawn height t
    of the first point up to 0 (ties), +-1 (crossing bounds) or a drawn element,
    with rational or irrational y coefficients, some zero (lateral rows, which
    may go negative), some repeated times a positive rational (ties of equal rows),
    and one side possibly missing."""
    ctx = draw(st.sampled_from(_FIBER_FIELDS))
    k = draw(st.integers(0, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), min_size=1, max_size=4))
    height = draw(_elements(ctx))
    at = [ctx.from_rational(x) for x in points[0]] + [height]
    rational = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).map(
        ctx.from_rational)
    sides = draw(st.sampled_from(((-1, 0, 1), (0, 1), (-1, 0))))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(_scaled(_elements(ctx)), min_size=k, max_size=k))
        last = draw(st.one_of(st.just(ctx.zero), rational, _elements(ctx)))
        if last.sign() not in sides:
            last = -last
        coeffs.append(last)
        value = sum((c * x for c, x in zip(coeffs, at)), ctx.zero)
        rows.append((coeffs, value + draw(st.one_of(st.sampled_from((0, 0, 1, -1)),
                                                    _elements(ctx)))))
        if draw(st.booleans()):
            scale = draw(st.fractions(Fraction(1, 3), 3))
            rows.append(([c * scale for c in coeffs], rows[-1][1] * scale))
    return LinearSystem.from_rows(ctx, rows, k + 1), points


# The per-row reference: how fiber_bounds chose each side's best bound before its
# tournament, one row at a time against the best so far.

def _per_row_best(ctx, side, nums, dens):
    """The best of nums[r] / dens[r] at each point, least for side 1 and greatest for -1:
    each row meets the best so far in one kernel call and replaces it only where it
    is strictly better, so the earlier row stays on a tie."""
    best, bests = nums[0].copy(), dens[0].copy()
    for num, den in zip(nums[1:], dens[1:]):
        better = ctx.signs_of_int_vectors(num * bests[:, None] - best * den[:, None]) * side < 0
        best[better], bests[better] = num[better], den[better]
    return best, bests


def _per_row_fiber_bounds(system, points):
    """fiber_bounds with its sides reduced by _per_row_best, all points in one chunk."""
    ctx, n, q = system.context, system.context.degree, system.context.radicand.denominator
    inverses = [c.inverse() if c else c for c in (row.coeffs[-1] for row in system.rows)]
    sides = [row.coeffs[-1].sign() for row in system.rows]
    factors = [v.num[0] if v.is_rational() else ctx.multiplication_matrix(v.num).T
               for v in inverses]
    scales = [v.den * (1 if v.is_rational() else q) for v in inverses]
    values, rhs, dens = system._evaluate([(*p, 0) for p in points])
    slack = (rhs[:, None] - values).astype(object)
    dens = [d * s for d, s in zip(dens, scales)]
    bad = np.zeros(len(points), dtype=bool)
    stacks = {}  # side -> (numerators, denominators) of each of its rows' bounds
    for side, factor, den, w in zip(sides, factors, dens, slack):
        if not side:
            bad |= ctx.signs_of_int_vectors(w) < 0
            continue
        num = w @ factor.astype(object) if np.ndim(factor) else w * factor
        nums, ds = stacks.setdefault(side, ([], []))
        nums.append(num)
        ds.append(np.full(len(points), den, dtype=object))
    best = {side: _per_row_best(ctx, side, nums, ds) for side, (nums, ds) in stacks.items()}
    if len(best) == 2:
        (low, lows), (up, ups) = best[-1], best[1]
        bad |= ctx.signs_of_int_vectors(up * lows[:, None] - low * ups[:, None]) < 0
    found = {side: [poly._reduced(ctx, tuple(v), d) for v, d in zip(num.tolist(), den.tolist())]
             for side, (num, den) in best.items()}
    return [VarBounds(None, None, infeasible=True) if b else VarBounds(
        *(found[side][i] if side in found else None for side in (-1, 1)))
        for i, b in enumerate(bad.tolist())]


@settings(max_examples=150, deadline=None)
@given(case=_fiber_cases(), one_point_per_chunk=st.booleans())
# the inverse of a rational y coefficient has a numerator of at least 2^63
@example(case=(LinearSystem.from_rows(CTX1, [((0, 1), 0), ((0, Fraction(
    10383904580616851441, 18446744073709551618)), 0)], 2), [(0,)]), one_point_per_chunk=False)
def test_fiber_bounds_match_restriction_reference(case, one_point_per_chunk):
    # and the tournament matches the per-row loop on rational and irrational y
    # coefficients, rows repeated times a positive rational (equal bounds), crossing
    # bounds and failing lateral rows (infeasible fibers), in one chunk or one a point
    system, points = case
    with pytest.MonkeyPatch.context() as patch:
        if one_point_per_chunk:
            patch.setattr(poly, "_CHUNK", 1)
        bounds = system.fiber_bounds(points)
    assert bounds == _per_row_fiber_bounds(system, points) == [
        system.restrict_to_subspace(dict(enumerate(p))).coordinate_bounds(0) for p in points]


def test_fiber_bounds_cases():
    # y <= x0 + 1, y >= 2 x0 - sqrt2 x1, y <= 3 + sqrt2 y (y >= -3 / (sqrt2 - 1)), x1 <= 1
    s = sqrt2()
    system = system_from([((-1, 0, 1), 1), ((2, -s, -1), 0), ((0, 0, 1 - s), 3),
                          ((0, 1, 0), 1)], 3)
    points = [(0, 0), (1, 0), (2, 0), (0, 2), (-3, 1)]
    bounds = system.fiber_bounds(points)
    assert bounds == [system.restrict_to_subspace({0: a, 1: b}).coordinate_bounds(0)
                      for a, b in points]
    lowest = CTX2.from_rational(-3) / (s - 1)
    assert bounds[0] == poly.VarBounds(CTX2.zero, CTX2.one)
    assert bounds[1] == poly.VarBounds(CTX2.from_rational(2), CTX2.from_rational(2))  # a point
    assert bounds[2].infeasible  # crossing bounds: 4 <= y <= 3
    assert bounds[3].infeasible  # the lateral row x1 <= 1 fails
    assert bounds[4] == poly.VarBounds(lowest, CTX2.from_rational(-2))
    # one side missing
    upper_only = system_from([((-1, 0, 1), 1), ((0, 1, 0), 1)], 3)
    assert upper_only.fiber_bounds([(0, 0)]) == [poly.VarBounds(None, CTX2.one)]
    assert system_from([], 3).fiber_bounds([(0, 0)]) == [poly.VarBounds(None, None)]
    assert system.fiber_bounds([]) == []
    with pytest.raises(ValidationError):
        system.fiber_bounds([(0, 0, 0)])


@st.composite
def _bound_stacks(draw):
    """A side and stacked bounds nums[r] / dens[r] at a few points, where some rows
    repeat an earlier row times a positive integer (equal bounds, other numerators)."""
    ctx = draw(st.sampled_from(_FIBER_FIELDS))
    size, points = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    entry = st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70)
    nums, dens = [], []
    for _ in range(size):
        if nums and draw(st.booleans()):
            r, scale = draw(st.integers(0, len(nums) - 1)), draw(st.integers(1, 3))
            nums.append([[x * scale for x in v] for v in nums[r]])
            dens.append([d * scale for d in dens[r]])
            continue
        nums.append(draw(st.lists(st.lists(entry, min_size=ctx.degree, max_size=ctx.degree),
                                  min_size=points, max_size=points)))
        dens.append(draw(st.lists(st.integers(1, 4), min_size=points, max_size=points)))
    dtype = draw(st.sampled_from((np.int64, object)))
    if dtype is np.int64 and any(abs(x) > 1 << 20 for m in nums for v in m for x in v):
        dtype = object
    return ctx, draw(st.sampled_from((-1, 1))), np.array(nums, dtype=dtype).reshape(
        size, points, ctx.degree), np.array(dens, dtype=dtype)


@settings(max_examples=150, deadline=None)
@given(case=_bound_stacks())
def test_best_bounds_tournament_keeps_the_per_row_choice(case):
    # not just the same bound: the same row's numerators, the earlier row on a tie
    ctx, side, nums, dens = case
    best, bests = poly._best_bounds(ctx, side, nums, dens)
    expected, expecteds = _per_row_best(ctx, side, nums, dens)
    assert best.tolist() == expected.tolist() and bests.tolist() == expecteds.tolist()


def test_fiber_tournament_takes_about_log2_rows_kernel_calls_per_side(monkeypatch):
    # the k = 4 mixed system (8 box rows, 6 upper and 6 lower facet rows), all 16 cube
    # points in one chunk: one call for the rows' sides, one for the lateral rows,
    # ceil(log2 6) = 3 rounds per side and one comparison of the sides
    run = pipeline_run(4, certify=False)
    kernel, calls = FieldContext.signs_of_int_vectors, []
    monkeypatch.setattr(FieldContext, "signs_of_int_vectors",
                        lambda self, w: calls.append(w.shape) or kernel(self, w))
    cube = list(itertools.product((0, 1), repeat=4))
    bounds = run.mixed_system.fiber_bounds(cube)
    assert len(calls) == 1 + 1 + 2 * 3 + 1 and calls[0] == (20, 12)  # 20 rows at degree 12
    assert all(b.bounded and b.lower == b.upper == run.perturbed(p) for p, b in zip(cube, bounds))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

# The field-element reference: what eliminate_variable, coordinate_bounds and
# restrict_to_subspace computed one element at a time before the integer kernel.

def _normalize_row(coeffs, rhs):
    """(coeffs, rhs) scaled to the primitive integer coefficient vector, or None.

    The one positive scale is the lcm of the coefficient denominators over
    the gcd of every coefficient numerator, so rows that are positive
    rational multiples of each other get equal coefficient vectors.
    Returns None for constant rows 0 <= nonnegative; keeps infeasible
    constant rows so infeasibility is reported, never hidden.
    """
    if all(c.is_zero() for c in coeffs):
        return None if rhs.sign() >= 0 else (coeffs, rhs)
    den = math.lcm(*(c.den for c in coeffs))
    g = math.gcd(*(v for c in coeffs for v in c.num))
    if den == 1 and g == 1:
        return coeffs, rhs
    ctx = rhs.context
    return (tuple(FieldElement(ctx, tuple(v * (den // c.den) // g for v in c.num), 1)
                  for c in coeffs), rhs * Fraction(den, g))


def _infeasible(rows) -> bool:
    """True when some (coeffs, rhs, ...) row reads 0 . x <= negative."""
    return any(all(c.is_zero() for c in coeffs) and rhs.sign() < 0
               for coeffs, rhs, *_ in rows)


def _cleanup_tracked(rows):
    """Normalize, drop vacuous rows, and deduplicate equal coefficient vectors.

    Of rows with equal coefficient vectors the one with the least rhs stays,
    at the place of the first.
    """
    best = {}
    for coeffs, rhs, history in rows:
        norm = _normalize_row(coeffs, rhs)
        if norm is None:
            continue
        coeffs, rhs = norm
        kept = best.get(coeffs)
        if kept is not None:
            cmp = (rhs - kept[1]).sign()
            if cmp > 0 or (cmp == 0 and len(history) >= len(kept[2])):
                continue
        best[coeffs] = (coeffs, rhs, history)
    return list(best.values())


def _eliminate_tracked(rows, j, level):
    """One Fourier-Motzkin step on history-tracked (coeffs, rhs, history) rows.

    A combined row whose history holds more than level+1 original rows is
    redundant for the projection after `level` eliminations and is
    dropped; the remaining rows describe the projection exactly.
    """
    uppers, lowers, carried = [], [], []
    for row in rows:
        coeffs, rhs, history = row
        s = coeffs[j].sign()
        if s > 0:
            uppers.append(row)
        elif s < 0:
            lowers.append(row)
        else:
            carried.append((coeffs[:j] + coeffs[j + 1:], rhs, history))
    combined = []
    for uc, ur, uh in uppers:
        for lc, lr, lh in lowers:
            history = uh | lh
            if len(history) > level + 1:
                continue
            # (-l_j) u + u_j l: both multipliers are positive and x_j cancels
            a, b = -lc[j], uc[j]
            coeffs = tuple(x * a + y * b for x, y in zip(uc[:j] + uc[j + 1:],
                                                         lc[:j] + lc[j + 1:]))
            combined.append((coeffs, ur * a + lr * b, history))
    return _cleanup_tracked(carried + combined)


def _tracked_rows(system):
    return [(row.coeffs, row.rhs, frozenset((i,))) for i, row in enumerate(system.rows)]


def _field_eliminate(system, j):
    """eliminate_variable on field elements."""
    rows = _eliminate_tracked(_tracked_rows(system), j, level=1)
    return tuple(Row(c, r) for c, r, _ in rows)


def _field_coordinate_bounds(system, j):
    """coordinate_bounds on field elements."""
    tracked = _tracked_rows(system)
    remaining, target, level = system.num_vars, j, 1
    while remaining > 1:
        if _infeasible(tracked):
            return VarBounds(None, None, infeasible=True)
        best, best_cost = None, None
        for v in range(remaining):
            if v == target:
                continue
            pos = sum(1 for c, _, _ in tracked if c[v].sign() > 0)
            neg = sum(1 for c, _, _ in tracked if c[v].sign() < 0)
            cost = pos * neg - pos - neg
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        tracked = _eliminate_tracked(tracked, best, level)
        level += 1
        remaining -= 1
        if best < target:
            target -= 1
    if _infeasible(tracked):
        return VarBounds(None, None, infeasible=True)
    lower = upper = None
    for coeffs, rhs, _ in tracked:
        c = coeffs[0]
        s = c.sign()
        if s > 0 and (upper is None or (rhs - c * upper).sign() < 0):
            upper = rhs / c
        elif s < 0 and (lower is None or (rhs - c * lower).sign() < 0):
            lower = rhs / c
    if lower is not None and upper is not None and (upper - lower).sign() < 0:
        return VarBounds(None, None, infeasible=True)
    return VarBounds(lower, upper)


def _field_restrict(system, fixed):
    """restrict_to_subspace on field elements."""
    keep = [i for i in range(system.num_vars) if i not in fixed]
    rows = []
    for row in system.rows:
        rhs = row.rhs
        for idx, value in fixed.items():
            c = row.coeffs[idx]
            if not c.is_zero() and value:
                rhs = rhs - c * value
        rows.append((tuple(row.coeffs[i] for i in keep), rhs, frozenset()))
    return tuple(Row(c, r) for c, r, _ in _cleanup_tracked(rows))


def _rebuilt(system):
    """A copy of system whose _integer_rows are built afresh from its rows."""
    return LinearSystem(system.context, system.num_vars, system.rows, system.names)


def _same_integer_rows(system):
    """The system's (seeded) _integer_rows equal a rebuild: arrays, dtype, dens and top."""
    (a, b, dens, top), (a2, b2, dens2, top2) = system._integer_rows, _rebuilt(system)._integer_rows
    return (a.dtype == a2.dtype and b.dtype == b2.dtype and a.shape == a2.shape
            and b.shape == b2.shape and (a == a2).all() and (b == b2).all()
            and dens == dens2 and top == top2)


_FM_FIELDS = tuple(make_context(n, r) for n, r in
                   ((1, 2), (2, 2), (2, Fraction(3, 2)), (5, 2), (5, Fraction(3, 2))))


@st.composite
def _fm_cases(draw):
    """(system, j, fixed): rows with duplicate, positively scaled, dominated and
    dominating copies, vacuous and infeasible constant rows, and rows scaled by
    2**50 to 2**62, which take the kernel from int64 to Python integers; column
    j is rational or not.  Four variables let coordinate_bounds drop pairs by
    their history at level 2 and 3."""
    ctx = draw(st.sampled_from(_FM_FIELDS))
    num_vars = draw(st.integers(1, 4))
    j = draw(st.integers(0, num_vars - 1))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    rational_pivot = draw(st.booleans())

    def element(rational=False):
        size = 1 if rational else ctx.degree
        return ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * (rng.random() < 0.7)
                            for _ in range(size)])
    rows = [([element(rational_pivot and v == j) for v in range(num_vars)], element())
            for _ in range(draw(st.integers(1, 9)))]
    for _ in range(draw(st.integers(0, 5))):
        coeffs, rhs = rows[rng.randrange(len(rows))]
        kind = rng.randrange(5)
        if kind == 0:
            row = coeffs, rhs
        elif kind == 1:
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            row = [c * scale for c in coeffs], rhs * scale
        elif kind == 2:
            row = coeffs, rhs + rng.choice((-2, -1, Fraction(1, 3), 1)) * rng.choice((1, element()))
        elif kind == 3:
            row = [ctx.zero] * num_vars, element()
        else:
            scale = rng.randint(1 << 50, 1 << 62)
            row = [c * scale for c in coeffs], rhs * scale
        rows.insert(rng.randrange(len(rows) + 1), row)
    fixed = {v: rng.randint(-3, 3) for v in range(num_vars) if rng.random() < 0.5}
    return LinearSystem.from_rows(ctx, rows, num_vars), j, fixed


# two rows on each side of x0 and x1 in three variables: eliminating x1 then x2
# for coordinate_bounds(0) drops the level-2 pairs whose four rows are disjoint
_CHERNIKOV = system_from([((1, 1, 1), 4), ((1, 1, -1), 3), ((-1, -1, 2), 1), ((-1, -1, -2), 1),
                          ((1, -1, 1), 2), ((-1, 1, 1), 2), ((0, 1, -1), sqrt2()),
                          ((0, -1, 1), 1)], 3)
_HUGE = system_from([((1 << 61, CTX2.element((3, 1 << 60))), 1 << 62),
                     ((-(1 << 60), 1), CTX2.element((1, -(1 << 61)))),
                     ((-1, -(1 << 61)), 5), ((0, 0), -3), ((0, 0), 7)], 2)


@settings(max_examples=150, deadline=None)
@given(case=_fm_cases())
@example(case=(_CHERNIKOV, 1, {0: 1}))
@example(case=(_HUGE, 0, {1: -2}))
@example(case=(projected_simplex_relaxation(Fraction(1, 8)), 3, {0: 1, 2: 1}))
def test_eliminate_variable_matches_field_reference(case):
    """The integer kernel returns the reference's rows, in its order, and seeds the
    projection's _integer_rows as a rebuild would build them."""
    system, j, _ = case
    projected = system.eliminate_variable(j)
    assert projected.rows == _field_eliminate(system, j)
    assert _same_integer_rows(projected)


@settings(max_examples=150, deadline=None)
@given(case=_fm_cases())
@example(case=(_CHERNIKOV, 0, {}))
@example(case=(_HUGE, 0, {}))
@example(case=(_HUGE, 1, {}))
def test_coordinate_bounds_matches_field_reference(case):
    system, j, _ = case
    assert system.coordinate_bounds(j) == _field_coordinate_bounds(system, j)


@settings(max_examples=100, deadline=None)
@given(case=_fm_cases())
@example(case=(_CHERNIKOV, 2, {}))
@example(case=(_HUGE, 1, {}))
def test_box_bounds_match_the_field_reference_on_every_coordinate(case):
    """One grouped call over every coordinate, and j once more, equals the reference
    chain of each: irrational pivots, history drops and Python-integer rows included."""
    system, j, _ = case
    coordinates = [*range(system.num_vars), j]
    assert system.box_bounds(coordinates) == [
        _field_coordinate_bounds(system, i) for i in coordinates]


def test_box_bounds_keep_each_chains_verdict():
    """Unbounded, bounded, half-bounded and repeated coordinates in one call.  As
    infeasibility is the whole system's, an infeasible system's chains all find it,
    here at different points: the chain of x1 at the constant row 0 <= -1 after one
    step, the chain of x0 only when its lower bound 1 passes its upper bound 0."""
    s = sqrt2()
    feasible = system_from([((1, 0, 0), 1), ((-1, 0, 0), 0), ((-1, s, 0), 2)], 3)
    coordinates = [2, 0, 1, 0]
    bounds = feasible.box_bounds(coordinates)
    assert bounds == [_field_coordinate_bounds(feasible, j) for j in coordinates]
    assert [(b.lower, b.upper) for b in bounds] == [
        (None, None), (CTX2.zero, CTX2.one), (None, CTX2.from_rational(3) / s),
        (CTX2.zero, CTX2.one)]
    infeasible = system_from([((1, 0), 0), ((-1, 0), -1), ((0, 1), 3)], 2)
    assert infeasible.box_bounds([0, 1]) == [
        _field_coordinate_bounds(infeasible, j) for j in (0, 1)] == [
        VarBounds(None, None, infeasible=True)] * 2
    assert feasible.box_bounds([]) == []
    with pytest.raises(ValidationError):
        feasible.box_bounds([0, 3])


@settings(max_examples=150, deadline=None)
@given(case=_fm_cases())
@example(case=(_HUGE, 0, {0: 3, 1: -1}))
def test_restrict_to_subspace_matches_field_reference(case):
    system, _, fixed = case
    restricted = system.restrict_to_subspace(fixed)
    assert restricted.rows == _field_restrict(system, fixed)
    assert _same_integer_rows(restricted)


@pytest.mark.parametrize("rows, drops", [
    # one row duplicated; the second step drops pairs by the history rule
    ([((2, -2, 0, -2), 2), ((1, 1, 1, -1), -1), ((1, -2, 1, 1), 3), ((-2, 1, 0, -1), 3),
      ((-2, 0, -2, -2), -1), ((2, -2, 1, -1), 2), ((1, 1, 1, -1), -1)], True),
    # a later row of equal rhs and shorter history replaces an earlier one
    ([((0, 1, 1, 1), 1), ((1, 1, 0, 1), 2), ((0, -1, 1, 0), 2), ((0, 1, 0, 0), 1),
      ((0, 1, 1, 0), 0), ((-1, -1, -1, -1), 0), ((1, 0, 1, 0), 0)], False)])
def test_kernel_keeps_the_reference_rows_and_histories_step_by_step(rows, drops):
    """Eliminating x0 twice from four variables, the kernel keeps the reference's rows
    with the same histories: ties, the history-length tie-break and the pairs the
    history rule drops all match."""
    system = system_from(rows, 4)
    w, e, history = poly._tracked(system)
    tracked = _tracked_rows(system)
    for level in (1, 2):
        w, e, history, _ = poly._eliminate(CTX2, w, e, history, 0, level,
                                           CTX2.signs_of_int_vectors(w[:, 0]),
                                           np.zeros(len(w), dtype=np.int64))
        tracked = _eliminate_tracked(tracked, 0, level)
        eliminated = poly._lazy(CTX2, w.shape[1] - 1, w[:, :-1], w[:, -1], e.tolist())
        assert eliminated.rows == tuple(Row(c, r) for c, r, _ in tracked)
        assert [frozenset(np.flatnonzero(h).tolist()) for h in history] == [
            h for _, _, h in tracked]
    weaker = _eliminate_tracked(_eliminate_tracked(_tracked_rows(system), 0, 1), 0, 3)
    assert (len(tracked) < len(weaker)) == drops


_BENCH_EPS = ("1/8", "1/9", "1/10", "1/12", "1/16", "1/32", "1/64", "1/100",
              "1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "3/16", "5/32", "2/9")


@pytest.mark.parametrize("eps", _BENCH_EPS)
def test_dim5_fourier_motzkin_matches_field_reference(eps):
    system = projected_simplex_relaxation(eps)
    projection = system.eliminate_variable(3)
    assert projection.rows == _field_eliminate(system, 3)
    for j in range(3):
        assert projection.coordinate_bounds(j) == _field_coordinate_bounds(projection, j)
    for j in range(4):
        assert system.coordinate_bounds(j) == _field_coordinate_bounds(system, j)
    # and one grouped call for all coordinates, as certify_mixed makes it
    for s in (projection, system):
        assert s.box_bounds(list(range(s.num_vars))) == [
            _field_coordinate_bounds(s, j) for j in range(s.num_vars)]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_pipeline_elimination_matches_field_reference(k):
    mixed = pipeline_run(k, certify=False).mixed_system
    projection = mixed.eliminate_variable(k)
    assert projection.rows == _field_eliminate(mixed, k)
    assert _same_integer_rows(projection)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_pipeline_box_bounds_match_field_reference(k):
    mixed = pipeline_run(k, certify=False).mixed_system
    for system in (mixed.eliminate_variable(k), mixed):
        coordinates = list(range(system.num_vars))
        assert system.box_bounds(coordinates) == [
            _field_coordinate_bounds(system, j) for j in coordinates]


def test_projection_builds_only_the_rows_it_reads(monkeypatch):
    """eliminate_variable reduces no field element until rows are read, and its
    single-variable rows, the k = 3 pipeline's box, are built alone, equal to the
    reference's, without building the projection's other rows or reducing a zero."""
    from relaxcert import field
    mixed = pipeline_run(3, certify=False).mixed_system
    reference = _field_eliminate(mixed, 3)
    reduced, calls = field._reduced, []
    monkeypatch.setattr(poly, "_reduced", lambda *args: calls.append(args) or reduced(*args))
    projection = mixed.eliminate_variable(3)
    assert projection.num_rows == len(reference) and calls == []
    single = projection.single_variable_rows()
    assert single.num_vars == 3 and calls == []
    assert single.rows == tuple(r for r in reference if sum(map(bool, r.coeffs)) == 1)
    # one reduction per nonzero entry; every zero entry is the context's one zero
    entries = [v for row in single.rows for v in (*row.coeffs, row.rhs)]
    assert len(calls) == sum(map(bool, entries)) < 4 * len(reference)
    assert all(v is mixed.context.zero for v in entries if not v)
    assert "rows" not in vars(projection)
    ctx = mixed.context
    assert [(b.lower, b.upper) for b in single.propagated_bounds()] == [(ctx.zero, ctx.one)] * 3


def test_eliminate_pair_example():
    # x4 <= x1 and x4 >= -x3/sqrt2 combine into -x1 - x3/sqrt2 <= 0
    S = system_from([
        ((-1, 0, 0, 1), 0),
        ((0, 0, -1, CTX2.element((0, -1))), 0),
    ], 4)
    result = S.eliminate_variable(3)
    assert result.num_vars == 3
    assert result.num_rows == 1
    row = result.rows[0]
    # a positive multiple of (-1, 0, -sqrt2/2) . x <= 0 ...
    expected = (CTX2.from_rational(-1), CTX2.zero, CTX2.element((0, Fraction(-1, 2))))
    scale = row.coeffs[0] / expected[0]
    assert scale.sign() > 0
    assert row.coeffs == tuple(scale * e for e in expected)
    assert row.rhs == CTX2.zero
    # ... in primitive form: integer numerators without a common factor
    assert all(c.den == 1 for c in row.coeffs)
    assert math.gcd(*(v for c in row.coeffs for v in c.num)) == 1


def test_eliminate_five_row_system_gives_six_facets():
    P = projected_simplex_relaxation(Fraction(1, 8))
    projection = P.eliminate_variable(3)
    assert projection.num_rows == 6


def test_eliminate_absent_variable_keeps_rows():
    S = system_from([((1, 0), 1), ((0, -1), 0)], 2)
    result = S.eliminate_variable(1)
    assert result.num_rows == 1  # the second row only bounded x2
    assert result.rows[0].coeffs[0] == 1

    S = system_from([((1, 0, 0), 1), ((-1, 0, 0), 0)], 3)
    result = S.eliminate_variable(2)
    assert result.num_rows == 2


def test_eliminate_projection_soundness_random():
    # a lattice point satisfies the eliminated system exactly when its fiber
    # in the original system is nonempty over the reals
    rng = random.Random(5)
    for _ in range(25):
        num_vars = rng.randint(2, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(num_vars))
            rows.append((coeffs, Fraction(rng.randint(-2, 6))))
        S = system_from(rows, num_vars, CTX1)
        j = rng.randrange(num_vars)
        projected = S.eliminate_variable(j)
        small_box = Box.uniform(-3, 3, num_vars - 1)
        proj_points = set(projected.enumerate_lattice_points(small_box))
        import itertools
        for q in itertools.product(range(-3, 4), repeat=num_vars - 1):
            fixed = {}
            pos = 0
            for v in range(num_vars):
                if v != j:
                    fixed[v] = q[pos]
                    pos += 1
            fiber = S.restrict_to_subspace(fixed)
            bounds = fiber.coordinate_bounds(0)
            feasible = not bounds.infeasible
            assert feasible == (q in proj_points), (rows, j, q)
        # drops of full lattice points are always inside the projection
        drops = {p[:j] + p[j + 1:]
                 for p in S.enumerate_lattice_points(Box.uniform(-3, 3, num_vars))}
        assert drops <= proj_points


# ---------------------------------------------------------------------------
# coordinate bounds (fibers)
# ---------------------------------------------------------------------------

def test_fiber_intervals_of_five_row_system():
    P = projected_simplex_relaxation(Fraction(1, 8))
    minus_inv_sqrt2 = CTX2.element((0, Fraction(-1, 2)))
    cases = [
        ((0, 1, 1), minus_inv_sqrt2),
        ((1, 0, 1), CTX2.one),
        ((0, 0, 0), CTX2.zero),
    ]
    for base, expected in cases:
        fiber = P.restrict_to_subspace({0: base[0], 1: base[1], 2: base[2]})
        bounds = fiber.coordinate_bounds(0)
        assert bounds.bounded
        assert bounds.lower == expected
        assert bounds.upper == expected


def test_coordinate_bounds_unbounded_and_infeasible():
    S = system_from([((1, 0), 1)], 2)
    bounds = S.coordinate_bounds(0)
    assert bounds.lower is None and bounds.upper == 1
    infeasible = system_from([((1,), -1), ((-1,), 0)], 1)
    assert infeasible.coordinate_bounds(0).infeasible


def test_coordinate_bounds_through_elimination():
    # x1 + x2 <= 3, x1 - x2 <= 1, -x1 <= 0, -x2 <= 0: x1 ranges over [0, 2]
    S = system_from([((1, 1), 3), ((1, -1), 1), ((-1, 0), 0), ((0, -1), 0)], 2)
    bounds = S.coordinate_bounds(0)
    assert bounds.lower == 0 and bounds.upper == 2


def test_coordinate_bounds_keep_the_tightest_rows():
    # x >= 0, x >= 2, x >= sqrt2, x <= 5, x <= 2 sqrt2, x <= 4: the best rows sit mid-list
    S = system_from([((-1,), 0), ((-1,), -2), ((-2,), CTX2.element((0, -2))),
                     ((1,), 5), ((2,), CTX2.element((0, 4))), ((1,), 4)], 1)
    bounds = S.coordinate_bounds(0)
    assert bounds.lower == 2 and bounds.upper == CTX2.element((0, 2))


@pytest.mark.parametrize("rows, num_vars, lower, upper", [
    # an irrational last pivot: sqrt2 x0 <= 3 after x1 goes, so x0 <= 3 / sqrt2
    ([((sqrt2(), 1), 3), ((0, -1), 0), ((-1, 0), 1)], 2, -1, CTX2.element((0, Fraction(3, 2)))),
    # tied bounds on each side, from rows of different scale, one of them irrational
    ([((1,), 2), ((2,), 4), ((sqrt2(),), CTX2.element((0, 2))), ((-1,), -1), ((-3,), -3)],
     1, 1, 2),
    # lower = upper = sqrt2 is one point, not empty
    ([((1,), sqrt2()), ((-1,), -sqrt2())], 1, sqrt2(), sqrt2()),
    # lower > upper: x0 <= 1 after x1 goes, and x0 >= sqrt2
    ([((1, 1), 1), ((0, -1), 0), ((-1, 0), -sqrt2())], 2, None, None)])
def test_coordinate_bounds_read_the_last_variable_exactly(rows, num_vars, lower, upper):
    system = system_from(rows, num_vars)
    bounds = system.coordinate_bounds(0)
    assert bounds == _field_coordinate_bounds(system, 0)
    assert bounds.infeasible == (lower is None)
    if lower is not None:
        assert (bounds.lower, bounds.upper) == (lower, upper)


def test_propagated_bounds_sound():
    S = system_from([((1, 0), 1), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 1)], 2)
    bounds = S.propagated_bounds()
    assert bounds[0].lower == 0 and bounds[0].upper == 1
    assert bounds[1].lower == -1 and bounds[1].upper == 2


def _dividing_propagated_bounds(system, max_rounds=8):
    """Reference propagation: divide out every candidate bound, then compare."""
    lower = [None] * system.num_vars
    upper = [None] * system.num_vars
    for _ in range(max_rounds):
        changed = False
        for row in system.rows:
            support = [v for v, c in enumerate(row.coeffs) if c.sign()]
            for v in support:
                residual = row.rhs
                for u in support:
                    if u != v:
                        bound = lower[u] if row.coeffs[u].sign() > 0 else upper[u]
                        if bound is None:
                            break
                        residual = residual - row.coeffs[u] * bound
                else:
                    candidate = residual / row.coeffs[v]
                    if row.coeffs[v].sign() > 0:
                        if upper[v] is None or candidate < upper[v]:
                            upper[v], changed = candidate, True
                    elif lower[v] is None or candidate > lower[v]:
                        lower[v], changed = candidate, True
        if not changed:
            break
    return [(lo, hi) for lo, hi in zip(lower, upper)]


@st.composite
def _propagation_cases(draw):
    ctx = make_context(draw(st.sampled_from((1, 2, 5))),
                       draw(st.sampled_from((2, Fraction(3, 2)))))
    num_vars = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 1 << 32)))

    def element():
        # coefficients of both signs, a third of them zero
        return ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * (rng.random() < 0.7)
                            for _ in range(ctx.degree)])
    rows = [([element() for _ in range(num_vars)], element())
            for _ in range(draw(st.integers(1, 8)))]
    return LinearSystem.from_rows(ctx, rows, num_vars)


@settings(max_examples=150, deadline=None)
@given(system=_propagation_cases())
@example(system=system_from([((1, 1), 3), ((-1, 0), 0), ((0, -1), 0),
                             ((sqrt2(), -1), 1), ((-1, sqrt2()), 2)], 2))
def test_propagated_bounds_match_dividing_reference(system):
    """Deciding each update by one sign gives the bounds of divide-then-compare."""
    bounds = system.propagated_bounds()
    assert [(b.lower, b.upper) for b in bounds] == _dividing_propagated_bounds(system)


def _pivot_normalized(rows):
    """{coeffs: least rhs} over the rows scaled so their first nonzero coefficient
    is +-1; a constant row is dropped when vacuous and reads 0 <= -1 otherwise."""
    best = {}
    for coeffs, rhs in rows:
        pivot = next((c for c in coeffs if not c.is_zero()), None)
        if pivot is None and rhs.sign() >= 0:
            continue
        pivot = -rhs if pivot is None else pivot
        scale = (pivot if pivot.sign() > 0 else -pivot).inverse()
        coeffs, rhs = tuple(c * scale for c in coeffs), rhs * scale
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    return best


def _reference_eliminate(system, j):
    """Fourier-Motzkin step that first scales every row to x_j coefficient +-1."""
    uppers, lowers, rows = [], [], []
    for row in system.rows:
        c = row.coeffs[j]
        rest = row.coeffs[:j] + row.coeffs[j + 1:]
        if c.is_zero():
            rows.append((rest, row.rhs))
            continue
        inv = (c if c.sign() > 0 else -c).inverse()
        scaled = (tuple(x * inv for x in rest), row.rhs * inv)
        (uppers if c.sign() > 0 else lowers).append(scaled)
    for uc, ur in uppers:
        for lc, lr in lowers:
            rows.append((tuple(a + b for a, b in zip(uc, lc)), ur + lr))
    return _pivot_normalized(rows)


@settings(max_examples=150, deadline=None)
@given(system=_propagation_cases(), j=st.integers(0, 2))
def test_eliminate_variable_matches_pivot_normalizing_reference(system, j):
    """Division-free combination and primitive rows project onto the same rows."""
    j %= system.num_vars
    projected = system.eliminate_variable(j)
    assert (_pivot_normalized((row.coeffs, row.rhs) for row in projected.rows)
            == _reference_eliminate(system, j))


# ---------------------------------------------------------------------------
# lattice point enumeration
# ---------------------------------------------------------------------------

def test_enumerate_projection_of_five_row_system():
    P = projected_simplex_relaxation(Fraction(1, 8))
    projection = P.eliminate_variable(3)
    points = projection.enumerate_lattice_points(Box.uniform(-1, 2, 3))
    assert set(points) == {(0, 0, 0), (1, 0, 0), (0, 1, 0),
                           (0, 0, 1), (1, 0, 1), (0, 1, 1)}


def test_enumerate_empty_system_and_infeasible():
    empty = system_from([], 2)
    assert len(empty.enumerate_lattice_points(Box.uniform(0, 1, 2))) == 4
    infeasible = system_from([((1, 0), -1), ((-1, 0), 0)], 2)
    assert infeasible.enumerate_lattice_points(Box.uniform(-4, 4, 2)) == []


def test_enumerate_cap():
    empty = system_from([], 3)
    with pytest.raises(ResourceLimitError) as info:
        empty.enumerate_lattice_points(Box.uniform(0, 99, 3), cap=10 ** 5)
    assert info.value.required == 10 ** 6


def test_enumerate_refuses_a_cap_below_one():
    empty = system_from([], 1)
    for cap in (0, -1):
        with pytest.raises(ValidationError, match="cap must be at least 1"):
            empty.enumerate_lattice_points(Box.uniform(0, 0, 1), cap=cap)
    assert empty.enumerate_lattice_points(Box.uniform(0, 0, 1), cap=1) == [(0,)]


def test_enumerate_matches_naive_filter():
    # independent oracle: evaluate a + b*sqrt2 <= r via integer comparisons,
    # entirely outside the library's sign machinery
    def naive_sign(a: Fraction, b: Fraction) -> int:
        # sign of a + b*sqrt2
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        if a > 0:  # b < 0
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    rng = random.Random(13)
    for _ in range(20):
        num_vars = rng.randint(1, 3)
        raw_rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-2, 2), 2))
                      for _ in range(num_vars)]
            rhs = (Fraction(rng.randint(-4, 6)), Fraction(rng.randint(-2, 2)))
            raw_rows.append((coeffs, rhs))
        S = system_from(
            [(tuple(CTX2.element(c) for c in coeffs), CTX2.element(rhs))
             for coeffs, rhs in raw_rows], num_vars)
        box = Box.uniform(-2, 2, num_vars)
        fast = set(S.enumerate_lattice_points(box))
        slow = set()
        import itertools
        for point in itertools.product(range(-2, 3), repeat=num_vars):
            ok = True
            for coeffs, rhs in raw_rows:
                a = rhs[0] - sum(c[0] * x for c, x in zip(coeffs, point))
                b = rhs[1] - sum(c[1] * x for c, x in zip(coeffs, point))
                if naive_sign(a, b) < 0:
                    ok = False
                    break
            if ok:
                slow.add(point)
        assert fast == slow


def test_enumerate_lex_order_and_degree_five():
    ctx5 = make_context(5, 2)
    c = ctx5.root_power(1)
    S = LinearSystem.from_rows(ctx5, [((c, ctx5.one), ctx5.from_rational(2))], 2)
    points = S.enumerate_lattice_points(Box.uniform(-1, 1, 2))
    assert points == sorted(points)
    # c ~ 1.1487: c*x + y <= 2 keeps (1, 0) but drops (1, 1)
    assert (1, 0) in points and (1, 1) not in points


# rows on the trailing coordinates only: the search fixes x3, x2, x0 in its first
# step, then x1; x0 and x1 are in no row
_TRAILING = (LinearSystem.from_rows(CTX2, [((0, 0, 1, CTX2.element((0, 1))), 1),
                                           ((0, 0, 0, -1), 1)], 4), Box.uniform(-2, 2, 4))
# one row over uneven widths: the search fixes x1, x3, x0 in its first step, then x2
_UNEVEN = (LinearSystem.from_rows(CTX2, [((1, CTX2.element((0, 1)), -1, 2), 3)], 4),
           Box(((-3, 3), (0, 1), (-3, 3), (-1, 1))))


def _supports(d, *rows):
    """An integer row array (rows x d x 1) with the given coordinate supports."""
    a = np.zeros((len(rows), d, 1), dtype=np.int64)
    for r, support in enumerate(rows):
        a[r, list(support), 0] = 1
    return a


def test_search_order_rule():
    wide = Box(((0, 1), (0, 1), (0, 1), (-9, 9)))
    # completion first: x3 completes its row at once, though its range is widest
    assert poly._search_order(_supports(4, {0, 1, 2}, {3}), wide) == [3, 0, 1, 2]
    # then the narrower range: x2 before x1, which is in more rows
    narrow_last = Box(((0, 3), (0, 3), (0, 1)))
    assert poly._search_order(_supports(3, {0, 1}, {0, 1}, {1, 2}), narrow_last) == [2, 1, 0]
    # then more rows, then the lower index
    cube = Box.uniform(0, 1, 3)
    assert poly._search_order(_supports(3, {0, 1}, {0, 1}, {1, 2}), cube) == [1, 0, 2]
    assert poly._search_order(_supports(3, {0, 1, 2}), cube) == [0, 1, 2]
    # a coordinate in no row comes last, even the narrowest
    assert poly._search_order(_supports(3, {1, 2}), Box(((0, 0), (0, 3), (0, 3)))) == [1, 2, 0]
    # no rows: by width, then index; d = 0
    assert poly._search_order(_supports(3), Box(((0, 3), (0, 1), (0, 1)))) == [1, 2, 0]
    assert poly._search_order(_supports(0), Box(())) == []
    # the oracle examples below search in a non-identity order
    for (system, box), order in ((_TRAILING, [3, 2, 0, 1]), (_UNEVEN, [1, 3, 0, 2])):
        assert poly._search_order(system._integer_rows[0], box) == order


def test_enumerate_zero_dimensions():
    assert LinearSystem(CTX2, 0, ()).enumerate_lattice_points(Box(())) == [()]
    assert system_from([((), 1)], 0).enumerate_lattice_points(Box(())) == [()]
    assert system_from([((), -1)], 0).enumerate_lattice_points(Box(())) == []


@pytest.mark.parametrize("chunk", (1 << 11, 1 << 13, poly._CHUNK))
def test_enumerate_last_step_signs_at_most_chunk_entries(chunk):
    """The k = 5 projection (131 rows at degree 27) is signed in stacks of at most _CHUNK."""
    run = pipeline_run(5, certify=False)
    projection = run.mixed_system.eliminate_variable(5)
    kernel, largest = FieldContext.signs_of_int_vectors, []

    def recording(context, w):
        largest.append(w.size)
        return kernel(context, w)

    with mock.patch.object(poly, "_CHUNK", chunk), \
            mock.patch.object(FieldContext, "signs_of_int_vectors", recording):
        points = projection.enumerate_lattice_points(Box.uniform(0, 1, 5))
    assert points == list(itertools.product((0, 1), repeat=5))
    assert 0 < max(largest) <= chunk


def test_enumerate_searches_in_int64_unless_the_headroom_passes_it():
    """The dtype of every stack the enumerator signs: int64 on the windows, Python
    integers past the int64 headroom."""
    big = LinearSystem.from_rows(CTX2, [((CTX2.element((1 << 61, 3)), 1, -1), 5),
                                        ((-1, CTX2.element((0, -(1 << 59))), 1), 2)], 3)
    # rational rows with a rhs of 2^26: the scalar bound passes 2^62, the exact one does not
    wide = LinearSystem.from_rows(CTX2, [((1, 0, 0), 1 << 26), ((0, -1, 1), 1 << 26)], 3)
    cases = [(simplex5_relaxation().system, Box.uniform(-2, 3, 5), "int64"),
             (composed_simplex_relaxation(11).system, Box.uniform(-1, 2, 11), "int64"),
             (composed_simplex_relaxation(13).system, Box.uniform(-1, 2, 13), "int64"),
             (pipeline_run(3).bundle.system, Box.uniform(-1, 2, 7), "int64"),
             (big, Box.uniform(-2, 2, 3), "object"), (wide, Box.uniform(-3, 3, 3), "int64")]
    kernel = FieldContext.signs_of_int_vectors
    for system, box, dtype in cases:
        seen = []

        def recording(context, w):
            seen.append(w.dtype)
            return kernel(context, w)

        with mock.patch.object(FieldContext, "signs_of_int_vectors", recording):
            points = system.enumerate_lattice_points(box)
        assert points and seen and {str(t) for t in seen} == {dtype}


def test_enumerate_parallel_matches_serial(monkeypatch):
    # two real workers even on a one-CPU host
    monkeypatch.setattr(poly.os, "cpu_count", lambda: 2)
    # degree 2 (dim-5 block), degree 5 (k = 3 pipeline window), and the searches
    # that split x3 and x1
    for system, box in ((simplex5_relaxation().system, Box.uniform(-2, 3, 5)),
                        (pipeline_run(3).bundle.system, Box.uniform(-1, 2, 7)),
                        _TRAILING, _UNEVEN):
        serial = system.enumerate_lattice_points(box)
        assert system.enumerate_lattice_points(box, jobs=2) == serial


def test_enumerate_jobs_clamped_and_validated(monkeypatch):
    seen = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(poly.os, "cpu_count", lambda: 3)
    system = simplex5_relaxation().system
    box = Box.uniform(-2, 3, 5)
    serial = system.enumerate_lattice_points(box)
    assert system.enumerate_lattice_points(box, jobs=10 ** 6) == serial
    assert seen == [3]
    # the split never makes more parts than the first searched coordinate (x0) has values
    assert system.enumerate_lattice_points(Box(((0, 1),) + ((-2, 3),) * 4), jobs=3) \
        == [p for p in serial if p[0] in (0, 1)]
    assert seen == [3, 2]
    for jobs in (0, -1):
        with pytest.raises(ValidationError):
            system.enumerate_lattice_points(box, jobs=jobs)


def _convergent(ctx, min_den):
    """A continued-fraction convergent p/q of c with q >= min_den."""
    lo = Fraction(ctx.power_brackets(128)[1], 1 << 128)
    h0, h1, k0, k1 = 0, 1, 1, 0
    x = lo
    while k1 < min_den:
        a = x.__floor__()
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        x = 1 / (x - a)
    return h1, k1


@st.composite
def _oracle_cases(draw):
    ctx = make_context(draw(st.sampled_from((1, 2, 3, 5))),
                       draw(st.sampled_from((2, 3, Fraction(3, 2), 5))))
    num_vars = draw(st.integers(0, 3))
    bound = 1 << 40 if draw(st.booleans()) and ctx.degree > 1 else 4
    number = st.fractions(min_value=-bound, max_value=bound, max_denominator=3)
    element = st.lists(number, min_size=ctx.degree, max_size=ctx.degree).map(ctx.element)
    rows = draw(st.lists(st.tuples(st.lists(element, min_size=num_vars, max_size=num_vars),
                                   element), max_size=4))
    if ctx.degree > 1 and num_vars and draw(st.booleans()):
        # (q c - p) x_j <= 0 with |q c - p| < 1/q: its 32-bit bracket cannot decide
        p, q = _convergent(ctx, 1 << 18)
        j = draw(st.integers(0, num_vars - 1))
        coeffs = [ctx.zero] * num_vars
        coeffs[j] = ctx.element((-p, q)) * draw(st.sampled_from((1, -1)))
        rows.append((coeffs, ctx.zero))
    ranges = [sorted(draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
              for _ in range(num_vars)]
    return LinearSystem.from_rows(ctx, rows, num_vars), Box(tuple(map(tuple, ranges)))


_P, _Q = _convergent(CTX2, 1 << 18)
_NEAR_TWO = make_context(2, Fraction((1 << 40) + 1, 1 << 38))


@settings(max_examples=150, deadline=None)
@given(case=_oracle_cases(), chunk=st.sampled_from((1, 2, 3, 5, poly._CHUNK)))
# no rows at all
@example(case=(LinearSystem(make_context(5, 2), 2, ()), Box(((-1, 1), (0, 2)))),
         chunk=poly._CHUNK)
# one prefix's children in slices when they alone exceed _CHUNK, the last one narrower
@example(case=(LinearSystem.from_rows(CTX1, [((1,), 3)], 1), Box(((-4, 6),))), chunk=4)
@example(case=(LinearSystem.from_rows(CTX2, [((1, CTX2.element((-_P, _Q))), 0),
                                             ((CTX2.element((1, 1)), -1), 2)], 2),
               Box(((-3, 3), (-5, 9)))), chunk=4)
@example(case=(LinearSystem.from_rows(CTX2, [((1, CTX2.element((0, 1)), -1), 3)], 3),
               Box(((0, 1), (-6, 6), (0, 1)))), chunk=4)
# coefficients beyond the int64 headroom, also on a box that reaches only 0
@example(case=(LinearSystem.from_rows(CTX2, [((CTX2.element((1 << 61, 3)), 1), 5),
                                             ((-1, CTX2.element((0, -(1 << 59)))), 2)], 2),
               Box.uniform(-3, 3, 2)), chunk=poly._CHUNK)
@example(case=(LinearSystem.from_rows(CTX2, [((CTX2.element((0, 1 << 40)),), 0)], 1),
               Box(((0, 0),))), chunk=poly._CHUNK)
# (q sqrt2 - p) x <= 0 with |q sqrt2 - p| < 1/q: only the exact sign decides it
@example(case=(LinearSystem.from_rows(CTX2, [((CTX2.element((-_P, _Q)),), 0)], 1),
               Box(((-2, 2),))), chunk=poly._CHUNK)
# ... also past a first step of two coordinates: the points (1, *, x3) with
# (q sqrt2 - p) x3 < 0 are kept by the exact sign alone
@example(case=(LinearSystem.from_rows(CTX2, [((1, 0, CTX2.element((-_P, _Q))), 1)], 3),
               Box(((0, 1), (-20, 20), (-2, 2)))), chunk=poly._CHUNK)
# c = sqrt(4 + 2^-38) lies within 2^-39 of 2: at x = 1 the bracket of 2 - c x (dropped)
# and of c x - 2 (kept) has centre 0 and err 1, so only the exact sign decides
@example(case=(LinearSystem.from_rows(_NEAR_TWO, [((_NEAR_TWO.root_power(1),), 2)], 1),
               Box(((-1, 1),))), chunk=poly._CHUNK)
@example(case=(LinearSystem.from_rows(_NEAR_TWO, [((-_NEAR_TWO.root_power(1),), -2)], 1),
               Box(((-1, 1),))), chunk=poly._CHUNK)
# the first step fixes x1 alone, and x1 + sqrt2 x3 <= -9/2 - 3 sqrt2 prunes every prefix
@example(case=(LinearSystem.from_rows(CTX2, [((1, 0, CTX2.element((0, 1))),
                                              CTX2.element((Fraction(-9, 2), -3)))], 3),
               Box(((-3, 3), (-20, 20), (-3, 3)))), chunk=poly._CHUNK)
# searched in a non-identity order, the first step fixing three coordinates
@example(case=_TRAILING, chunk=poly._CHUNK)
@example(case=_UNEVEN, chunk=poly._CHUNK)
@example(case=_UNEVEN, chunk=3)
# Python integers (dtype object), one prefix at a time
@example(case=(LinearSystem.from_rows(CTX2, [((CTX2.element((1 << 61, 3)), 1, -1), 5),
                                             ((-1, CTX2.element((0, -(1 << 59))), 1), 2)], 3),
               Box.uniform(-2, 2, 3)), chunk=1)
def test_enumerate_matches_membership_oracle(case, chunk):
    """Enumeration equals a per-point FieldElement.sign filter over the box."""
    system, box = case
    expected = [p for p in itertools.product(*(range(lo, hi + 1) for lo, hi in box.bounds))
                if system.contains(p).inside]
    with mock.patch.object(poly, "_CHUNK", chunk):
        assert system.enumerate_lattice_points(box) == expected


# ---------------------------------------------------------------------------
# affine substitution
# ---------------------------------------------------------------------------

def test_substitute_identity():
    P = projected_simplex_relaxation()
    identity = [[CTX2.one if i == j else CTX2.zero for j in range(4)] for i in range(4)]
    assert P.substitute_affine(identity).rows == P.rows


def test_substitute_projection_pullback_row():
    P = projected_simplex_relaxation(Fraction(1, 8))
    matrix = [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, CTX2.element((0, Fraction(-1, 2)))),
    ]
    pulled = P.substitute_affine(matrix)
    assert pulled.num_rows == 5 and pulled.num_vars == 5
    # first row reads x4 - x5/sqrt2 <= x1
    row = pulled.rows[0]
    assert row.coeffs[0] == -1
    assert row.coeffs[3] == 1
    assert row.coeffs[4] == CTX2.element((0, Fraction(-1, 2)))


def test_substitute_shear():
    # pull y <= 3 back under (x, y) -> (x, y + f(x)) with f(x) = -x1
    S = system_from([((0, 1), 3)], 2)
    shear = [(1, 0), (-1, 1)]
    result = S.substitute_affine(shear)
    row = result.rows[0]
    assert row.coeffs[0] == -1 and row.coeffs[1] == 1 and row.rhs == 3


def test_substitute_membership_commutes():
    rng = random.Random(23)
    P = projected_simplex_relaxation()
    matrix = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)) for _ in range(4)]
    shift = tuple(Fraction(rng.randint(-1, 1)) for _ in range(4))
    pulled = P.substitute_affine(matrix, shift)
    for _ in range(40):
        z = tuple(rng.randint(-2, 2) for _ in range(3))
        image = tuple(
            sum(matrix[i][j] * z[j] for j in range(3)) + shift[i] for i in range(4))
        assert pulled.contains(z).inside == P.contains(
            tuple(CTX2.from_rational(v) for v in image)).inside


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_substitute_affine_int_entries_match_field_entries(data):
    """int matrix and shift entries pull back to the rows their field elements give."""
    ctx = data.draw(st.sampled_from(_ORACLE_FIELDS))
    num_vars, new_dim = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    element = _elements(ctx)
    rows = data.draw(st.lists(st.tuples(st.lists(element, min_size=num_vars,
                                                 max_size=num_vars), element), max_size=4))
    system = LinearSystem.from_rows(ctx, rows, num_vars)
    ints = st.integers(-3, 3)
    matrix = data.draw(st.lists(st.lists(ints, min_size=new_dim, max_size=new_dim),
                                min_size=num_vars, max_size=num_vars))
    shift = data.draw(st.none() | st.lists(ints, min_size=num_vars, max_size=num_vars))
    field_matrix = [[ctx.from_rational(v) for v in row] for row in matrix]
    field_shift = None if shift is None else [ctx.from_rational(v) for v in shift]
    assert (system.substitute_affine(matrix, shift)
            == system.substitute_affine(field_matrix, field_shift))


def _field_substitute(system, matrix, shift):
    """The pull-back by per-entry field arithmetic: every product a FieldElement product."""
    ctx = system.context
    mat = [[ctx.coerce(v) for v in row] for row in matrix]
    new_dim = len(mat[0]) if mat else 0
    new_rows = []
    for row in system.rows:
        coeffs = []
        for col in range(new_dim):
            acc = ctx.zero
            for a, mrow in zip(row.coeffs, mat):
                acc = acc + a * mrow[col]
            coeffs.append(acc)
        rhs = row.rhs
        for a, v in zip(row.coeffs, shift):
            rhs = rhs - a * ctx.coerce(v)
        new_rows.append(poly.Row(tuple(coeffs), rhs))
    return LinearSystem(ctx, new_dim, tuple(new_rows))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_affine_matches_field_reference(data):
    """int, Fraction and field entries, small or of 2**40 and more, pull back exactly."""
    ctx = data.draw(st.sampled_from(_BATCH_FIELDS))
    num_vars, new_dim = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    element = _scaled(_elements(ctx))
    rows = data.draw(st.lists(st.tuples(st.lists(element, min_size=num_vars,
                                                 max_size=num_vars), element), max_size=4))
    system = LinearSystem.from_rows(ctx, rows, num_vars)
    entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(lambda v: v * _BIG),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4), element)
    matrix = data.draw(st.lists(st.lists(entry, min_size=new_dim, max_size=new_dim),
                                min_size=num_vars, max_size=num_vars))
    shift = data.draw(st.lists(entry, min_size=num_vars, max_size=num_vars))
    pulled = system.substitute_affine(matrix, shift)
    assert pulled == _field_substitute(system, matrix, shift)
    assert _same_integer_rows(pulled)


@pytest.mark.parametrize("top, dtype", [((1 << 62) - 1, np.int64), (1 << 62, object),
                                        ((1 << 63) + 1, object), ((1 << 70) + 1, object)])
def test_integer_rows_are_int64_below_two_to_the_62(top, dtype):
    # entries from 2**63 on do not fit int64 at all, those from 2**62 on are widened
    for big in (top, -top):
        system = system_from([((CTX2.element((big, -1)), 1), CTX2.element((0, -big))),
                              ((Fraction(1, 2), 0), 3)], 2)
        a, b, dens, found = system._integer_rows
        assert a.dtype == b.dtype == dtype and dens == [1, 2] and found == top
        assert a.tolist() == [[[big, -1], [1, 0]], [[1, 0], [0, 0]]]
        assert b.tolist() == [[0, -big], [6, 0]]


def test_substitute_affine_seeds_the_rebuilt_integer_rows():
    """The pull-back's _integer_rows, seeded from its own numerators, equal a rebuild:
    for an empty system, for numerators that need Python integers, for a row that
    pulls back to zero over a denominator above 2**63, and for a pipeline."""
    matrix, shift = [(1, sqrt2(), 0), (Fraction(1, 2), 0, 3)], (1, -2)
    big = system_from([((CTX2.element((1 << 70, 3)), Fraction(1, 3)), Fraction(5, 7)),
                       ((0, 0), 0), ((1, -1), CTX2.element((0, Fraction(1, 1 << 66))))], 2)
    vanishing = system_from([((Fraction(1, 1 << 70), Fraction(-1, 1 << 70)), 0),
                             ((1, 0), 1)], 2)
    cases = [(LinearSystem(CTX2, 2, ()), matrix, shift, np.int64),
             (big, matrix, shift, object), (vanishing, [(1,), (1,)], (0, 0), np.int64)]
    for system, m, s, dtype in cases:
        pulled = system.substitute_affine(m, s)
        assert pulled == _field_substitute(system, m, s)
        assert _same_integer_rows(pulled) and pulled._integer_rows[0].dtype == dtype
    assert _same_integer_rows(pipeline_run(3, certify=False).bundle.system)


def test_substitute_affine_builds_its_rows_only_when_read(monkeypatch):
    """The pull-back reduces no field element until its rows are read: num_rows,
    memberships and the pipeline's assembly read only its integer rows.  The rows,
    built on first read, are a tuple equal to the field reference's, and equality,
    hashing and JSON are those of the reference."""
    from relaxcert import field
    reduced, calls = field._reduced, []

    def counting(*args):
        calls.append(args)
        return reduced(*args)

    matrix, shift = [(1, sqrt2(), 0), (Fraction(1, 2), 0, 3)], (1, -2)
    system = system_from([((1, sqrt2()), Fraction(5, 7)), ((Fraction(-1, 3), 2), sqrt2())], 2)
    monkeypatch.setattr(field, "_reduced", counting)
    monkeypatch.setattr(poly, "_reduced", counting)
    pulled = system.substitute_affine(matrix, shift)
    assert pulled.num_rows == 2 and pulled.num_vars == 3 and pulled.names is None
    assert pulled.memberships([(0, 0, 0), (1, -1, 2)]).shape == (2, 2)
    assert calls == [] and "rows" not in vars(pulled)
    rows = pulled.rows
    assert type(rows) is tuple and len(calls) == 8 and pulled.rows is rows
    reference = _field_substitute(system, matrix, shift)
    assert rows == reference.rows and pulled == reference and hash(pulled) == hash(reference)
    assert pulled.to_json_dict() == reference.to_json_dict()
    assert pulled.rows + rows[:1] == reference.rows + reference.rows[:1]
    with pytest.raises(AttributeError):
        pulled.columns
    assert "rows" not in vars(pipeline_run(3, certify=False).bundle.system)


def test_substitute_shape_mismatch():
    P = projected_simplex_relaxation()
    with pytest.raises(ValidationError):
        P.substitute_affine([(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# recession and restriction
# ---------------------------------------------------------------------------

def test_recession_zeroes_rhs():
    P = projected_simplex_relaxation(Fraction(1, 8))
    rec = P.recession_system()
    assert all(row.rhs == CTX2.zero for row in rec.rows)
    assert [row.coeffs for row in rec.rows] == [row.coeffs for row in P.rows]


def test_recession_simple_lattice():
    S = system_from([((1,), 1), ((-1,), 0)], 1)
    rec = S.recession_system()
    assert rec.enumerate_lattice_points(Box.uniform(-5, 5, 1)) == [(0,)]


def test_restrict_simple():
    S = system_from([((1, 1), 1)], 2)
    restricted = S.restrict_to_subspace({1: 0})
    assert restricted.num_vars == 1
    assert restricted.rows[0].coeffs[0] == 1 and restricted.rows[0].rhs == 1


def test_restrict_infeasible_row_kept():
    S = system_from([((0, 1), 1)], 2)
    restricted = S.restrict_to_subspace({1: 5})
    assert restricted.num_rows == 1
    assert restricted.rows[0].coeffs[0] == 0 and restricted.rows[0].rhs == -4


def test_restrict_composed_system_gives_smaller_relaxation():
    bundle = composed_simplex_relaxation(6)
    restricted = bundle.system.restrict_to_subspace({5: 0})
    assert restricted.num_rows <= 7
    points = restricted.enumerate_lattice_points(Box.uniform(-2, 3, 5))
    expected = {p[:5] for p in bundle.target.points if p[5] == 0}
    assert set(points) == expected


# ---------------------------------------------------------------------------
# serialization and data types
# ---------------------------------------------------------------------------

def test_system_json_round_trip():
    P = projected_simplex_relaxation(Fraction(1, 8))
    data = P.to_json_dict()
    back = LinearSystem.from_json_dict(data)
    assert back.to_json_dict() == data
    assert back.rows == P.rows


def test_point_set_validation():
    with pytest.raises(ValidationError):
        PointSet(2, ((0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        PointSet(2, ((0, 0, 1),))


def test_box_validation_and_volume():
    with pytest.raises(ValidationError):
        Box(((1, 0),))
    assert Box.uniform(-1, 2, 3).volume == 64
    assert str(Box(((0, 1), (-2, 3)))) == "0:1,-2:3"
