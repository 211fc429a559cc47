import functools
import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxcert._linalg import determinant
from relaxcert.errors import (DegenerateSimplexError, PreconditionError,
                              ValidationError)
from relaxcert.field import FieldContext, make_context
from relaxcert import lift, poly
from relaxcert.lift import (FacetCheck, FacetSimplex, HeightFunction, _batched_rows,
                            _facet_row, affine_interpolant, check_facets, check_upper_facet,
                            facet_inequality_from_simplex, facets_from_simplices,
                            perturb_heights, staircase_height)

CTX1 = make_context(1, 2)


def cube(k):
    return sorted(tuple((mask >> (k - 1 - i)) & 1 for i in range(k))
                  for mask in range(1 << k))


def rational_heights(pairs):
    return HeightFunction.from_pairs(
        (p, CTX1.from_rational(v)) for p, v in pairs)


# ---------------------------------------------------------------------------
# staircase heights
# ---------------------------------------------------------------------------

def test_staircase_values_k3():
    h = staircase_height(3)
    assert h((1, 1, 1)).as_fraction() == 4
    assert h((1, 1, 0)).as_fraction() == -4
    assert h((0, 0, 1)).as_fraction() == 0
    assert h((0, 0, 0)).as_fraction() == 0
    assert h((1, 0, 1)).as_fraction() == 1
    assert h((0, 1, 0)).as_fraction() == -1


def test_staircase_antisymmetry():
    for k in (2, 3, 4):
        h = staircase_height(k)
        for p in cube(k):
            mirrored = p[:-1] + (1 - p[-1],)
            assert h(mirrored).as_fraction() == -h(p).as_fraction()


def test_staircase_needs_k_at_least_two():
    with pytest.raises(ValidationError):
        staircase_height(1)


def test_height_values_are_read_only():
    # staircase_height(k) is one cached object: a write into its values would reach
    # every later caller in the process, so none is taken, nor one into a given dict
    heights, given = staircase_height(3), {(0,): CTX1.one}
    own = HeightFunction(((0,),), given)
    for values in (heights.values, own.values):
        with pytest.raises(TypeError):
            values[(0, 0, 0)] = CTX1.zero
    given[(0,)] = CTX1.zero
    assert own((0,)) == CTX1.one and staircase_height(3)((0, 0, 0)) == CTX1.zero


# ---------------------------------------------------------------------------
# facet inequalities from vertex sets
# ---------------------------------------------------------------------------

def test_permutation_facet_inequality_k3():
    h = staircase_height(3)
    facet = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], h, "upper")
    # y <= x1 + 3*x2, i.e. -x1 - 3*x2 + y <= 0 up to positive scaling
    scale = facet.y_coeff
    assert scale.sign() > 0
    coeffs = [c / scale for c in facet.coeffs]
    assert [c.as_fraction() for c in coeffs] == [-1, -3, 0]
    assert (facet.rhs / scale).as_fraction() == 0


def test_affine_heights_give_exact_plane():
    pts = [(0, 0), (1, 0), (0, 1)]
    h = rational_heights([((0, 0), 5), ((1, 0), 7), ((0, 1), 2)])
    facet = facet_inequality_from_simplex(pts, h, "upper")
    scale = facet.y_coeff
    coeffs = [(c / scale).as_fraction() for c in facet.coeffs]
    assert coeffs == [-2, 3]
    assert (facet.rhs / scale).as_fraction() == 5


def test_dominating_facet_inequality_b2_k3():
    h = staircase_height(3)
    facet = facet_inequality_from_simplex(
        [(1, 1, 0), (1, 1, 1), (0, 1, 0), (1, 0, 0)], h, "upper")
    scale = facet.y_coeff
    coeffs = [(c / scale).as_fraction() for c in facet.coeffs]
    # y <= 2 - 3*x1 - 3*x2 + 8*x3
    assert coeffs == [3, 3, -8]
    assert (facet.rhs / scale).as_fraction() == 2


def test_degenerate_vertices_rejected():
    h = rational_heights([((0, 0), 0), ((1, 0), 1), ((2, 0), 2)])
    with pytest.raises(DegenerateSimplexError):
        facet_inequality_from_simplex([(0, 0), (1, 0), (2, 0)], h)


def test_facet_tight_at_own_vertices_random():
    rng = random.Random(31)
    for _ in range(30):
        pts = [(0, 0), (1, 0), (0, 1)]
        h = rational_heights([(p, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                              for p in pts])
        for orientation in ("upper", "lower"):
            facet = facet_inequality_from_simplex(pts, h, orientation)
            want = 1 if orientation == "upper" else -1
            assert facet.y_coeff.sign() == want
            for p in pts:
                assert facet.evaluate(p, h(p)).is_zero()


def laplace_determinant(matrix, ctx):
    """Cofactor expansion along the first row, in field arithmetic only."""
    if not matrix:
        return ctx.one
    total = ctx.zero
    for c, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        term = entry * laplace_determinant([row[:c] + row[c + 1:] for row in matrix[1:]], ctx)
        total = total - term if c % 2 else total + term
    return total


def oracle_facet(verts, heights, orientation):
    """Facet row by Laplace expansion of det[1 ... 1 1; v_0 ... v_k x; h_0 ... h_k y]."""
    ctx = heights.context
    verts = list(verts)
    k = len(verts[0])

    def rows(vs):
        return ([[ctx.one] * (k + 1)]
                + [[ctx.from_rational(v[i]) for v in vs] for i in range(k)]
                + [[heights(v) for v in vs]])

    lead = laplace_determinant(rows(verts)[:-1], ctx)
    if lead.is_zero():
        return None
    if lead.sign() != (1 if orientation == "upper" else -1):
        verts[0], verts[1] = verts[1], verts[0]
    full = rows(verts)
    cof = []
    for drop in range(k + 2):
        minor = laplace_determinant([row for r, row in enumerate(full) if r != drop], ctx)
        cof.append(-minor if (drop + k + 1) % 2 else minor)
    return {"vertices": [list(v) for v in verts], "orientation": orientation,
            "coeffs": [c.to_json_list() for c in cof[1:k + 1]],
            "y_coeff": cof[k + 1].to_json_list(), "rhs": (-cof[0]).to_json_list()}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k=st.integers(2, 4), degree=st.sampled_from([1, 2, 5]),
       orientation=st.sampled_from(["upper", "lower"]))
def test_facet_inequality_matches_laplace_oracle(data, k, degree, orientation):
    ctx = make_context(degree, 2)
    point = st.tuples(*[st.integers(-2, 2)] * k)
    verts = data.draw(st.lists(point, min_size=k + 1, max_size=k + 1), label="vertices")
    value = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    heights = HeightFunction.from_pairs(
        (v, ctx.element(data.draw(st.lists(value, min_size=degree, max_size=degree))))
        for v in dict.fromkeys(verts))
    expected = oracle_facet(verts, heights, orientation)
    if expected is None:
        with pytest.raises(DegenerateSimplexError):
            facet_inequality_from_simplex(verts, heights, orientation)
    else:
        facet = facet_inequality_from_simplex(verts, heights, orientation)
        assert facet.to_json_dict() == expected


def random_heights(points, degree, seed):
    rng, ctx = random.Random(seed), make_context(degree, 2)
    return HeightFunction.from_pairs(
        (p, ctx.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                         for _ in range(degree)])) for p in points)


def _check_batched_rows(points, candidates, heights, orientation):
    """_batched_rows on a stack of the candidates, in int64 and in object, against
    _facet_row one candidate at a time; returns the kept indices."""
    rows = {}
    for i, candidate in enumerate(candidates):
        try:
            rows[i] = _facet_row([points[j] for j in candidate], heights, orientation)
        except DegenerateSimplexError:
            pass
    k, n, table = len(points[0]), heights.context.degree, heights._numerators[1]
    stack = np.array([[1, *p, *table[p]] for p in points], dtype=object)
    for dtype in (np.int64, object):
        m = stack.astype(dtype)[np.array(candidates)]
        kept, lead, cofactors, swapped = _batched_rows(m.transpose(1, 2, 0).copy(), orientation)
        assert [a.dtype for a in (kept, lead, cofactors, swapped)] == \
            [np.dtype(np.intp), np.dtype(dtype), np.dtype(dtype), np.dtype(bool)]
        assert lead.shape == swapped.shape == kept.shape
        assert cofactors.shape == (len(kept), k + 1, n)
        assert kept.tolist() == sorted(rows)
        for i, lead_i, cof, swap in zip(kept.tolist(), lead.tolist(), cofactors.tolist(),
                                        swapped.tolist()):
            assert (lead_i, cof) == rows[i][1:]
            # _facet_row swaps v_0 and v_1 exactly where the batch reports it
            assert swap == (rows[i][0][0] != points[candidates[i][0]])
    return kept.tolist()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_rows_match_facet_row(k):
    # every candidate of the k-cube at once, against the one-candidate pass
    points = cube(k)
    candidates = list(combinations(range(len(points)), k + 1))
    cases = [(staircase_height(k), "upper"), (staircase_height(k), "lower"),
             (random_heights(points, 2, k), "upper"), (random_heights(points, 5, k), "lower")]
    for heights, orientation in cases:
        _check_batched_rows(points, candidates, heights, orientation)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_rows_drop_candidates_degenerate_at_each_step(k):
    points = cube(k)
    zero, unit = (0,) * k, [tuple(int(i == j) for j in range(k)) for i in range(k)]
    degenerate = []
    for t in range(1, k + 1):
        # 0 and e_1 .. e_(t-1) span the first t columns of [1 | p]; x_t is 0 throughout
        verts = [zero, *unit[:t - 1], *unit[t:], zero]
        a = np.array([[1, *v] for v in verts])
        assert np.linalg.matrix_rank(a[:, :t]) == t == np.linalg.matrix_rank(a[:, :t + 1])
        degenerate.append([points.index(v) for v in verts])
    survivors = [c for c in combinations(range(len(points)), k + 1)
                 if np.linalg.matrix_rank(np.array([[1, *points[j]] for j in c])) == k + 1][:k]
    mixed = [c for pair in zip(survivors, degenerate) for c in pair]
    for heights in (staircase_height(k), random_heights(points, 2, k)):
        for orientation in ("upper", "lower"):
            assert _check_batched_rows(points, mixed, heights, orientation) == \
                list(range(0, 2 * k, 2))
            assert _check_batched_rows(points, degenerate, heights, orientation) == []
            assert _check_batched_rows(points, survivors[:1], heights, orientation) == [0]
            assert _check_batched_rows(points, degenerate[-1:], heights, orientation) == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_rows_match_facet_row_when_most_steps_swap(k):
    # every vertex order of some cube candidates: a zero pivot at step t, where a row
    # below must trade places with row t, shows as a zero leading minor of [1 | v] of
    # order t + 1 in a candidate of full rank, and the case has one at every step
    # that can swap (the last pivot of a full-rank matrix is never zero)
    points = cube(k)
    combos = list(combinations(range(len(points)), k + 1))
    chosen = random.Random(k).sample(combos, min(len(combos), 12))
    candidates = [order for c in chosen for order in permutations(c)]
    rank = [np.linalg.matrix_rank(np.array([[1, *points[j]] for j in c])) for c in candidates]
    for t in range(1, k):
        assert any(r == k + 1 and round(np.linalg.det(
            np.array([[1, *points[j]] for j in c])[:t + 1, :t + 1])) == 0
            for c, r in zip(candidates, rank))
    for heights in (staircase_height(k), random_heights(points, 3, k)):
        for orientation in ("upper", "lower"):
            assert _check_batched_rows(points, candidates, heights, orientation) == [
                i for i, r in enumerate(rank) if r == k + 1]


@st.composite
def _candidate_cases(draw):
    """Distinct points of Z^k with drawn heights and candidate index tuples,
    repeated indices (degenerate) among them."""
    k = draw(st.integers(2, 4))
    ctx = make_context(draw(st.sampled_from([1, 2, 5])),
                       draw(st.sampled_from([2, Fraction(3, 2)])))
    points = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * k), min_size=k + 1, max_size=k + 4,
                           unique=True))
    value = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    heights = HeightFunction.from_pairs(
        (p, ctx.element(draw(st.lists(value, min_size=ctx.degree, max_size=ctx.degree))))
        for p in points)
    index = st.integers(0, len(points) - 1)
    simplices = draw(st.lists(st.lists(index, min_size=k + 1, max_size=k + 1), max_size=8))
    return points, simplices, heights


@settings(max_examples=60, deadline=None)
@given(case=_candidate_cases(), orientation=st.sampled_from(["upper", "lower"]))
def test_batched_rows_match_facet_row_on_drawn_candidates(case, orientation):
    # drawn points of [-1, 2]^k, in any order, give pivots that sorted 0/1-cube
    # candidates never do (every step-1 pivot of those is 1)
    points, simplices, heights = case
    if simplices:
        _check_batched_rows(points, simplices, heights, orientation)


@pytest.mark.parametrize("points, expected", [
    ([(), ()], [(0,), (1,)]),  # k = 0, so r = 1: every point alone, with no pair to test
    ([(0, 0), (0, 1), (1, 1)], [(0, 1, 2)]),  # r = m: no other pair shares a sum
    ([(0, 0), (1, 1)], []),  # r > m
    ([], []),  # no points
], ids=["r_one", "r_is_m", "r_above_m", "no_points"])
@pytest.mark.parametrize("orientation", ["upper", "lower"])
def test_circuit_candidates_edge_cases(points, expected, orientation):
    heights = (HeightFunction.from_pairs([((), make_context(1, 2).zero)]) if points == [(), ()]
               else staircase_height(2))
    assert list(lift._circuit_candidates(points, heights, orientation)) == expected


def _reference_facet(points, simplex, heights, orientation):
    try:
        facet = facet_inequality_from_simplex([points[i] for i in simplex], heights, orientation)
    except DegenerateSimplexError:
        return None
    return facet if check_upper_facet(facet, points, heights).valid else None


@settings(max_examples=100, deadline=None)
@given(case=_candidate_cases(), orientation=st.sampled_from(["upper", "lower"]))
def test_facets_from_simplices_match_one_at_a_time(case, orientation):
    points, simplices, heights = case
    built = facets_from_simplices(points, simplices, heights, orientation)
    expected = [_reference_facet(points, s, heights, orientation) for s in simplices]
    assert [f and f.to_json_dict() for f in built] == [f and f.to_json_dict() for f in expected]


def test_facets_from_simplices_on_the_cube():
    # every candidate of the 3-cube, in blocks, under staircase and irrational heights
    points = cube(3)
    candidates = list(combinations(range(len(points)), 4))
    ctx = make_context(5, 2)
    tilted = HeightFunction.from_pairs(
        (p, staircase_height(3)(p).as_fraction() + ctx.root_power(i % 5) * Fraction(1, 64))
        for i, p in enumerate(points))
    for heights in (staircase_height(3), tilted):
        for orientation in ("upper", "lower"):
            built = facets_from_simplices(points, candidates, heights, orientation)
            assert built == [_reference_facet(points, s, heights, orientation) for s in candidates]
            assert any(built) and None in built


@pytest.mark.parametrize("simplices, error", [
    ([(0, 1, 2)], DegenerateSimplexError),
    ([(0, 1, 2, 4), (0, 1, 2)], DegenerateSimplexError),
    ([(0, 1, 2, 99)], ValidationError),
    ([(0, 1, 2, -1)], ValidationError)])
def test_screen_refuses_malformed_candidates(simplices, error):
    # as tuple lists and, where the candidates are of one length, as index arrays
    heights = staircase_height(3)
    points = sorted(heights.domain)
    forms = [simplices, np.array(simplices)] if len(set(map(len, simplices))) == 1 else [simplices]
    for candidates in forms:
        with pytest.raises(error):
            facets_from_simplices(points, candidates, heights)
        with pytest.raises(error):
            lift._screen_facets(points, candidates, heights, "lower")


def test_screen_refuses_a_row_not_tight_at_its_vertices(monkeypatch):
    batched = lift._batched_rows

    def corrupted(m, orientation):
        kept, lead, cofactors, swapped = batched(m, orientation)
        cofactors[0, 0, 0] += 1  # the first survivor's C_0
        return kept, lead, cofactors, swapped

    monkeypatch.setattr(lift, "_batched_rows", corrupted)
    points = cube(3)
    with pytest.raises(AssertionError, match="not tight at its own vertex"):
        facets_from_simplices(points, [[0, 1, 5, 7]], staircase_height(3))
    with pytest.raises(AssertionError, match="not tight at its own vertex"):
        lift._screen_facets(points, [[0, 1, 5, 7]], staircase_height(3), "upper")


@functools.lru_cache(maxsize=None)
def _cover_case(k, kind):
    """The k-cube, heights of the given kind and the index tuples and orientations of
    build_full_cover(k): staircase, perturbed as by the pipeline, or the perturbed
    heights times 2^70, whose screen runs on Python integers."""
    from relaxcert.construct import cube_simplex_split
    from relaxcert.cover import build_full_cover
    points, heights = cube(k), staircase_height(k)
    upper, lower = build_full_cover(k)
    if kind != "staircase":
        split = cube_simplex_split(k)
        heights = perturb_heights(split.base.points, split.moved.points, heights,
                                  upper + lower)[0]
    if kind == "huge":
        heights = HeightFunction.from_pairs((p, heights(p) * (1 << 70)) for p in points)
    index = {p: i for i, p in enumerate(points)}
    return points, heights, [(tuple(index[v] for v in f.vertices), f.orientation)
                             for f in upper + lower]


@st.composite
def _oriented_candidates(draw):
    """A cover case and candidates drawn from its facets, in either orientation, and
    from any vertex tuples, repeated (affinely dependent) vertices among them."""
    k, kind = draw(st.integers(2, 4)), draw(st.sampled_from(["staircase", "perturbed", "huge"]))
    points, heights, facets = _cover_case(k, kind)
    side = st.sampled_from(["upper", "lower"])
    drawn = st.tuples(st.lists(st.integers(0, len(points) - 1), min_size=k + 1,
                               max_size=k + 1).map(tuple), side)
    flipped = st.sampled_from(facets).flatmap(lambda f: st.tuples(st.just(f[0]), side))
    pairs = draw(st.lists(st.one_of(st.sampled_from(facets), flipped, drawn), max_size=12))
    return points, heights, [c for c, _ in pairs], [o for _, o in pairs]


@settings(max_examples=80, deadline=None)
@given(case=_oriented_candidates(), one_per_block=st.booleans())
def test_one_orientation_per_candidate_merges_the_per_orientation_calls(case, one_per_block):
    # one call over mixed orientations, in one block or one block per candidate, gives
    # what one call per orientation gives, merged back in candidate order: the facets
    # and the screen's mask
    points, heights, simplices, sides = case
    expected, mask = [None] * len(sides), np.zeros(len(sides), dtype=bool)
    for side in ("upper", "lower"):
        at = [i for i, o in enumerate(sides) if o == side]
        chosen = [simplices[i] for i in at]
        for i, facet in zip(at, facets_from_simplices(points, chosen, heights, side)):
            expected[i] = facet
        mask[at] = lift._screen_facets(points, chosen, heights, side)
    with pytest.MonkeyPatch.context() as patch:
        if one_per_block:
            patch.setattr(poly, "_CHUNK", 1)
        built = facets_from_simplices(points, simplices, heights, sides)
        screened = lift._screen_facets(points, simplices, heights, sides)
    assert [f and f.to_json_dict() for f in built] == [f and f.to_json_dict() for f in expected]
    assert screened.tolist() == mask.tolist()
    assert all(f.orientation == o for f, o in zip(built, sides) if f)


def test_screen_takes_the_dtype_of_its_heights(monkeypatch):
    # the cover cases above run the screen on int64 and on Python integers; both are
    # built before the spy, whether or not the drawn cases above built them already
    seen, batched = [], lift._batched_rows
    cases = [(_cover_case(3, kind), dtype) for kind, dtype in (("perturbed", np.int64),
                                                                ("huge", object))]

    def spy(m, orientation):
        seen.append(m.dtype)
        return batched(m, orientation)

    monkeypatch.setattr(lift, "_batched_rows", spy)
    for (points, heights, facets), dtype in cases:
        assert None not in facets_from_simplices(
            points, [c for c, _ in facets], heights, [o for _, o in facets])
        assert seen == [np.dtype(dtype)]
        seen.clear()


def test_screen_refuses_orientations_that_do_not_match_the_candidates():
    heights = staircase_height(3)
    points = sorted(heights.domain)
    for sides in (["upper"], ["upper", "lower", "upper"], ["upper", "side"], "side"):
        with pytest.raises(ValidationError):
            facets_from_simplices(points, [(0, 1, 2, 4), (0, 1, 2, 7)], heights, sides)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_batched_determinants_match_determinant(data):
    # random integer stacks, singular ones among them (a repeated or a zero row), of
    # small entries (int64) and of entries of 2^40 (Python integers)
    n = data.draw(st.integers(1, 5))
    scale = data.draw(st.sampled_from([1, 1 << 40]))
    matrix = st.lists(st.lists(st.integers(-2, 2).map(lambda v: v * scale), min_size=n,
                               max_size=n), min_size=n, max_size=n)
    stack = data.draw(st.lists(matrix, max_size=6))
    for m in data.draw(st.lists(matrix, max_size=2)):
        m[-1] = list(m[0]) if data.draw(st.booleans()) else [0] * n
        stack.append(m)
    got = lift._determinants(np.array(stack, dtype=object).reshape(-1, n, n))
    assert got.tolist() == [determinant(m, CTX1).as_fraction() for m in stack]
    big = scale > 1 and any(v for m in stack for row in m for v in row)
    assert got.dtype == np.dtype(object if big else np.int64)


def test_facets_refuse_a_lead_that_is_not_the_vertex_determinant(monkeypatch):
    # a survivor's lead and cofactors scaled by 2 still give tight, positive slacks,
    # so only the re-derived determinant tells it apart
    batched = lift._batched_rows
    points, heights, facets = _cover_case(3, "staircase")

    def corrupted(m, orientation):
        kept, lead, cofactors, swapped = batched(m, orientation)
        lead[0] *= 2
        cofactors[0] *= 2
        return kept, lead, cofactors, swapped

    monkeypatch.setattr(lift, "_batched_rows", corrupted)
    simplex, side = facets[0]
    assert lift._screen_facets(points, [simplex], heights, side).tolist() == [True]
    with pytest.raises(AssertionError, match="vertex determinant disagrees"):
        facets_from_simplices(points, [simplex], heights, side)


def _evaluated_check(facet, points, heights):
    """check_upper_facet by field arithmetic: the first non-vertex point whose slack is <= 0."""
    for p in points:
        s = facet.evaluate(p, heights(p)).sign()
        if s <= 0 and p not in facet.vertices:
            return FacetCheck(False, p if s < 0 else None, p if s == 0 else None)
    return FacetCheck(True)


@settings(max_examples=60, deadline=None)
@given(case=_candidate_cases(), data=st.data())
def test_check_facets_match_one_facet_checks(case, data):
    points, simplices, heights = case
    facets = []
    for simplex in simplices:
        try:
            facets.append(facet_inequality_from_simplex(
                [points[i] for i in simplex], heights,
                data.draw(st.sampled_from(["upper", "lower"]))))
        except DegenerateSimplexError:
            pass
    order = data.draw(st.permutations(points))
    checks = check_facets(facets, order, heights)
    assert checks == [check_upper_facet(f, order, heights) for f in facets]
    assert checks == [_evaluated_check(f, order, heights) for f in facets]
    # points repeated, and facet vertices left out
    drawn = data.draw(st.lists(st.sampled_from(points), max_size=len(points) + 3))
    assert check_facets(facets, drawn, heights) == [
        _evaluated_check(f, drawn, heights) for f in facets]


# ---------------------------------------------------------------------------
# facet validity checks
# ---------------------------------------------------------------------------

def test_check_valid_permutation_facet():
    h = staircase_height(3)
    facet = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], h, "upper")
    assert check_upper_facet(facet, cube(3), h).valid


def test_check_flipped_orientation_reports_violation():
    h = staircase_height(3)
    facet = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], h, "lower")
    result = check_upper_facet(facet, cube(3), h)
    assert not result.valid
    witness = result.violated_at
    # (1,1,0) is one of several violated points; the reported witness must
    # be a genuine non-vertex violation
    assert witness not in facet.vertices
    assert facet.evaluate(witness, h(witness)).sign() < 0
    assert facet.evaluate((1, 1, 0), h((1, 1, 0))).sign() < 0


def test_check_reports_extra_tight_point():
    # flat heights: every candidate plane through three points is tight at the rest
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    h = rational_heights([(p, 0) for p in pts])
    facet = facet_inequality_from_simplex(pts[:3], h, "upper")
    result = check_upper_facet(facet, pts, h)
    assert not result.valid and result.tight_extra == (1, 1)


def test_check_refuses_points_outside_the_heights():
    h = staircase_height(2)
    facet = facet_inequality_from_simplex([(0, 0), (0, 1), (1, 1)], h, "upper")
    with pytest.raises(ValidationError, match="outside the heights' domain"):
        check_upper_facet(facet, [(0, 0), (2, 0)], h)


def test_check_of_vertices_only_or_no_points_is_valid():
    # no point off the facet's vertices; with no points at all the slack stack is empty
    h = staircase_height(3)
    ctx = make_context(2, 2)
    tilted = HeightFunction.from_pairs(
        (p, h(p).as_fraction() + ctx.root_power(1) * p[0]) for p in cube(3))
    for heights in (h, tilted):
        facet = facet_inequality_from_simplex(
            [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], heights, "upper")
        assert check_upper_facet(facet, facet.vertices, heights) == FacetCheck(True)
        assert check_upper_facet(facet, [], heights) == FacetCheck(True)
        assert check_upper_facet(facet, cube(3), heights).valid


def test_check_accepts_a_row_scaled_by_an_irrational_factor():
    # 1 + sqrt2 > 0 scales every slack without changing its sign
    ctx = make_context(2, 2)
    points = cube(2)
    h = HeightFunction.from_pairs(
        (p, staircase_height(2)(p).as_fraction() + ctx.root_power(1) * p[0]) for p in points)
    scale = ctx.one + ctx.root_power(1)
    for simplex in combinations(points, 3):
        for orientation in ("upper", "lower"):
            facet = facet_inequality_from_simplex(simplex, h, orientation)
            scaled = FacetSimplex(facet.vertices, orientation,
                                  tuple(c * scale for c in facet.coeffs),
                                  facet.y_coeff * scale, facet.rhs * scale)
            expected = check_upper_facet(facet, points, h)
            assert check_upper_facet(scaled, points, h) == expected
            assert _evaluated_check(scaled, points, h) == expected
    facet = facet_inequality_from_simplex(points[:3], h, "upper")
    scaled = FacetSimplex(facet.vertices, "upper", tuple(c * scale for c in facet.coeffs),
                          facet.y_coeff * scale, facet.rhs * scale)
    assert check_upper_facet(scaled, points, h) == FacetCheck(False, violated_at=(1, 1))


def test_facet_row_refuses_vertices_outside_the_heights():
    h = staircase_height(2)
    with pytest.raises(ValidationError, match=r"point \(2, 0\) lies outside the heights' domain"):
        facet_inequality_from_simplex([(0, 0), (2, 0), (0, 1)], h)
    with pytest.raises(ValidationError, match="outside the heights' domain"):
        _facet_row([(0, 0), (2, 0), (0, 1)], h, "lower")


def test_perturb_refuses_cover_facet_with_vertex_outside_the_heights():
    # the facet is valid on the heights' domain, which lacks its vertex (1, 1, 1)
    facet = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], staircase_height(3), "upper")
    points = cube(3)[:-1]
    h = HeightFunction.from_pairs((p, staircase_height(3)(p)) for p in points)
    assert check_upper_facet(facet, points, h).valid
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    with pytest.raises(ValidationError, match=r"point \(1, 1, 1\) lies outside"):
        perturb_heights(base, moved, h, [facet])


def test_perturb_refuses_cover_facet_with_vertex_outside_base_and_moved():
    # the heights know (1, 1, 1), but base and moved leave it out of the domain
    h = staircase_height(3)
    facet = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], h, "upper")
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(cube(3)[:-1]) - set(base))
    with pytest.raises(PreconditionError, match=r"cover vertex \(1, 1, 1\)"):
        perturb_heights(base, moved, h, [facet])


def test_heights_from_different_contexts_refused():
    pairs = [((0,), make_context(2, 2).one), ((1,), make_context(2, 3).one)]
    with pytest.raises(ValidationError):
        HeightFunction.from_pairs(pairs)
    # equal contexts that are not the same object, as read back from JSON, pass
    h = HeightFunction.from_pairs([((0,), make_context(2, 2).one),
                                   ((1,), FieldContext(2, 2).root_power(1))])
    assert h((1,)).context == h.context


def test_heights_refuse_domain_points_of_different_dimensions():
    pairs = [((0, 0), CTX1.one), ((1,), CTX1.zero), ((1, 1), CTX1.one)]
    with pytest.raises(ValidationError, match="different dimensions"):
        HeightFunction.from_pairs(pairs)
    data = staircase_height(2).to_json_dict()
    data["entries"][1][0] = [0, 1, 0]
    with pytest.raises(ValidationError, match="different dimensions"):
        HeightFunction.from_json_dict(data)


def test_facets_from_no_points_take_k_from_the_heights():
    heights = staircase_height(3)
    for orientation in ("upper", "lower"):
        assert facets_from_simplices([], [], heights, orientation) == []
        assert lift._screen_facets([], [], heights, orientation).tolist() == []
        with pytest.raises(ValidationError, match=r"outside range\(0\)"):
            facets_from_simplices([], [(0, 1, 2, 3)], heights, orientation)


def test_check_refuses_facet_from_another_context():
    h = staircase_height(2)
    facet = facet_inequality_from_simplex([(0, 0), (0, 1), (1, 1)], h, "upper")
    ctx = make_context(2, 2)
    other = HeightFunction.from_pairs((p, ctx.from_rational(h(p).as_fraction()))
                                      for p in cube(2))
    with pytest.raises(ValidationError):
        check_upper_facet(facet, cube(2), other)
    rebuilt = facet_inequality_from_simplex(facet.vertices, other, "upper")
    assert check_upper_facet(rebuilt, cube(2), other).valid


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def build_cover_k3():
    from relaxcert.cover import build_full_cover
    upper, lower = build_full_cover(3)
    return upper + lower


def test_perturb_keeps_base_and_shifts_moved():
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    h = staircase_height(3)
    cover = build_cover_k3()
    perturbed, eps, _ = perturb_heights(base, moved, h, cover)
    assert eps > 0
    ctx = perturbed.context
    assert ctx.degree == len(moved) + 1 == 5
    for p in base:
        assert perturbed(p).is_rational()
        assert perturbed(p).as_fraction() == h(p).as_fraction()
    for j, p in enumerate(moved, start=1):
        offset = perturbed(p) - ctx.from_rational(h(p).as_fraction())
        assert offset == ctx.root_power(j) * eps


def test_perturb_values_independent_over_q():
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    perturbed, _, _ = perturb_heights(base, moved, staircase_height(3),
                                      build_cover_k3())
    # coefficient vectors of 1 and the moved heights must have full rank
    vectors = [tuple(perturbed(p).coeffs) for p in moved]
    vectors.append((Fraction(1),) + (Fraction(0),) * 4)
    from relaxcert._linalg import kernel_basis
    ctx = perturbed.context
    matrix = [[ctx.from_rational(vec[i]) for vec in vectors] for i in range(5)]
    assert kernel_basis(matrix, ctx) == []


def test_perturb_halved_eps_still_valid():
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    h = staircase_height(3)
    cover = build_cover_k3()
    perturbed, eps, _ = perturb_heights(base, moved, h, cover)
    ctx = perturbed.context
    half = HeightFunction.from_pairs(
        (p, ctx.from_rational(h(p).as_fraction())
            + (ctx.root_power(j + 1) * (eps / 2) if p in moved else ctx.zero))
        for j, p in ((moved.index(q), q) if q in moved else (0, q) for q in points))
    for facet in cover:
        rebuilt = facet_inequality_from_simplex(facet.vertices, half, facet.orientation)
        assert check_upper_facet(rebuilt, points, half).valid


def test_perturb_empty_moved_set_is_identity():
    points = [(0, 0), (1, 0), (0, 1)]
    h = rational_heights([(p, 1) for p in points])
    perturbed, eps, facets = perturb_heights(points, [], h, [])
    assert eps == 0 and facets == ()
    assert all(perturbed(p) == h(p) for p in points)
    cover = [facet_inequality_from_simplex(points, h, "upper")]
    assert perturb_heights(points, [], h, cover) == (h, 0, tuple(cover))


def test_perturb_rejects_invalid_cover():
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    h = staircase_height(3)
    bad = facet_inequality_from_simplex(
        [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)], h, "lower")
    with pytest.raises(PreconditionError):
        perturb_heights(base, moved, h, [bad])


def _halving_case():
    """(points, base, moved, heights, cover) on the 2-cube that perturbs with eps = 2^-8."""
    points = cube(2)
    base, moved = points[:3], points[3:]
    h = rational_heights([(p, 0) for p in base] + [((1, 1), Fraction(-1, 100))])
    cover = [facet_inequality_from_simplex(base, h, "upper"),
             facet_inequality_from_simplex([(0, 0), (1, 0), (1, 1)], h, "lower")]
    return points, base, moved, h, cover


def test_perturb_halves_until_both_orientations_hold():
    # (1, 1) sits 1/100 below the plane of the other three corners; its offset
    # eps * sqrt2 must stay under 1/100 for both cover facets, so eps = 2^-8
    points, base, moved, h, cover = _halving_case()
    perturbed, eps, _ = perturb_heights(base, moved, h, cover)
    assert eps == Fraction(1, 256)
    ctx = perturbed.context
    for scale, valid in ((1, True), (2, False)):
        shifted = HeightFunction.from_pairs(
            [(p, ctx.from_rational(h(p).as_fraction())) for p in base]
            + [((1, 1), ctx.from_rational(Fraction(-1, 100)) + ctx.root_power(1) * eps * scale)])
        rebuilt = [facet_inequality_from_simplex(f.vertices, shifted, f.orientation)
                   for f in cover]
        assert all(check_upper_facet(f, points, shifted).valid for f in rebuilt) == valid


def test_perturb_returns_the_cover_rebuilt_under_its_heights():
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    k3 = (points, base, sorted(set(points) - set(base)), staircase_height(3), build_cover_k3())
    halving = _halving_case()
    # the square's other two facets, valid for as long, make the orientations alternate
    # along the cover: the facets come back in cover order, not grouped by orientation
    cube2, h = halving[0], halving[3]
    halving[4].extend([facet_inequality_from_simplex(cube2[1:], h, "upper"),
                       facet_inequality_from_simplex([(0, 0), (0, 1), (1, 1)], h, "lower")])
    for points, base, moved, h, cover in (k3, halving):
        perturbed, eps, facets = perturb_heights(base, moved, h, cover)
        index = {p: i for i, p in enumerate(points)}
        expected = [facets_from_simplices(points, [[index[v] for v in f.vertices]], perturbed,
                                          f.orientation)[0] for f in cover]
        assert [f.to_json_dict() for f in facets] == [f.to_json_dict() for f in expected]
    assert eps == Fraction(1, 256)  # the halving case


def test_perturb_refuses_dependent_cover_facet_before_halving(monkeypatch):
    # a valid row on an affinely dependent vertex set passes the precondition check
    points = cube(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(points) - set(base))
    h = staircase_height(3)
    one = h.context.one
    flat = FacetSimplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)), "upper",
                        (h.context.zero,) * 3, one, one * 100)
    assert check_upper_facet(flat, points, h).valid
    # every rebuild, the halvings' facets_from_simplices calls too, goes through _built
    built, seen = lift._built, []

    def eps_one_only(points, simplices, heights, orientation):
        offset = heights(moved[0]) - heights.context.from_rational(h(moved[0]).as_fraction())
        if offset != heights.context.root_power(1):
            raise AssertionError("a halving ran before the degenerate facet was refused")
        seen.append(len(simplices))
        yield from built(points, simplices, heights, orientation)
        seen.append("screened")

    monkeypatch.setattr(lift, "_built", eps_one_only)
    cover = build_cover_k3() + (flat,)
    with pytest.raises(DegenerateSimplexError):
        perturb_heights(base, moved, h, cover)
    assert seen == [len(cover), "screened"]  # refused after the eps = 1 screen, not before


def test_perturb_refuses_cover_facet_with_the_wrong_vertex_count():
    h = staircase_height(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    moved = sorted(set(cube(3)) - set(base))
    one = h.context.one
    short = FacetSimplex(tuple(base[:3]), "upper", (h.context.zero,) * 3, one, one * 100)
    for cover in ((short,), build_cover_k3() + (short,)):
        with pytest.raises(DegenerateSimplexError, match="needs 4 vertices"):
            perturb_heights(base, moved, h, cover)


def test_perturb_rejects_bad_partition():
    points = cube(2)
    with pytest.raises(PreconditionError):
        perturb_heights(points[:2], points[1:], staircase_height(2), [])


def _cover_of(heights, facets):
    """(vertices, orientation) pairs as FacetSimplex values with placeholder rows: a
    cover, as perturb_heights reads only its vertices and orientations."""
    zero, one = heights.context.zero, heights.context.one
    return tuple(FacetSimplex(tuple(vs), side, (zero,) * heights.dimension, one, one)
                 for vs, side in facets)


def _reference_refusal(base, moved, heights, cover):
    """(error type, message) of the refusal as one screen of the cover under the given
    heights decides it, with _facet_row on the first refused facet telling affine
    dependence apart; None when the screen refuses nothing."""
    points = sorted({*base, *moved})
    index = {p: i for i, p in enumerate(points)}
    valid = lift._screen_facets(points, [[index[v] for v in f.vertices] for f in cover],
                                heights, [f.orientation for f in cover])
    if valid.all():
        return None
    facet = cover[int(valid.argmin())]
    try:
        _facet_row(facet.vertices, heights, facet.orientation)
    except DegenerateSimplexError as error:
        return DegenerateSimplexError, str(error)
    return PreconditionError, f"cover facet {facet.vertices} is invalid under the given heights"


def _square_flat_case():
    """The unit square at height 0 with (1, 1) moved, and the lower facet on the base:
    valid once (1, 1) rises, non-simplicial under the given heights."""
    heights = rational_heights((p, 0) for p in cube(2))
    base = [(0, 0), (0, 1), (1, 0)]
    return base, [(1, 1)], heights, _cover_of(heights, [(base, "lower")])


@st.composite
def _refusal_cases(draw):
    """The 2- or 3-cube split into base and moved points, staircase or small random
    rational heights, and a cover of 1-4 (vertex set, orientation) facets on cube
    points, repeated points among them."""
    k = draw(st.integers(2, 3))
    points = cube(k)
    heights = draw(st.one_of(st.just(staircase_height(k)), st.lists(
        st.fractions(-3, 3, max_denominator=4), min_size=len(points), max_size=len(points)
    ).map(lambda values: rational_heights(zip(points, values)))))
    moved = draw(st.lists(st.sampled_from(points), unique=True))
    facet = st.tuples(st.lists(st.sampled_from(points), min_size=k + 1, max_size=k + 1),
                      st.sampled_from(["upper", "lower"]))
    return ([p for p in points if p not in moved], moved, heights,
            _cover_of(heights, draw(st.lists(facet, min_size=1, max_size=4))))


@settings(max_examples=300, deadline=None)
@given(case=_refusal_cases())
@example(case=_square_flat_case())
def test_perturb_refuses_what_the_screen_under_the_given_heights_refuses(case):
    # perturb_heights decides the refusal from the power-0 parts of its eps = 1 rebuild's
    # slacks; the reference screens the cover under the given heights themselves
    base, moved, heights, cover = case
    if (expected := _reference_refusal(base, moved, heights, cover)) is None:
        _, eps, facets = perturb_heights(base, moved, heights, cover)
        assert None not in facets and (eps > 0) == bool(moved)
        return
    with pytest.raises((PreconditionError, DegenerateSimplexError)) as raised:
        perturb_heights(base, moved, heights, cover)
    assert (type(raised.value), str(raised.value)) == expected


def test_perturb_refuses_a_cover_facet_that_only_the_perturbation_makes_valid():
    base, moved, heights, cover = _square_flat_case()
    ctx = make_context(2, 2)
    eps_one = HeightFunction.from_pairs([(p, ctx.zero) for p in base]
                                        + [((1, 1), ctx.root_power(1))])
    assert facets_from_simplices(cube(2), [[0, 1, 2]], eps_one, "lower")[0] is not None
    with pytest.raises(PreconditionError, match="invalid under the given heights"):
        perturb_heights(base, moved, heights, cover)


# ---------------------------------------------------------------------------
# affine interpolation
# ---------------------------------------------------------------------------

def test_interpolant_on_simplex_matches_staircase():
    h = staircase_height(3)
    base = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    f = affine_interpolant(base, h)
    assert f.coeffs == (Fraction(-1), Fraction(-1), Fraction(0))
    assert f.offset == 0
    for p in base:
        assert f(p) == h(p).as_fraction()


def test_interpolant_refuses_points_outside_the_heights():
    with pytest.raises(ValidationError, match="outside the heights' domain"):
        affine_interpolant([(0, 0), (2, 0), (0, 1)], staircase_height(2))


def test_interpolant_of_zero_heights_is_zero():
    pts = [(0, 0), (1, 0), (0, 1)]
    f = affine_interpolant(pts, rational_heights([(p, 0) for p in pts]))
    assert f.coeffs == (0, 0) and f.offset == 0


def test_interpolant_two_dimensional_example():
    pts = [(0, 0), (1, 0), (0, 1)]
    h = rational_heights([((0, 0), 0), ((1, 0), 1), ((0, 1), 2)])
    f = affine_interpolant(pts, h)
    assert f.coeffs == (1, 2) and f.offset == 0


def test_interpolant_rejects_dependent_points():
    pts = [(0, 0), (1, 1), (2, 2)]
    h = rational_heights([(p, 0) for p in pts])
    with pytest.raises(DegenerateSimplexError):
        affine_interpolant(pts, h)
    # more points than dim + 1, and heights no affine function matches
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    h = rational_heights([(p, int(p == (1, 1))) for p in pts])
    with pytest.raises(DegenerateSimplexError):
        affine_interpolant(pts, h)


def test_interpolant_with_fewer_points_than_dim_plus_one():
    # coefficients without a pivot are zero, also behind a skipped zero column
    f = affine_interpolant([(0, 0, 0), (1, 0, 0)],
                           rational_heights([((0, 0, 0), 1), ((1, 0, 0), 3)]))
    assert f.coeffs == (2, 0, 0) and f.offset == 1
    f = affine_interpolant([(0, 0), (0, 1)],
                           rational_heights([((0, 0), Fraction(1, 2)), ((0, 1), Fraction(2, 3))]))
    assert f.coeffs == (0, Fraction(1, 6)) and f.offset == Fraction(1, 2)
    f = affine_interpolant([(2, 3)], rational_heights([((2, 3), 5)]))
    assert f.coeffs == (0, 0) and f.offset == 5


def test_interpolant_rejects_irrational_heights():
    ctx = make_context(2, 2)
    h = HeightFunction.from_pairs([((0,), ctx.zero), ((1,), ctx.root_power(1))])
    with pytest.raises(ValidationError):
        affine_interpolant([(0,), (1,)], h)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=dim + 2, unique=True),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
             min_size=dim + 2, max_size=dim + 2))))
def test_interpolant_matches_sympy(case):
    pts, values = case
    h = rational_heights(zip(pts, values))
    matrix = sympy.Matrix([[1, *p] for p in pts])
    _, pivots = matrix.rref()
    if len(pivots) < len(pts):
        with pytest.raises(DegenerateSimplexError):
            affine_interpolant(pts, h)
        return
    # the pivot columns carry the solution; the free coefficients are zero
    rhs = sympy.Matrix([sympy.Rational(str(v)) for v in values[:len(pts)]])
    solved = matrix[:, list(pivots)].LUsolve(rhs)
    expected = [Fraction(0)] * (len(pts[0]) + 1)
    for c, v in zip(pivots, solved):
        expected[c] = Fraction(str(v))
    f = affine_interpolant(pts, h)
    assert (f.offset, *f.coeffs) == tuple(expected)


# ---------------------------------------------------------------------------
# orientation involution (reflection law)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3])
def test_reflection_maps_upper_to_lower(k):
    from relaxcert.cover import (enumerate_simplicial_lower_facets,
                                 enumerate_simplicial_upper_facets)
    h = staircase_height(k)
    pts = cube(k)
    uppers = enumerate_simplicial_upper_facets(pts, h)
    lowers = enumerate_simplicial_lower_facets(pts, h)
    reflect = lambda vs: frozenset(v[:-1] + (1 - v[-1],) for v in vs)
    assert {reflect(f.vertices) for f in uppers} == \
           {frozenset(f.vertices) for f in lowers}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_height_function_json_round_trip():
    h = staircase_height(3)
    data = h.to_json_dict()
    back = HeightFunction.from_json_dict(data)
    assert back.domain == h.domain
    assert all(back(p) == h(p) for p in h.domain)


def test_facet_json_dict_shape():
    h = staircase_height(2)
    facet = facet_inequality_from_simplex([(0, 0), (0, 1), (1, 1)], h, "upper")
    data = facet.to_json_dict()
    assert data["orientation"] == "upper"
    assert len(data["coeffs"]) == 2 and len(data["vertices"]) == 3
