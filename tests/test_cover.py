import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxcert import cover, lift, poly
from relaxcert.cover import (Chain, build_full_cover, chains_to_permutations, cover_facets,
                             cover_generators, dominating_family,
                             enumerate_simplicial_lower_facets,
                             enumerate_simplicial_upper_facets, exact_min_cover,
                             facet_vertices, is_dominating_family, symmetric_chain_cover)
from relaxcert.errors import (DegenerateSimplexError, PreconditionError,
                              ResourceLimitError, ValidationError)
from relaxcert.field import make_context
from relaxcert.lift import (FacetCheck, FacetSimplex, HeightFunction,
                            check_upper_facet, facet_inequality_from_simplex,
                            staircase_height)


def cube(k):
    return sorted(tuple((mask >> (k - 1 - i)) & 1 for i in range(k))
                  for mask in range(1 << k))


# ---------------------------------------------------------------------------
# symmetric chain decomposition
# ---------------------------------------------------------------------------

def test_chain_cover_n2_exact():
    chains = symmetric_chain_cover(2)
    as_sets = {tuple(sorted(tuple(sorted(s)) for s in ch.subsets)) for ch in chains}
    assert as_sets == {((), (1,), (1, 2)), ((2,),)}


def test_chain_cover_n0():
    chains = symmetric_chain_cover(0)
    assert len(chains) == 1 and chains[0].subsets == (frozenset(),)


@pytest.mark.parametrize("n", range(0, 11))
def test_chain_cover_partitions_and_counts(n):
    chains = symmetric_chain_cover(n)
    assert len(chains) == math.comb(n, n // 2)
    seen = set()
    for chain in chains:
        for a, b in zip(chain.subsets, chain.subsets[1:]):
            assert a < b and len(b) == len(a) + 1
        # symmetric: sizes run from a to n-a
        sizes = [len(s) for s in chain.subsets]
        assert sizes[0] + sizes[-1] == n
        seen.update(chain.subsets)
    assert len(seen) == 1 << n


def test_chain_validation():
    with pytest.raises(ValidationError):
        Chain((frozenset({1}), frozenset({2})))


def test_minimum_chain_cover_matches_construction_small():
    # oracle: exact set cover over all maximal chains
    for n in range(1, 5):
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in combinations(range(1, n + 1), r)]
        chains = []
        for perm in permutations(range(1, n + 1)):
            members = [frozenset(perm[:t]) for t in range(n + 1)]
            chains.append(frozenset(members))
        optimum = exact_min_cover(chains, subsets)
        assert optimum == math.comb(n, n // 2)
        assert len(symmetric_chain_cover(n)) == optimum


# ---------------------------------------------------------------------------
# chains to permutations
# ---------------------------------------------------------------------------

def test_single_subset_chain_completion():
    chain = Chain((frozenset({2}),))
    perms = chains_to_permutations([chain] + symmetric_chain_cover(2)[:1], 2)
    assert perms[0] == (2, 1)


def test_full_chain_read_directly():
    chain = Chain((frozenset(), frozenset({3}), frozenset({1, 3}), frozenset({1, 2, 3})))
    fill = [c for c in symmetric_chain_cover(3)]
    perms = chains_to_permutations([chain] + fill, 3)
    assert perms[0] == (3, 1, 2)


@pytest.mark.parametrize("n", range(1, 8))
def test_prefix_coverage(n):
    perms = chains_to_permutations(symmetric_chain_cover(n), n)
    assert len(perms) == math.comb(n, n // 2)
    prefix_sets = {frozenset(p[:t]) for p in perms for t in range(n + 1)}
    assert len(prefix_sets) == 1 << n


def test_non_covering_chains_rejected():
    with pytest.raises(ValidationError):
        chains_to_permutations([Chain((frozenset({1}),))], 2)


# ---------------------------------------------------------------------------
# dominating families
# ---------------------------------------------------------------------------

def test_dominating_n2_minimum_is_two():
    family = dominating_family(2)
    assert is_dominating_family(family, 2)
    assert len(family) == 2
    # oracle: no single nonempty subset dominates everything
    for mask_set in (frozenset({1}), frozenset({2}), frozenset({1, 2})):
        assert not is_dominating_family([mask_set], 2)


def test_dominating_n1():
    assert dominating_family(1) == (frozenset({1}),)


def test_dominating_n10_bound():
    family = dominating_family(10)
    assert is_dominating_family(family, 10)
    k = 11
    assert len(family) <= 2 ** (k + 3) * math.log(k) / (k + 1)


@pytest.mark.parametrize("seed", range(5))
def test_randomized_dominating(seed):
    family = dominating_family(6, "randomized", seed=seed)
    assert is_dominating_family(family, 6)
    assert all(family)  # never contains the empty set


def test_cover_variant_exempts_empty_set():
    family = dominating_family(2, require_empty=False)
    assert family == (frozenset({1, 2}),)
    assert is_dominating_family(family, 2, require_empty=False)
    assert not is_dominating_family(family, 2, require_empty=True)


def test_dominating_family_deterministic():
    assert dominating_family(7) == dominating_family(7)


# ---------------------------------------------------------------------------
# facet families
# ---------------------------------------------------------------------------

def covered_points(facets):
    return {v for facet in facets for v in facet.vertices}


def test_permutation_family_k3():
    perms = chains_to_permutations(symmetric_chain_cover(2), 2)
    facets = cover_facets(3, [(frozenset(), p) for p in perms])
    assert len(facets) == 2
    covered = covered_points(facets)
    top = {p for p in cube(3) if p[-1] == 1}
    assert top <= covered
    assert (0, 0, 0) in covered


def test_permutation_facet_k2():
    facets = cover_facets(2, [(frozenset(), (1,))])
    # the constructor may swap two vertices to fix the orientation sign
    assert set(facets[0].vertices) == {(0, 0), (0, 1), (1, 1)}


def test_full_support_vertex_in_every_permutation_facet():
    k = 4
    perms = chains_to_permutations(symmetric_chain_cover(k - 1), k - 1)
    facets = cover_facets(k, [(frozenset(), p) for p in perms])
    all_ones = (1,) * k
    for facet in facets:
        assert all_ones in facet.vertices


def test_dominating_facet_family_k3():
    rooted = [gen for gen in cover_generators(3, [frozenset({1, 2})]) if gen[0]]
    facets = cover_facets(3, rooted)
    assert len(facets) == 1
    verts = set(facets[0].vertices)
    assert {(1, 1, 0), (1, 0, 0), (0, 1, 0)} <= verts


def test_dominating_facet_rejects_empty_generator():
    # the empty root is a legal generator (a permutation facet), but not a
    # dominating one, and a root with an order that misses the rest is malformed
    with pytest.raises(ValidationError, match="empty set"):
        cover_generators(3, [frozenset(), frozenset({1, 2})])
    with pytest.raises(ValidationError, match=r"no \(root, order\) pair"):
        facet_vertices(3, frozenset(), ())
    with pytest.raises(PreconditionError, match="not dominating"):
        cover_generators(3, [])


def test_dominating_facet_k4_single_subset():
    verts = facet_vertices(4, frozenset({2}), (1, 3))
    assert (0, 1, 0, 0) in verts and (0, 0, 0, 0) in verts


def test_facet_vertices_reproduce_the_permutation_and_dominating_facets():
    # an empty root gives the permutation facet 0, e_4, e_4 + e_2, ... of (2, 1, 3); a root
    # {1, 3} with its completion the dominating facet of {1, 3}, vertex for vertex
    assert facet_vertices(4, frozenset(), (2, 1, 3)) == (
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1))
    assert facet_vertices(4, {1, 3}, (2,)) == (
        (1, 0, 1, 0), (1, 0, 1, 1), (0, 0, 1, 0), (1, 0, 0, 0), (1, 1, 1, 1))


@pytest.mark.parametrize("root,order", [
    ({4}, (1, 2, 3)),      # root outside [k-1]
    ({0, 1}, (2, 3)),      # root outside [k-1]
    ({1}, (2,)),           # order misses an element of the rest
    ({1}, (1, 2, 3)),      # order repeats the root
    (set(), (1, 2, 2, 3)),  # repeated element
    (set(), (1, 2, 2)),    # repeated element in place of a missing one
])
def test_facet_vertices_refuse_malformed_generators(root, order):
    with pytest.raises(ValidationError, match=r"no \(root, order\) pair"):
        facet_vertices(4, root, order)


@pytest.mark.parametrize("k,count", [(2, 2), (3, 5), (4, 16), (5, 65), (6, 326)])
def test_every_root_and_order_is_an_upper_facet(k, count):
    # each subset S of [k-1] with each order of the rest, screened in one call
    points, rest = cube(k), set(range(1, k))
    index = {p: i for i, p in enumerate(points)}
    generators = [(frozenset(root), order) for size in range(k)
                  for root in combinations(sorted(rest), size)
                  for order in permutations(sorted(rest - set(root)))]
    assert len(generators) == count
    simplices = [[index[v] for v in facet_vertices(k, root, order)]
                 for root, order in generators]
    facets = lift.facets_from_simplices(points, simplices, staircase_height(k), "upper")
    assert all(f is not None and f.orientation == "upper" for f in facets)


def test_cover_generators_compose_chains_and_a_dominating_family():
    for k in (2, 3, 4, 5):
        perms = chains_to_permutations(symmetric_chain_cover(k - 1), k - 1)
        family = dominating_family(k - 1, "randomized", seed=k, require_empty=False)
        generators = cover_generators(k, family)
        assert generators[:len(perms)] == tuple((frozenset(), p) for p in perms)
        assert [root for root, _ in generators[len(perms):]] == list(family)
        assert all(order == tuple(sorted(set(range(1, k)) - root))
                   for root, order in generators[len(perms):])
        greedy = dominating_family(k - 1, "greedy", require_empty=False)
        assert cover_generators(k) == cover_generators(k, greedy)
    with pytest.raises(ValidationError, match="k >= 2"):
        cover_generators(1)


def test_closed_form_rows_match_determinant_rows():
    # the inequalities y <= sum (2i-1) x_pi(i) and the subset variant are an
    # independent oracle for the determinant construction
    for k in (2, 3, 4):
        h = staircase_height(k)
        perms = chains_to_permutations(symmetric_chain_cover(k - 1), k - 1)
        for perm in perms:
            facet, = cover_facets(k, [(frozenset(), perm)])
            scale = facet.y_coeff
            coeffs = [(c / scale).as_fraction() for c in facet.coeffs]
            expected = [Fraction(0)] * k
            for i, var in enumerate(perm, start=1):
                expected[var - 1] = Fraction(-(2 * i - 1))
            assert coeffs == expected
            assert (facet.rhs / scale).as_fraction() == 0
        from relaxcert.lift import facet_inequality_from_simplex
        for family in (dominating_family(k - 1, require_empty=False),):
            for subset in family:
                facet = facet_inequality_from_simplex(
                    facet_vertices(k, subset, sorted(set(range(1, k)) - subset)), h, "upper")
                b = len(subset)
                scale = facet.y_coeff
                coeffs = [(c / scale).as_fraction() for c in facet.coeffs]
                rest = sorted(set(range(1, k)) - subset)
                expected = [Fraction(0)] * k
                for i in subset:
                    expected[i - 1] = Fraction(2 * b - 1)
                for i, var in enumerate(rest, start=1):
                    expected[var - 1] = Fraction(-(2 * b + 2 * i - 1))
                expected[k - 1] = Fraction(-2 * b * b)
                assert coeffs == expected
                assert (facet.rhs / scale).as_fraction() == b * b - b


# ---------------------------------------------------------------------------
# full covers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,expected_upper", [(2, 2), (3, 3)])
def test_full_cover_sizes(k, expected_upper):
    upper, lower = build_full_cover(k)
    assert len(upper) == expected_upper
    assert len(lower) == expected_upper
    points = set(cube(k))
    assert covered_points(upper) == points
    assert covered_points(lower) == points


def test_full_cover_every_vertex_on_upper_and_lower():
    k = 4
    upper, lower = build_full_cover(k)
    for p in cube(k):
        assert any(p in f.vertices for f in upper)
        assert any(p in f.vertices for f in lower)


# ---------------------------------------------------------------------------
# brute-force facet enumeration
# ---------------------------------------------------------------------------

def test_enumerate_upper_facets_k2():
    h = staircase_height(2)
    uppers = enumerate_simplicial_upper_facets(cube(2), h)
    covered = set()
    for f in uppers:
        covered.update(f.vertices)
    assert covered == set(cube(2))


def test_enumerate_affine_heights():
    from relaxcert.field import make_context
    from relaxcert.lift import HeightFunction
    ctx = make_context(1, 2)
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    h = HeightFunction.from_pairs((p, ctx.from_rational(p[0] + p[1])) for p in pts)
    # a flat lift has no simplicial facet among four coplanar lifted points
    assert enumerate_simplicial_upper_facets(pts, h) == []
    tri = pts[:3]
    h3 = HeightFunction.from_pairs((p, ctx.from_rational(p[0] + p[1])) for p in tri)
    assert len(enumerate_simplicial_upper_facets(tri, h3)) == 1


def test_enumeration_refuses_empty_point_list():
    with pytest.raises(ValidationError, match="at least one point"):
        enumerate_simplicial_upper_facets([], staircase_height(2))


def test_enumeration_refuses_mixed_dimensions():
    # the heights' domain has one dimension, so its check refuses the mixed list
    with pytest.raises(ValidationError, match="outside the heights' domain"):
        enumerate_simplicial_upper_facets([(0, 0), (1, 0, 1)], staircase_height(2))


def test_enumeration_refuses_points_outside_the_heights():
    with pytest.raises(ValidationError, match="outside the heights' domain"):
        enumerate_simplicial_lower_facets(cube(2) + [(2, 0)], staircase_height(2))


def test_enumeration_guard():
    from relaxcert.field import make_context
    from relaxcert.lift import HeightFunction
    ctx = make_context(1, 2)
    pts = [(i,) for i in range(5000)]
    h = HeightFunction.from_pairs((p, ctx.zero) for p in pts)
    with pytest.raises(ResourceLimitError):
        enumerate_simplicial_upper_facets(pts, h)


def test_enumeration_guard_counts_candidates(monkeypatch):
    # the 6-cube has only 64 points but C(64, 7) candidate simplices
    def no_work(*args):
        raise AssertionError("a candidate was examined before the guard")

    monkeypatch.setattr(cover, "_screen_facets", no_work)
    monkeypatch.setattr(lift, "_batched_rows", no_work)
    h = staircase_height(6)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_simplicial_upper_facets(cube(6), h)
    assert info.value.required == math.comb(64, 7)


# reference: build every candidate in field arithmetic, then check it with
# FacetSimplex.evaluate point by point, independently of the integer facet row

def reference_check(facet, points, heights):
    for point in points:
        if point in facet.vertices:
            continue
        s = facet.evaluate(point, heights(point)).sign()
        if s < 0:
            return FacetCheck(False, violated_at=point)
        if s == 0:
            return FacetCheck(False, tight_extra=point)
    return FacetCheck(True)


def reference_enumeration(points, heights, orientation):
    pts = sorted(points)
    facets = []
    for candidate in combinations(pts, len(pts[0]) + 1):
        try:
            facet = facet_inequality_from_simplex(candidate, heights, orientation)
        except DegenerateSimplexError:
            continue
        if reference_check(facet, pts, heights).valid:
            facets.append(facet)
    return facets


FIELDS = [(1, 2), (2, 2), (2, Fraction(3, 2)), (5, 2), (5, Fraction(3, 2))]


@st.composite
def lifted_point_sets(draw):
    """Points of {-1, 0, 1, 2}^k with heights drawn from a small pool, so ties and
    coplanar lifted points (extra tight points) are common."""
    degree, radicand = draw(st.sampled_from(FIELDS))
    ctx = make_context(degree, radicand)
    k = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * k), min_size=k + 1,
                           max_size=7, unique=True))
    coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    pool = draw(st.lists(st.lists(coeff, min_size=degree, max_size=degree).map(ctx.element),
                         min_size=1, max_size=3))
    heights = HeightFunction.from_pairs((p, draw(st.sampled_from(pool))) for p in points)
    return points, heights


SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]


@settings(max_examples=120, deadline=None)
@given(case=lifted_point_sets(), orientation=st.sampled_from(["upper", "lower"]),
       data=st.data())
@example(case=(SQUARE, HeightFunction.from_pairs(
    (p, make_context(2, 2).from_rational(0)) for p in SQUARE)),
    orientation="upper", data=None)
def test_integer_facet_rows_match_field_reference(case, orientation, data):
    points, heights = case
    facets = enumerate_simplicial_upper_facets(points, heights, orientation)
    expected = reference_enumeration(points, heights, orientation)
    assert facets == expected
    assert [f.to_json_dict() for f in facets] == [f.to_json_dict() for f in expected]
    assert all(f.y_coeff.sign() == (1 if orientation == "upper" else -1) for f in facets)
    # the check alone, on candidates in any orientation and points in any order
    candidates = list(combinations(sorted(points), len(points[0]) + 1))
    for attempt in range(6):
        if data is None:
            candidate, order, side = candidates[attempt % len(candidates)], points, "upper"
        else:
            candidate = data.draw(st.sampled_from(candidates))
            order = data.draw(st.permutations(points))
            side = data.draw(st.sampled_from(["upper", "lower"]))
        try:
            facet = facet_inequality_from_simplex(candidate, heights, side)
        except DegenerateSimplexError:
            continue
        expected_check = reference_check(facet, order, heights)
        assert check_upper_facet(facet, order, heights) == expected_check
        # a positive rational multiple of the row, with a non-integral y_coeff
        parts = [e * Fraction(2, 3) for e in (facet.y_coeff, facet.rhs, *facet.coeffs)]
        scaled = FacetSimplex(facet.vertices, side, tuple(parts[2:]), parts[0], parts[1])
        assert check_upper_facet(scaled, order, heights) == expected_check


def spy_blocks(monkeypatch):
    """Record the length and dtype of every block the facet screen eliminates."""
    seen, batched = [], lift._batched_rows

    def spy(m, orientation):
        seen.append((m.shape[-1], m.dtype))
        return batched(m, orientation)

    monkeypatch.setattr(lift, "_batched_rows", spy)
    return seen


@pytest.mark.parametrize("orientation", ["upper", "lower"])
def test_screen_block_size_does_not_change_the_facets(monkeypatch, orientation):
    points = cube(3)
    ctx = make_context(2, 2)
    cases = [staircase_height(3), HeightFunction.from_pairs(
        (p, ctx.element([i - 3, Fraction(i % 3, 2)])) for i, p in enumerate(points)),
        HeightFunction.from_pairs(  # the staircase moved off Q, so degree 2 splits blocks too
            (p, ctx.element([(2 * p[-1] - 1) * sum(p[:-1]) ** 2, Fraction(i % 3, 4)]))
            for i, p in enumerate(points))]
    for heights in cases:
        expected = [f.to_json_dict()
                    for f in enumerate_simplicial_upper_facets(points, heights, orientation)]
        # the screen sees only the candidates that the parallelogram rule leaves
        count = len(list(lift._circuit_candidates(points, heights, orientation)))
        assert len(expected) <= count < math.comb(8, 4)
        # at k = 3 the largest array of a block holds 4 x (4 + n) entries per candidate
        for block in (1, 3):
            seen = spy_blocks(monkeypatch)
            monkeypatch.setattr(poly, "_CHUNK", block * 4 * (4 + heights.context.degree))
            facets = enumerate_simplicial_upper_facets(points, heights, orientation)
            assert [f.to_json_dict() for f in facets] == expected
            assert sorted(size for size, _ in seen) == sorted(
                [block] * (count // block) + [count % block] * (count % block > 0))
            monkeypatch.undo()


@pytest.mark.parametrize("degree", [1, 2])
def test_screen_object_path_past_int64_headroom(monkeypatch, degree):
    # height numerators near 2^40 put the elimination products past 2^62
    ctx = make_context(degree, 2)
    big = 1 << 40
    heights = HeightFunction.from_pairs(
        (p, ctx.element([big * (sum(p[:-1]) ** 2) * (2 * p[-1] - 1) + i, *[big - i] * (degree - 1)]))
        for i, p in enumerate(cube(3)))
    seen = spy_blocks(monkeypatch)
    for orientation in ("upper", "lower"):
        facets = enumerate_simplicial_upper_facets(cube(3), heights, orientation)
        assert facets == reference_enumeration(cube(3), heights, orientation)
        assert facets
    assert seen and all(dtype == object for _, dtype in seen)


def test_screen_refuses_unknown_orientation():
    with pytest.raises(ValidationError, match="unknown orientation"):
        enumerate_simplicial_upper_facets(cube(2), staircase_height(2), "sideways")


@pytest.mark.parametrize("k", [2, 3, 5])
def test_involution_bijection_between_facet_lists(k):
    h = staircase_height(k)
    uppers = enumerate_simplicial_upper_facets(cube(k), h)
    lowers = enumerate_simplicial_lower_facets(cube(k), h)
    assert len(uppers) == len(lowers) == {2: 2, 3: 6, 5: 82}[k]
    reflect = lambda vs: frozenset(v[:-1] + (1 - v[-1],) for v in vs)
    assert {reflect(f.vertices) for f in uppers} == {frozenset(f.vertices) for f in lowers}


# ---------------------------------------------------------------------------
# the parallelogram pre-screen
# ---------------------------------------------------------------------------

def index_tuples(facets, points):
    index = {p: i for i, p in enumerate(points)}
    return sorted(tuple(sorted(index[v] for v in f.vertices)) for f in facets)


@pytest.mark.parametrize("k, count", [(3, 6), (4, 20), (5, 82)])
@pytest.mark.parametrize("orientation", ["upper", "lower"])
def test_circuit_candidates_are_the_lifted_cube_facets(monkeypatch, k, count, orientation):
    # of C(2^k, k + 1) subsets (70, 4,368 and 906,192) the rule alone leaves the facets
    points, heights = cube(k), staircase_height(k)
    expected = index_tuples(enumerate_simplicial_upper_facets(points, heights, orientation),
                            points)
    assert len(expected) == count
    assert list(lift._circuit_candidates(points, heights, orientation)) == expected
    # one prefix a block: the same tuples, in the same order
    monkeypatch.setattr(poly, "_CHUNK", 1)
    assert list(lift._circuit_candidates(points, heights, orientation)) == expected


@st.composite
def midpoint_sets(draw):
    """lifted_point_sets with p - d and p + d added for a drawn point p, so that p is a
    midpoint and the pair {p - d, p + d} shares its sum with the pair {p, p}."""
    points, heights = draw(lifted_point_sets())
    values, extra = list(heights.values.values()), {}
    p = draw(st.sampled_from(points))
    d = draw(st.tuples(*[st.integers(-1, 1)] * len(p)).filter(any))
    for q in (tuple(x - y for x, y in zip(p, d)), tuple(x + y for x, y in zip(p, d))):
        if q not in heights.values:
            extra[q] = draw(st.sampled_from(values))
    return points + list(extra), HeightFunction.from_pairs([*heights.values.items(),
                                                            *extra.items()])


@settings(max_examples=80, deadline=None)
@given(case=st.one_of(lifted_point_sets(), midpoint_sets()),
       orientation=st.sampled_from(["upper", "lower"]))
@example(case=(SQUARE, HeightFunction.from_pairs(
    (p, make_context(1, 2).from_rational(p[0] ** 2)) for p in SQUARE)), orientation="lower")
def test_circuit_candidates_keep_every_facet(case, orientation):
    points, heights = case
    points = sorted(points)
    candidates = list(lift._circuit_candidates(points, heights, orientation))
    assert candidates == sorted(set(candidates))  # lex order, each once
    assert set(index_tuples(reference_enumeration(points, heights, orientation), points)
               ) <= set(candidates)


def test_brute_force_screens_candidates_as_they_stream(monkeypatch):
    # 14 random points of [0, 10^6]^2 share no pair sums, so the parallelogram rule keeps
    # all C(14, 3) = 364 triples; a screen block over 14 points holds 12 of them here
    rng = random.Random(5)
    ctx = make_context(1, 2)
    points = sorted({(rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)) for _ in range(14)})
    heights = HeightFunction.from_pairs(
        (p, ctx.from_rational(rng.randint(0, 10 ** 6))) for p in points)
    expected = [f.to_json_dict() for f in enumerate_simplicial_upper_facets(points, heights)]
    yielded, screened = [0], []

    def counting(*args):
        for candidate in lift._circuit_candidates(*args):
            yielded[0] += 1
            yield candidate

    def screening(points, block, *args):
        screened.append((yielded[0], len(block)))
        return lift._screen_facets(points, block, *args)

    monkeypatch.setattr(cover, "_circuit_candidates", counting)
    monkeypatch.setattr(cover, "_screen_facets", screening)
    monkeypatch.setattr(poly, "_CHUNK", 12 * 14)
    facets = enumerate_simplicial_upper_facets(points, heights)
    assert [f.to_json_dict() for f in facets] == expected and expected
    assert yielded[0] == math.comb(14, 3)
    # the first block is screened before the 13th candidate is drawn
    assert screened[0] == (12, 12)
    assert [size for _, size in screened] == [12] * 30 + [4]


def test_circuit_candidates_working_set_stays_linear_in_the_pairs():
    # 600 collinear points on a parabola: C(600, 2) = 179,700 candidates, under the
    # guard, in sum groups of up to 300 pairs; comparing every pair with every other
    # of its group would hold about 36M entries
    ctx = make_context(1, 2)
    points = [(x,) for x in range(600)]
    heights = HeightFunction.from_pairs((p, ctx.from_rational(p[0] ** 2)) for p in points)
    tracemalloc.start()
    try:
        uppers = enumerate_simplicial_upper_facets(points, heights)
        lowers = enumerate_simplicial_lower_facets(points, heights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index_tuples(uppers, points) == [(0, 599)]
    assert index_tuples(lowers, points) == [(x, x + 1) for x in range(599)]
    assert peak < 64 << 20


# ---------------------------------------------------------------------------
# exact set cover
# ---------------------------------------------------------------------------

def test_exact_cover_single_set():
    assert exact_min_cover([{1, 2, 3}], [1, 2, 3]) == 1


def test_exact_cover_guard():
    sets = [{i} for i in range(25)]
    with pytest.raises(ResourceLimitError):
        exact_min_cover(sets, list(range(25)))


def test_exact_cover_uncoverable():
    with pytest.raises(ValidationError):
        exact_min_cover([{1}], [1, 2])


def test_exact_cover_small_instances():
    sets = [{1, 2}, {2, 3}, {3, 4}, {1, 4}]
    assert exact_min_cover(sets, [1, 2, 3, 4]) == 2


def test_sucn_equals_slcn_k2_by_exact_search():
    h = staircase_height(2)
    pts = cube(2)
    uppers = enumerate_simplicial_upper_facets(pts, h)
    lowers = enumerate_simplicial_lower_facets(pts, h)
    sucn = exact_min_cover(uppers, pts)
    slcn = exact_min_cover(lowers, pts)
    assert sucn == slcn == 2


def test_facet_validation_inside_family_construction():
    # every realized facet passes the determinant oracle at every cube vertex
    for k in (2, 3, 4):
        upper, lower = build_full_cover(k)
        h = staircase_height(k)
        pts = cube(k)
        for facet in upper + lower:
            assert check_upper_facet(facet, pts, h).valid
