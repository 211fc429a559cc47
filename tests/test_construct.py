import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaxcert import construct, cover, lift, poly
from relaxcert._linalg import determinant
from relaxcert.construct import (RelaxationBundle,
                                 composed_simplex_relaxation, cube_simplex_split,
                                 free_join_compose, pipeline_cover_sizes,
                                 pipeline_row_count, pipeline_run,
                                 projected_simplex_relaxation, relaxation_bound_table,
                                 simplex5_relaxation, simplex_points,
                                 standard_simplex_bundle, stretched_simplex_points,
                                 stretched_simplex_relaxation)
from relaxcert.errors import (CertificationError, PreconditionError, ResourceLimitError,
                              ValidationError)
from relaxcert.field import make_context
from relaxcert.lift import HeightFunction, affine_interpolant, staircase_height
from relaxcert.poly import DEFAULT_POINT_CAP, Box, LinearSystem, PointSet, Row
from relaxcert.verify import box_check, certify_mixed

CTX2 = make_context(2, 2)


# ---------------------------------------------------------------------------
# the five-row mixed system
# ---------------------------------------------------------------------------

def test_five_row_system_shape():
    P = projected_simplex_relaxation(Fraction(1, 8))
    assert P.num_rows == 5 and P.num_vars == 4
    assert P.context.degree == 2


def test_row_four_tight_at_irrational_point():
    P = projected_simplex_relaxation(Fraction(1, 8))
    minus_inv = CTX2.element((0, Fraction(-1, 2)))
    membership = P.contains((0, 1, 1, minus_inv))
    assert membership.inside
    assert 3 in membership.tight_rows  # -x3 - sqrt2*x4 <= 0
    assert 2 in membership.tight_rows  # the eps row is tight there as well


def test_eps_range_validated():
    with pytest.raises(ValidationError):
        projected_simplex_relaxation(Fraction(0))
    with pytest.raises(ValidationError):
        projected_simplex_relaxation(Fraction(3, 2))


# ---------------------------------------------------------------------------
# the 5-dimensional relaxation and its stretched family
# ---------------------------------------------------------------------------

def test_dim5_bundle_box_check():
    bundle = simplex5_relaxation()
    assert bundle.claimed_facets == 5
    result = box_check(bundle, Box.uniform(-2, 3, 5))
    assert result.passed and result.points_found == 6


def test_dim5_membership_spot_checks():
    bundle = simplex5_relaxation()
    assert bundle.system.contains((0, 1, 1, 0, 1)).inside
    assert not bundle.system.contains((0, 0, 0, 1, 1)).inside


def test_stretched_a1_equals_dim5_rows():
    assert stretched_simplex_relaxation(1).system.rows == \
        simplex5_relaxation().system.rows


@pytest.mark.parametrize("a", [2, 3])
def test_stretched_box_checks(a):
    bundle = stretched_simplex_relaxation(a)
    result = box_check(bundle)
    assert result.passed and result.points_found == 6


def test_stretched_volumes_pairwise_distinct():
    # exact determinant of the edge matrix equals a (simplex volume a / 5!)
    ctx = make_context(1, 2)
    volumes = {}
    for a in (1, 2, 3):
        points = stretched_simplex_points(a).points
        edges = [tuple(q - r for q, r in zip(p, points[0])) for p in points[1:]]
        matrix = [[ctx.from_rational(edges[c][r]) for c in range(5)] for r in range(5)]
        det = determinant(matrix, ctx).as_fraction()
        volumes[a] = abs(det)
    assert volumes == {1: 1, 2: 2, 3: 3}
    assert len(set(volumes.values())) == 3


def test_stretched_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        stretched_simplex_relaxation(0)


# ---------------------------------------------------------------------------
# free joins
# ---------------------------------------------------------------------------

def segment_bundle():
    ctx = CTX2
    from relaxcert.poly import LinearSystem, PointSet, Row
    system = LinearSystem(ctx, 1, (Row((ctx.one,), ctx.one),
                                   Row((-ctx.one,), ctx.zero)))
    return RelaxationBundle(system, PointSet(1, ((0,), (1,))),
                            {"construction": "segment"}, Box.uniform(-2, 2, 1))


def test_join_of_segments():
    joined = free_join_compose(segment_bundle(), segment_bundle())
    assert joined.claimed_facets == 4
    points = joined.system.enumerate_lattice_points(Box.uniform(-2, 2, 3))
    assert set(points) == {(0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1)}
    assert set(points) == joined.target.as_set()


def test_pyramid_join_adds_one_row():
    base = segment_bundle()
    pyramid = free_join_compose(base, standard_simplex_bundle(0))
    assert pyramid.claimed_facets == base.claimed_facets + 1
    points = pyramid.system.enumerate_lattice_points(Box.uniform(-2, 2, 2))
    assert set(points) == {(0, 0), (1, 0), (0, 1)}


def test_join_of_dim5_blocks():
    joined = free_join_compose(simplex5_relaxation(), simplex5_relaxation())
    assert joined.claimed_facets == 10
    assert len(joined.target) == 12
    for p in joined.target.points:
        assert joined.system.contains(p).inside
    # a few points near the target must stay outside
    assert not joined.system.contains((1,) * 11).inside
    assert not joined.system.contains((0,) * 10 + (2,)).inside


def test_join_requires_origin():
    from relaxcert.poly import LinearSystem, PointSet, Row
    ctx = CTX2
    shifted = RelaxationBundle(
        LinearSystem(ctx, 1, (Row((ctx.one,), ctx.from_rational(2)),
                              Row((-ctx.one,), ctx.from_rational(-1)))),
        PointSet(1, ((1,), (2,))), {"construction": "shifted"}, Box.uniform(0, 3, 1))
    with pytest.raises(PreconditionError):
        free_join_compose(shifted, segment_bundle())


def test_join_requires_positive_rhs_somewhere():
    from relaxcert.poly import LinearSystem, PointSet, Row
    ctx = CTX2
    cone = RelaxationBundle(
        LinearSystem(ctx, 1, (Row((ctx.one,), ctx.zero),)),
        PointSet(1, ((0,), (-1,))), {"construction": "cone"}, Box.uniform(-2, 1, 1))
    with pytest.raises(PreconditionError):
        free_join_compose(cone, segment_bundle())


def _binary_join(left, right):
    """Reference binary free join: left at level z = 0, right at level z = 1."""
    ctx = left.system.context
    if right.system.context != ctx:
        raise ValidationError("free join requires a shared field context")
    k, l = left.system.num_vars, right.system.num_vars
    if tuple([0] * k) not in left.target or tuple([0] * l) not in right.target:
        raise PreconditionError("free join needs the origin in both point sets")
    for bundle in (left, right):
        signs = [row.rhs.sign() for row in bundle.system.rows]
        if any(s < 0 for s in signs) or not any(s > 0 for s in signs):
            raise PreconditionError("bad right-hand sides")
    zero = ctx.zero
    rows = [Row(row.coeffs + (zero,) * l + (row.rhs,), row.rhs) for row in left.system.rows]
    rows += [Row((zero,) * k + row.coeffs + (-row.rhs,), zero) for row in right.system.rows]
    points = [p + (0,) * (l + 1) for p in left.target.points]
    points += [(0,) * k + q + (1,) for q in right.target.points]
    provenance = {"construction": "free_join",
                  "left": left.provenance.get("construction"),
                  "right": right.provenance.get("construction"), "rows": len(rows)}
    return RelaxationBundle(LinearSystem(ctx, k + l + 1, tuple(rows)),
                            PointSet(k + l + 1, tuple(points), label="free_join"),
                            provenance, Box.uniform(-1, 2, k + l + 1))


def _folded_join(bundles):
    joined = bundles[0]
    for bundle in bundles[1:]:
        joined = _binary_join(joined, bundle)
    return joined


def _one_var_bundle(rhs_pair, points, name, ctx=CTX2):
    """The rows x <= r0 and -x <= r1 over one variable, with the given target."""
    r0, r1 = (ctx.from_rational(r) for r in rhs_pair)
    system = LinearSystem(ctx, 1, (Row((ctx.one,), r0), Row((-ctx.one,), r1)))
    return RelaxationBundle(system, PointSet(1, points), {"construction": name},
                            Box.uniform(-2, 2, 1))


GOOD_BUNDLES = ([segment_bundle()] + [standard_simplex_bundle(d) for d in range(5)]
                + [simplex5_relaxation(), stretched_simplex_relaxation(2),
                   stretched_simplex_relaxation(3)])
BAD_BUNDLES = [
    _one_var_bundle((2, 0), ((1,), (2,)), "no_origin"),
    _one_var_bundle((1, -1), ((0,), (1,)), "negative_rhs"),
    _one_var_bundle((0, 0), ((0,), (-1,)), "no_positive_rhs"),
    standard_simplex_bundle(2, make_context(3, 2)),
]


def _join_outcome(join, bundles):
    """The joined bundle's JSON, or the class of the exception the join raises."""
    try:
        return join(bundles).to_json_dict()
    except (ValidationError, PreconditionError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(GOOD_BUNDLES), min_size=2, max_size=6))
def test_nary_join_equals_binary_fold(bundles):
    assert free_join_compose(*bundles).to_json_dict() == _folded_join(bundles).to_json_dict()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(GOOD_BUNDLES + BAD_BUNDLES), min_size=2, max_size=6))
def test_nary_join_raises_like_the_fold(bundles):
    assert _join_outcome(lambda bs: free_join_compose(*bs), bundles) == \
        _join_outcome(_folded_join, bundles)


@pytest.mark.parametrize("bad", BAD_BUNDLES, ids=lambda b: b.provenance["construction"])
@pytest.mark.parametrize("position", range(4))
def test_nary_join_refuses_a_bad_bundle_anywhere(bad, position):
    bundles = [simplex5_relaxation()] * 3
    bundles.insert(position, bad)
    expected = _join_outcome(_folded_join, bundles)
    assert expected in (ValidationError, PreconditionError)
    assert _join_outcome(lambda bs: free_join_compose(*bs), bundles) is expected


def _row_tuple_join(*bundles):
    """Reference n-ary join on Row tuples, as free_join_compose built it before its
    integer block (the checks are the fold's, tested above)."""
    first, ctx = bundles[0], bundles[0].system.context
    zero = ctx.zero
    sizes = [b.system.num_vars for b in bundles]
    total = sum(sizes) + len(bundles) - 1
    rows = []
    for row in first.system.rows:
        coeffs = list(row.coeffs)
        for k in sizes[1:]:
            coeffs += (zero,) * k
            coeffs.append(row.rhs)
        rows.append(Row(tuple(coeffs), row.rhs))
    points = [p + (0,) * (total - sizes[0]) for p in first.target.points]
    offset = sizes[0]
    for bundle, k in zip(bundles[1:], sizes[1:]):
        before, after = (zero,) * offset, (zero,) * (total - offset - k - 1)
        rows += [Row(before + row.coeffs + (-row.rhs,) + after, zero)
                 for row in bundle.system.rows]
        before, after = (0,) * offset, (0,) * (total - offset - k - 1)
        points += [before + q + (1,) + after for q in bundle.target.points]
        offset += k + 1
    provenance = {
        "construction": "free_join",
        "left": first.provenance.get("construction") if len(bundles) == 2 else "free_join",
        "right": bundles[-1].provenance.get("construction"),
        "rows": len(rows),
    }
    return RelaxationBundle(LinearSystem(ctx, total, tuple(rows)),
                            PointSet(total, tuple(points), label="free_join"), provenance,
                            Box.uniform(-1, 2, total))


def _rebuilt_integer_rows(system):
    """The system's _integer_rows equal those built afresh from its rows: arrays,
    dtype, denominators and top."""
    rebuilt = LinearSystem(system.context, system.num_vars, system.rows, system.names)
    (a, b, dens, top), (a2, b2, dens2, top2) = system._integer_rows, rebuilt._integer_rows
    return (a.dtype == a2.dtype and b.dtype == b2.dtype and a.shape == a2.shape
            and b.shape == b2.shape and (a == a2).all() and (b == b2).all()
            and dens == dens2 and top == top2)


def _composed_parts(d):
    copies, remainder = divmod(d + 1, 6)
    parts = [simplex5_relaxation()] * copies
    if remainder:
        parts.append(standard_simplex_bundle(remainder - 1))
    return parts


@pytest.mark.parametrize("d", [*range(1, 41), 101, 200])
def test_join_block_matches_the_row_tuple_join(d):
    """The composed bound's JSON is byte for byte the Row-tuple join's, its integer
    block equals a rebuild from its rows, and every zero entry it reads is the
    context's one zero."""
    bundle, parts = composed_simplex_relaxation(d), _composed_parts(d)
    if len(parts) > 1:
        joined, reference = free_join_compose(*parts), _row_tuple_join(*parts)
        assert "rows" not in vars(joined.system)  # built when read
        assert json.dumps(joined.to_json_dict()) == json.dumps(reference.to_json_dict())
        assert json.dumps(bundle.system.to_json_dict()) == json.dumps(
            reference.system.to_json_dict())
    assert _rebuilt_integer_rows(bundle.system)
    zero = bundle.system.context.zero
    assert all(c is zero for row in bundle.system.rows for c in (*row.coeffs, row.rhs) if not c)


def test_join_of_object_integer_rows():
    """A bundle whose integer rows are Python integers (dtype object) joins like the
    Row-tuple join, on either side, and the block is int64 again once it fits."""
    huge = 1 << 70
    segment = RelaxationBundle(
        LinearSystem(CTX2, 1, (Row((CTX2.from_rational(huge),), CTX2.from_rational(huge)),
                               Row((-CTX2.one,), CTX2.zero))),
        PointSet(1, ((0,), (1,))), {"construction": "huge_segment"}, Box.uniform(-2, 2, 1))
    assert segment.system._integer_rows[0].dtype == object
    small = standard_simplex_bundle(2)
    for parts in ((segment, small), (small, segment, segment), (small, small)):
        joined = free_join_compose(*parts)
        assert joined.to_json_dict() == _row_tuple_join(*parts).to_json_dict()
        assert _rebuilt_integer_rows(joined.system)
        assert (joined.system._integer_rows[0].dtype == object) == (segment in parts)


def test_join_signs_irrational_right_hand_sides():
    """Right-hand sides with a sqrt2 part are signed exactly by the kernel, as the fold
    signs them: sqrt2 - 1 > 0 joins and 1 - sqrt2 < 0 is refused; rows whose rhs are
    all sqrt2 - sqrt2 = 0 have no positive one."""
    s = CTX2.element((0, 1))

    def segment(upper, lower, name):
        system = LinearSystem(CTX2, 1, (Row((CTX2.one,), upper), Row((-CTX2.one,), lower)))
        return RelaxationBundle(system, PointSet(1, ((0,),)), {"construction": name},
                                Box.uniform(-2, 2, 1))
    good = segment(s - 1, CTX2.zero, "irrational")
    for bundles in ((good, segment(1 - s, CTX2.zero, "negative")),
                    (segment(s - s, CTX2.zero, "zero"), good), (good, good, segment_bundle())):
        assert _join_outcome(lambda bs: free_join_compose(*bs), bundles) == \
            _join_outcome(_folded_join, bundles)
    assert _join_outcome(lambda bs: free_join_compose(*bs), (good, good)) == \
        _row_tuple_join(good, good).to_json_dict()


@pytest.mark.parametrize("d", range(6))
def test_standard_simplex_block_matches_its_rows(d):
    ctx = CTX2
    rows = tuple(Row(tuple(-ctx.one if j == i else ctx.zero for j in range(d)), ctx.zero)
                 for i in range(d)) + (Row((ctx.one,) * d, ctx.one),)
    system = standard_simplex_bundle(d).system
    assert system.rows == rows and system.num_rows == d + 1
    assert _rebuilt_integer_rows(system)


_BENCH_EPS = ("1/8", "1/9", "1/10", "1/12", "1/16", "1/32", "1/64", "1/100",
              "1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "3/16", "5/32", "2/9")


@pytest.mark.parametrize("eps", [*_BENCH_EPS, "7/11", "12345678901234567891/12345678901234567893"])
def test_five_row_block_from_numerators_matches_its_field_rows(eps):
    """The block built from integer numerators has the rows, names and integer rows
    of the field-element build it replaced."""
    e = Fraction(eps)
    one_minus = 1 - e

    def el(a, b=0):
        return CTX2.element((Fraction(a), Fraction(b)))
    rows = [((el(-1), el(0), el(0), el(1)), el(0)),
            ((el(0), el(0), el(-1), el(1)), el(0)),
            ((el(e), el(1), el(-one_minus, one_minus), el(2 * one_minus, -one_minus)), el(1)),
            ((el(0), el(0), el(-1), el(0, -1)), el(0)),
            ((el(1), el(-(1 + e)), el(1), el(-1)), el(1))]
    reference = LinearSystem.from_rows(CTX2, rows, 4, names=("x1", "x2", "x3", "x4"))
    system = projected_simplex_relaxation(eps)
    assert "rows" not in vars(system)
    assert system.to_json_dict() == reference.to_json_dict() and system == reference
    assert _rebuilt_integer_rows(system)


def test_join_needs_two_bundles():
    for bundles in ((), (segment_bundle(),)):
        with pytest.raises(ValidationError):
            free_join_compose(*bundles)


# ---------------------------------------------------------------------------
# composed relaxations
# ---------------------------------------------------------------------------

def test_composed_row_count_formula_small():
    for d in range(1, 41):
        bundle = composed_simplex_relaxation(d)
        assert bundle.claimed_facets == 5 * ((d + 1) // 6) + (d + 1) % 6
        assert bundle.system.num_vars == d
        assert len(bundle.target) == d + 1


def test_composed_equals_the_binary_fold():
    block = simplex5_relaxation()
    for d in list(range(1, 61)) + [200]:
        copies, remainder = divmod(d + 1, 6)
        parts = [block] * copies
        if remainder:
            parts.append(standard_simplex_bundle(remainder - 1))
        bundle, folded = composed_simplex_relaxation(d), _folded_join(parts)
        assert bundle.system.to_json_dict() == folded.system.to_json_dict(), d
        assert bundle.target.to_json_dict() == folded.target.to_json_dict(), d


def test_composed_joins_once(monkeypatch):
    calls = []

    def counting(*bundles):
        calls.append(len(bundles))
        return free_join_compose(*bundles)

    monkeypatch.setattr(construct, "free_join_compose", counting)
    bundle = composed_simplex_relaxation(200)
    assert calls == [34] and bundle.claimed_facets == 168


def test_composed_d5_is_dim5():
    assert composed_simplex_relaxation(5).claimed_facets == 5


def test_composed_d7_box_check():
    bundle = composed_simplex_relaxation(7)
    result = box_check(bundle, Box.uniform(-1, 2, 7))
    assert result.passed and result.points_found == 8


def test_composed_d13_window():
    # [-1, 2]^13 holds 2^26 points, exactly the default cap; pruning visits few of them
    box = Box.uniform(-1, 2, 13)
    assert box.volume == DEFAULT_POINT_CAP
    result = box_check(composed_simplex_relaxation(13), box)
    assert result.passed and result.points_found == 14


def test_dim5_base_certified_once_per_eps_and_cap(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["cap"])
        return certify_mixed(*args, **kwargs)

    monkeypatch.setattr(construct, "certify_mixed", counting)
    construct._certified_base.cache_clear()
    construct._stretched_block.cache_clear()
    first = simplex5_relaxation("1/9")
    again = simplex5_relaxation(Fraction(1, 9))
    assert calls == [DEFAULT_POINT_CAP]
    # a fresh bundle and provenance on every call
    assert again == first and again is not first
    first.provenance["touched"] = True
    assert "touched" not in simplex5_relaxation("1/9").provenance
    composed_simplex_relaxation(40, "1/9")
    stretched_simplex_relaxation(2, "1/9")
    assert calls == [DEFAULT_POINT_CAP]
    simplex5_relaxation("1/9", cap=1 << 20)
    assert calls == [DEFAULT_POINT_CAP, 1 << 20]
    # refuted and partial certificates are not cached
    for eps, cap, error in (("1/2", DEFAULT_POINT_CAP, CertificationError),
                            ("1/2", DEFAULT_POINT_CAP, CertificationError),
                            ("1/9", 10, ResourceLimitError), ("1/9", 10, ResourceLimitError)):
        with pytest.raises(error):
            simplex5_relaxation(eps, cap=cap)
    assert len(calls) == 6
    construct._certified_base.cache_clear()
    construct._stretched_block.cache_clear()


def test_stretched_block_pulled_back_once():
    first, again = stretched_simplex_relaxation(3), stretched_simplex_relaxation(3)
    assert again.system is first.system
    assert again.provenance == first.provenance and again.provenance is not first.provenance
    assert stretched_simplex_relaxation(2).system != first.system


def test_standard_simplex_bundle_counts():
    for d in (1, 2, 4):
        bundle = standard_simplex_bundle(d)
        assert bundle.claimed_facets == d + 1
        assert box_check(bundle, Box.uniform(-1, 2, d)).passed


# ---------------------------------------------------------------------------
# the cube-projection simplex copy
# ---------------------------------------------------------------------------

def test_cube_split_k2():
    split = cube_simplex_split(2)
    assert split.points.dimension == 3
    assert split.moved.points == ((1, 1),)


def test_cube_split_k3():
    split = cube_simplex_split(3)
    assert len(split.moved) == 4
    assert split.base.points == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    projections = {c[:3] for c in split.points.points}
    assert len(projections) == 8  # every 0/1 vector appears


def test_cube_split_unimodular_witness():
    for k in (2, 3):
        split = cube_simplex_split(k)
        d = (1 << k) - 1
        matrix = [list(row) for row in split.basis_matrix]
        ctx = make_context(1, 2)
        as_field = [[ctx.from_rational(v) for v in row] for row in matrix]
        det = determinant(as_field, ctx).as_fraction()
        assert abs(det) == 1
        # the matrix maps the unit vectors onto the nonzero columns
        for i in range(d):
            image = tuple(matrix[r][i] for r in range(d))
            assert image == split.points.points[i + 1]


# ---------------------------------------------------------------------------
# the full chain
# ---------------------------------------------------------------------------

def test_pipeline_k2():
    run = pipeline_run(2)
    assert run.bundle.claimed_facets == 8
    assert run.certificate.certified
    assert run.perturbed.context.degree == 2
    result = box_check(run.bundle, Box.uniform(-1, 2, 3))
    assert result.passed and result.points_found == 4


def test_pipeline_k3():
    run = pipeline_run(3)
    assert run.bundle.claimed_facets == 12
    assert run.mixed_system.num_rows == 12
    assert run.certificate.certified
    assert run.perturbed.context.degree == 5
    result = box_check(run.bundle, Box.uniform(-1, 2, 7))
    assert result.passed and result.points_found == 8


def test_pipeline_row_count_formula():
    for k in range(2, 9):
        sizes = pipeline_cover_sizes(k)
        expected = 2 * k + 2 * (math.comb(k - 1, (k - 1) // 2)
                                + sizes["dominating_facets"])
        assert sizes["rows"] == expected
    assert pipeline_row_count(3) == 12


def test_pipeline_relaxation_returns_bundle():
    bundle = pipeline_run(2).bundle
    assert isinstance(bundle, RelaxationBundle)
    assert bundle.provenance["mixed_certified"] is True


def test_pipeline_rejects_large_k_when_certifying():
    with pytest.raises(ValidationError):
        pipeline_run(9)


def test_pipeline_partial_under_the_cap_is_a_resource_error():
    # the k = 4 box holds 16 points; a partial certificate is not a refutation
    with pytest.raises(ResourceLimitError, match=r"at k=4 is partial: box holds 16 lattice "
                                                 r"points, above the cap of 10"):
        pipeline_run(4, cap=10)


def test_pipeline_k5_certifies():
    run = pipeline_run(5)
    assert run.certificate.certified
    assert run.bundle.claimed_facets == 32 == pipeline_row_count(5)
    assert run.perturbed.context.degree == 27


def test_pipeline_k6_certifies():
    run = pipeline_run(6)
    assert run.certificate.certified
    assert run.bundle.claimed_facets == 54 == pipeline_row_count(6)
    assert run.perturbed.context.degree == 58


def test_pipeline_k7_certifies():
    run = pipeline_run(7)
    assert run.certificate.certified
    assert run.bundle.claimed_facets == 88 == pipeline_row_count(7)
    assert run.perturbed.context.degree == 121


def test_pipeline_screens_the_perturbed_cover_once_for_both_orientations(monkeypatch):
    # perturb_heights builds the cover rows, and pipeline_run takes them as they are: one
    # rebuild on the perturbed heights over the whole cover with both orientations, which
    # also decides the refusal; a cold cover adds one screen before it, also with both
    # orientations, on the staircase heights
    screened, calls = lift._screened, []

    def counting(points, simplices, heights, orientation):
        calls.append((heights, orientation))
        return screened(points, simplices, heights, orientation)

    monkeypatch.setattr(lift, "_screened", counting)
    for k in (3, 4):
        upper, lower = cover.build_full_cover(k)
        sides = [f.orientation for f in upper + lower]
        assert set(sides) == {"upper", "lower"}
        calls.clear()
        run = pipeline_run(k)
        assert calls == [(run.perturbed, sides)] and calls[0][0] is run.perturbed
        cover.build_full_cover.cache_clear()
        calls.clear()
        run = pipeline_run(k)
        assert calls == [(run.heights, sides), (run.perturbed, sides)]
        assert calls[0][0] is run.heights and calls[1][0] is run.perturbed


def test_pipeline_builds_its_staircase_heights_once():
    # the pipeline and its cover, built cold, read one staircase height function per k
    lift.staircase_height.cache_clear()
    cover.build_full_cover.cache_clear()
    run = pipeline_run(3, certify=False)
    info = lift.staircase_height.cache_info()
    assert info.misses == 1 and info.hits >= 1
    assert staircase_height(3) is run.heights


def test_full_cover_is_built_once_per_k():
    assert cover.build_full_cover(3) is cover.build_full_cover(3)


def test_cube_split_and_target_are_built_once_per_k():
    assert cube_simplex_split(3) is cube_simplex_split(3)
    assert simplex_points(7) is simplex_points(7)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_pipeline_artifacts_do_not_depend_on_a_warm_cover(monkeypatch, k):
    # cold memos (cover, cube split, target), then the ones they left in the cache, then
    # those under another block budget: the same bundle, mixed system, heights and certificate
    def artifacts():
        run = pipeline_run(k)
        return [x.to_json_dict() for x in (run.bundle, run.mixed_system, run.heights,
                                           run.perturbed, run.certificate)]

    for memo in (cover.build_full_cover, cube_simplex_split, simplex_points):
        memo.cache_clear()
    cold = artifacts()
    assert cover.build_full_cover.cache_info().misses == 1
    assert artifacts() == cold
    monkeypatch.setattr(poly, "_CHUNK", 8)
    assert artifacts() == cold
    assert cover.build_full_cover.cache_info()[:2] == (2, 1)  # (hits, misses)


def test_one_block_budget_splits_every_kernel_and_changes_no_result(monkeypatch):
    # poly._CHUNK bounds the facet screen's candidate blocks, certify_mixed's fiber
    # batches and the Fourier-Motzkin blocks alike: one small patch splits all three
    def results():
        dim5 = [certify_mixed(construct.projected_simplex_relaxation(eps),
                              construct.projected_simplex_heights()).to_json_dict()
                for eps in ("1/8", "1/2")]
        run = pipeline_run(3)
        return dim5, run.bundle.to_json_dict(), run.certificate.to_json_dict()

    counts = dict.fromkeys(("screen", "fibers", "fourier-motzkin"), 0)

    def counted(key, original):
        def call(*args):
            counts[key] += 1
            return original(*args)
        return call

    monkeypatch.setattr(lift, "_batched_rows", counted("screen", lift._batched_rows))
    monkeypatch.setattr(LinearSystem, "fiber_bounds",
                        counted("fibers", LinearSystem.fiber_bounds))
    monkeypatch.setattr(poly, "_normalized", counted("fourier-motzkin", poly._normalized))
    expected, whole = results(), dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    monkeypatch.setattr(poly, "_CHUNK", 8)
    assert results() == expected
    assert all(counts[key] > whole[key] for key in counts), (whole, counts)


@pytest.mark.parametrize("chunk", [None, 1])
def test_pipeline_spot_check_refuses_a_violated_target_point(monkeypatch, chunk):
    # the spot check signs the slacks at 0 and at each e_i from the final system's
    # integer rows, in one block or one variable per block: one extra row violated at
    # the origin alone, or at one unit vector alone, is refused
    if chunk:
        monkeypatch.setattr(poly, "_CHUNK", chunk)
    pulled, d = LinearSystem.substitute_affine, 7

    def with_row(coeffs, rhs):
        def substitute(self, matrix, shift=None):
            system = pulled(self, matrix, shift)
            return LinearSystem.from_rows(system.context, [*(
                (r.coeffs, r.rhs) for r in system.rows), (coeffs, rhs)], system.num_vars)
        return substitute

    cases = [((-1,) * d, -1)] + [(tuple(int(j == i) for j in range(d)), 0) for i in (0, 3, d - 1)]
    for coeffs, rhs in cases:
        monkeypatch.setattr(LinearSystem, "substitute_affine", with_row(coeffs, rhs))
        with pytest.raises(CertificationError, match="violates the assembled") as info:
            pipeline_run(3, certify=False)
        assert info.value.stage == "assembly"
    monkeypatch.setattr(LinearSystem, "substitute_affine", with_row((-1,) * d, 0))
    assert pipeline_run(3, certify=False).bundle.system.num_rows == 13


def test_pipeline_target_is_standard_simplex():
    run = pipeline_run(2)
    assert run.bundle.target.points == simplex_points(3).points


def _shear_then_block(run):
    """The assembly as two substitutions: the shear removing f, then the block."""
    k, ctx = run.k, run.perturbed.context
    zero, one = ctx.zero, ctx.one
    split = cube_simplex_split(k)
    f = affine_interpolant(split.base.points, run.heights)
    shear = [tuple(one if j == i else zero for j in range(k)) + (zero,) for i in range(k)]
    shear.append(tuple(ctx.from_rational(c) for c in f.coeffs) + (one,))
    sheared = run.mixed_system.substitute_affine(
        shear, (zero,) * k + (ctx.from_rational(f.offset),))
    moved = split.moved.points
    block = [tuple(one if j == i else zero for j in range(k))
             + tuple(ctx.from_rational(p[i]) for p in moved) for i in range(k)]
    block.append((zero,) * k
                 + tuple(run.perturbed(p) - ctx.from_rational(f(p)) for p in moved))
    return sheared.substitute_affine(block)


@settings(max_examples=15, deadline=None)
@given(k=st.sampled_from((2, 3, 4)),
       slope=st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4),
       offset=st.fractions(-2, 2, max_denominator=3))
@example(k=2, slope=[0] * 4, offset=0)
@example(k=3, slope=[0] * 4, offset=0)
@example(k=4, slope=[0] * 4, offset=0)
def test_one_pullback_matches_shear_then_block(k, slope, offset):
    """The single assembly substitution gives the rows of the two-stage one.

    The staircase heights have f(0) = 0, so an affine function g is added to
    them, in the cover too: g changes the sheared part f, while the cover
    keeps its vertex sets, since adding g moves no facet of the lifted cube.
    """
    def heights(k):
        h = staircase_height(k)
        return HeightFunction(h.domain, {p: v + offset + sum(a * x for a, x in zip(slope, p))
                                         for p, v in h.values.items()})

    with mock.patch.object(construct, "staircase_height", heights), \
            mock.patch.object(cover, "staircase_height", heights):
        run = pipeline_run(k, certify=False)
    final = run.bundle.system
    assert final.num_vars == (1 << k) - 1
    assert final.rows == _shear_then_block(run).rows


# ---------------------------------------------------------------------------
# bound table
# ---------------------------------------------------------------------------

def test_bound_table_values():
    table = {row.d: row for row in relaxation_bound_table(30)}
    assert table[4].best == 5
    assert table[6].best == 6
    assert table[30].composed == 26
    assert table[5].composed == 5
    assert all(row.best == min(row.trivial, row.composed, row.pipeline)
               for row in table.values())


def test_bound_table_monotone_use_of_padding():
    table = relaxation_bound_table(12)
    # dimensions 8..15 all pad to the k=4 system
    k4 = pipeline_row_count(4)
    for row in table:
        if 8 <= row.d <= 12:
            assert row.pipeline == k4
