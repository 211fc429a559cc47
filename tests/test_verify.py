import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxcert.construct import (RelaxationBundle, pipeline_run, projected_simplex_heights,
                                 projected_simplex_points,
                                 projected_simplex_relaxation, simplex5_relaxation,
                                 stretched_simplex_relaxation)
from relaxcert.errors import ValidationError
from relaxcert.field import make_context
from relaxcert.lift import HeightFunction
from relaxcert.poly import Box, LinearSystem, PointSet, Row, VarBounds
from relaxcert.verify import (box_check, certify_mixed, classify_rows,
                              recession_ray_rationality)

CTX2 = make_context(2, 2)


def five_row_inputs(eps=Fraction(1, 8)):
    system = projected_simplex_relaxation(eps)
    return system, projected_simplex_points(), projected_simplex_heights()


# ---------------------------------------------------------------------------
# mixed certification
# ---------------------------------------------------------------------------

def test_certify_five_row_system():
    system, _, heights = five_row_inputs()
    cert = certify_mixed(system, heights)
    assert cert.certified
    assert len(cert.projection_points) == 6
    minus_inv = CTX2.element((0, Fraction(-1, 2)))
    fibers = {f.point: f.lower for f in cert.fibers}
    for base in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert fibers[base] == CTX2.zero
    assert fibers[(1, 0, 1)] == CTX2.one
    assert fibers[(0, 1, 1)] == minus_inv
    for f in cert.fibers:
        assert f.lower == f.upper


def test_certify_row_classification():
    system, _, _ = five_row_inputs()
    upper, lower, lateral = classify_rows(system)
    assert upper == (0, 1, 2)
    assert lower == (3, 4)
    assert lateral == ()


def test_certify_coverage_records():
    system, _, heights = five_row_inputs()
    cert = certify_mixed(system, heights)
    for record in cert.coverage:
        assert record.tight_upper and record.tight_lower


def test_deleting_any_row_breaks_certification():
    system, _, heights = five_row_inputs()
    for drop in range(5):
        rows = tuple(r for i, r in enumerate(system.rows) if i != drop)
        smaller = LinearSystem(system.context, 4, rows)
        cert = certify_mixed(smaller, heights)
        assert not cert.certified, f"row {drop} seems redundant"


def test_certify_shift_invariance():
    # shearing the continuous coordinate by a rational affine map changes
    # neither the verdict nor the projection
    system, points, heights = five_row_inputs()
    rng = random.Random(41)
    ctx = system.context
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        offset = Fraction(rng.randint(-1, 1))
        shear = []
        for i in range(3):
            shear.append(tuple(ctx.one if j == i else ctx.zero for j in range(3))
                         + (ctx.zero,))
        shear.append(tuple(ctx.from_rational(c) for c in coeffs) + (ctx.one,))
        shift = (ctx.zero,) * 3 + (ctx.from_rational(offset),)
        sheared = system.substitute_affine(shear, shift)
        new_heights = HeightFunction.from_pairs(
            (p, heights(p) - ctx.from_rational(
                sum(c * x for c, x in zip(coeffs, p)) + offset))
            for p in points.points)
        cert = certify_mixed(sheared, new_heights)
        assert cert.certified
        assert set(cert.projection_points) == points.as_set()


def test_certify_refuses_heights_of_another_dimension():
    system, _, _ = five_row_inputs()
    heights = HeightFunction.from_pairs([((0, 0), CTX2.zero), ((1, 0), CTX2.zero)])
    with pytest.raises(ValidationError, match=r"point \(0, 0\) does not match 3 integer"):
        certify_mixed(system, heights)


def test_certify_refutes_spurious_lattice_point():
    # a box around the six points with a loose top admits extra, so the
    # projection comparison must refute
    ctx = CTX2
    rows = []
    # 0 <= x <= 1 in both integer coordinates, 0 <= y <= 1 continuous
    for i in range(2):
        coeffs = [ctx.zero, ctx.zero, ctx.zero]
        coeffs[i] = ctx.one
        rows.append((tuple(coeffs), ctx.one))
        coeffs = [ctx.zero, ctx.zero, ctx.zero]
        coeffs[i] = -ctx.one
        rows.append((tuple(coeffs), ctx.zero))
    rows.append(((ctx.zero, ctx.zero, ctx.one), ctx.one))
    rows.append(((ctx.zero, ctx.zero, -ctx.one), ctx.zero))
    system = LinearSystem.from_rows(ctx, rows, 3)
    heights = HeightFunction.from_pairs([((0, 0), ctx.zero), ((1, 0), ctx.zero)])
    cert = certify_mixed(system, heights)
    assert not cert.certified


_P = projected_simplex_points().points


@pytest.mark.parametrize("broken, witness", [
    ({_P[1]: VarBounds(None, None), _P[3]: VarBounds(None, CTX2.one)},
     "fiber not a point"),
    ({_P[1]: VarBounds(None, CTX2.one), _P[3]: VarBounds(None, None)},
     "fiber not a point"),
    ({_P[1]: VarBounds(CTX2.zero, CTX2.from_rational(5)), _P[3]: VarBounds(None, None)},
     "fiber interval differs from the height"),
])
def test_certify_names_the_first_bad_fiber(monkeypatch, broken, witness):
    system, points, heights = five_row_inputs()
    fiber_bounds = LinearSystem.fiber_bounds

    def patched(self, pts):
        return [broken.get(p, bounds) for p, bounds in zip(pts, fiber_bounds(self, pts))]

    monkeypatch.setattr(LinearSystem, "fiber_bounds", patched)
    cert = certify_mixed(system, heights)
    assert cert.verdict == "refuted"
    assert cert.witness == (witness, points.points[1])
    assert len(cert.projection_points) == 6 and not cert.fibers


def test_certify_reads_an_empty_fiber_at_x_as_a_missing_point(monkeypatch):
    system, _, heights = five_row_inputs()
    fiber_bounds = LinearSystem.fiber_bounds

    def patched(self, pts):
        return [VarBounds(None, None, infeasible=True) if p in (_P[1], _P[3]) else bounds
                for p, bounds in zip(pts, fiber_bounds(self, pts))]

    monkeypatch.setattr(LinearSystem, "fiber_bounds", patched)
    cert = certify_mixed(system, heights)
    assert cert.witness == ("projection lattice mismatch", [], sorted((_P[1], _P[3])))
    assert set(cert.projection_points) == set(_P) - {_P[1], _P[3]} and not cert.fibers


@functools.cache
def _k3_inputs():
    run = pipeline_run(3, certify=False)
    return run.mixed_system, run.perturbed


def _dropped(system, *drop):
    return LinearSystem(system.context, system.num_vars,
                        tuple(r for i, r in enumerate(system.rows) if i not in drop))


def _lowered(system, i):
    rows = list(system.rows)
    rows[i] = Row(rows[i].coeffs, rows[i].rhs - 1)
    return LinearSystem(system.context, system.num_vars, tuple(rows))


def _box_bounds(monkeypatch, bounds):
    """Leave every coordinate to box_bounds, which answers bounds for each."""
    monkeypatch.setattr(LinearSystem, "propagated_bounds",
                        lambda self: [VarBounds(None, None)] * self.num_vars)
    monkeypatch.setattr(LinearSystem, "box_bounds", lambda self, js: [bounds] * len(js))


def _fiber_at(monkeypatch, point, bounds):
    fiber_bounds = LinearSystem.fiber_bounds
    monkeypatch.setattr(LinearSystem, "fiber_bounds", lambda self, pts: [
        bounds if p == point else b for p, b in zip(pts, fiber_bounds(self, pts))])


def _dim5(eps="1/8"):
    system, _, heights = five_row_inputs(Fraction(eps))
    return system, heights


_EMPTY = VarBounds(None, None, infeasible=True)


@pytest.mark.parametrize("inputs, mutate, patch, witness, stage", [
    (_dim5, lambda s: _dropped(s, 3, 4), None, "no upper or no lower rows", "rows"),
    (_dim5, lambda s: _lowered(s, 0), None, "lifted point violates rows", "rows"),
    (_dim5, lambda s: _dropped(s, 0), None,
     "lifted point missing a tight upper or lower row", "rows"),
    (_k3_inputs, lambda s: _lowered(s, 6), None, "lifted point violates rows", "rows"),
    (_k3_inputs, lambda s: _dropped(s, 6), None,
     "lifted point missing a tight upper or lower row", "rows"),
    (_dim5, None, lambda mp: _box_bounds(mp, _EMPTY), "projection infeasible", "box"),
    (_dim5, None, lambda mp: _box_bounds(mp, VarBounds(CTX2.zero, None)),
     "projection unbounded", "box"),
    (_k3_inputs, None, lambda mp: _box_bounds(mp, VarBounds(None, None)),
     "projection unbounded", "box"),
    (lambda: _dim5("1/2"), None, None, "projection lattice mismatch", "fibers"),
    (_k3_inputs, None, lambda mp: _fiber_at(mp, (1, 0, 1), _EMPTY),
     "projection lattice mismatch", "fibers"),
    (_dim5, None, lambda mp: _fiber_at(mp, _P[4], VarBounds(None, CTX2.one)),
     "fiber not a point", "fibers"),
    (_k3_inputs, None, lambda mp: _fiber_at(mp, (0, 1, 1), VarBounds(
        _k3_inputs()[1].context.zero, _k3_inputs()[1].context.one)),
     "fiber interval differs from the height", "fibers"),
])
def test_refutations_carry_the_fields_of_their_stage(monkeypatch, inputs, mutate, patch,
                                                     witness, stage):
    """A refutation at the rows keeps no coverage; one at the box keeps the full
    coverage; one at the fibers keeps it and the projection's points."""
    system, heights = inputs()
    if mutate is not None:
        system = mutate(system)
    if patch is not None:
        patch(monkeypatch)
    cert = certify_mixed(system, heights)
    assert cert.verdict == "refuted"
    assert (cert.witness if isinstance(cert.witness, str) else cert.witness[0]) == witness
    json.dumps(cert.to_json_dict())  # Python ints throughout
    if stage == "rows":
        assert cert.coverage == () and cert.projection_points is None
        return
    assert [c.point for c in cert.coverage] == list(heights.domain)
    assert all(c.tight_upper and c.tight_lower for c in cert.coverage)
    assert (cert.projection_points is None) == (stage == "box")
    assert not cert.fibers


def test_certify_partial_on_cap():
    system, _, heights = five_row_inputs()
    cert = certify_mixed(system, heights, cap=3)
    assert cert.verdict == "partial"
    assert cert.witness == "box holds 18 lattice points, above the cap of 3"


def test_certify_refuses_a_cap_below_one():
    system, _, heights = five_row_inputs()
    for cap in (0, -5):
        with pytest.raises(ValidationError, match="cap must be at least 1"):
            certify_mixed(system, heights, cap=cap)


def test_loose_box_rows_take_the_projections_box():
    # rows 0 <= x_i <= 100 in place of a k = 2 pipeline's box rows hold 101^2 points,
    # while the projection's own single-variable rows bound it to 0:1,0:1; the box
    # comes from the projection, so a cap of 4 still certifies
    run = pipeline_run(2, certify=False)
    ctx, rows = run.mixed_system.context, run.mixed_system.rows
    loose = [Row(r.coeffs, ctx.from_rational(100)) if r.rhs == ctx.one else r for r in rows[:4]]
    system = LinearSystem(ctx, 3, tuple(loose) + rows[4:])
    cert = certify_mixed(system, run.perturbed, cap=4)
    assert cert.certified and cert.notes[-1].endswith(" 0:1,0:1")


def test_certify_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("certify_mixed enumerated lattice points")

    monkeypatch.setattr(LinearSystem, "enumerate_lattice_points", refuse)
    for eps, verdict in (("1/8", "certified"), ("1/2", "refuted")):
        system, _, heights = five_row_inputs(Fraction(eps))
        assert certify_mixed(system, heights).verdict == verdict
    assert pipeline_run(3).certificate.certified


# ---------------------------------------------------------------------------
# oracle: the box's fibers against the enumerated projection
# ---------------------------------------------------------------------------

def _enumerated_route(system, base_points, heights):
    """Reference (verdict, witness, projection_points) for certify_mixed.

    It enumerates the Fourier-Motzkin projection eliminate_variable(k)
    inside the box (from the single-variable rows, then bound propagation
    over all rows, then coordinate_bounds), and decides each fiber at X by
    restricting the system to the point.
    """
    k = system.num_vars - 1
    upper, lower, _ = classify_rows(system)
    if not upper or not lower:
        return "refuted", "no upper or no lower rows", None
    for p in base_points:
        membership = system.contains(p + (heights(p),))
        if not membership.inside:
            return "refuted", ("lifted point violates rows", p, membership.violated_rows), None
        tight = set(membership.tight_rows)
        if not tight & set(upper) or not tight & set(lower):
            return "refuted", ("lifted point missing a tight upper or lower row", p), None
    projection = system.eliminate_variable(k)
    single = tuple(row for row in projection.rows if sum(map(bool, row.coeffs)) == 1)
    propagated = LinearSystem(projection.context, k, single).propagated_bounds()
    if not all(bounds.bounded for bounds in propagated):
        propagated = projection.propagated_bounds()
    box = []
    for j, bounds in enumerate(propagated):
        if not bounds.bounded:
            bounds = projection.coordinate_bounds(j)
        if bounds.infeasible:
            return "refuted", ("projection infeasible", j), None
        if not bounds.bounded:
            direction = "below" if bounds.lower is None else "above"
            return "refuted", ("projection unbounded", j, direction), None
        box.append((bounds.lower.exact_ceil(), bounds.upper.exact_floor()))
    lattice = tuple(projection.enumerate_lattice_points(Box(tuple(box))))
    if set(lattice) != set(base_points):
        return "refuted", ("projection lattice mismatch", sorted(set(lattice) - set(base_points)),
                           sorted(set(base_points) - set(lattice))), lattice
    for p in base_points:
        bounds = system.restrict_to_subspace(dict(enumerate(p))).coordinate_bounds(0)
        if bounds.infeasible or not bounds.bounded:
            return "refuted", ("fiber not a point", p), lattice
        if bounds.lower != heights(p) or bounds.upper != heights(p):
            return "refuted", ("fiber interval differs from the height", p), lattice
    return "certified", None, lattice


@functools.lru_cache(maxsize=None)
def _oracle_input(name):
    if name.startswith("dim5"):
        system, points, heights = five_row_inputs(Fraction(name.split()[1]))
        return system, points.points, heights
    run = pipeline_run(int(name.split()[1]), certify=False)
    return run.mixed_system, tuple(sorted(run.perturbed.domain)), run.perturbed


@st.composite
def _mixed_cases(draw):
    """A certified or refuted mixed system, as built or after one mutation."""
    system, points, heights = _oracle_input(draw(st.sampled_from(
        ("dim5 1/8", "dim5 1/2", "dim5 1/5", "pipeline 2", "pipeline 3"))))
    ctx, rows = system.context, list(system.rows)
    i = draw(st.integers(0, len(rows) - 1))
    delta = ctx.from_rational(draw(st.fractions(0, 2, max_denominator=4).filter(bool)))
    mutation = draw(st.sampled_from(("none", "drop", "move", "cut", "loosen")))
    if mutation == "drop":
        del rows[i]
    elif mutation == "move":
        rows[i] = Row(rows[i].coeffs, rows[i].rhs + delta * draw(st.sampled_from((1, -1))))
    elif mutation == "loosen":
        rows[i] = Row(rows[i].coeffs, rows[i].rhs + delta)
    elif mutation == "cut":
        # a y-free row a . x <= a . p - delta cuts p off
        p = draw(st.sampled_from(points))
        a = draw(st.lists(st.integers(-2, 2), min_size=len(p), max_size=len(p)).filter(any))
        rows.append(Row(tuple(map(ctx.from_rational, a)) + (ctx.zero,),
                        ctx.from_rational(sum(u * v for u, v in zip(a, p))) - delta))
    return LinearSystem(ctx, system.num_vars, tuple(rows)), points, heights


@settings(max_examples=60, deadline=None)
@given(case=_mixed_cases())
def test_box_fibers_match_the_enumerated_projection(case):
    system, points, heights = case
    cert = certify_mixed(system, heights)
    assert (cert.verdict, cert.witness, cert.projection_points) == \
        _enumerated_route(system, points, heights)


_BENCH_EPS = ("1/8", "1/9", "1/10", "1/12", "1/16", "1/32", "1/64", "1/100",
              "1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "3/16", "5/32", "2/9")


@pytest.mark.parametrize("eps", _BENCH_EPS)
def test_dim5_certificates_match_the_enumerated_projection(eps):
    # every eps the benchmark certifies or refutes, through the grouped box
    system, points, heights = five_row_inputs(Fraction(eps))
    cert = certify_mixed(system, heights)
    assert (cert.verdict, cert.witness, cert.projection_points) == \
        _enumerated_route(system, points.points, heights)


# ---------------------------------------------------------------------------
# box checks
# ---------------------------------------------------------------------------

def test_box_check_pass_and_monotone():
    bundle = simplex5_relaxation()
    big = box_check(bundle, Box.uniform(-2, 3, 5))
    small = box_check(bundle, Box.uniform(-1, 2, 5))
    assert big.passed and small.passed


def test_box_check_is_representation_independent():
    # a different H-description of the same relaxation (here: one redundant
    # row more) yields the same window inventory
    bundle = simplex5_relaxation()
    ctx = bundle.system.context
    extra = Row((ctx.one,) + (ctx.zero,) * 4, ctx.from_rational(5))
    bigger = LinearSystem(ctx, 5, bundle.system.rows + (extra,))
    alt = RelaxationBundle(bigger, bundle.target, {"construction": "alt"},
                           bundle.default_box)
    assert alt.claimed_facets > 5
    result = box_check(alt)
    assert result.passed and result.points_found == 6


def test_box_check_margin_required():
    bundle = simplex5_relaxation()
    with pytest.raises(ValidationError):
        box_check(bundle, Box.uniform(0, 1, 5))


def test_box_check_fail_reports_witness():
    bundle = simplex5_relaxation()
    wrong_target = PointSet(5, bundle.target.points[:-1])
    tampered = RelaxationBundle(bundle.system, wrong_target,
                                {"construction": "tampered"}, bundle.default_box)
    result = box_check(tampered)
    assert not result.passed
    assert result.witness == (0, 1, 1, 0, 1)
    assert result.spurious == ((0, 1, 1, 0, 1),)


# ---------------------------------------------------------------------------
# recession reports
# ---------------------------------------------------------------------------

def test_recession_report_dim5():
    bundle = simplex5_relaxation()
    report = recession_ray_rationality(bundle.system)
    assert report.lineality_dimension == 1
    assert report.rows_tight_on_ray
    assert report.window_lattice_points == ((0, 0, 0, 0, 0),)
    assert report.ratio_rational is False
    assert report.certifies_irrational_ray
    # the normalized ray is (0, 0, 0, 1, sqrt2)
    assert report.ray[3] == CTX2.one
    assert report.ray[4] == CTX2.element((0, 1))
    assert all(c.sign != 0 for c in report.convergent_checks)
    nums = [(c.numerator, c.denominator) for c in report.convergent_checks]
    assert nums[:3] == [(1, 1), (3, 2), (7, 5)]


def test_recession_report_stretched():
    bundle = stretched_simplex_relaxation(3)
    report = recession_ray_rationality(bundle.system)
    assert report.certifies_irrational_ray
    assert report.ray[4] == CTX2.element((0, 3))


def test_recession_rational_ray_detected():
    ctx = CTX2
    system = LinearSystem.from_rows(
        ctx, [((1, -1), 1), ((-1, 1), 0)], 2)
    report = recession_ray_rationality(system, window=Box.uniform(-2, 2, 2))
    assert report.lineality_dimension == 1
    assert report.ratio_rational is True
    assert not report.certifies_irrational_ray
