import random
from fractions import Fraction

import pytest

from relaxcert.construct import (RelaxationBundle, projected_simplex_heights,
                                 projected_simplex_points,
                                 projected_simplex_relaxation, simplex5_relaxation,
                                 stretched_simplex_relaxation)
from relaxcert.errors import ValidationError
from relaxcert.field import make_context
from relaxcert.lift import HeightFunction
from relaxcert.poly import Box, LinearSystem, PointSet, VarBounds
from relaxcert.verify import (box_check, certify_mixed, classify_rows,
                              recession_ray_rationality)

CTX2 = make_context(2, 2)


def five_row_inputs(eps=Fraction(1, 8)):
    system = projected_simplex_relaxation(eps)
    return system, projected_simplex_points(), projected_simplex_heights(system.context)


# ---------------------------------------------------------------------------
# mixed certification
# ---------------------------------------------------------------------------

def test_certify_five_row_system():
    system, points, heights = five_row_inputs()
    cert = certify_mixed(system, points, heights)
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
    system, points, heights = five_row_inputs()
    cert = certify_mixed(system, points, heights)
    for record in cert.coverage:
        assert record.tight_upper and record.tight_lower


def test_deleting_any_row_breaks_certification():
    system, points, heights = five_row_inputs()
    for drop in range(5):
        rows = tuple(r for i, r in enumerate(system.rows) if i != drop)
        smaller = LinearSystem(system.context, 4, rows)
        cert = certify_mixed(smaller, points, heights)
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
        cert = certify_mixed(sheared, points, new_heights)
        assert cert.certified
        assert set(cert.projection_points) == points.as_set()


def test_certify_mismatched_heights_domain():
    system, points, heights = five_row_inputs()
    with pytest.raises(ValidationError):
        certify_mixed(system, PointSet(3, ((0, 0, 0),)), heights)


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
    points = PointSet(2, ((0, 0), (1, 0)))
    heights = HeightFunction.from_pairs([((0, 0), ctx.zero), ((1, 0), ctx.zero)])
    cert = certify_mixed(system, points, heights)
    assert not cert.certified


@pytest.mark.parametrize("broken, witness", [
    ({1: VarBounds(None, None, infeasible=True), 3: VarBounds(None, None)},
     "fiber not a point"),
    ({1: VarBounds(None, CTX2.one), 3: VarBounds(None, None, infeasible=True)},
     "fiber not a point"),
    ({1: VarBounds(CTX2.zero, CTX2.from_rational(5)), 3: VarBounds(None, None)},
     "fiber interval differs from the height"),
])
def test_certify_names_the_first_bad_fiber(monkeypatch, broken, witness):
    system, points, heights = five_row_inputs()
    fiber_bounds = LinearSystem.fiber_bounds

    def patched(self, pts):
        return [broken.get(i, bounds) for i, bounds in enumerate(fiber_bounds(self, pts))]

    monkeypatch.setattr(LinearSystem, "fiber_bounds", patched)
    cert = certify_mixed(system, points, heights)
    assert cert.verdict == "refuted"
    assert cert.witness == (witness, points.points[1])
    assert len(cert.projection_points) == 6 and not cert.fibers


def test_certify_partial_on_cap():
    system, points, heights = five_row_inputs()
    cert = certify_mixed(system, points, heights, cap=3)
    assert cert.verdict == "partial"


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
    from relaxcert.poly import Row
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
