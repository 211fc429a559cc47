"""Certification engines for relaxation candidates.

The mixed-integer check follows a double-bookkeeping discipline: per-point
facet tightness records and independently computed fiber intervals must
both come out right.  Fibers are decided in batches at every integer point
of a box bounding the projection, whose points with a nonempty fiber are
the projection's exact lattice inventory.  Box checks are honest
finite-window checks; the unbounded part of any claim rests on the
recorded irrational-ray reasoning, which the recession report makes explicit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import poly
from ._linalg import kernel_basis
from .errors import CertificationError, ResourceLimitError, ValidationError
from .field import FieldElement
from .lift import HeightFunction
from .poly import Box, DEFAULT_POINT_CAP, LinearSystem

if TYPE_CHECKING:  # pragma: no cover
    from .construct import RelaxationBundle

Point = tuple[int, ...]


@dataclass(frozen=True)
class FiberRecord:
    point: Point
    lower: FieldElement
    upper: FieldElement


@dataclass(frozen=True)
class CoverageRecord:
    point: Point
    tight_upper: tuple[int, ...]
    tight_lower: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """Structured verdict of a mixed-integer relaxation check."""

    verdict: str  # "certified" | "refuted" | "partial"
    witness: object = None
    projection_points: tuple[Point, ...] | None = None
    fibers: tuple[FiberRecord, ...] = ()
    coverage: tuple[CoverageRecord, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def require_certified(self, subject: str, stage: str) -> None:
        """Raise ResourceLimitError if partial, CertificationError at stage if refuted."""
        if self.verdict == "partial":
            raise ResourceLimitError(f"{subject} is partial: {self.witness}")
        if not self.certified:
            raise CertificationError(f"{subject} failed: {self.witness}", stage=stage)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": repr(self.witness) if self.witness is not None else None,
            "projection_points": ([list(p) for p in self.projection_points]
                                  if self.projection_points is not None else None),
            "fibers": [[list(f.point), f.lower.to_json_list(), f.upper.to_json_list()]
                       for f in self.fibers],
            "coverage": [[list(c.point), list(c.tight_upper), list(c.tight_lower)]
                         for c in self.coverage],
            "notes": list(self.notes),
        }


def classify_rows(system: LinearSystem) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Indices of (upper, lower, lateral) rows by the sign of the y coefficient."""
    upper, lower, lateral = [], [], []
    y = system.num_vars - 1
    for i, row in enumerate(system.rows):
        s = row.coeffs[y].sign()
        if s > 0:
            upper.append(i)
        elif s < 0:
            lower.append(i)
        else:
            lateral.append(i)
    return tuple(upper), tuple(lower), tuple(lateral)


def certify_mixed(system: LinearSystem, heights: HeightFunction,
                  cap: int = DEFAULT_POINT_CAP) -> Certificate:
    """Exactly certify that the system's mixed-integer points are the lifted set.

    The last variable is the continuous coordinate, and the point set X is
    the heights' domain, in its order.  Checks, in order: row
    classification; per lifted point, satisfaction of every row plus
    tightness of at least one upper and one lower row; equality of the
    projection's lattice points, the points of a box (at most cap of them,
    else partial) with a nonempty fiber, with X; and per point, that the
    fiber interval collapses to the stated height.  The box is bounded by
    the single-variable rows of eliminate_variable(k), the only rows of it
    built as field elements, and by coordinate_bounds for a coordinate they
    leave open.
    """
    base_points = heights.domain
    k = system.num_vars - 1
    if k < 1:
        raise ValidationError("mixed system needs at least one integer variable")
    if cap < 1:
        raise ValidationError(f"cap must be at least 1, got {cap}")
    if heights.dimension != k:  # a domain has one dimension
        raise ValidationError(f"point {base_points[0]} does not match {k} integer variables")

    notes = ["rows classified by the sign of the continuous coordinate",
             "tightness and fibers are double bookkeeping for the same criterion"]
    # a refutation carries the coverage and the projection's points once its stage has them
    coverage, lattice = (), None

    def refuted(witness) -> Certificate:
        return Certificate("refuted", witness=witness, projection_points=lattice,
                           coverage=coverage, notes=tuple(notes))

    upper, lower, lateral = classify_rows(system)
    if not upper or not lower:
        return refuted("no upper or no lower rows")

    records = []
    signs = system.memberships([tuple(p) + (heights(p),) for p in base_points])
    for p, s in zip(base_points, signs.tolist()):
        if -1 in s:
            return refuted(("lifted point violates rows", p,
                            tuple(r for r, v in enumerate(s) if v < 0)))
        tight_upper = tuple(i for i in upper if not s[i])
        tight_lower = tuple(i for i in lower if not s[i])
        if not tight_upper or not tight_lower:
            return refuted(("lifted point missing a tight upper or lower row", p))
        records.append(CoverageRecord(p, tight_upper, tight_lower))
    coverage = tuple(records)

    projection = system.eliminate_variable(k)
    # the single-variable rows (a pipeline's box rows) often bound every coordinate alone
    ranges = []
    for j, bounds in enumerate(projection.single_variable_rows().propagated_bounds()):
        if not bounds.bounded:
            # the single-variable rows leave a side open; decide exactly
            bounds = projection.coordinate_bounds(j)
        if bounds.infeasible:
            return refuted(("projection infeasible", j))
        if not bounds.bounded:
            return refuted(("projection unbounded", j,
                            "below" if bounds.lower is None else "above"))
        ranges.append(range(bounds.lower.exact_ceil(), bounds.upper.exact_floor() + 1))
    volume = math.prod(map(len, ranges))
    notes.append("fibers decided at every point of the derived box "
                 + ",".join(f"{r.start}:{r.stop - 1}" for r in ranges))
    if volume > cap:
        return Certificate("partial", coverage=coverage,
                           witness=f"box holds {volume} lattice points, above the cap of {cap}",
                           notes=tuple(notes + ["box points above the cap"]))
    # the projection's lattice points are the box points with a nonempty fiber, in
    # batches of about poly._CHUNK coordinates
    found, at_base, base_set = [], {}, set(base_points)
    box_points = itertools.product(*ranges)
    while chunk := list(itertools.islice(box_points, max(1, poly._CHUNK // k))):
        for p, bounds in zip(chunk, system.fiber_bounds(chunk)):
            if not bounds.infeasible:
                found.append(p)
            if p in base_set:
                at_base[p] = bounds
    lattice = tuple(found)
    if set(lattice) != base_set:
        return refuted(("projection lattice mismatch", sorted(set(lattice) - base_set),
                        sorted(base_set - set(lattice))))

    fibers = []
    for p in base_points:
        bounds = at_base[p]
        if bounds.infeasible or not bounds.bounded:
            return refuted(("fiber not a point", p))
        h = heights(p)
        if bounds.lower != h or bounds.upper != h:
            return refuted(("fiber interval differs from the height", p))
        fibers.append(FiberRecord(p, bounds.lower, bounds.upper))

    return Certificate("certified", projection_points=lattice,
                       fibers=tuple(fibers), coverage=coverage,
                       notes=tuple(notes))


@dataclass(frozen=True)
class BoxCheckResult:
    passed: bool
    box: Box
    points_found: int
    spurious: tuple[Point, ...] = ()
    missing: tuple[Point, ...] = ()
    note: str = "finite-window check: far lattice points are excluded by theory, not enumeration"

    @property
    def witness(self) -> Point | None:
        if self.spurious:
            return self.spurious[0]
        if self.missing:
            return self.missing[0]
        return None


def box_check(bundle: "RelaxationBundle", box: Box | None = None,
              cap: int = DEFAULT_POINT_CAP, jobs: int = 1) -> BoxCheckResult:
    """Window check: lattice points of the system inside the box equal the target."""
    box = box if box is not None else bundle.default_box
    target = bundle.target.as_set()
    for point in target:
        if not all(lo + 1 <= x <= hi - 1 for (lo, hi), x in zip(box.bounds, point)):
            raise ValidationError(
                f"box {box} lacks a margin of 1 around target point {point}")
    found = bundle.system.enumerate_lattice_points(box, cap=cap, jobs=jobs)
    found_set = set(found)
    spurious = tuple(sorted(found_set - target))
    missing = tuple(sorted(target - found_set))
    return BoxCheckResult(not spurious and not missing, box, len(found),
                          spurious, missing)


@dataclass(frozen=True)
class ConvergentCheck:
    numerator: int
    denominator: int
    sign: int


@dataclass(frozen=True)
class RecessionReport:
    lineality_dimension: int
    ray: tuple[FieldElement, ...] | None
    rows_tight_on_ray: bool
    window_lattice_points: tuple[Point, ...]
    window: Box
    ratio_rational: bool | None
    convergent_checks: tuple[ConvergentCheck, ...]

    @property
    def certifies_irrational_ray(self) -> bool:
        return (self.lineality_dimension == 1 and self.rows_tight_on_ray
                and self.ratio_rational is False
                and self.window_lattice_points == ((0,) * len(self.ray),))


def recession_ray_rationality(system: LinearSystem, window: Box | None = None,
                              convergents: int = 8,
                              cap: int = DEFAULT_POINT_CAP) -> RecessionReport:
    """Report on the recession cone of a system with a one-dimensional lineality.

    Verifies that the recession rows vanish on the lineality ray, that the
    only integer point of the recession system in the window is the
    origin, and that the last/second-to-last coordinate ratio of the ray
    is irrational: each tested continued-fraction convergent p/q leaves
    ratio - p/q with a nonzero exact sign.
    """
    ctx = system.context
    window = window if window is not None else Box.uniform(-5, 5, system.num_vars)
    recession = system.recession_system()
    matrix = [list(row.coeffs) for row in recession.rows]
    basis = kernel_basis(matrix, ctx) if matrix else []
    lineality_dim = len(basis)
    lattice = tuple(sorted(recession.enumerate_lattice_points(window, cap=cap)))
    if lineality_dim != 1:
        return RecessionReport(lineality_dim, None, False, lattice, window, None, ())
    ray = basis[0]
    # normalize on the first nonzero coordinate
    pivot = next(v for v in ray if not v.is_zero())
    ray = tuple(v / pivot for v in ray)
    tight = len(recession.contains(ray).tight_rows) == recession.num_rows
    num_coord, den_coord = ray[-1], ray[-2]
    checks: list[ConvergentCheck] = []
    if den_coord.is_zero():
        ratio_rational = None
    else:
        ratio = num_coord / den_coord
        if ratio.is_rational():
            ratio_rational = True
        else:
            ratio_rational = False
            # continued fraction of the ratio, computed exactly in the field
            h_prev, h_cur = 1, ratio.exact_floor()
            k_prev, k_cur = 0, 1
            checks.append(ConvergentCheck(h_cur, k_cur, (ratio - h_cur).sign()))
            remainder = ratio - h_cur
            for _ in range(convergents - 1):
                if remainder.is_zero():
                    break
                remainder = remainder.inverse()
                digit = remainder.exact_floor()
                h_prev, h_cur = h_cur, digit * h_cur + h_prev
                k_prev, k_cur = k_cur, digit * k_cur + k_prev
                diff_sign = (ratio * k_cur - h_cur).sign()
                checks.append(ConvergentCheck(h_cur, k_cur, diff_sign))
                if diff_sign == 0:
                    ratio_rational = True
                    break
                remainder = remainder - digit
    return RecessionReport(lineality_dim, ray, tight, lattice, window,
                           ratio_rational, tuple(checks))
