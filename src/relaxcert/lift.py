"""Height functions on lattice point sets and facets of their convex lifts.

A height function lifts points of T into R^(k+1); the simplicial upper and
lower facets of the lifted hull carry inequalities in (x, y) built from
integer cofactors of the vertex matrix.  The perturbation routine gives a
chosen subset irrational height offsets along powers of a root of 2,
keeping a given facet cover valid, which it re-verifies exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._linalg import _fraction_free, determinant, integer_adjugate
from .errors import DegenerateSimplexError, PreconditionError, ValidationError
from .field import FieldContext, FieldElement, make_context

Point = tuple[int, ...]


@dataclass(frozen=True)
class HeightFunction:
    """A total map from a finite ordered domain in Z^k to field elements."""

    domain: tuple[Point, ...]
    values: dict[Point, FieldElement]

    def __post_init__(self):
        for p in self.domain:
            if p not in self.values:
                raise ValidationError(f"no height for domain point {p}")
        if len(self.values) != len(self.domain):
            raise ValidationError("height values outside the stated domain")

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Sequence[int], FieldElement]]) -> "HeightFunction":
        domain = []
        values = {}
        for point, value in pairs:
            point = tuple(int(x) for x in point)
            domain.append(point)
            values[point] = value
        return HeightFunction(tuple(domain), values)

    @property
    def context(self) -> FieldContext:
        return self.values[self.domain[0]].context

    @property
    def dimension(self) -> int:
        return len(self.domain[0])

    def __call__(self, point: Sequence[int]) -> FieldElement:
        return self.values[tuple(point)]

    def is_rational(self) -> bool:
        return all(v.is_rational() for v in self.values.values())

    def to_json_dict(self) -> dict:
        return {
            "field": self.context.to_json_dict(),
            "entries": [[list(p), self.values[p].to_json_list()] for p in self.domain],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "HeightFunction":
        ctx = FieldContext.from_json_dict(data["field"])
        return HeightFunction.from_pairs(
            (tuple(int(x) for x in point), ctx.element(coeffs))
            for point, coeffs in data["entries"])


@dataclass(frozen=True)
class FacetSimplex:
    """k+1 lifted points spanning a candidate upper or lower facet.

    The inequality coeffs . x + y_coeff * y <= rhs is tight at every lifted
    vertex; y_coeff is positive for upper orientation, negative for lower.
    """

    vertices: tuple[Point, ...]
    orientation: str
    coeffs: tuple[FieldElement, ...]
    y_coeff: FieldElement
    rhs: FieldElement

    def evaluate(self, point: Sequence[int], height: FieldElement) -> FieldElement:
        """Slack rhs - (coeffs . x + y_coeff * height); negative means violated."""
        total = self.rhs
        for c, x in zip(self.coeffs, point):
            if x and not c.is_zero():
                total = total - c * x
        return total - self.y_coeff * height

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "orientation": self.orientation,
            "coeffs": [c.to_json_list() for c in self.coeffs],
            "y_coeff": self.y_coeff.to_json_list(),
            "rhs": self.rhs.to_json_list(),
        }


@dataclass(frozen=True)
class FacetCheck:
    valid: bool
    violated_at: Point | None = None
    tight_extra: Point | None = None


@dataclass(frozen=True)
class AffineFunction:
    """Rational affine map x -> coeffs . x + offset."""

    coeffs: tuple[Fraction, ...]
    offset: Fraction

    def __call__(self, point: Sequence[int]) -> Fraction:
        return sum((c * x for c, x in zip(self.coeffs, point) if x), self.offset)


def staircase_height(k: int) -> HeightFunction:
    """Height (2*x_k - 1) * (x_1 + ... + x_(k-1))**2 on all of {0,1}^k."""
    if k < 2:
        raise ValidationError("staircase heights need dimension k >= 2")
    ctx = make_context(1, 2)
    pairs = []
    for mask in range(1 << k):
        point = tuple((mask >> (k - 1 - i)) & 1 for i in range(k))
        base = sum(point[:-1]) ** 2
        value = (2 * point[-1] - 1) * base
        pairs.append((point, ctx.from_rational(value)))
    pairs.sort(key=lambda pv: pv[0])
    return HeightFunction.from_pairs(pairs)


def facet_inequality_from_simplex(vertices: Sequence[Sequence[int]],
                                  heights: HeightFunction,
                                  orientation: str = "upper") -> FacetSimplex:
    """Inequality of the hyperplane through the lifted vertices.

    Expands the (k+2)x(k+2) determinant with the generic column (1, x, y)
    along that column.  With A = [1 ... 1; v_0 ... v_k] the integer vertex
    matrix, its cofactors are y_coeff = det(A) and, for row r of A,
    -sum_c adj(A)[c][r] * h(v_c): the heights enter linearly, so the only
    field work is integer scaling and addition.  Vertices are reordered
    (one swap, negating every cofactor) so that the sign of det(A) matches
    the requested orientation, making the row read y <= ... for upper and
    y >= ... for lower.
    """
    if orientation not in ("upper", "lower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    verts = [tuple(int(x) for x in v) for v in vertices]
    k = len(verts[0])
    if len(verts) != k + 1:
        raise DegenerateSimplexError(
            f"need exactly {k + 1} vertices in dimension {k}, got {len(verts)}")
    ctx = heights.context
    matrix = [[1] * (k + 1)] + [[v[i] for v in verts] for i in range(k)]
    # forward elimination alone settles degeneracy before the Gauss-Jordan adjugate
    lead = determinant(matrix, ctx)
    if lead.is_zero():
        raise DegenerateSimplexError(f"affinely dependent vertex set {verts}")
    _, adj = integer_adjugate(matrix)
    hs = [heights(v) for v in verts]
    flip = lead.sign() != (1 if orientation == "upper" else -1)
    if flip:
        verts[0], verts[1] = verts[1], verts[0]
        lead = -lead
    scale = 1 if flip else -1
    cofactors = [sum((h * (scale * row[r]) for row, h in zip(adj, hs) if row[r]), ctx.zero)
                 for r in range(k + 1)]
    facet = FacetSimplex(tuple(verts), orientation, tuple(cofactors[1:]), lead,
                         -cofactors[0])
    for v in verts:
        if not facet.evaluate(v, heights(v)).is_zero():
            raise AssertionError("facet inequality not tight at its own vertex")
    return facet


def check_upper_facet(facet: FacetSimplex, points: Iterable[Sequence[int]],
                      heights: HeightFunction) -> FacetCheck:
    """Validate a facet candidate against all lifted points of T.

    Valid means: the leading determinant sign matches the orientation (it
    does by construction), every non-vertex lifted point satisfies the
    inequality strictly, and no extra point is tight (which would make the
    facet non-simplicial).
    """
    vertex_set = set(facet.vertices)
    for point in points:
        point = tuple(int(x) for x in point)
        if point in vertex_set:
            continue
        s = facet.evaluate(point, heights(point)).sign()
        if s < 0:
            return FacetCheck(False, violated_at=point)
        if s == 0:
            return FacetCheck(False, tight_extra=point)
    return FacetCheck(True)


def perturb_heights(points: Iterable[Sequence[int]],
                    base: Iterable[Sequence[int]],
                    moved: Iterable[Sequence[int]],
                    heights: HeightFunction,
                    cover: Sequence[FacetSimplex]) -> tuple[HeightFunction, Fraction]:
    """Add independent irrational offsets on `moved`, preserving a facet cover.

    The j-th point of `moved` (in lexicographic order, counted from 1)
    receives offset eps * c**j with c = 2**(1/(len(moved)+1)), so the new
    heights on `moved` together with 1 are linearly independent over Q.
    eps = 2**-t for the smallest t such that every cover facet, rebuilt
    from its vertices under the new heights, is still valid; validity is
    re-verified with exact arithmetic.
    """
    t_points = sorted(tuple(int(x) for x in p) for p in points)
    x_set = {tuple(int(v) for v in p) for p in base}
    y_list = sorted(tuple(int(v) for v in p) for p in moved)
    if x_set & set(y_list):
        raise PreconditionError("base and moved point sets overlap")
    if x_set | set(y_list) != set(t_points):
        raise PreconditionError("base and moved sets do not partition the domain")
    if not heights.is_rational():
        raise PreconditionError("perturbation starts from rational heights")
    for facet in cover:
        if not check_upper_facet(facet, t_points, heights).valid:
            raise PreconditionError(
                f"cover facet {facet.vertices} is not valid under the given heights")
    if not y_list:
        return heights, Fraction(0)

    degree = len(y_list) + 1
    ctx = make_context(degree, 2)
    rational = {p: heights(p).as_fraction() for p in t_points}

    def build(eps: Fraction) -> HeightFunction:
        pairs = []
        for p in t_points:
            value = ctx.from_rational(rational[p])
            if p in offsets:
                value = value + ctx.root_power(offsets[p]) * eps
            pairs.append((p, value))
        return HeightFunction.from_pairs(pairs)

    offsets = {p: j + 1 for j, p in enumerate(y_list)}
    for t in range(64):
        eps = Fraction(1, 1 << t)
        candidate = build(eps)
        ok = True
        for facet in cover:
            rebuilt = facet_inequality_from_simplex(facet.vertices, candidate,
                                                    facet.orientation)
            if not check_upper_facet(rebuilt, t_points, candidate).valid:
                ok = False
                break
        if ok:
            return candidate, eps
    raise ArithmeticError("no perturbation size accepted after 64 halvings")


def affine_interpolant(points: Sequence[Sequence[int]],
                       heights: HeightFunction) -> AffineFunction:
    """Rational affine function agreeing with the heights on the given points.

    One fraction-free Gauss-Jordan pass over the integer rows [1 p | D h(p)],
    D the lcm of the heights' denominators; coefficients without a pivot,
    possible with fewer than dim + 1 points, are zero.
    """
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        raise ValidationError("no interpolation points")
    dim = len(pts[0])
    values = []
    for p in pts:
        value = heights(p)
        if not value.is_rational():
            raise ValidationError("interpolant requires rational heights")
        values.append(value.as_fraction())
    scale = math.lcm(*(v.denominator for v in values))
    m = [[1, *p, v.numerator * (scale // v.denominator)] for p, v in zip(pts, values)]
    _, pivot, cols = _fraction_free(m, dim + 1, jordan=True)
    # a pivot in every row <=> the points are affinely independent
    if len(cols) < len(pts):
        raise DegenerateSimplexError("interpolation points are affinely dependent")
    solution = [Fraction(0)] * (dim + 1)
    for row, c in zip(m, cols):
        solution[c] = Fraction(row[-1], pivot * scale)
    return AffineFunction(tuple(solution[1:]), solution[0])
