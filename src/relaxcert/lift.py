"""Height functions on lattice point sets and facets of their convex lifts.

A height function lifts points of T into R^(k+1); the simplicial upper and
lower facets of the lifted hull carry inequalities in (x, y).  One integer
facet row serves building and screening them: with A the integer vertex
matrix and H(v) the numerator vector of h(v) over the heights' common
denominator, the cofactor vectors sum_c adj(A)[c][r] H(v_c) and det(A)
give every slack as an integer vector, and the field's kernel
signs_of_int_vectors signs a whole stack of them at once.  Lists of
candidates are built in such batches (facets_from_simplices); lists of
facets are checked as the rows of one LinearSystem, whose memberships
sign every row at every lifted point (check_facets).  The perturbation
routine gives a chosen subset irrational height offsets along powers of a
root of 2 and rebuilds a given facet cover under them, halving the
offsets until every rebuilt facet is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from ._linalg import _fraction_free, determinant
from .errors import DegenerateSimplexError, PreconditionError, ValidationError
from .field import FieldContext, FieldElement, _reduced, make_context
from .poly import LinearSystem, Row

Point = tuple[int, ...]


@dataclass(frozen=True)
class HeightFunction:
    """A total map from a finite ordered domain in Z^k to field elements."""

    domain: tuple[Point, ...]
    values: dict[Point, FieldElement]

    def __post_init__(self):
        if not self.domain:
            raise ValidationError("a height function needs at least one point")
        for p in self.domain:
            if p not in self.values:
                raise ValidationError(f"no height for domain point {p}")
        if len(self.values) != len(self.domain):
            raise ValidationError("height values outside the stated domain")
        # equal contexts hash alike, so contexts read back from JSON pass
        if len({v.context for v in self.values.values()}) > 1:
            raise ValidationError("heights from different field contexts")

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
        if (point := tuple(point)) not in self.values:
            raise ValidationError(f"point {point} lies outside the heights' domain")
        return self.values[point]

    def _require_domain(self, points: Iterable[Point]) -> None:
        if outside := set(points) - self.values.keys():
            raise ValidationError(f"point {min(outside)} lies outside the heights' domain")

    def is_rational(self) -> bool:
        return all(v.is_rational() for v in self.values.values())

    @cached_property
    def _numerators(self) -> tuple[int, dict[Point, tuple[int, ...]]]:
        """(D, {p: H(p)}) with h(p) = H(p) / D over the common denominator D."""
        den = math.lcm(*(v.den for v in self.values.values()))
        return den, {p: tuple(x * (den // v.den) for x in v.num) for p, v in self.values.items()}

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


def _facet_row(vertices: Sequence[Point], heights: HeightFunction,
               orientation: str) -> tuple[list[Point], int, list[list[int]]]:
    """Oriented integer row (vertices, lead, C) of the hyperplane through the lifted vertices.

    With A = [1 ... 1; v_0 ... v_k] and h(v) = H(v) / D, the cofactor
    vectors are C_r = sum_c adj(A)[c][r] * H(v_c).  The slack of the lifted
    point (p, h(p)) is (C_0 + sum_i p_i C_i - lead * H(p)) / D, zero at
    every vertex, with lead = det(A) > 0 for upper and < 0 for lower.
    Orienting swaps v_0 and v_1, which negates lead and every C_r.
    """
    if orientation not in ("upper", "lower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    verts = list(vertices)
    k = len(verts[0])
    if len(verts) != k + 1:
        raise DegenerateSimplexError(
            f"need exactly {k + 1} vertices in dimension {k}, got {len(verts)}")
    heights._require_domain(verts)
    table = heights._numerators[1]
    # one Gauss-Jordan pass over the rows (1, v_c, H(v_c)) of [A^T | H] leaves
    # [d I | d (A^T)^-1 H], and d (A^T)^-1 = sign * adj(A)^T: row r is sign * C_r
    m = [[1, *v, *table[v]] for v in verts]
    sign, d, cols = _fraction_free(m, k + 1, jordan=True)
    if len(cols) <= k:
        raise DegenerateSimplexError(f"affinely dependent vertex set {verts}")
    s = 1 if (sign * d > 0) == (orientation == "upper") else -1
    if s < 0:
        verts[0], verts[1] = verts[1], verts[0]
    return verts, s * sign * d, [[s * sign * x for x in row[k + 1:]] for row in m]


_SCREEN_ENTRIES = 1 << 14  # about the most entries one block's largest array holds


def _batched_rows(m: np.ndarray, orientation: str) -> tuple[np.ndarray, ...]:
    """_facet_row on a stack of matrices [A^T | H], shape (C, k+1, 1+k+n), at once.

    The same fraction-free Gauss-Jordan pass runs on one candidate-last copy w,
    shape (k+1, 1+k+n, C), in a few long vector operations per step.  Column 0
    of every matrix is all ones, as _screened builds the rows (1, p, H(p)), so
    step 0 (pivot 1 over a previous pivot 1) is w[1:] -= w[:1].  Step t swaps
    rows only where the pivot is zero and updates only the columns right of t.
    A matrix with no pivot left in some column is affinely dependent: it is
    zeroed, gets unit pivots from then on and is dropped at the end.  Returns
    (kept, lead, C, swapped), oriented as by _facet_row: the survivors'
    indices, leads, cofactor vectors C[:, r] and whether v_0 and v_1 trade
    places, each survivor with its own row swaps and sign.
    """
    w = m.transpose(1, 2, 0).copy()  # a copy even for one candidate: m is left as it was
    w[1:] -= w[:1]
    sign, prev, k1 = np.ones(len(m), dtype=np.int64), np.ones(len(m), m.dtype), len(w)
    for t in range(1, k1):
        if len(zero := np.flatnonzero(w[t, t] == 0)):
            below = w[t:, t, zero] != 0
            has, p = below.any(axis=0), t + below.argmax(axis=0)
            swap, p, dead = zero[has], p[has], zero[~has]
            w[t][:, swap], w[p, :, swap] = w[p, :, swap].T, w[t][:, swap].T
            w[:, :, dead] = np.eye(*w.shape[:2], dtype=np.int64)[:, :, None]
            sign[swap], sign[dead], prev[dead] = -sign[swap], 0, 1  # sign 0 marks the dropped
        pivot, row, right = w[t, t].copy(), w[t, t + 1:].copy(), w[:, t + 1:]
        right *= pivot
        right -= w[:, t, None] * row
        if t > 1:  # the pivot of step 0 is 1
            right //= prev
        w[t, t + 1:], prev = row, pivot
    sign, prev = sign[kept := np.flatnonzero(sign)], prev[kept]
    swapped = (sign * prev > 0) != (orientation == "upper")
    flip = sign * np.where(swapped, -1, 1)
    return kept, flip * prev, flip[:, None, None] * w[:, k1:, kept].transpose(2, 0, 1), swapped


def _screened(points: Sequence[Point], simplices: Iterable[Sequence[int]],
              heights: HeightFunction, orientation: str):
    """Yield (kept, vertices, lead, C, valid) for each block of candidate simplices.

    simplices yields (k+1)-tuples of indices into points, read in blocks
    whose largest array holds about _SCREEN_ENTRIES entries; before its
    elimination, a block with a candidate of another length raises
    DegenerateSimplexError, one with an index outside range(len(points))
    ValidationError.  The kept (non-degenerate) candidates' rows come from
    _batched_rows, their vertex indices in _facet_row's order, and their
    slacks C_0 + sum_i p_i C_i - lead * H(p) from one matmul, which
    signs_of_int_vectors signs at once.  A slack at a candidate's own
    vertex must be a zero vector, else AssertionError; valid marks the
    block's facets, whose other slacks are all positive.  The elimination
    is int64 when a bound on every product it forms stays below 2^62, and
    Python integers (dtype object) otherwise.
    """
    if orientation not in ("upper", "lower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    ctx, table = heights.context, heights._numerators[1]
    k, n = len(points[0]), ctx.degree
    rows = np.array([[1, *p, *table[p]] for p in points], dtype=object)
    reach, top = np.abs(rows[:, :k + 1]).max(), max(1, np.abs(rows[:, k + 1:]).max())
    # every minor of a stack, hence every entry of its elimination, has at most one H
    # column; the slacks, at most (1 + k reach + top) minor, stay below the bound too
    minor = math.factorial(k + 1) * reach ** k * max(reach, top)
    rows = rows.astype(np.int64 if 2 * minor ** 2 < (1 << 62) else object)
    x, hp = rows[:, :k + 1], rows[:, k + 1:]
    size = max(1, _SCREEN_ENTRIES // max((k + 1) * (k + 1 + n), len(points) * n))
    simplices = iter(simplices)
    while block := list(islice(simplices, size)):
        if bad := set(map(len, block)) - {k + 1}:
            raise DegenerateSimplexError(f"need exactly {k + 1} vertices, got {min(bad)}")
        index = np.fromiter(chain.from_iterable(block), np.intp).reshape(-1, k + 1)
        if index.min() < 0 or index.max() >= len(points):
            raise ValidationError(f"candidate vertex index outside range({len(points)})")
        kept, lead, cofactors, swapped = _batched_rows(rows[index], orientation)
        slacks, own = x @ cofactors - lead[:, None, None] * hp, index[kept]
        own[swapped, :2] = own[swapped, 1::-1]
        at = np.arange(len(own))[:, None]
        if slacks[at, own].any():
            raise AssertionError("facet row not tight at its own vertex")
        positive, valid = ctx.signs_of_int_vectors(slacks) > 0, np.zeros(len(block), dtype=bool)
        positive[at, own] = True
        valid[kept] = positive.all(axis=1)
        yield kept, own, lead, cofactors, valid


def _screen_facets(points: Sequence[Point], simplices: Iterable[Sequence[int]],
                   heights: HeightFunction, orientation: str) -> np.ndarray:
    """Bool mask: is each candidate simplex a valid facet of the given orientation?"""
    return np.concatenate([np.zeros(0, dtype=bool), *(
        valid for *_, valid in _screened(points, simplices, heights, orientation))])


def facets_from_simplices(points: Sequence[Sequence[int]], simplices: Iterable[Sequence[int]],
                          heights: HeightFunction, orientation: str = "upper"
                          ) -> list[FacetSimplex | None]:
    """facet_inequality_from_simplex for each candidate (k+1)-tuple of indices into
    points that _screened finds a valid facet, and None for the others."""
    pts = [tuple(int(x) for x in p) for p in points]
    heights._require_domain(pts)
    facets: list[FacetSimplex | None] = []
    for kept, own, lead, cofactors, valid in _screened(pts, simplices, heights, orientation):
        block: list[FacetSimplex | None] = [None] * len(valid)
        for i in np.flatnonzero(valid[kept]).tolist():
            block[kept[i]] = _facet_from_row([pts[j] for j in own[i].tolist()], int(lead[i]),
                                             cofactors[i].tolist(), heights, orientation)
        facets += block
    return facets


def _facet_from_row(verts: list[Point], lead: int, cofactors: list[list[int]],
                    heights: HeightFunction, orientation: str) -> FacetSimplex:
    """The FacetSimplex of an oriented integer facet row; a determinant re-derives lead."""
    ctx = heights.context
    if determinant([[1, *v] for v in verts], ctx) != lead:  # det(A^T) = det(A)
        raise AssertionError("vertex determinant disagrees with the facet row")
    den = heights._numerators[0]
    coeffs = tuple(_reduced(ctx, tuple(-x for x in c), den) for c in cofactors[1:])
    return FacetSimplex(tuple(verts), orientation, coeffs, ctx.from_rational(lead),
                        _reduced(ctx, tuple(cofactors[0]), den))


def facet_inequality_from_simplex(vertices: Sequence[Sequence[int]],
                                  heights: HeightFunction,
                                  orientation: str = "upper") -> FacetSimplex:
    """Inequality of the hyperplane through the lifted vertices.

    The row is the integer facet row of `_facet_row`, the expansion of the
    (k+2)x(k+2) determinant with the generic column (1, x, y) along that
    column: y_coeff = lead = +-det(A), coeffs = -C_i / D and rhs = C_0 / D,
    so the heights enter only through their integer numerators.  Vertices
    are reordered (one swap) so that the sign of lead matches the requested
    orientation, making the row read y <= ... for upper and y >= ... for
    lower.  Forward elimination re-derives lead, and field arithmetic
    re-checks tightness at every vertex, independently of the integer row.
    """
    verts, lead, cofactors = _facet_row([tuple(int(x) for x in v) for v in vertices],
                                        heights, orientation)
    facet = _facet_from_row(verts, lead, cofactors, heights, orientation)
    for v in verts:
        if not facet.evaluate(v, heights(v)).is_zero():
            raise AssertionError("facet inequality not tight at its own vertex")
    return facet


def check_upper_facet(facet: FacetSimplex, points: Iterable[Sequence[int]],
                      heights: HeightFunction) -> FacetCheck:
    """Validate one facet candidate against all lifted points of T: check_facets([facet])."""
    return check_facets([facet], points, heights)[0]


def check_facets(facets: Sequence[FacetSimplex], points: Iterable[Sequence[int]],
                 heights: HeightFunction) -> list[FacetCheck]:
    """Validate facet candidates against all lifted points of T.

    Valid means: every non-vertex lifted point satisfies the inequality
    strictly, and no extra point is tight (which would make the facet
    non-simplicial); each facet's first failure in point order is reported.
    The facets are the rows coeffs . x + y_coeff * y <= rhs of one
    LinearSystem, and one memberships call signs every row at every
    lifted point (p, h(p)).
    """
    ctx = heights.context
    for facet in facets:
        if any(e.context != ctx for e in (facet.y_coeff, facet.rhs, *facet.coeffs)):
            raise ValidationError("facet and heights from different field contexts")
    pts = [tuple(int(x) for x in p) for p in points]
    heights._require_domain(pts)
    if not facets:
        return []
    system = LinearSystem(ctx, len(facets[0].coeffs) + 1,
                          tuple(Row((*f.coeffs, f.y_coeff), f.rhs) for f in facets))
    first: dict[int, FacetCheck] = {}
    for p, m in zip(pts, system.memberships([(*p, heights(p)) for p in pts])):
        failed = [(r, FacetCheck(False, p)) for r in m.violated_rows]
        failed += [(r, FacetCheck(False, None, p)) for r in m.tight_rows]
        for r, check in failed:
            if p not in facets[r].vertices:
                first.setdefault(r, check)
    return [first.get(r, FacetCheck(True)) for r in range(len(facets))]


def perturb_heights(base: Iterable[Sequence[int]],
                    moved: Iterable[Sequence[int]],
                    heights: HeightFunction,
                    cover: Sequence[FacetSimplex]
                    ) -> tuple[HeightFunction, Fraction, tuple[FacetSimplex, ...]]:
    """Add independent irrational offsets on `moved`, preserving a facet cover.

    The domain is sorted(base | moved).  The j-th point of sorted `moved`
    (from 1) receives offset eps * c**j with c = 2**(1/(len(moved)+1)), so
    the new heights on `moved` together with 1 are linearly independent
    over Q.  eps = 2**-t for the smallest t such that every cover facet,
    rebuilt from its vertices under the new heights by one
    facets_from_simplices call per orientation, is still valid.  Returns
    (heights, eps, facets), the rebuilt facets in the order of `cover`;
    with nothing to move, the given heights, 0 and the cover itself.  The
    first cover facet whose vertices span no valid facet under the given
    heights (one _screen_facets call per orientation) is refused before
    any halving: DegenerateSimplexError if they are affinely dependent,
    else PreconditionError.
    """
    x_set = {tuple(int(v) for v in p) for p in base}
    y_list = sorted(tuple(int(v) for v in p) for p in moved)
    if x_set & set(y_list):
        raise PreconditionError("base and moved point sets overlap")
    t_points = sorted(x_set.union(y_list))
    vertices = {v for facet in cover for v in facet.vertices}
    heights._require_domain([*t_points, *vertices])
    if not heights.is_rational():
        raise PreconditionError("perturbation starts from rational heights")
    if stray := vertices.difference(t_points):
        raise PreconditionError(f"cover vertex {min(stray)} is neither a base nor a moved point")
    if bad := [f.vertices for f in cover if len(f.vertices) != len(t_points[0]) + 1]:
        raise DegenerateSimplexError(f"cover facet {bad[0]} needs {len(t_points[0]) + 1} vertices")
    index, sides = {p: i for i, p in enumerate(t_points)}, {}
    for at, facet in enumerate(cover):
        sides.setdefault(facet.orientation, {})[at] = [index[v] for v in facet.vertices]
    refused = []
    for orientation, side in sides.items():
        valid = _screen_facets(t_points, side.values(), heights, orientation)
        refused += [at for at, ok in zip(side, valid) if not ok]
    if refused:
        facet = cover[min(refused)]
        _facet_row(facet.vertices, heights, facet.orientation)  # an affinely dependent set raises
        raise PreconditionError(f"cover facet {facet.vertices} is invalid under the given heights")
    if not y_list:
        return heights, Fraction(0), tuple(cover)

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
        candidate, rebuilt = build(eps), {}
        for orientation, side in sides.items():
            rebuilt.update(zip(side, facets_from_simplices(t_points, side.values(), candidate,
                                                           orientation)))
        if None not in rebuilt.values():
            return candidate, eps, tuple(rebuilt[at] for at in range(len(cover)))
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
