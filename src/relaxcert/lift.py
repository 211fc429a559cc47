"""Height functions on lattice point sets and facets of their convex lifts.

A height function lifts points of T into R^(k+1); the simplicial upper and
lower facets of the lifted hull carry inequalities in (x, y).  One integer
facet row serves building and screening them: with A the integer vertex
matrix and H(v) the numerator vector of h(v) over the heights' common
denominator, the cofactor vectors sum_c adj(A)[c][r] H(v_c) and det(A)
give every slack as an integer vector, and the field's kernel
signs_of_int_vectors signs a whole stack of them at once.  Lists of
candidates, a cover's two orientations at once, are built in such batches
(facets_from_simplices); lists of facets are checked as the rows of one
LinearSystem, whose memberships sign every row at every lifted point
(check_facets).  The perturbation routine gives a chosen subset irrational
height offsets along powers of a root of 2 and rebuilds a given facet
cover under them, halving the offsets until every rebuilt facet is valid.
Its first rebuild also decides whether the cover is refused: the power-0
parts of that rebuild's slacks are the slacks under the given heights,
up to a positive factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice, product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import poly
from ._linalg import _fraction_free, determinant
from .errors import DegenerateSimplexError, PreconditionError, ValidationError
from .field import FieldContext, FieldElement, _divide_exact, _fit, _reduced, make_context
from .poly import LinearSystem, Row

Point = tuple[int, ...]


@dataclass(frozen=True)
class HeightFunction:
    """A total map from a finite ordered domain in Z^k to field elements.

    values is kept as a read-only view of a copy of the given mapping, so that
    one caller cannot change heights another holds (staircase_height is cached).
    """

    domain: tuple[Point, ...]
    values: Mapping[Point, FieldElement]

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        if not self.domain:
            raise ValidationError("a height function needs at least one point")
        if len(set(map(len, self.domain))) > 1:
            raise ValidationError("domain points of different dimensions")
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


@lru_cache(maxsize=16)
def staircase_height(k: int) -> HeightFunction:
    """Height (2*x_k - 1) * (x_1 + ... + x_(k-1))**2 on all of {0,1}^k, built once per k."""
    if k < 2:
        raise ValidationError("staircase heights need dimension k >= 2")
    ctx = make_context(1, 2)
    return HeightFunction.from_pairs(
        (p, ctx.from_rational((2 * p[-1] - 1) * sum(p[:-1]) ** 2))
        for p in product((0, 1), repeat=k))


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


def _batched_rows(w: np.ndarray, orientation: str | Sequence[str]) -> tuple[np.ndarray, ...]:
    """_facet_row on a stack of matrices [A^T | H] at once, eliminated in place.

    w is the stack candidate-last and contiguous, shape (k+1, 1+k+n, C),
    and the same fraction-free Gauss-Jordan pass overwrites it in a few long
    vector operations per step.  Column 0 of every matrix is all ones, as
    _screened builds the rows (1, p, H(p)), so step 0 (pivot 1 over a
    previous pivot 1) is w[1:] -= w[:1].  Where the pivot of step t is zero,
    the first row below with a nonzero in column t trades columns t.. (those
    left of t are not read again) with row t by masked copies, not a gather
    across candidates; the update touches only the columns right of t and
    divides by the previous pivots with field._divide_exact.
    A matrix with no pivot left in some column is affinely dependent: it is
    reset to the identity, gets unit pivots from then on and is dropped at
    the end.  Returns (kept, lead, C, swapped), oriented as by _facet_row to
    the orientation of each candidate (or of all): the survivors' indices,
    leads, cofactor vectors C[:, r] and whether v_0 and v_1 trade places.
    """
    w[1:] -= w[:1]
    sign, prev, k1 = np.ones(w.shape[-1], dtype=np.int64), np.ones(w.shape[-1], w.dtype), len(w)
    for t in range(1, k1):
        if (zero := w[t, t] == 0).any():
            held = np.empty_like(w[t, t:])
            for r in range(t + 1, k1):
                if (swap := zero & (w[r, t] != 0)).any():
                    np.copyto(held, w[t, t:])
                    np.copyto(w[t, t:], w[r, t:], where=swap)
                    np.copyto(w[r, t:], held, where=swap)
                    np.negative(sign, out=sign, where=swap)
                    zero &= ~swap
            if zero.any():  # sign 0 marks the dropped
                np.copyto(w[:, t:], np.eye(*w.shape[:2], dtype=w.dtype)[:, t:, None], where=zero)
                sign[zero], prev[zero] = 0, 1
        pivot, row, right = w[t, t].copy(), w[t, t + 1:].copy(), w[:, t + 1:]
        right *= pivot
        for r in range(k1):  # a row's product at a time, not a stack-sized temporary
            right[r] -= w[r, t] * row
        if t > 1:  # the pivot of step 0 is 1
            _divide_exact(right, prev)
        w[t, t + 1:], prev = row, pivot
    upper = np.broadcast_to(np.asarray(orientation) == "upper", sign.shape)
    sign, prev = sign[kept := np.flatnonzero(sign)], prev[kept]
    swapped = (sign * prev > 0) != upper[kept]
    flip = sign * np.where(swapped, -1, 1)
    return kept, flip * prev, flip[:, None, None] * w[:, k1:, kept].transpose(2, 0, 1), swapped


def _determinants(m: np.ndarray) -> np.ndarray:
    """det of each matrix of a stack of square integer matrices, shape (S, n, n), by one
    fraction-free forward elimination (Bareiss) of a copy, each matrix with its own row
    swaps; its entries are minors, at most n! max|m|^n, which picks the dtype by _fit."""
    n, top = m.shape[-1], max(1, int(np.abs(m).max(initial=0)))
    w = _fit(2 * (math.factorial(n) * top ** n) ** 2, m)[0].copy()
    sign, prev = np.ones(len(w), dtype=np.int64), np.ones(len(w), dtype=w.dtype)
    for t in range(n):
        if len(zero := np.flatnonzero(w[:, t, t] == 0)):
            p = t + (w[zero, t:, t] != 0).argmax(axis=1)  # t if no pivot is left: singular
            w[zero, t], w[zero, p] = w[zero, p], w[zero, t]
            sign[zero] *= np.where(p > t, -1, 0)
        pivot, rest = w[:, t, t].copy(), w[:, t + 1:, t + 1:]
        rest *= pivot[:, None, None]
        rest -= w[:, t + 1:, t, None] * w[:, None, t, t + 1:]
        _divide_exact(rest, prev[:, None, None])
        prev = np.where(pivot == 0, prev, pivot)  # singular: rest is zero, prev stays exact
    return sign * prev


def _positive_off_own(positive: np.ndarray, kept: np.ndarray, own: np.ndarray,
                      size: int) -> np.ndarray:
    """Bool mask over a block of size candidates: kept, and positive at every point off
    its own vertices; positive (kept candidates x points) is overwritten at own."""
    positive[np.arange(len(own))[:, None], own] = True
    valid = np.zeros(size, dtype=bool)
    valid[kept] = positive.all(axis=1)
    return valid


def _circuit_candidates(points: Sequence[Point], heights: HeightFunction, orientation: str):
    """Yield in lex order the index tuples of the (k+1)-subsets of points, k the heights'
    dimension, that the parallelogram rule leaves as facets of the orientation.

    Let u, w be vertices of a valid upper facet with affine function f, and {p, q}
    another index pair (p = q allowed) with p + q = u + w.  Then f(p) + f(q) = H(u) +
    H(w), f > H off the facet, and p, q are not both vertices, which are affinely
    independent: H(u) + H(w) > H(p) + H(q), reversed for lower.  So each edge of a valid
    facet is the unique strict best pair of its coordinate sum, found exactly by one
    tournament per sum (poly._group_best), and the candidates are the (k+1)-cliques of
    those edges, grown a vertex per level as prefix arrays of about poly._CHUNK entries.
    """
    m, k, ctx = len(points), heights.dimension, heights.context
    table, (a, b) = heights._numerators[1], np.triu_indices(m)
    x = np.array(points, dtype=object).reshape(m, k)
    num = np.array([table[p] for p in points], dtype=object).reshape(m, ctx.degree)
    x, num = _fit(4 * max(poly._top(x), poly._top(num)), x, num)
    key, h, side = x[a] + x[b], num[a] + num[b], 1 if orientation == "upper" else -1
    order, group = np.lexsort((a, *key.T)), np.empty_like(a)  # equal sums next to each other
    group[order] = np.cumsum(np.r_[True, (key[order[1:]] != key[order[:-1]]).any(axis=1)]) - 1
    best = h[poly._group_best(group, lambda old, new: (
        ctx.signs_of_int_vectors(h[new] - h[old]) * side > 0))]
    tied = ctx.signs_of_int_vectors(best[group] - h) == 0
    edge = tied & (np.bincount(group[tied], minlength=len(best)) == 1)[group] & (a < b)
    adjacent, per = np.zeros((m, m), dtype=bool), max(1, poly._CHUNK // max(m * (k + 1), 1))
    adjacent[a[edge], b[edge]] = True
    stack = [np.arange(m)[:, None]]
    while stack:
        if (prefix := stack.pop()).shape[1] > k:
            yield from map(tuple, prefix.tolist())
        elif len(prefix) > per:  # pushed last first, so the slices pop in lex order
            stack += [prefix[s:s + per] for s in range((len(prefix) - 1) // per * per, -1, -per)]
        else:
            row, j = np.nonzero(adjacent[prefix].all(axis=1))
            stack.append(np.column_stack((prefix[row], j)))


def _index_blocks(simplices: Iterable[Sequence[int]], width: int, count: int, size: int):
    """The candidates, index sequences into range(count), as (rows, width) intp arrays of
    at most size rows, read and refused a block at a time: DegenerateSimplexError for a
    candidate of another length, ValidationError for an index outside range(count)."""
    simplices = iter(simplices)
    while block := list(islice(simplices, size)):
        if bad := set(map(len, block)) - {width}:
            raise DegenerateSimplexError(f"need exactly {width} vertices, got {min(bad)}")
        index = np.fromiter(chain.from_iterable(block), np.intp).reshape(-1, width)
        if index.min() < 0 or index.max() >= count:
            raise ValidationError(f"candidate vertex index outside range({count})")
        yield index


def _screen_size(m: int, k: int, n: int) -> int:
    """Candidates per block of _screened over m points, whose largest array holds about _CHUNK."""
    return max(1, poly._CHUNK // max((k + 1) * (k + 1 + n), m * n))


def _screened(points: Sequence[Point], simplices: Iterable[Sequence[int]],
              heights: HeightFunction, orientation: str | Sequence[str]):
    """Yield (kept, vertices, lead, C, valid, slacks) for each block of candidate simplices.

    simplices yields (k+1)-tuples of indices into points, k the heights'
    dimension, read in blocks whose largest array holds about poly._CHUNK
    entries, the budget every exact kernel shares; before its
    elimination, a block with a candidate of another length raises
    DegenerateSimplexError, one with an index outside range(len(points))
    ValidationError (_index_blocks).  orientation is one for all, and the
    candidates stream (brute-force enumeration passes those that
    _circuit_candidates leaves), or one per candidate, as for a whole
    cover.  One np.take per vertex position gathers the rows (1, p, H(p))
    of a block straight into the candidate-last stack that _batched_rows
    eliminates in place, so the stack is held once.  The kept candidates'
    rows come from _batched_rows, their vertex indices in _facet_row's
    order, and their slacks C_0 + sum_i p_i C_i - lead * H(p) from one
    matmul, which signs_of_int_vectors signs at once.  A slack at a candidate's own
    vertex must be a zero vector, else AssertionError; valid marks the
    block's facets, whose other slacks are all positive, and slacks (kept
    candidates x points x basis) are the vectors signed.  The elimination
    is int64 when a bound on every product it forms stays below 2^62, and
    Python integers (dtype object) otherwise.
    """
    sides = [orientation] if isinstance(orientation, str) else list(orientation)
    if bad := set(sides) - {"upper", "lower"}:
        raise ValidationError(f"unknown orientation {bad.pop()!r}")
    if not isinstance(orientation, str) and len(simplices := list(simplices)) != len(sides):
        raise ValidationError(f"{len(sides)} orientations for {len(simplices)} candidates")
    ctx, table, k = heights.context, heights._numerators[1], heights.dimension
    n = ctx.degree
    rows = np.array([[1, *p, *table[p]] for p in points], dtype=object).reshape(-1, k + 1 + n)
    reach, top = np.abs(rows[:, :k + 1]).max(initial=1), np.abs(rows[:, k + 1:]).max(initial=1)
    # every minor of a stack, hence every entry of its elimination, has at most one H
    # column; the slacks, at most (1 + k reach + top) minor, stay below the bound too
    minor = math.factorial(k + 1) * reach ** k * max(reach, top)
    rows, = _fit(2 * minor ** 2, rows)
    x, hp, columns = rows[:, :k + 1], rows[:, k + 1:], np.ascontiguousarray(rows.T)
    size = _screen_size(len(points), k, n)
    done = 0
    for index in _index_blocks(simplices, k + 1, len(points), size):
        part = orientation if isinstance(orientation, str) else sides[done:done + len(index)]
        done += len(index)
        stack = np.empty((k + 1, k + 1 + n, len(index)), rows.dtype)
        for j in range(k + 1):  # the indices are in range: "clip" takes no buffer for out
            np.take(columns, index[:, j], axis=1, out=stack[j], mode="clip")
        kept, lead, cofactors, swapped = _batched_rows(stack, part)
        del stack  # freed before the slacks are formed
        slacks, own = x @ cofactors - lead[:, None, None] * hp, index[kept]
        own[swapped, :2] = own[swapped, 1::-1]
        if slacks[np.arange(len(own))[:, None], own].any():
            raise AssertionError("facet row not tight at its own vertex")
        valid = _positive_off_own(ctx.signs_of_int_vectors(slacks) > 0, kept, own, len(index))
        yield kept, own, lead, cofactors, valid, slacks


def _screen_facets(points: Sequence[Point], simplices: Iterable[Sequence[int]],
                   heights: HeightFunction, orientation: str | Sequence[str]) -> np.ndarray:
    """Bool mask: is each candidate simplex a valid facet of its orientation (as for _screened)?"""
    return np.concatenate([np.zeros(0, dtype=bool), *(
        valid for *_, valid, _ in _screened(points, simplices, heights, orientation))])


def facets_from_simplices(points: Sequence[Sequence[int]], simplices: Iterable[Sequence[int]],
                          heights: HeightFunction, orientation: str | Sequence[str] = "upper"
                          ) -> list[FacetSimplex | None]:
    """facet_inequality_from_simplex for each candidate (k+1)-tuple of indices into
    points that _screened finds a valid facet, and None for the others; k is the
    heights' dimension, so no candidates give [] even for no points; orientation is
    as for _screened.  One gcd per block reduces every C_r / D, and _determinants
    re-derives the survivors' leads from their [1, v] stacks."""
    pts = [tuple(int(x) for x in p) for p in points]
    heights._require_domain(pts)
    return [f for block, *_ in _built(pts, simplices, heights, orientation) for f in block]


def _built(pts: Sequence[Point], simplices: Iterable[Sequence[int]], heights: HeightFunction,
           orientation: str | Sequence[str]):
    """Yield (facets, kept, vertices, slacks) for each block of _screened over points
    of the heights' domain, the block's facets (or None) as facets_from_simplices
    returns them and the rest as _screened yields them."""
    ctx, den, k = heights.context, heights._numerators[0], heights.dimension
    for kept, own, lead, cofactors, valid, slacks in _screened(pts, simplices, heights,
                                                               orientation):
        block: list[FacetSimplex | None] = [None] * len(valid)
        lead = lead[live := np.flatnonzero(valid[kept])]
        verts = [[pts[j] for j in row] for row in own[live].tolist()]
        if (_determinants(np.array([[[1, *v] for v in vs] for vs in verts], dtype=object
                                   ).reshape(-1, k + 1, k + 1)) != lead).any():
            raise AssertionError("vertex determinant disagrees with the facet row")
        c, = _fit(max(den, int(np.abs(cofactors).max(initial=0))), cofactors[live])
        c[:, 1:] *= -1  # coeffs = -C_i / D for i >= 1, rhs = C_0 / D
        _divide_exact(c, (g := np.gcd(np.gcd.reduce(c, axis=2), den))[:, :, None])
        for i, vs, y, nums, dens in zip(kept[live].tolist(), verts, lead.tolist(), c.tolist(),
                                        (den // g).tolist()):
            rhs, *coeffs = (FieldElement(ctx, tuple(v), d) for v, d in zip(nums, dens))
            block[i] = FacetSimplex(tuple(vs), "upper" if y > 0 else "lower", tuple(coeffs),
                                    ctx.from_rational(y), rhs)
        yield block, kept, own, slacks


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
    ctx, den = heights.context, heights._numerators[0]
    if determinant([[1, *v] for v in verts], ctx) != lead:  # det(A^T) = det(A)
        raise AssertionError("vertex determinant disagrees with the facet row")
    coeffs = tuple(_reduced(ctx, tuple(-x for x in c), den) for c in cofactors[1:])
    facet = FacetSimplex(tuple(verts), orientation, coeffs, ctx.from_rational(lead),
                         _reduced(ctx, tuple(cofactors[0]), den))
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
    lifted point (p, h(p)): a sign <= 0 off the facet's own vertices fails.
    """
    ctx = heights.context
    for facet in facets:
        if any(e.context != ctx for e in (facet.y_coeff, facet.rhs, *facet.coeffs)):
            raise ValidationError("facet and heights from different field contexts")
    pts = [tuple(int(x) for x in p) for p in points]
    heights._require_domain(pts)
    if not facets or not pts:
        return [FacetCheck(True) for _ in facets]
    system = LinearSystem(ctx, len(facets[0].coeffs) + 1,
                          tuple(Row((*f.coeffs, f.y_coeff), f.rhs) for f in facets))
    signs = system.memberships([(*p, heights(p)) for p in pts])
    index, own = {p: i for i, p in enumerate(pts)}, np.zeros((len(pts), len(facets)), dtype=bool)
    for r, f in enumerate(facets):
        own[[index[v] for v in f.vertices if v in index], r] = True
    failed = (signs <= 0) & ~own[[index[p] for p in pts]]  # a repeated point: its last row
    return [FacetCheck(True) if not failed[i, r]
            else FacetCheck(False, pts[i]) if signs[i, r] < 0
            else FacetCheck(False, None, pts[i])
            for r, i in enumerate(failed.argmax(axis=0).tolist())]


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
    facets_from_simplices call over the whole cover, is still valid.
    Returns (heights, eps, facets), the rebuilt facets in the order of
    `cover`; with nothing to move, the given heights, 0 and the cover
    itself.  The first cover facet whose vertices span no valid facet under
    the given heights is refused before any halving: DegenerateSimplexError
    if they are affinely dependent, else PreconditionError.  The eps = 1
    rebuild's slacks decide it, since every offset is eps * c**j with j >= 1
    and so their power-0 parts are positive multiples of the slacks under
    the given heights (with nothing to move, the rebuild is at those heights).
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
    index, sides = {p: i for i, p in enumerate(t_points)}, [f.orientation for f in cover]
    simplices = [[index[v] for v in facet.vertices] for facet in cover]

    def refuse_invalid(valid: np.ndarray) -> None:
        if not valid.all():
            facet = cover[int(valid.argmin())]
            _facet_row(facet.vertices, heights, facet.orientation)  # an affinely dependent set raises
            raise PreconditionError(
                f"cover facet {facet.vertices} is invalid under the given heights")

    ctx, rational = make_context(len(y_list) + 1, 2), [heights(p).as_fraction() for p in t_points]
    offsets = {p: j + 1 for j, p in enumerate(y_list)}

    def build(eps: Fraction) -> HeightFunction:
        # over one denominator D: num[0] = h(p) D and, on the j-th moved point, num[j] = eps D
        den = math.lcm(eps.denominator, *(r.denominator for r in rational))
        values = {}
        for p, r in zip(t_points, rational):
            num = [r.numerator * (den // r.denominator)] + [0] * (ctx.degree - 1)
            if p in offsets:
                num[offsets[p]] = eps.numerator * (den // eps.denominator)
            values[p] = _reduced(ctx, tuple(num), den)
        return HeightFunction(tuple(t_points), values)

    candidate, rebuilt, valid = build(eps := Fraction(1)), [], [np.zeros(0, dtype=bool)]
    for block, kept, own, slacks in _built(t_points, simplices, candidate, sides):
        rebuilt += block
        valid.append(_positive_off_own(slacks[..., 0] > 0, kept, own, len(block)))
    refuse_invalid(np.concatenate(valid))
    if not y_list:
        return heights, Fraction(0), tuple(cover)
    while None in rebuilt:
        if eps.denominator == 1 << 63:
            raise ArithmeticError("no perturbation size accepted after 64 halvings")
        candidate = build(eps := eps / 2)
        rebuilt = facets_from_simplices(t_points, simplices, candidate, sides)
    return candidate, eps, tuple(rebuilt)


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
