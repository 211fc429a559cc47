"""Builders for every certified relaxation in the library.

Covers the five-row mixed system and its pullback to a 5-dimensional
simplex vertex set, the stretched one-parameter family, free-join
composition and the join-based bound for arbitrary dimension, the
cube-projection simplex copy, and the full project/lift/relax chain for
dimensions of the form 2**k - 1.  The composed bound is one n-ary join,
placed as one integer row block from its bundles' integer rows, whose
field elements are built only when read; its block, itself built from
integer numerators, is certified once per (eps, cap), with refutations
not cached, and pulled back once per (a, eps, cap).  The chain reads its
cube split, staircase heights and lifted cube cover, each built once per k
in a process.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cover import build_full_cover, cover_generators
from .errors import CertificationError, PreconditionError, ValidationError
from .field import FieldContext, as_fraction, make_context
from .lift import HeightFunction, affine_interpolant, perturb_heights, staircase_height
from .poly import Box, DEFAULT_POINT_CAP, LinearSystem, PointSet, Row, _lazy
from .verify import Certificate, certify_mixed

DEFAULT_EPS = Fraction(1, 8)


@dataclass(frozen=True)
class RelaxationBundle:
    """A system, the point set it claims to relax, and how it was built."""

    system: LinearSystem
    target: PointSet
    provenance: dict
    default_box: Box

    def __post_init__(self):
        if self.system.num_vars != self.target.dimension:
            raise ValidationError("system and target dimensions differ")

    @property
    def claimed_facets(self) -> int:
        return self.system.num_rows

    def to_json_dict(self) -> dict:
        return {
            "system": self.system.to_json_dict(),
            "target": self.target.to_json_dict(),
            "provenance": self.provenance,
            "default_box": [list(b) for b in self.default_box.bounds],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "RelaxationBundle":
        return RelaxationBundle(
            LinearSystem.from_json_dict(data["system"]),
            PointSet.from_json_dict(data["target"]),
            dict(data["provenance"]),
            Box(tuple((int(lo), int(hi)) for lo, hi in data["default_box"])))


# ---------------------------------------------------------------------------
# reference point sets
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def simplex_points(d: int) -> PointSet:
    """The origin and the d unit vectors in Z^d."""
    if d < 0:
        raise ValidationError("dimension must be nonnegative")
    points = [tuple([0] * d)]
    for i in range(d):
        points.append(tuple(1 if j == i else 0 for j in range(d)))
    return PointSet(d, tuple(points), label=f"Delta_{d}")


def stretched_simplex_points(a: int) -> PointSet:
    """Vertex set of a 5-simplex whose last generator is stretched by a."""
    if a < 1:
        raise ValidationError("stretch factor must be a positive integer")
    points = (
        (0, 0, 0, 0, 0),
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (1, 0, 1, 1, 0),
        (0, 1, 1, 0, a),
    )
    return PointSet(5, points, label=f"stretched_simplex_a{a}")


def projected_simplex_points() -> PointSet:
    """Integer parts of the projected 5-simplex: the base points in Z^3."""
    return PointSet(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)),
                    label="projected_simplex_base")


def projected_simplex_heights() -> HeightFunction:
    """Continuous coordinates of the projected 5-simplex over Q[sqrt2]."""
    ctx = make_context(2, 2)
    minus_inv_sqrt2 = ctx.element((0, Fraction(-1, 2)))
    values = {
        (0, 0, 0): ctx.zero,
        (1, 0, 0): ctx.zero,
        (0, 1, 0): ctx.zero,
        (0, 0, 1): ctx.zero,
        (1, 0, 1): ctx.one,
        (0, 1, 1): minus_inv_sqrt2,
    }
    return HeightFunction(projected_simplex_points().points, values)


# ---------------------------------------------------------------------------
# the five-row mixed system and its pullbacks
# ---------------------------------------------------------------------------

def projected_simplex_relaxation(eps: Fraction | int | str = DEFAULT_EPS) -> LinearSystem:
    """Five inequalities over Q[sqrt2] in (x1, x2, x3, x4), x4 continuous.

    Rows, all written as <=:
        x4 - x1 <= 0
        x4 - x3 <= 0
        eps*x1 + x2 + (1-eps)(sqrt2-1)*x3 + (1-eps)(2-sqrt2)*x4 <= 1
        -x3 - sqrt2*x4 <= 0
        x1 - (1+eps)*x2 + x3 - x4 <= 1
    The sqrt2+1 denominators of the third row are cleared exactly.  With
    eps = u/v in lowest terms, each row is given by its integer numerators
    (of 1 and sqrt2) over its least denominator, 1 or v; the rows' field
    elements are built only when read.
    """
    eps = as_fraction(eps)
    if not 0 < eps < 1:
        raise ValidationError(f"eps must lie strictly between 0 and 1, got {eps}")
    u, v = eps.numerator, eps.denominator
    import numpy as np  # imported here, as the module's import order is kept
    a = np.array([[(-1, 0), (0, 0), (0, 0), (1, 0)],
                  [(0, 0), (0, 0), (-1, 0), (1, 0)],
                  [(u, 0), (v, 0), (u - v, v - u), (2 * (v - u), u - v)],
                  [(0, 0), (0, 0), (-1, 0), (0, -1)],
                  [(v, 0), (-(u + v), 0), (v, 0), (-v, 0)]], dtype=object)
    b = np.array([(0, 0), (0, 0), (v, 0), (0, 0), (v, 0)], dtype=object)
    return _lazy(make_context(2, 2), 4, a, b, [1, 1, v, 1, v], ("x1", "x2", "x3", "x4"))


def _pullback_matrix(ctx: FieldContext, a: int):
    """Matrix of (x1..x5) -> (x1, x2, x3, x4 - x5/(a*sqrt2)) as a 4x5 block."""
    minus_inv = ctx.element((0, Fraction(-1, 2 * a)))  # -1/(a*sqrt2) = -sqrt2/(2a)
    return [
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, minus_inv),
    ]


@functools.lru_cache(maxsize=64)
def _certified_base(eps: Fraction, cap: int) -> LinearSystem:
    """The five-row mixed system for eps, certified once per (eps, cap).

    Only a certified system is returned, and so cached: require_certified
    raises on a refuted (stage "mixed-system") or partial certificate,
    which is computed again on the next call.
    """
    base = projected_simplex_relaxation(eps)
    certify_mixed(base, projected_simplex_heights(), cap=cap).require_certified(
        f"mixed certificate for eps={eps}", stage="mixed-system")
    return base


@functools.lru_cache(maxsize=64)
def _stretched_block(a: int, eps: Fraction, cap: int) -> LinearSystem:
    """The certified base pulled back for stretch a, once per (a, eps, cap)."""
    base = _certified_base(eps, cap)
    system = base.substitute_affine(_pullback_matrix(base.context, a))
    return LinearSystem(system.context, 5, system.rows, ("x1", "x2", "x3", "x4", "x5"))


def stretched_simplex_relaxation(a: int, eps: Fraction | int | str = DEFAULT_EPS,
                                 cap: int = DEFAULT_POINT_CAP) -> RelaxationBundle:
    """Five-row relaxation of the stretched simplex vertex set in Z^5.

    The base mixed system is certified for the given eps (once per eps and
    cap) before the pullback under the projection with kernel direction
    (0,0,0,1,a*sqrt2), which is done once per (a, eps, cap).
    """
    if a < 1:
        raise ValidationError("stretch factor must be a positive integer")
    system = _stretched_block(a, as_fraction(eps), cap)
    target = stretched_simplex_points(a)
    box = Box(((-2, 3),) * 4 + ((-1, max(2, 2 * a)),))
    provenance = {
        "construction": "stretched_simplex" if a != 1 else "dim5",
        "a": a,
        "eps": str(as_fraction(eps)),
        "field_degree": 2,
        "mixed_certified": True,
    }
    return RelaxationBundle(system, target, provenance, box)


def simplex5_relaxation(eps: Fraction | int | str = DEFAULT_EPS,
                        cap: int = DEFAULT_POINT_CAP) -> RelaxationBundle:
    """The five-facet relaxation of the 5-dimensional simplex vertex set."""
    bundle = stretched_simplex_relaxation(1, eps, cap=cap)
    target = PointSet(5, bundle.target.points, label="Delta_equivalent_dim5")
    return RelaxationBundle(bundle.system, target, dict(bundle.provenance),
                            Box.uniform(-2, 3, 5))


# ---------------------------------------------------------------------------
# free joins
# ---------------------------------------------------------------------------

def standard_simplex_bundle(d: int, context: FieldContext | None = None) -> RelaxationBundle:
    """The d+1 row system -x_i <= 0, sum x_i <= 1 for the standard simplex."""
    if d < 0:
        raise ValidationError("dimension must be nonnegative")
    ctx = context if context is not None else make_context(2, 2)
    import numpy as np  # imported here, as the module's import order is kept
    a = np.zeros((d + 1, d, ctx.degree), dtype=np.int64)
    b = np.zeros((d + 1, ctx.degree), dtype=np.int64)
    a[:d, :, 0], a[d, :, 0], b[d, 0] = -np.eye(d, dtype=np.int64), 1, 1  # -x_i <= 0, sum x_i <= 1
    system = _lazy(ctx, d, a, b, [1] * (d + 1), top=1)
    return RelaxationBundle(system, simplex_points(d),
                            {"construction": "standard_simplex", "d": d},
                            Box.uniform(-1, 2, d))


def free_join_compose(*bundles: RelaxationBundle) -> RelaxationBundle:
    """The free join of two or more bundles: the left fold of binary joins.

    A binary join puts left at z = 0 and right at z = 1: A x + b z <= b and
    C y - d z <= 0.  The variables are those of bundle 0, then of each
    bundle i >= 1 followed by its level z_i.  Every bundle needs the shared
    context, the origin and rhs >= 0 with some rhs > 0 (signed from its
    integer rhs: by the integer parts where every rhs is rational, else by
    one kernel call), checked in fold order and each distinct bundle once.
    The joined rows are one integer block placed from the bundles'
    _integer_rows, each row over its own least denominator: bundle 0's rhs
    is also its coefficient on every z_i, and each row of bundle i takes
    -rhs on z_i and rhs 0.  Their field elements are built only when read.
    """
    if len(bundles) < 2:
        raise ValidationError("free join needs at least two bundles")
    first = bundles[0]
    ctx = first.system.context
    import numpy as np  # imported here, as the module's import order is kept
    checked: set[int] = set()
    for i in range(1, len(bundles)):
        if bundles[i].system.context != ctx:
            raise ValidationError("free join requires a shared field context")
        step = [("left", first), ("right", bundles[1])] if i == 1 else [("right", bundles[i])]
        if any(tuple([0] * b.system.num_vars) not in b.target for _, b in step):
            raise PreconditionError(
                "free join needs the origin in both point sets; translate first")
        for name, bundle in step:
            if id(bundle) in checked:  # the composed bound repeats one block
                continue
            checked.add(id(bundle))
            rhs = bundle.system._integer_rows[1]
            # a rational rhs has the sign of its integer numerator; others need the kernel
            signs = (ctx.signs_of_int_vectors(rhs) if rhs[:, 1:].any() else np.sign(rhs[:, 0])
                     ).tolist()
            if min(signs, default=0) < 0:
                raise PreconditionError(f"{name} system has a negative right-hand side")
            if max(signs, default=0) <= 0:
                raise PreconditionError(
                    f"{name} system has no strictly positive right-hand side")
    sizes = [b.system.num_vars for b in bundles]
    total = sum(sizes) + len(bundles) - 1
    blocks = [b.system._integer_rows for b in bundles]
    dens = [d for block in blocks for d in block[2]]
    dtype = object if any(block[0].dtype == object for block in blocks) else np.int64
    a, b = np.zeros((len(dens), total, ctx.degree), dtype), np.zeros((len(dens), ctx.degree), dtype)
    head, rhs0 = len(blocks[0][2]), blocks[0][1]
    a[:head, :sizes[0]], b[:head] = blocks[0][0], rhs0
    points = [p + (0,) * (total - sizes[0]) for p in first.target.points]
    cores: dict[int, np.ndarray] = {}  # each distinct bundle's rows with -rhs on its level
    start, offset, levels = head, sizes[0], []
    for bundle, k, (block, rhs, _, _) in zip(bundles[1:], sizes[1:], blocks[1:]):
        if id(bundle) not in cores:
            cores[id(bundle)] = np.concatenate((block, -rhs[:, None]), axis=1)
        end, level = start + len(rhs), offset + k  # bundle i's rows, and the column of z_i
        a[start:end, offset:level + 1] = cores[id(bundle)]
        before, after = (0,) * offset, (0,) * (total - level - 1)
        points += [before + q + (1,) + after for q in bundle.target.points]
        start, offset = end, level + 1
        levels.append(level)
    a[:head, levels] = rhs0[:, None]
    target = PointSet(total, tuple(points), label="free_join")
    provenance = {
        "construction": "free_join",
        "left": first.provenance.get("construction") if len(bundles) == 2 else "free_join",
        "right": bundles[-1].provenance.get("construction"),
        "rows": len(dens),
    }
    top = max(block[3] for block in blocks)  # its entries are the bundles' or their negations
    return RelaxationBundle(_lazy(ctx, total, a, b, dens, top=top), target, provenance,
                            Box.uniform(-1, 2, total))


def composed_simplex_relaxation(d: int, eps: Fraction | int | str = DEFAULT_EPS,
                                cap: int = DEFAULT_POINT_CAP) -> RelaxationBundle:
    """Join-composed relaxation of a simplex vertex set of dimension d.

    Uses floor((d+1)/6) copies of the five-row block plus one standard
    simplex factor for the remainder, for 5*floor((d+1)/6) + ((d+1) mod 6)
    rows in total, joined in one n-ary free join.  cap bounds the
    enumeration that certifies the block.
    """
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    copies, remainder = divmod(d + 1, 6)
    parts = [simplex5_relaxation(eps, cap=cap)] * copies if copies else []
    if remainder:
        parts.append(standard_simplex_bundle(remainder - 1))
    bundle = free_join_compose(*parts) if len(parts) > 1 else parts[0]
    provenance = {
        "construction": "composed_simplex",
        "d": d,
        "eps": str(as_fraction(eps)),
        "copies_of_dim5": copies,
        "remainder_rows": remainder,
        "rows": bundle.system.num_rows,
    }
    return RelaxationBundle(bundle.system, bundle.target, provenance,
                            Box.uniform(-1, 2, d))


# ---------------------------------------------------------------------------
# the cube-projection simplex copy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeSimplexSplit:
    """Unimodular simplex copy whose first-k projection is the 0/1 cube."""

    points: PointSet               # d+1 points in Z^d, d = 2^k - 1
    base: PointSet                 # projections of the first k+1 columns
    moved: PointSet                # projections of the remaining columns
    basis_matrix: tuple[tuple[int, ...], ...]  # unimodular witness, d x d


@functools.lru_cache(maxsize=16)
def cube_simplex_split(k: int) -> CubeSimplexSplit:
    """Columns 0, (e_i, 0), (B_j, e_j) with B_j the 0/1 vectors of weight >= 2."""
    if k < 2:
        raise ValidationError("construction needs k >= 2")
    d = (1 << k) - 1
    heavy = [b for b in itertools.product((0, 1), repeat=k) if sum(b) >= 2]
    m = d - k
    assert len(heavy) == m
    columns = [tuple([0] * d)]
    for i in range(k):
        columns.append(tuple(1 if j == i else 0 for j in range(d)))
    for j, b in enumerate(heavy):
        columns.append(b + tuple(1 if t == j else 0 for t in range(m)))
    # witness: the matrix with the nonzero columns maps the unit vectors there
    basis = tuple(tuple(columns[i + 1][r] for i in range(d)) for r in range(d))
    base = PointSet(k, tuple(c[:k] for c in columns[:k + 1]), label=f"Delta_{k}")
    moved = PointSet(k, tuple(heavy), label="cube_rest")
    return CubeSimplexSplit(PointSet(d, tuple(columns), label="cube_projection_simplex"),
                            base, moved, basis)


# ---------------------------------------------------------------------------
# the project / lift / relax chain
# ---------------------------------------------------------------------------

def pipeline_cover_sizes(k: int) -> dict:
    """Row-count bookkeeping for the chain at a given k, no field arithmetic."""
    roots = [root for root, _ in cover_generators(k)]
    perm_count, upper = roots.count(frozenset()), len(roots)
    return {
        "k": k,
        "permutation_facets": perm_count,
        "dominating_facets": upper - perm_count,
        "upper_total": upper,
        "rows": 2 * k + 2 * upper,
    }


def pipeline_row_count(k: int) -> int:
    return pipeline_cover_sizes(k)["rows"]


@dataclass(frozen=True)
class PipelineRun:
    """All intermediate artifacts of one project/lift/relax execution."""

    k: int
    heights: HeightFunction            # rational staircase heights
    perturbed: HeightFunction          # heights with irrational offsets
    eps: Fraction
    mixed_system: LinearSystem
    certificate: Certificate | None
    bundle: RelaxationBundle


def pipeline_run(k: int, cap: int = DEFAULT_POINT_CAP,
                 certify: bool = True) -> PipelineRun:
    """Build and certify the relaxation of the simplex of dimension 2^k - 1.

    Stages: split the cube into base and moved points; build the staircase
    heights and the upper/lower facet covers; perturb the moved heights
    into an irrational family, which rebuilds the cover facets under them;
    assemble the mixed system from 2k box rows plus those rebuilt facets,
    upper then lower; certify it against the perturbed heights, refused
    at stage "mixed-certificate"; then pull it back, in one affine
    substitution, under the shear that subtracts the affine interpolant of
    the base heights composed with the block that folds the moved points
    into extra coordinates.  Row count is 2k plus twice the cover size.
    """
    if k < 2:
        raise ValidationError("pipeline needs k >= 2")
    if certify and k > 8:
        raise ValidationError(
            "full certification is supported for k <= 8; pass certify=False "
            "to build an uncertified system")
    split = cube_simplex_split(k)
    heights = staircase_height(k)
    upper, lower = build_full_cover(k)
    perturbed, eps, facets = perturb_heights(split.base.points, split.moved.points,
                                             heights, upper + lower)
    ctx = perturbed.context
    zero, one = ctx.zero, ctx.one

    rows = []
    for i in range(k):
        rows.append(Row(tuple(one if j == i else zero for j in range(k)) + (zero,), one))
        rows.append(Row(tuple(-one if j == i else zero for j in range(k)) + (zero,), zero))
    rows.extend(Row(f.coeffs + (f.y_coeff,), f.rhs) for f in facets)
    mixed = LinearSystem(ctx, k + 1, tuple(rows))

    certificate = None
    if certify:
        certificate = certify_mixed(mixed, perturbed, cap=cap)
        certificate.require_certified(f"mixed certificate at k={k}", stage="mixed-certificate")

    # one pull-back composes the shear (x, y) -> (x, y + f(x)), which removes the
    # rational affine part f of the heights, with the block (u, v) -> (u + sum
    # v_t p_t, sum v_t (h(p_t) - f(p_t))), which folds the moved points p_t into
    # extra coordinates; as f(p_t) = f.p_t + f(0), the composite is
    # x = u + sum v_t p_t, y = f.u + sum v_t (h(p_t) - f(0)) + f(0)
    interpolant = affine_interpolant(split.base.points, heights)
    moved = split.moved.points
    offset = ctx.from_rational(interpolant.offset)
    block = [tuple(int(j == i) for j in range(k)) + tuple(p[i] for p in moved)
             for i in range(k)]
    block.append(tuple(interpolant.coeffs) + tuple(perturbed(p) - offset for p in moved))
    final = mixed.substitute_affine(block, (0,) * k + (offset,))

    d = (1 << k) - 1
    target = simplex_points(d)
    from .poly import _CHUNK  # read here, where a patched poly._CHUNK shows
    # the slacks at the targets 0 and e_i are b and b - A[:, i], int64 only below 2^62
    a, b = final._integer_rows[:2]
    per = max(1, _CHUNK // b.size)  # variables a block of at most _CHUNK integers
    if (ctx.signs_of_int_vectors(b) < 0).any() or any(
            (ctx.signs_of_int_vectors(b[:, None] - a[:, i:i + per]) < 0).any()
            for i in range(0, d, per)):
        raise CertificationError("a target point violates the assembled system",
                                 stage="assembly")
    provenance = {
        "construction": "pipeline",
        "k": k,
        "d": d,
        "eps": str(eps),
        "field_degree": ctx.degree,
        "upper_facets": len(upper),
        "lower_facets": len(lower),
        "rows": final.num_rows,
        "mixed_certified": bool(certificate and certificate.certified),
    }
    if not certify:
        provenance["certification"] = "uncertified (construction and spot checks only)"
    bundle = RelaxationBundle(final, target, provenance, Box.uniform(-1, 2, d))
    return PipelineRun(k, heights, perturbed, eps, mixed, certificate, bundle)


# ---------------------------------------------------------------------------
# bound tabulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundRow:
    d: int
    trivial: int
    composed: int
    pipeline: int
    best: int


def relaxation_bound_table(d_max: int) -> list[BoundRow]:
    """Facet-count upper bounds per dimension from each construction.

    The pipeline column pads d up to the next 2^k - 1 and relies on the
    monotonicity of the bound in the dimension.
    """
    if d_max < 1:
        raise ValidationError("d_max must be at least 1")
    pipeline_at: dict[int, int] = {}
    k = 2
    while (1 << k) - 1 < d_max * 2 + 2:
        pipeline_at[(1 << k) - 1] = pipeline_row_count(k)
        k += 1
    rows = []
    for d in range(1, d_max + 1):
        trivial = d + 1
        composed = 5 * ((d + 1) // 6) + (d + 1) % 6
        padded = min(v for dd, v in pipeline_at.items() if dd >= d)
        rows.append(BoundRow(d, trivial, composed, padded,
                             min(trivial, composed, padded)))
    return rows
