"""H-representation polyhedra over a field context.

Systems are finite lists of rows ``coeffs . x <= rhs`` with exact field
coefficients.  Provides exact membership, Fourier-Motzkin elimination,
coordinate bounds, lattice-point enumeration in boxes, affine pullbacks,
recession systems, and coordinate-subspace restriction.  Nothing here is
ever evaluated in floating point.  Each system keeps its rows' integer
numerators as numpy arrays (_integer_rows); one routine, _evaluate, reads
every row's value at a batch of points from them, which the affine
pull-back turns into new rows (field elements only once read), membership
into signed slacks and fiber_bounds into the bounds on the last variable.
Fourier-Motzkin runs on the same arrays in blocks of about _CHUNK
integers, combining rows with positive multipliers (scalars for a
rational pivot column) into primitive integer coefficient vectors; no
field division happens before the bounds.  One enumerator serves every
field: a vectorized branch and bound, which branches first on the
coordinates that complete rows soonest, prunes the prefixes that no
completion satisfies, and the field's kernel signs_of_int_vectors
decides every row at the points that remain.  _CHUNK is the one
working-set budget of the exact kernels: these, lift's facet screen and
certify_mixed's fiber batches all read it from this module, and each
picks int64 or Python integers by field._fit from a bound on its values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .field import FieldContext, FieldElement, _divide_exact, _fit, _reduced

DEFAULT_POINT_CAP = 1 << 26
_CHUNK = 1 << 18  # about the most integers one block of an exact kernel holds
_PROPAGATION_ROUNDS = 8


@dataclass(frozen=True)
class PointSet:
    """A finite set of integer points with a fixed ambient dimension."""

    dimension: int
    points: tuple[tuple[int, ...], ...]
    label: str | None = None

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if len(p) != self.dimension:
                raise ValidationError(
                    f"point {p} has length {len(p)}, expected {self.dimension}")
            if p in seen:
                raise ValidationError(f"duplicate point {p}")
            seen.add(p)

    def __contains__(self, point) -> bool:
        return tuple(point) in set(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def as_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.points)

    def to_json_dict(self) -> dict:
        data = {"dimension": self.dimension, "points": [list(p) for p in self.points]}
        if self.label:
            data["label"] = self.label
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "PointSet":
        return PointSet(int(data["dimension"]),
                        tuple(tuple(int(x) for x in p) for p in data["points"]),
                        data.get("label"))


@dataclass(frozen=True)
class Box:
    """Per-variable integer bounds, lower <= upper componentwise."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValidationError(f"empty box range [{lo}, {hi}]")

    @staticmethod
    def uniform(lo: int, hi: int, dimension: int) -> "Box":
        return Box(((lo, hi),) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def volume(self) -> int:
        v = 1
        for lo, hi in self.bounds:
            v *= hi - lo + 1
        return v

    def __str__(self) -> str:
        return ",".join(f"{lo}:{hi}" for lo, hi in self.bounds)


@dataclass(frozen=True)
class Row:
    coeffs: tuple[FieldElement, ...]
    rhs: FieldElement


class _Rows:
    """LinearSystem.rows where the instance has none: a system made from integer rows
    (_lazy) builds them on first read, and keeps them."""

    def __get__(self, system, owner=None):
        if system is None:
            raise AttributeError("rows")  # so that the field has no default
        (a, b, dens, _), ctx = system._integer_rows, system.context
        system.__dict__["rows"] = rows = tuple(
            Row(tuple(_reduced(ctx, tuple(v), d) for v in coeffs), _reduced(ctx, tuple(t), d))
            for coeffs, t, d in zip(a.tolist(), b.tolist(), dens))
        return rows


@dataclass(frozen=True)
class Membership:
    inside: bool
    tight_rows: tuple[int, ...]
    violated_rows: tuple[int, ...]


@dataclass(frozen=True)
class VarBounds:
    """Result of coordinate_bounds: None stands for an unbounded side."""

    lower: FieldElement | None
    upper: FieldElement | None
    infeasible: bool = False

    @property
    def bounded(self) -> bool:
        return not self.infeasible and self.lower is not None and self.upper is not None


@dataclass(frozen=True)
class LinearSystem:
    """Finite inequality system coeffs . x <= rhs over a shared field context.

    The row list is never implicitly simplified: its length is the facet
    count reported to callers.
    """

    context: FieldContext
    num_vars: int
    rows: tuple[Row, ...] = _Rows()
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        for row in self.rows:
            if len(row.coeffs) != self.num_vars:
                raise ValidationError(
                    f"row has {len(row.coeffs)} coefficients, expected {self.num_vars}")
        if self.names is not None and len(self.names) != self.num_vars:
            raise ValidationError("variable name list has the wrong length")

    @staticmethod
    def from_rows(context: FieldContext,
                  rows: Iterable[tuple[Sequence, object]],
                  num_vars: int,
                  names: Sequence[str] | None = None) -> "LinearSystem":
        built = []
        for coeffs, rhs in rows:
            built.append(Row(tuple(context.coerce(c) for c in coeffs), context.coerce(rhs)))
        return LinearSystem(context, num_vars, tuple(built),
                            tuple(names) if names is not None else None)

    @property
    def num_rows(self) -> int:
        return len(self.__dict__["rows"] if "rows" in self.__dict__ else self._integer_rows[2])

    # -- membership ---------------------------------------------------------

    def contains(self, point: Sequence) -> Membership:
        """Membership of one point, read from memberships([point])[0]."""
        s = self.memberships([point])[0]
        return Membership(bool((s >= 0).all()), tuple(np.flatnonzero(s == 0).tolist()),
                          tuple(np.flatnonzero(s < 0).tolist()))

    def memberships(self, points: Sequence[Sequence]) -> np.ndarray:
        """Entry [i, r] is the sign of rhs_r - coeffs_r . points[i], in an int64 array
        of shape (len(points), num_rows): -1 where the point violates row r, 0 where
        the row is tight, +1 where it holds strictly.  Points hold ints, rationals or
        field elements.  _evaluate gives the slacks in integer numerators and
        signs_of_int_vectors signs them, one call each per chunk of at most about
        _CHUNK integers.
        """
        per = max(1, _CHUNK // max(self.num_rows * self.context.degree, 1))
        chunks = (self._evaluate(points[i:i + per]) for i in range(0, len(points), per))
        return np.concatenate([np.zeros((0, self.num_rows), dtype=np.int64), *(
            self.context.signs_of_int_vectors(rhs[:, None] - values).T
            for values, rhs, _ in chunks)])

    # -- Fourier-Motzkin ------------------------------------------------------

    def eliminate_variable(self, j: int) -> "LinearSystem":
        """Project out variable j by combining its upper and lower bound rows.

        Only syntactic redundancy is removed afterwards: duplicates after
        positive rational scaling, rows dominated by an identical coefficient
        vector with smaller rhs, and vacuous constant rows.  Rows that are
        irrational multiples of each other are both kept.  Infeasibility
        witnesses (0 <= negative) are kept.  The result keeps the rows'
        integer numerators and builds their field elements only when read.
        """
        if not 0 <= j < self.num_vars:
            raise ValidationError(f"variable index {j} out of range")
        w, e, history = _tracked(self)
        w, e, _ = _eliminate(self.context, w, e, history, j, 1,
                             self.context.signs_of_int_vectors(w[:, j]))
        names = None
        if self.names is not None:
            names = self.names[:j] + self.names[j + 1:]
        return _lazy(self.context, w.shape[1] - 1, w[:, :-1], w[:, -1], e.tolist(), names)

    def single_variable_rows(self) -> "LinearSystem":
        """The system of the rows with exactly one nonzero coefficient, in their order."""
        a, b, dens, _ = self._integer_rows
        keep = np.flatnonzero((a != 0).any(axis=2).sum(axis=1) == 1).tolist()
        return _lazy(self.context, self.num_vars, a[keep], b[keep], [dens[r] for r in keep],
                     self.names)

    def coordinate_bounds(self, j: int) -> VarBounds:
        """Best bounds on variable j obtained by eliminating all others.

        Elimination order is chosen greedily (fewest pairings first).  The
        chained elimination drops rows whose combination history exceeds
        one plus the number of variables eliminated so far; such rows are
        always redundant, so the projection, and with it the bounds, stay
        exact.
        """
        if not 0 <= j < self.num_vars:
            raise ValidationError(f"variable index {j} out of range")
        ctx, (w, e, history), target, level = self.context, _tracked(self), j, 1
        while True:
            constant = ~w[:, :-1].any(axis=(1, 2))
            if constant.any() and (ctx.signs_of_int_vectors(w[constant, -1]) < 0).any():
                return VarBounds(None, None, infeasible=True)
            if w.shape[1] == 2:
                break
            signs = ctx.signs_of_int_vectors(w[:, :-1])
            pos, neg = (signs > 0).sum(axis=0), (signs < 0).sum(axis=0)
            cost = (pos * neg - pos - neg).tolist()
            best = min((v for v in range(len(cost)) if v != target), key=cost.__getitem__)
            w, e, history = _eliminate(ctx, w, e, history, best, level, signs[:, best])
            level += 1
            target -= best < target
        bounds = _lazy(ctx, 1, w[:, :1], w[:, 1], e.tolist()).propagated_bounds()[0]
        if bounds.bounded and (bounds.upper - bounds.lower).sign() < 0:
            return VarBounds(None, None, infeasible=True)
        return bounds

    def fiber_bounds(self, points: Sequence[Sequence[int]]) -> list[VarBounds]:
        """restrict_to_subspace(dict(enumerate(p))).coordinate_bounds(0) for every point p.

        Row r reads c y <= s, with every slack s = rhs - coeffs . (p, 0) from
        _evaluate.  c = 0 makes the fiber infeasible where s < 0; any other c
        bounds y by s times 1/c, a scalar or, for irrational c, its
        multiplication matrix.  Each side's bounds, stacked, meet in a pairwise
        tournament (_best_bounds): about log2(rows) kernel calls per side
        across the points, in chunks of at most about _CHUNK integers, and
        lower > upper is infeasible.
        """
        ctx, n, q = self.context, self.context.degree, self.context.radicand.denominator
        if any(len(p) != self.num_vars - 1 for p in points):
            raise ValidationError(f"fiber points need {self.num_vars - 1} coordinates")
        inverses = [c.inverse() if c else c for c in (row.coeffs[-1] for row in self.rows)]
        sides = np.array([row.coeffs[-1].sign() for row in self.rows], dtype=np.int64)
        # row r bounds y by its slack times factors[r] (by @ when 2-d) over its den times scales[r]
        factors = [v.num[0] if v.is_rational() else ctx.multiplication_matrix(v.num).T
                   for v in inverses]
        scales = [v.den * (1 if v.is_rational() else q) for v in inverses]
        most = max([1, *(int(np.abs(f).max()) * n if np.ndim(f) else abs(f) for f in factors)])
        result, per = [], max(1, _CHUNK // max(self.num_rows * n, 1))
        for start in range(0, len(points), per):
            values, rhs, dens = self._evaluate([(*p, 0) for p in points[start:start + per]])
            slack, dens = rhs[:, None] - values, [d * s for d, s in zip(dens, scales)]
            top = max(1, int(np.abs(slack).max(initial=0)))
            # a comparison subtracts two products, each below top * most * max(dens)
            slack, = _fit(2 * top * most * max(dens, default=1), slack)
            dtype = slack.dtype
            bad = (ctx.signs_of_int_vectors(slack[sides == 0]) < 0).any(axis=0)
            best = {}  # side -> numerators and denominators of the best bound at each point
            for side in (-1, 1):
                rs = np.flatnonzero(sides == side).tolist()
                if not rs:
                    continue
                nums = np.stack([slack[r] @ factors[r].astype(dtype) if np.ndim(factors[r])
                                 else slack[r] * factors[r] for r in rs])
                best[side] = _best_bounds(ctx, side, nums, np.array(
                    [[dens[r]] * slack.shape[1] for r in rs], dtype=dtype))
            if len(best) == 2:
                (low, lows), (up, ups) = best[-1], best[1]
                bad |= ctx.signs_of_int_vectors(up * lows[:, None] - low * ups[:, None]) < 0
            found = {side: [_reduced(ctx, tuple(v), d) for v, d in zip(num.tolist(), den.tolist())]
                     for side, (num, den) in best.items()}
            result.extend(VarBounds(None, None, infeasible=True) if b else VarBounds(
                *(found[side][i] if side in found else None for side in (-1, 1)))
                for i, b in enumerate(bad.tolist()))
        return result

    def propagated_bounds(self) -> list[VarBounds]:
        """Per-variable bounds by exact interval propagation over the rows.

        Sound but not necessarily tight: every feasible point respects the
        returned intervals, while an unbounded verdict here only means the
        propagation could not prove a bound (coordinate_bounds decides it
        exactly).  Cheap, and immediate whenever single-variable rows are
        present; at most _PROPAGATION_ROUNDS passes over the rows.
        """
        lower: list[FieldElement | None] = [None] * self.num_vars
        upper: list[FieldElement | None] = [None] * self.num_vars
        row_signs = [[c.sign() for c in row.coeffs] for row in self.rows]
        # a row over one variable bounds it alike in every pass: one pass decides such rows
        rounds = _PROPAGATION_ROUNDS if any(sum(map(bool, s)) > 1 for s in row_signs) else 1
        for _ in range(rounds):
            changed = False
            for row, signs in zip(self.rows, row_signs):
                support = [v for v, s in enumerate(signs) if s]
                for v in support:
                    residual = row.rhs
                    ok = True
                    for u in support:
                        if u == v:
                            continue
                        bound = lower[u] if signs[u] > 0 else upper[u]
                        if bound is None:
                            ok = False
                            break
                        residual = residual - row.coeffs[u] * bound
                    if not ok:
                        continue
                    # c x_v <= residual bounds x_v by residual / c, above for c > 0 and
                    # below for c < 0; either way it beats the old bound b iff
                    # residual - c b < 0, so divide only when it does
                    c = row.coeffs[v]
                    bounds = upper if signs[v] > 0 else lower
                    if bounds[v] is None or (residual - c * bounds[v]).sign() < 0:
                        bounds[v] = residual / c
                        changed = True
            if not changed:
                break
        return [VarBounds(lo, hi) for lo, hi in zip(lower, upper)]

    # -- affine operations ------------------------------------------------------

    def substitute_affine(self, matrix: Sequence[Sequence], shift: Sequence | None = None
                          ) -> "LinearSystem":
        """Pull the system back under z -> matrix . z + shift (new vars z).

        matrix has one row per old variable; row count of the system is
        preserved exactly: coeffs . x <= rhs becomes (coeffs . matrix) z <=
        rhs - coeffs . shift.  One _evaluate call over the matrix's columns
        and the shift gives every new numerator from the rows' integer
        numerators; the result's rows are built from them on first read.
        Entries may be ints, rationals or field elements of the context.
        """
        if len(matrix) != self.num_vars:
            raise ValidationError(
                f"substitution matrix has {len(matrix)} rows, expected {self.num_vars}")
        new_dim = len(matrix[0]) if matrix else 0
        if any(len(row) != new_dim for row in matrix):
            raise ValidationError("ragged substitution matrix")
        if shift is None:
            shift = (0,) * self.num_vars
        elif len(shift) != self.num_vars:
            raise ValidationError("shift vector has the wrong length")
        values, rhs, dens = self._evaluate([*zip(*matrix), shift])
        values[:, -1] = rhs - values[:, -1]  # each new row's coefficients, then its rhs
        # each row over its least denominator, as _integer_rows would rebuild it; a zero
        # row is divided by 1, as its den may not fit int64
        content = np.gcd.reduce(values, axis=(1, 2), initial=0).tolist()
        gs = [math.gcd(c, d) for c, d in zip(content, dens)]
        _divide_exact(values, np.array([g if c else 1 for g, c in zip(gs, content)],
                                       dtype=values.dtype)[:, None, None])
        return _lazy(self.context, new_dim, values[:, :-1], values[:, -1],
                     [d // g for d, g in zip(dens, gs)])

    @cached_property
    def _integer_rows(self) -> tuple[np.ndarray, np.ndarray, list[int], int]:
        """(A, b, dens, top): row r reads sum_i (b[r, i] - A[r, :, i] . x) c**i / dens[r] >= 0,
        with dens[r] its least common denominator and top the largest |entry| of
        A and b, which are int64 when top < 2**62 and Python integers otherwise."""
        n, dens, a, b = self.context.degree, [], [], []
        for row in self.rows:
            dens.append(den := math.lcm(row.rhs.den, *(e.den for e in row.coeffs)))
            a.append([e.num if e.den == den else [x * (den // e.den) for x in e.num]
                      for e in row.coeffs])
            b.append([x * (den // row.rhs.den) for x in row.rhs.num])
        try:  # int64 straight from the lists, unless an entry needs 64 bits or more
            a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        except OverflowError:
            a, b = np.array(a, dtype=object), np.array(b, dtype=object)
        return _seeded(self, a.reshape(len(dens), self.num_vars, n), b.reshape(len(dens), n),
                       dens).__dict__["_integer_rows"]

    def _evaluate(self, columns: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """(values, rhs, dens): the numerators of sum_j coeffs_j * columns[c][j] in
        values[r, c] and of the rhs in rhs[r], all over dens[r], for every row r.

        Over the entries' common denominator E, an int or rational entry acts
        on a row's numerators as a scalar, and a field entry through its
        multiplication matrix, at the powers where some row's coefficient j
        is nonzero.  int64 while top (E q + num_vars n max|entry| max(p, q))
        < 2**62, Python integers otherwise.
        """
        ctx, n, num_vars = self.context, self.context.degree, self.num_vars
        p, q = ctx.radicand.numerator, ctx.radicand.denominator
        a, b, row_dens, top = self._integer_rows
        for col in columns:
            if len(col) != num_vars:
                raise ValidationError(f"point of length {len(col)} in a {num_vars}-variable system")
        cols = [[v if type(v) is int else ctx.coerce(v) for v in col] for col in columns]
        den = math.lcm(*(v.den for col in cols for v in col if type(v) is not int))
        scalars = [[v * den * q if type(v) is int else v.num[0] * (den // v.den) * q
                    if v.is_rational() else 0 for v in col] for col in cols]
        fields: dict[int, list] = {}  # variable j -> [(column, scaled numerators)]
        for c, col in enumerate(cols):
            for j, v in enumerate(col):
                if type(v) is not int and not v.is_rational():
                    fields.setdefault(j, []).append((c, [x * (den // v.den) for x in v.num]))
        most = max([0, *(abs(x) for col in scalars for x in col), max(p, q) * max([0, *(
            abs(x) for group in fields.values() for _, num in group for x in num)])])
        a, b = _fit(max(top, 1) * (den * q + num_vars * n * most), a, b)
        values = np.array(scalars, dtype=a.dtype).reshape(len(cols), num_vars) @ a
        for j, group in fields.items():
            powers = np.flatnonzero((a[:, j] != 0).any(axis=0))
            blocks = ctx.multiplication_matrix(np.array([x for _, x in group], dtype=a.dtype),
                                               powers)
            values[:, [c for c, _ in group]] += (a[:, j, powers] @ blocks.reshape(
                len(group) * n, len(powers)).T).reshape(len(b), len(group), n)
        return values, b * (den * q), [d * den * q for d in row_dens]

    def recession_system(self) -> "LinearSystem":
        zero = self.context.zero
        return LinearSystem(self.context, self.num_vars,
                            tuple(Row(row.coeffs, zero) for row in self.rows),
                            self.names)

    def restrict_to_subspace(self, fixed: dict[int, int]) -> "LinearSystem":
        """Substitute integer constants for the given variables, then normalize and
        deduplicate the rows."""
        for idx in fixed:
            if not 0 <= idx < self.num_vars:
                raise ValidationError(f"variable index {idx} out of range")
        keep = [i for i in range(self.num_vars) if i not in fixed]
        w, e, history = _tracked(self)
        w, e = _fit(max(_top(w), _top(e)) * (1 + sum(map(abs, fixed.values()))), w, e)
        rhs = w[:, -1] - np.array(list(fixed.values()), dtype=w.dtype) @ w[:, list(fixed)]
        w, e, _ = _deduplicated(self.context, *_normalized(
            self.context, np.concatenate((w[:, keep], rhs[:, None]), axis=1), e, history))
        names = None
        if self.names is not None:
            names = tuple(self.names[i] for i in keep)
        return _lazy(self.context, w.shape[1] - 1, w[:, :-1], w[:, -1], e.tolist(), names)

    # -- lattice point enumeration ----------------------------------------------

    def enumerate_lattice_points(self, box: Box, cap: int = DEFAULT_POINT_CAP,
                                 jobs: int = 1) -> list[tuple[int, ...]]:
        """All integer points of the box satisfying the system, in lex order
        whatever order the search branches in (_search_order).

        cap bounds the box's points, not the prefixes the search visits.
        jobs > 1 splits the first searched coordinate's range across that
        many worker processes, at most one per CPU.
        """
        if box.dimension != self.num_vars:
            raise ValidationError(
                f"box dimension {box.dimension} does not match {self.num_vars} variables")
        if jobs < 1:
            raise ValidationError(f"jobs must be at least 1, got {jobs}")
        if cap < 1:
            raise ValidationError(f"cap must be at least 1, got {cap}")
        volume = box.volume
        if volume > cap:
            raise ResourceLimitError(
                f"box holds {volume} lattice points, above the cap of {cap}",
                required=volume)
        int_rows = self._integer_rows
        order = _search_order(int_rows[0], box)
        jobs = min(jobs, os.cpu_count() or 1) if jobs > 1 else 1
        if jobs > 1 and box.dimension and box.bounds[order[0]][1] > box.bounds[order[0]][0]:
            return _enumerate_parallel(self.context, int_rows, box, order, jobs)
        return _enumerate(self.context, int_rows, box, order)

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        data = {
            "field": self.context.to_json_dict(),
            "num_vars": self.num_vars,
            "rows": [{"coeffs": [c.to_json_list() for c in row.coeffs],
                      "rhs": row.rhs.to_json_list()} for row in self.rows],
        }
        if self.names is not None:
            data["names"] = list(self.names)
        return data

    @staticmethod
    def from_json_dict(data: dict) -> "LinearSystem":
        ctx = FieldContext.from_json_dict(data["field"])
        rows = tuple(Row(tuple(ctx.element(c) for c in row["coeffs"]),
                         ctx.element(row["rhs"]))
                     for row in data["rows"])
        names = tuple(data["names"]) if "names" in data else None
        return LinearSystem(ctx, int(data["num_vars"]), rows, names)


# -----------------------------------------------------------------------------
# Fourier-Motzkin on integer rows
# -----------------------------------------------------------------------------

def _top(x: np.ndarray) -> int:
    """The largest |entry| of x, from its max and min (no array of magnitudes)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _seeded(system: LinearSystem, a, b, dens) -> LinearSystem:
    """system with _integer_rows set to (a, b, dens, top) as a rebuild gives them."""
    top = max(_top(a), _top(b))
    system.__dict__["_integer_rows"] = (*_fit(top, a, b), dens, top)
    return system


def _lazy(context: FieldContext, num_vars: int, a, b, dens, names=None) -> LinearSystem:
    """The system of the integer rows (a, b, dens) as _integer_rows holds them, each over
    its least denominator; no rows until read (_Rows)."""
    system = object.__new__(LinearSystem)
    system.__dict__.update(context=context, num_vars=num_vars, names=names)
    return _seeded(system, a, b, dens)


def _tracked(system: LinearSystem):
    """(w, e, history): row r reads w[r, :-1] . x <= w[r, -1] over e[r] > 0, the system's
    _integer_rows, and history[r] marks the original rows it combines, here r alone."""
    a, b, dens, top = system._integer_rows
    return (*_fit(max(top, *dens, 0), np.concatenate((a, b[:, None]), axis=1),
                  np.array(dens, dtype=object)), np.eye(len(dens), dtype=bool))


def _normalized(context: FieldContext, w, e, history):
    """Rows with coefficient content h > 0 as (w / g, h / g), g = gcd(h, rhs content),
    so w[:, :-1] / e is primitive and e the row's least denominator (what _lazy
    takes); constant rows dropped unless infeasible.  w is divided in place."""
    den = np.gcd.reduce(w[:, :-1], axis=(1, 2), initial=0)
    constant = den == 0
    if constant.any():
        live = ~constant
        live[constant] = context.signs_of_int_vectors(w[constant, -1]) < 0
        w, e, history, den = w[live], e[live], history[live], den[live]
        den = np.where(den == 0, e, den)
    g = np.gcd(den, np.gcd.reduce(w[:, -1], axis=1))
    return _divide_exact(w, g[:, None, None]), den // g, history


def _deduplicated(context: FieldContext, w, e, history):
    """Of normalized rows with equal primitive coefficient vectors (the keys, formed
    about _CHUNK integers at a time) the one with the least rhs, on a tie the shorter
    history, at the place of the first: a tournament, one kernel call a round."""
    per, groups = max(1, _CHUNK // max(w[:1, :-1].size, 1)), {}
    ids = np.array([groups.setdefault(repr(key.tolist()) if key.dtype == object else bytes(key),
                                      len(groups)) for s in range(0, len(w), per)
                    for key in _divide_exact(w[s:s + per, :-1].copy(), e[s:s + per, None, None])],
                   dtype=np.int64)
    if len(groups) == len(ids):
        return w, e, history
    (rhs, den), length = _fit(2 * _top(w[:, -1]) * _top(e), w[:, -1], e), history.sum(axis=1)

    def beats(old, new):
        s = context.signs_of_int_vectors(rhs[new] * den[old, None] - rhs[old] * den[new, None])
        return (s < 0) | ((s == 0) & (length[new] < length[old]))
    keep = _group_best(ids, beats)
    return w[keep], e[keep], history[keep]


def _group_best(ids: np.ndarray, beats) -> np.ndarray:
    """The index of the best row of each group, ids the rows' group numbers 0, 1, ...: a
    tournament where beats(old, new) marks the row pairs the new row wins, a kernel call a
    round, so the earlier row stays on a tie; best[first[g] + i] is the best of rows i.."""
    best, size = np.argsort(ids, kind="stable"), np.bincount(ids)
    first = np.cumsum(size) - size
    offset, span, step = np.arange(len(ids)) - np.repeat(first, size), np.repeat(size, size), 1
    while step < size.max(initial=0):
        at = np.flatnonzero((offset % (2 * step) == 0) & (offset + step < span))
        better = beats(best[at], best[at + step])
        best[at[better]] = best[at + step][better]
        step *= 2
    return best[first]


def _best_bounds(context: FieldContext, side: int, nums, dens):
    """(numerators, denominators) of the best of the bounds nums[r] / dens[r] at each
    point (rows x points x n over rows x points): the least for side 1, the greatest
    for -1.  Neighbours meet, so the earlier row stays on a tie: a tournament, one
    kernel call a round."""
    while len(nums) > 1:
        pairs = len(nums) // 2 * 2
        left, right = slice(0, pairs, 2), slice(1, pairs, 2)
        better = context.signs_of_int_vectors(nums[right] * dens[left, :, None]
                                              - nums[left] * dens[right, :, None]) * side < 0
        nums = np.concatenate((np.where(better[..., None], nums[right], nums[left]), nums[pairs:]))
        dens = np.concatenate((np.where(better, dens[right], dens[left]), dens[pairs:]))
    return nums[0], dens[0]


def _eliminate(context: FieldContext, w, e, history, j: int, level: int, side):
    """One Fourier-Motzkin step on integer rows (_tracked), whose column j has the
    signs `side`, normalized and deduplicated.

    Each upper row u and lower row l of variable j combine as (-l_j) u + u_j l over
    e_u e_l: scalars when column j is rational, else multiplication matrices, which
    put a factor q on the row and its e.  A pair whose history holds more than
    level + 1 original rows is redundant after `level` eliminations (Chernikov).
    Blocks of about _CHUNK integers, carried rows first, are cleaned up alone, then merged.
    """
    n, p, q = context.degree, context.radicand.numerator, context.radicand.denominator
    up, low, flat = (side > 0).nonzero()[0], (side < 0).nonzero()[0], side == 0
    iu, il = np.repeat(up, len(low)), np.tile(low, len(up))
    rational = not w[:, j, 1:].any()
    w, e = _fit(2 * max(_top(w), _top(e)) ** 2 * (1 if rational else n * max(p, q)), w, e)
    pivot, rest = w[:, j], np.concatenate((w[:, :j], w[:, j + 1:]), axis=1)
    parts, per = [], max(1, _CHUNK // ((rest.shape[1] + (0 if rational else n)) * n))
    for s in range(0, max(len(iu), 1), per):
        u, l = iu[s:s + per], il[s:s + per]
        fits = (history[u] | history[l]).sum(axis=1) <= level + 1
        u, l = u[fits], l[fits]
        if rational:
            rows = rest[u] * -pivot[l, :1, None] + rest[l] * pivot[u, :1, None]
        else:
            rows = (rest[u] @ context.multiplication_matrix(-pivot[l]).transpose(0, 2, 1)
                    + rest[l] @ context.multiplication_matrix(pivot[u]).transpose(0, 2, 1))
        block = rows, e[u] * e[l] * (1 if rational else q), history[u] | history[l]
        if s == 0:
            block = [np.concatenate(x) for x in zip((rest[flat], e[flat], history[flat]), block)]
        parts.append(_deduplicated(context, *_normalized(context, *block)))
    if len(parts) == 1:
        return parts[0]
    parts = [np.concatenate(x) for x in zip(*parts)]  # and the blocks are freed
    return _deduplicated(context, *parts)


# -----------------------------------------------------------------------------
# lattice enumeration
# -----------------------------------------------------------------------------

_FIRST_STEP = 1 << 8


def _search_order(a: np.ndarray, box: Box) -> list[int]:
    """_enumerate's coordinate order: greedily the free coordinate that completes
    some row soonest (fewest other free coordinates in a row that contains it),
    then the narrower box range, then more rows, then the lower index; a
    coordinate in no row comes after every coordinate in some row."""
    d = box.dimension
    support = (a != 0).any(axis=2)  # rows x d
    rows = support.sum(axis=0).tolist()
    # bit i of a mask stands for ranked[i], the coordinates ranked by the tie-breaks
    ranked = sorted(range(d), key=lambda j: (box.bounds[j][1] - box.bounds[j][0], -rows[j], j))
    bits = np.array([1 << ranked.index(j) for j in range(d)], dtype=object)
    masks = set((support.astype(object) @ bits).tolist())
    free, order = (1 << d) - 1, []
    while free:
        # pick: the free coordinates of the rows nearest completion, all once no row has any
        soonest, pick = d + 1, free
        for m in masks:
            count = (m & free).bit_count()
            if 0 < count < soonest:
                soonest, pick = count, m & free
            elif count == soonest:
                pick |= m & free
        free ^= pick & -pick  # the best ranked of them
        order.append(ranked[(pick & -pick).bit_length() - 1])
    return order


def _enumerate(context: FieldContext, int_rows, box: Box, order: list[int]
               ) -> list[tuple[int, ...]]:
    """Points of the box on which every integer row is nonnegative, in lex order.

    The search fixes the coordinates in the given order (_search_order) on
    A and the box permuted once; the points it finds are mapped back and
    sorted.  A row's value at x is V = sum_i w_i c^i with integer w_i = b_i
    - A_i.x, and the field's kernel signs_of_int_vectors decides it at the
    points that survive the search, at most about _CHUNK integers a call.
    The search prunes with the kernel's brackets L_i, by which 2^B V lies
    within err = sum_{i>=1} |w_i| of centre = sum_i L_i w_i: each step
    fixes the next coordinate of every kept prefix (the first, as many as
    make at most _FIRST_STEP prefixes) and drops a prefix whose centre,
    plus the most the free coordinates can add to it and the most err
    reaches over the box, is negative for some row.  A step compares the
    parents' centres with a floor per child in at most _CHUNK entries, one
    prefix's children in slices if need be; the (child, parent) index pairs
    that pass gather the next prefixes' coordinates and centres.  The search
    is int64 when a magnitude bound over the box stays below 2^62, and
    Python integers (dtype object) otherwise.
    """
    a, b, _, top = int_rows  # the system's _integer_rows: A is rows x d x n, b is rows x n
    n, d, count = context.degree, box.dimension, len(b)
    bounds, back = [box.bounds[j] for j in order], sorted(range(d), key=order.__getitem__)
    scale, reach = context._kernel_brackets(), [max(abs(lo), abs(hi), 1) for lo, hi in bounds]
    # every |w_i| stays below top (1 + sum(reach)) over the box, reach being at least 1: a
    # scalar never below the exact bound, which is computed only where the scalar passes 2^62
    headroom = max([*reach, top * (1 + sum(reach)) * (sum(scale) + n)])
    a, b = _fit(headroom, a[:, order], b)
    size = np.abs(b) + np.array(reach, a.dtype) @ np.abs(a)  # the most |w_i| reaches over the box
    if a.dtype == object:
        headroom = max((*reach, *(size @ np.array(scale, dtype=object) + size.sum(axis=1))))
        a, b, size = _fit(headroom, a, b, size)
    scale = np.array(scale, a.dtype)
    centres, low, high = a @ scale, *np.array(bounds, dtype=np.int64).reshape(d, 2).T
    # column j: the most coordinates j.. can add to each centre, plus the most err reaches
    most = np.column_stack((np.maximum(centres * -low, centres * -high), size[:, 1:].sum(axis=1)))
    most = np.cumsum(most[:, ::-1], axis=1)[:, ::-1]

    sizes = [hi - lo + 1 for lo, hi in bounds]
    first = min(d, 1 + sum(math.prod(sizes[:j]) <= _FIRST_STEP for j in range(2, d + 1)))
    grids = [np.indices(sizes[:first], dtype=np.int64).reshape(first, math.prod(sizes[:first]))
             + low[:first, None], *(np.arange(lo, hi + 1)[None] for lo, hi in bounds[first:])]
    steps = []
    for grid, j1 in zip(grids, range(first, d + 1)):
        # a child lowers each centre by drop, and stays where centre - drop + most[:, j1] >= 0
        drop = centres[:, j1 - len(grid):j1] @ grid
        steps.append((grid, drop, drop - most[:, j1, None]))

    limit = max(1, _CHUNK // max(count, 1))
    points_per, rows_per = max(1, _CHUNK // max(count * n, 1)), max(1, _CHUNK // n)
    result: list[tuple[int, ...]] = []

    def finish(xs):
        """Keep the columns of xs where every row's w = b - A x has a nonnegative sign."""
        ok = np.ones(xs.shape[1], dtype=bool)
        for s in range(0, xs.shape[1], points_per):
            x = xs[:, s:s + points_per].T.astype(a.dtype, copy=False)
            for r in range(0, count, rows_per):
                w = b[r:r + rows_per, None] - x @ a[r:r + rows_per]
                ok[s:s + points_per] &= (context.signs_of_int_vectors(w) >= 0).all(axis=0)
        result.extend(map(tuple, xs[:, ok][back].T.tolist()))

    def descend(depth, points, values):
        """Extend the prefixes (columns of points, their centres) by step `depth`: the
        (child, parent) index pairs where every row's centre reaches the step's floor,
        whose coordinates and centres are gathered by those indices."""
        grid, drop, floor = steps[depth]
        per = max(1, limit // grid.shape[1])
        for s in range(0, points.shape[1], per):
            parents = values[:, s:s + per]
            for c in range(0, grid.shape[1], limit):
                child, parent = np.nonzero(
                    (parents[:, None] >= floor[:, c:c + limit, None]).all(axis=0))
                if not len(parent):
                    continue
                child, parent = child + c, parent + s
                xs = np.concatenate((points.take(parent, axis=1), grid.take(child, axis=1)))
                if depth + 1 < len(steps):
                    descend(depth + 1, xs, values.take(parent, axis=1) - drop.take(child, axis=1))
                else:
                    finish(xs)

    descend(0, np.zeros((0, 1), dtype=np.int64), (b @ scale)[:, None])
    return sorted(result)


def _enumerate_chunk(args):
    field, int_rows, bounds, order = args
    return _enumerate(FieldContext.from_json_dict(field), int_rows, Box(bounds), order)


def _enumerate_parallel(context: FieldContext, int_rows, box: Box, order: list[int],
                        jobs: int) -> list[tuple[int, ...]]:
    """_enumerate with the first searched coordinate's range split across worker processes."""
    from concurrent.futures import ProcessPoolExecutor  # imported here: it loads multiprocessing
    first = order[0]
    lo0, hi0 = box.bounds[first]
    span = hi0 - lo0 + 1
    jobs = min(jobs, span)
    edges = [lo0 + (span * i) // jobs for i in range(jobs)] + [hi0 + 1]
    field = context.to_json_dict()
    tasks = [(field, int_rows, box.bounds[:first] + ((edges[i], edges[i + 1] - 1),)
              + box.bounds[first + 1:], order) for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sorted(p for part in pool.map(_enumerate_chunk, tasks) for p in part)
