"""Covering machinery on the Boolean lattice and on lifted cube vertices.

Every cover facet comes from a root S of [k-1] with an order of the rest:
S and its one-smaller subsets on the bottom layer, a chain up to [k-1] on
the top.  Empty roots, one per symmetric chain, cover the top layer and a
dominating family of roots the bottom; the full cover is one
lift.facets_from_simplices call, reflections included, made once per k in
a process.  A small branch-and-bound set cover gives exact covering numbers
on small instances.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice, product
from typing import Iterable, Sequence

from .errors import PreconditionError, ResourceLimitError, ValidationError
from .lift import (FacetSimplex, HeightFunction, _circuit_candidates, _screen_facets, _screen_size,
                   facet_inequality_from_simplex, facets_from_simplices, staircase_height)

Point = tuple[int, ...]


@dataclass(frozen=True)
class Chain:
    """Strictly increasing sequence of subsets of [n]."""

    subsets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for a, b in zip(self.subsets, self.subsets[1:]):
            if not (a < b):
                raise ValidationError("chain subsets must strictly increase")

    def __len__(self) -> int:
        return len(self.subsets)


# ---------------------------------------------------------------------------
# symmetric chain decomposition
# ---------------------------------------------------------------------------

def symmetric_chain_cover(n: int) -> list[Chain]:
    """Partition of all subsets of [n] into C(n, floor(n/2)) symmetric chains.

    Bracket matching: scanning positions 1..n, a 0 opens and a 1 closes.
    Subsets sharing the same matched pairs form one chain, ordered by the
    number of unmatched positions switched on from the left.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    groups: dict[frozenset, list[frozenset]] = {}
    for mask in range(1 << n):
        stack: list[int] = []
        matched = []
        for pos in range(1, n + 1):
            if mask >> (pos - 1) & 1:
                if stack:
                    matched.append((stack.pop(), pos))
            else:
                stack.append(pos)
        key = frozenset(matched)
        subset = frozenset(pos for pos in range(1, n + 1) if mask >> (pos - 1) & 1)
        groups.setdefault(key, []).append(subset)
    chains = []
    for members in groups.values():
        members.sort(key=len)
        chains.append(Chain(tuple(members)))
    chains.sort(key=lambda ch: sorted(ch.subsets[0]))
    return chains


def chains_to_permutations(chains: Sequence[Chain], n: int) -> tuple[tuple[int, ...], ...]:
    """Extend each chain to a full chain of subsets of [n] and read it as a permutation.

    Gaps are filled by inserting the smallest missing element first; every
    subset covered by the input is then a prefix set of some permutation.
    """
    covered = set()
    for chain in chains:
        covered.update(chain.subsets)
    if len(covered) != 1 << n:
        raise ValidationError(
            f"chains cover {len(covered)} of {1 << n} subsets of [{n}]")
    perms = []
    universe = frozenset(range(1, n + 1))
    for chain in chains:
        order: list[int] = []
        current: set[int] = set()
        for member in chain.subsets + (universe,):
            missing = sorted(member - current)
            for element in missing:
                order.append(element)
                current.add(element)
        perms.append(tuple(order))
    return tuple(perms)


# ---------------------------------------------------------------------------
# dominating families on the Boolean lattice
# ---------------------------------------------------------------------------

def _dominated_by(subset: int, n: int) -> list[int]:
    """Bitmasks dominated by picking `subset`: itself and its one-smaller subsets."""
    out = [subset]
    mask = subset
    while mask:
        bit = mask & -mask
        out.append(subset ^ bit)
        mask ^= bit
    return out


def is_dominating_family(family: Iterable[frozenset[int]], n: int,
                         require_empty: bool = True) -> bool:
    """Every subset of [n] is in the family or has a one-larger superset in it."""
    masks = {sum(1 << (e - 1) for e in subset) for subset in family}
    return all(mask in masks or any(not mask >> pos & 1 and mask | (1 << pos) in masks
                                    for pos in range(n))
               for mask in range(0 if require_empty else 1, 1 << n))


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(pos + 1 for pos in range(mask.bit_length()) if mask >> pos & 1)


def _family_sorted(masks: Iterable[int]) -> tuple[frozenset[int], ...]:
    sets = [_mask_to_set(m) for m in masks]
    sets.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(sets)


def dominating_family(n: int, method: str = "greedy", seed: int | None = None,
                      require_empty: bool = True) -> tuple[frozenset[int], ...]:
    """Family of nonempty subsets dominating the Boolean lattice of [n].

    greedy: repeatedly take the subset covering the most uncovered sets
    (ties broken lexicographically on the sorted element tuple).
    randomized: two-stage sample, first picking each size-i subset with
    probability ln(n+1-i)/(n+1-i), then adding everything left undominated.
    With require_empty=False the empty set itself is exempt from the
    domination requirement (the facet cover handles it separately).
    The result is verified dominating before it is returned.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    if method == "greedy":
        family = _greedy_dominating(n, require_empty)
    elif method == "randomized":
        family = _randomized_dominating(n, seed, require_empty)
    else:
        raise ValidationError(f"unknown method {method!r}")
    result = _family_sorted(family)
    if not is_dominating_family(result, n, require_empty):
        raise AssertionError("constructed family fails the domination check")
    return result


def _greedy_dominating(n: int, require_empty: bool) -> set[int]:
    total = 1 << n
    uncovered = bytearray([1]) * total
    if not require_empty:
        uncovered[0] = 0
    remaining = sum(uncovered)
    candidates = list(range(1, total))

    def lex_key(mask: int):
        return tuple(sorted(_mask_to_set(mask)))

    heap = []
    for mask in candidates:
        gain = sum(uncovered[m] for m in _dominated_by(mask, n))
        heap.append((-gain, lex_key(mask), mask))
    heapq.heapify(heap)
    chosen: set[int] = set()
    while remaining:
        neg_gain, key, mask = heapq.heappop(heap)
        gain = sum(uncovered[m] for m in _dominated_by(mask, n))
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, key, mask))
            continue
        if gain == 0:
            raise AssertionError("greedy ran out of useful candidates")
        chosen.add(mask)
        for m in _dominated_by(mask, n):
            if uncovered[m]:
                uncovered[m] = 0
                remaining -= 1
    return chosen


def _randomized_dominating(n: int, seed: int | None, require_empty: bool) -> set[int]:
    rng = random.Random(seed)
    total = 1 << n
    order = sorted(range(1, total), key=lambda m: (bin(m).count("1"), m))
    sampled: set[int] = set()
    for mask in order:
        size = bin(mask).count("1")
        p = math.log(n + 1 - size) / (n + 1 - size) if size < n else 0.0
        if rng.random() < p:
            sampled.add(mask)
    family = set(sampled)
    start = 0 if require_empty else 1
    for mask in range(start, total):
        if mask in family:
            continue
        pointed = any(not mask >> pos & 1 and mask | (1 << pos) in sampled
                      for pos in range(n))
        if not pointed:
            family.add(mask)
    if 0 in family:
        # the empty set cannot generate a facet; a singleton dominates it
        family.discard(0)
        family.add(1)
    return family


# ---------------------------------------------------------------------------
# facet families on the lifted cube
# ---------------------------------------------------------------------------

def facet_vertices(k: int, root: Iterable[int], order: Sequence[int]) -> tuple[Point, ...]:
    """Upper facet vertices e_S, e_S + e_k, each e_S - e_j for j in sorted(S), then the
    top-layer chain from S up to [k-1] that adds order's elements one at a time."""
    root, order = frozenset(root), tuple(order)
    universe = set(range(1, k))
    if not root <= universe or sorted(order) != sorted(universe - root):
        raise ValidationError(f"({sorted(root)}, {order}) is no (root, order) pair over [{k - 1}]")
    bottom = tuple(int(i in root) for i in range(1, k))
    verts = [bottom + (0,), bottom + (1,)]
    verts += [tuple(0 if i == j else x for i, x in enumerate(bottom, 1)) + (0,)
              for j in sorted(root)]
    top = list(bottom)
    for element in order:
        top[element - 1] = 1
        verts.append(tuple(top) + (1,))
    return tuple(verts)


def cover_generators(k: int, family: Sequence[frozenset[int]] | None = None
                     ) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
    """The upper cover's (root, order) generators: each chain of the symmetric chain
    cover of [k-1], read as a permutation and rooted at the empty set, then each
    subset of the dominating family (greedy by default) with its sorted completion.

    A given family must hold nonempty subsets (ValidationError) that dominate the
    nonempty subsets of [k-1] (PreconditionError).
    """
    if k < 2:
        raise ValidationError("cover construction needs k >= 2")
    if family is None:
        family = dominating_family(k - 1, "greedy", require_empty=False)
    else:
        family = tuple(map(frozenset, family))
        if frozenset() in family:
            raise ValidationError("the empty set does not generate a dominating facet")
        if not is_dominating_family(family, k - 1, require_empty=False):
            raise PreconditionError("family is not dominating over the nonempty subsets")
    perms = chains_to_permutations(symmetric_chain_cover(k - 1), k - 1)
    return (tuple((frozenset(), perm) for perm in perms)
            + tuple((b, tuple(sorted(set(range(1, k)) - b))) for b in family))


def cover_facets(k: int, generators, reflect: bool = False) -> tuple[FacetSimplex, ...]:
    """The upper facets of the (root, order) generators, then with reflect the lower
    facets of their images under x_k -> 1 - x_k, validated under staircase_height(k)
    by one facets_from_simplices call."""
    points = list(product((0, 1), repeat=k))
    index = {p: i for i, p in enumerate(points)}
    vertices = [facet_vertices(k, root, order) for root, order in generators]
    simplices = [[index[v] for v in vs] for vs in vertices]
    if reflect:
        simplices += [[index[v[:-1] + (1 - v[-1],)] for v in vs] for vs in vertices]
    m = len(vertices)
    facets = facets_from_simplices(points, simplices, staircase_height(k),
                                   ["upper"] * m + ["lower"] * m if reflect else "upper")
    for gen, facet in zip(tuple(generators) * 2, facets):
        if facet is None:
            raise AssertionError(f"generator {gen} fails facet validation")
    return tuple(facets)


@lru_cache(maxsize=16)
def build_full_cover(k: int) -> tuple[tuple[FacetSimplex, ...], tuple[FacetSimplex, ...]]:
    """Upper and lower simplicial facet covers of the lifted cube vertices, built once per k.

    Upper facets come from cover_generators(k), lower facets from their
    images under the reflection that flips the last coordinate and negates
    the height; both cover all 2^k lifted points under staircase_height(k).
    """
    facets = cover_facets(k, generators := cover_generators(k), reflect=True)
    upper, lower = facets[:len(generators)], facets[len(generators):]
    if not ({v for f in upper for v in f.vertices} == {v for f in lower for v in f.vertices}
            == set(product((0, 1), repeat=k))):
        raise AssertionError("facet families leave lifted vertices uncovered")
    return upper, lower


# ---------------------------------------------------------------------------
# brute-force facet enumeration and exact set cover
# ---------------------------------------------------------------------------

_ENUMERATION_CANDIDATE_GUARD = 1 << 20


def enumerate_simplicial_upper_facets(points: Sequence[Sequence[int]],
                                      heights: HeightFunction,
                                      orientation: str = "upper"
                                      ) -> list[FacetSimplex]:
    """All valid simplicial facets of the requested orientation, by brute force.

    The (k+1)-subsets of the sorted points that lift._circuit_candidates leaves are
    screened by lift._screen_facets a block at a time as they stream; only survivors
    become FacetSimplex values, in lex order of their index tuples.  An empty list, an
    unknown orientation and points outside the heights' domain (mixed dimensions among
    them) are refused up front with ValidationError, over 2^20 subsets with ResourceLimitError.
    """
    pts = sorted(tuple(int(x) for x in p) for p in points)
    if not pts:
        raise ValidationError("facet enumeration needs at least one point")
    heights._require_domain(pts)
    k = len(pts[0])
    count = math.comb(len(pts), k + 1)
    if count > _ENUMERATION_CANDIDATE_GUARD:
        raise ResourceLimitError(
            f"{count} candidate simplices exceed the enumeration guard of "
            f"{_ENUMERATION_CANDIDATE_GUARD}", required=count)
    if orientation not in ("upper", "lower"):
        raise ValidationError(f"unknown orientation {orientation!r}")
    candidates, survivors = _circuit_candidates(pts, heights, orientation), []
    size = _screen_size(len(pts), k, heights.context.degree)
    while block := list(islice(candidates, size)):
        survivors += compress(block, _screen_facets(pts, block, heights, orientation))
    return [facet_inequality_from_simplex([pts[j] for j in candidate], heights, orientation)
            for candidate in survivors]


def enumerate_simplicial_lower_facets(points: Sequence[Sequence[int]],
                                      heights: HeightFunction) -> list[FacetSimplex]:
    return enumerate_simplicial_upper_facets(points, heights, "lower")


_EXACT_COVER_GUARD = 24


def exact_min_cover(sets: Sequence, targets: Sequence) -> int:
    """Exact minimum number of the given sets needed to cover all targets.

    Accepts FacetSimplex values (their vertex sets are used) or plain
    iterables.  Branch and bound on the least-covered target.
    """
    collections = [frozenset(s.vertices if isinstance(s, FacetSimplex) else s) for s in sets]
    if len(collections) > _EXACT_COVER_GUARD:
        raise ResourceLimitError(
            f"{len(collections)} sets exceed the exact-search guard of {_EXACT_COVER_GUARD}",
            required=len(collections))
    target_list = list(dict.fromkeys(targets))
    index = {t: i for i, t in enumerate(target_list)}
    universe = (1 << len(target_list)) - 1
    masks = []
    for coll in collections:
        mask = 0
        for t in coll:
            if t in index:
                mask |= 1 << index[t]
        masks.append(mask)
    joined = 0
    for m in masks:
        joined |= m
    if joined != universe:
        raise ValidationError("the sets cannot cover all targets")
    covers_bit: list[list[int]] = [[] for _ in target_list]
    for si, m in enumerate(masks):
        for bi in range(len(target_list)):
            if m >> bi & 1:
                covers_bit[bi].append(si)

    # greedy upper bound
    uncovered = universe
    greedy = 0
    while uncovered:
        best = max(range(len(masks)), key=lambda si: bin(masks[si] & uncovered).count("1"))
        uncovered &= ~masks[best]
        greedy += 1
    best_known = greedy
    max_cover = max(bin(m).count("1") for m in masks)

    def dfs(uncovered: int, used: int):
        nonlocal best_known
        if not uncovered:
            best_known = min(best_known, used)
            return
        lower = used + -(-bin(uncovered).count("1") // max_cover)
        if lower >= best_known:
            return
        # branch on the uncovered target with the fewest covering sets
        pick, pick_options = None, None
        mask = uncovered
        while mask:
            bit = mask & -mask
            bi = bit.bit_length() - 1
            options = [si for si in covers_bit[bi] if masks[si] & uncovered]
            if pick_options is None or len(options) < len(pick_options):
                pick, pick_options = bi, options
                if len(options) <= 1:
                    break
            mask ^= bit
        for si in pick_options:
            dfs(uncovered & ~masks[si], used + 1)

    dfs(universe, 0)
    return best_known
