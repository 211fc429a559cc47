"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single pass line with its elapsed time; expected values
are exact (integers, rationals, or field elements), never floating point.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations

from relaxcert.construct import (composed_simplex_relaxation, pipeline_cover_sizes,
                                 pipeline_run, projected_simplex_heights,
                                 projected_simplex_points,
                                 projected_simplex_relaxation, simplex5_relaxation,
                                 stretched_simplex_points, stretched_simplex_relaxation)
from relaxcert.cover import (chains_to_permutations, dominating_family,
                             enumerate_simplicial_lower_facets,
                             enumerate_simplicial_upper_facets, exact_min_cover,
                             is_dominating_family, symmetric_chain_cover)
from relaxcert.errors import ResourceLimitError
from relaxcert.field import make_context
from relaxcert.lift import staircase_height
from relaxcert.poly import Box
from relaxcert.verify import box_check, certify_mixed
from relaxcert._linalg import determinant

CTX2 = make_context(2, 2)


def cube(k):
    return sorted(tuple((mask >> (k - 1 - i)) & 1 for i in range(k))
                  for mask in range(1 << k))


def report(number, message, started, budget):
    elapsed = time.time() - started
    print(f"PASS criterion {number}: {message} ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_mixed_certificate_replication():
    started = time.time()
    system = projected_simplex_relaxation(Fraction(1, 8))
    cert = certify_mixed(system, projected_simplex_heights())
    assert cert.certified
    fibers = {f.point: (f.lower, f.upper) for f in cert.fibers}
    zero, one = CTX2.zero, CTX2.one
    minus_inv_sqrt2 = CTX2.element((0, Fraction(-1, 2)))
    for base in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert fibers[base] == (zero, zero)
    assert fibers[(1, 0, 1)] == (one, one)
    assert fibers[(0, 1, 1)] == (minus_inv_sqrt2, minus_inv_sqrt2)
    assert set(cert.projection_points) == projected_simplex_points().as_set()
    assert len(cert.projection_points) == 6
    report(1, "mixed certificate with exact fiber intervals", started, 1)


def test_criterion_02_five_facet_relaxation():
    started = time.time()
    bundle = simplex5_relaxation()
    assert bundle.claimed_facets == 5
    box = Box.uniform(-2, 3, 5)
    assert box.volume == 7776
    result = box_check(bundle, box)
    assert result.passed
    assert result.points_found == 6
    report(2, "five rows; window of 7776 points recovers the six targets",
           started, 5)


def test_criterion_03_composed_counting_and_windows():
    started = time.time()
    for d in range(1, 201):
        bundle = composed_simplex_relaxation(d)
        assert bundle.claimed_facets == 5 * ((d + 1) // 6) + (d + 1) % 6
    for d, volume in ((7, 4 ** 7), (11, 4 ** 11)):
        bundle = composed_simplex_relaxation(d)
        box = Box.uniform(-1, 2, d)
        assert box.volume == volume
        result = box_check(bundle, box)
        assert result.passed and result.points_found == d + 1
    report(3, "row counts for d <= 200; windows pass at d = 7 and d = 11",
           started, 120)


def test_criterion_04_closed_form_facet_inequalities():
    started = time.time()

    def height(x):
        return (2 * x[-1] - 1) * sum(x[:-1]) ** 2

    for k in range(2, 9):
        points = cube(k)
        perms = chains_to_permutations(symmetric_chain_cover(k - 1), k - 1)
        for perm in perms:
            tight = {tuple([0] * k), tuple(1 if i == k - 1 else 0 for i in range(k))}
            current = [0] * k
            current[k - 1] = 1
            for element in perm:
                current[element - 1] = 1
                tight.add(tuple(current))
            assert len(tight) == k + 1
            for x in points:
                rhs = sum((2 * i - 1) * x[var - 1]
                          for i, var in enumerate(perm, start=1))
                gap = rhs - height(x)
                assert gap >= 0
                assert (gap == 0) == (x in tight)
        for subset in dominating_family(k - 1, "greedy", require_empty=False):
            b = len(subset)
            rest = sorted(set(range(1, k)) - subset)
            e_b = tuple(1 if i + 1 in subset else 0 for i in range(k))
            tight = {e_b, e_b[:-1] + (1,)}
            for j in subset:
                tight.add(tuple(0 if i + 1 == j else v for i, v in enumerate(e_b)))
            current = list(e_b[:-1]) + [1]
            for element in rest:
                current[element - 1] = 1
                tight.add(tuple(current))
            assert len(tight) == k + 1
            for x in points:
                rhs = (b * b - b - (2 * b - 1) * sum(x[i - 1] for i in subset)
                       + sum((2 * b + 2 * i - 1) * x[var - 1]
                             for i, var in enumerate(rest, start=1))
                       + 2 * b * b * x[-1])
                gap = rhs - height(x)
                assert gap >= 0
                assert (gap == 0) == (x in tight)
    report(4, "both facet families exact at all vertices for k <= 8", started, 30)


def test_criterion_05_chain_cover_optimum():
    started = time.time()
    for n in range(0, 17):
        chains = symmetric_chain_cover(n)
        assert len(chains) == math.comb(n, n // 2)
        covered = set()
        for chain in chains:
            covered.update(chain.subsets)
        assert len(covered) == 1 << n
    for n in range(1, 5):
        subsets = [frozenset(s) for r in range(n + 1)
                   for s in combinations(range(1, n + 1), r)]
        maximal_chains = [frozenset(frozenset(p[:t]) for t in range(n + 1))
                          for p in permutations(range(1, n + 1))]
        assert exact_min_cover(maximal_chains, subsets) == math.comb(n, n // 2)
    report(5, "chain covers hit the binomial optimum; minimality exact for n <= 4",
           started, 60)


def test_criterion_06_dominating_bound():
    started = time.time()
    for k in range(8, 17):
        n = k - 1
        family = dominating_family(n, "greedy")
        assert is_dominating_family(family, n)
        assert len(family) <= 2 ** (k + 3) * math.log(k) / (k + 1)
    for seed in range(5):
        family = dominating_family(11, "randomized", seed=seed)
        assert is_dominating_family(family, 11)
    report(6, "greedy dominating families within the stated bound for k <= 16",
           started, 120)


def test_criterion_07_reflection_symmetry():
    started = time.time()
    for k in range(2, 5):
        heights = staircase_height(k)
        points = cube(k)
        uppers = enumerate_simplicial_upper_facets(points, heights)
        lowers = enumerate_simplicial_lower_facets(points, heights)
        reflect = lambda vs: frozenset(v[:-1] + (1 - v[-1],) for v in vs)
        assert {reflect(f.vertices) for f in uppers} == \
               {frozenset(f.vertices) for f in lowers}
        assert len(uppers) == len(lowers)
        if len(uppers) <= 24:
            sucn = exact_min_cover(uppers, points)
            slcn = exact_min_cover(lowers, points)
            assert sucn == slcn
    report(7, "reflection is a bijection between facet lists for k <= 4",
           started, 120)


def test_criterion_08_pipeline_end_to_end():
    started = time.time()
    for k in (2, 3):
        run = pipeline_run(k)
        sizes = pipeline_cover_sizes(k)
        expected_rows = 2 * k + 2 * (math.comb(k - 1, (k - 1) // 2)
                                     + sizes["dominating_facets"])
        assert run.certificate.certified
        assert run.bundle.claimed_facets == expected_rows
        d = (1 << k) - 1
        result = box_check(run.bundle, Box.uniform(-1, 2, d))
        assert result.passed and result.points_found == d + 1
    run = pipeline_run(4)
    assert run.certificate.certified
    assert run.perturbed.context.degree == 12  # one per moved point, plus one
    box_verdict = "checked"
    try:
        box_check(run.bundle, Box.uniform(-1, 2, 15))
    except ResourceLimitError:
        box_verdict = "partial: window of 4^15 points is beyond the cap"
    assert box_verdict.startswith("partial")
    report(8, f"pipeline certified for k = 2, 3, 4 (k=4 window {box_verdict})",
           started, 600)


def test_criterion_09_growth_shape():
    started = time.time()
    for k in range(3, 17):
        rows = pipeline_cover_sizes(k)["rows"]
        ratio = rows / (2 ** k / math.sqrt(k))
        assert 0.5 <= ratio <= 16
    report(9, "row counts within [0.5, 16] times 2^k/sqrt(k) for k <= 16",
           started, 60)


def test_criterion_10_stretched_family():
    started = time.time()
    ctx = make_context(1, 2)
    volumes = []
    for a in (1, 2, 3):
        bundle = stretched_simplex_relaxation(a)
        assert bundle.claimed_facets == 5
        assert box_check(bundle).passed
        points = stretched_simplex_points(a).points
        edges = [tuple(q - r for q, r in zip(p, points[0])) for p in points[1:]]
        matrix = [[ctx.from_rational(edges[c][r]) for c in range(5)]
                  for r in range(5)]
        volumes.append(abs(determinant(matrix, ctx).as_fraction()) / math.factorial(5))
    assert volumes == [Fraction(a, 120) for a in (1, 2, 3)]
    assert len(set(volumes)) == 3
    report(10, "stretched family windows pass; volumes a/120 pairwise distinct",
           started, 30)
