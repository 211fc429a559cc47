"""The benchmark's four workloads: seeded inputs, operations and exact checks.

A workload is a repeating *cycle* of jobs.  Every cycle holds the same
multiset of operation kinds; the seed picks the sampled inputs and the
order of the jobs, and the library receives only the generated inputs.
Each job runs one operation and checks its output exactly; a job whose
check fails, or that raises where it should not, counts as failed.

Operation kinds are named after the end-to-end metric they feed, so the
kind ``pipeline_k3`` is reported as ``pipeline_k3_s``.  Jobs look library
functions up on their module when they run, so that the traced run's
wrappers see the call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
OUT_DIR = ROOT / ".bench_out"

# eps values this commit certifies, and values whose dim-5 block it refutes
CERTIFIED_EPS = ("1/8", "1/9", "1/10", "1/12", "1/16", "1/32", "1/64", "1/100")
REFUTED_EPS = ("1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "3/16", "5/32", "2/9")

# inputs per size; "tiny" keeps every operation kind but shrinks its input
SIZES = {
    "full": {"k": {"pipeline_k3": 3, "pipeline_k4": 4, "pipeline_k5_build": 5,
                   "window_k3": 3},
             "d_max": 200, "window_d11": 11, "facets_k": 4},
    "tiny": {"k": {"pipeline_k3": 2, "pipeline_k4": 3, "pipeline_k5_build": 3,
                   "window_k3": 2},
             "d_max": 30, "window_d11": 8, "facets_k": 3},
}

COMPOSED_BUILDS = 8       # seeded (d, eps) builds per cycle, one per stratum of d
COMPOSED_REFUTES = 4      # seeded refutations per cycle


class CheckFailed(Exception):
    """An operation returned a result that fails its exact check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    params: dict
    run: Callable[[], None]

    def label(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.kind}({args})"


@dataclass
class Workload:
    """Inputs built at set-up, and a generator of seeded job cycles."""

    kinds: tuple[str, ...]
    make_cycle: Callable[[random.Random], list[Job]]
    close: Callable[[], None] = lambda: None
    inputs: dict = field(default_factory=dict)
    cli: "CliSession | None" = None


def setup(name: str, seed: int, size: str) -> Workload:
    """Import the library and build the workload's inputs."""
    import relaxcert  # noqa: F401  (set-up includes the import on every workload, cli too)
    return BUILDERS[name](random.Random(seed), SIZES[size])


# ---------------------------------------------------------------------------
# pipeline: the k = 3, 4, 5 project/lift/relax chain and the k = 3 window
# ---------------------------------------------------------------------------

def _pipeline(rng: random.Random, size: dict) -> Workload:
    from relaxcert import Box, construct, verify

    ks = size["k"]
    rows = {k: construct.pipeline_row_count(k) for k in set(ks.values())}
    # the window's bundle is an input: built here, outside the timed phase
    window_bundle = construct.pipeline_run(ks["window_k3"]).bundle

    def build(kind: str, certify: bool):
        k = ks[kind]

        def run():
            result = construct.pipeline_run(k, certify=certify)
            degree = (1 << k) - k
            check(result.bundle.claimed_facets == rows[k],
                  f"k={k}: {result.bundle.claimed_facets} rows, expected {rows[k]}")
            check(result.bundle.system.context.degree == degree,
                  f"k={k}: field degree {result.bundle.system.context.degree}, "
                  f"expected {degree}")
            if certify:
                check(result.certificate is not None and result.certificate.certified,
                      f"k={k}: certificate not certified")
        return Job(kind, {"k": k, "certify": certify}, run)

    def window():
        k = ks["window_k3"]
        d = (1 << k) - 1

        def run():
            result = verify.box_check(window_bundle, Box.uniform(-1, 2, d))
            check(result.passed and result.points_found == d + 1,
                  f"k={k} window: passed={result.passed}, "
                  f"{result.points_found} points, expected {d + 1}")
        return Job("window_k3", {"k": k, "box": f"[-1,2]^{d}"}, run)

    def make_cycle(cycle_rng: random.Random) -> list[Job]:
        jobs = [build("pipeline_k3", True), build("pipeline_k4", True),
                build("pipeline_k5_build", False), window()]
        cycle_rng.shuffle(jobs)
        return jobs

    kinds = ("pipeline_k3", "pipeline_k4", "pipeline_k5_build", "window_k3")
    return Workload(kinds, make_cycle, inputs={"k": dict(ks)})


# ---------------------------------------------------------------------------
# composed: join-composed builds, refutations and their windows over Q(sqrt2)
# ---------------------------------------------------------------------------

def _composed(rng: random.Random, size: dict) -> Workload:
    from relaxcert import Box, CertificationError, construct, verify

    d_max, d_window = size["d_max"], size["window_d11"]
    window_eps = rng.choice(CERTIFIED_EPS)
    small = [("dim5", construct.simplex5_relaxation(window_eps), Box.uniform(-2, 3, 5))]
    for a in (1, 2, 3):
        bundle = construct.stretched_simplex_relaxation(a, window_eps)
        small.append((f"xa{a}", bundle, bundle.default_box))
    built = {}

    def build(d: int, eps: str, windowed: bool = False) -> Job:
        def run():
            bundle = construct.composed_simplex_relaxation(d, eps)
            expected = 5 * ((d + 1) // 6) + (d + 1) % 6
            check(bundle.claimed_facets == expected,
                  f"d={d}: {bundle.claimed_facets} rows, expected {expected}")
            if windowed:
                built[d] = bundle
        return Job("composed_build", {"d": d, "eps": eps}, run)

    def refute(d: int, eps: str) -> Job:
        def run():
            try:
                construct.composed_simplex_relaxation(d, eps)
            except CertificationError as exc:
                check(exc.stage == "mixed-system",
                      f"d={d}, eps={eps}: refuted at stage {exc.stage!r}")
                return
            raise CheckFailed(f"d={d}, eps={eps}: certified, expected a refutation")
        return Job("refute", {"d": d, "eps": eps}, run)

    def window_small() -> Job:
        def run():
            for label, bundle, box in small:
                result = verify.box_check(bundle, box)
                check(result.passed and result.points_found == 6,
                      f"{label} window: passed={result.passed}, "
                      f"{result.points_found} points")
            for d in (7, 8, 9):
                result = verify.box_check(built.pop(d), Box.uniform(-1, 2, d))
                check(result.passed and result.points_found == d + 1,
                      f"d={d} window: passed={result.passed}, "
                      f"{result.points_found} points")
        return Job("window_small", {"windows": "dim5,xa1,xa2,xa3,d7,d8,d9"}, run)

    def window_d11() -> Job:
        def run():
            result = verify.box_check(built.pop(d_window), Box.uniform(-1, 2, d_window))
            check(result.passed and result.points_found == d_window + 1,
                  f"d={d_window} window: passed={result.passed}, "
                  f"{result.points_found} points")
        return Job("window_d11", {"d": d_window, "box": f"[-1,2]^{d_window}"}, run)

    def make_cycle(cycle_rng: random.Random) -> list[Job]:
        # one build per equal stratum of d keeps each cycle's mix of sizes alike
        width = (d_max - 4) / COMPOSED_BUILDS
        units = [[build(cycle_rng.randint(5 + int(i * width), 4 + int((i + 1) * width)),
                        cycle_rng.choice(CERTIFIED_EPS))]
                 for i in range(COMPOSED_BUILDS)]
        units += [[refute(cycle_rng.randint(5, d_max), cycle_rng.choice(REFUTED_EPS))]
                  for _ in range(COMPOSED_REFUTES)]
        # each windowed build is followed by its window
        units.append([build(d, cycle_rng.choice(CERTIFIED_EPS), True) for d in (7, 8, 9)]
                     + [window_small()])
        units.append([build(d_window, cycle_rng.choice(CERTIFIED_EPS), True), window_d11()])
        cycle_rng.shuffle(units)
        return [job for unit in units for job in unit]

    kinds = ("composed_build", "refute", "window_small", "window_d11")
    return Workload(kinds, make_cycle,
                    inputs={"d_max": d_max, "window_d11": d_window,
                            "small_window_eps": window_eps})


# ---------------------------------------------------------------------------
# facets: brute-force simplicial facet enumeration of the lifted k-cube
# ---------------------------------------------------------------------------

def _facets(rng: random.Random, size: dict) -> Workload:
    from relaxcert import cover, staircase_height

    k = size["facets_k"]
    heights = staircase_height(k)
    points = list(itertools.product((0, 1), repeat=k))
    candidates = math.comb(len(points), k + 1)
    found: dict[str, set] = {}

    def reflect(vertices) -> frozenset:
        return frozenset(v[:-1] + (1 - v[-1],) for v in vertices)

    def enumerate_job(orientation: str) -> Job:
        def run():
            facets = cover.enumerate_simplicial_upper_facets(points, heights, orientation)
            check(bool(facets), f"{orientation}: no facets found")
            check(all(f.orientation == orientation for f in facets),
                  f"{orientation}: facet of the wrong orientation")
            vertex_sets = [frozenset(f.vertices) for f in facets]
            check(len(set(vertex_sets)) == len(vertex_sets),
                  f"{orientation}: repeated facet")
            listed = set(vertex_sets)
            check(found.setdefault(orientation, listed) == listed,
                  f"{orientation}: facet list differs from this run's first")
            if len(found) == 2:
                uppers, lowers = found["upper"], found["lower"]
                check(len(uppers) == len(lowers) and
                      {reflect(vs) for vs in uppers} == lowers,
                      f"k={k}: upper and lower lists do not match under the reflection")
        return Job("facets_k4", {"k": k, "orientation": orientation,
                                 "candidates": candidates}, run)

    def make_cycle(cycle_rng: random.Random) -> list[Job]:
        jobs = [enumerate_job("upper"), enumerate_job("lower")]
        cycle_rng.shuffle(jobs)
        return jobs

    return Workload(("facets_k4",), make_cycle, inputs={"k": k})


# ---------------------------------------------------------------------------
# cli: six cold relaxcert commands, one child process at a time
# ---------------------------------------------------------------------------

ARTIFACTS = ("dim5.json", "m5.json", "h5.json", "c5.json",
             "p3.json", "m3.json", "h3.json", "c3.json")


@dataclass
class CliSession:
    """Working directory of the cli workload, and the tracer its children report to."""

    workdir: Path
    tracer: object | None = None
    first_artifacts: dict = field(default_factory=dict)

    def command(self, argv: list[str]) -> None:
        prefix = [sys.executable, str(CLI_CHILD)]
        trace_file = self.workdir / "trace.json"
        if self.tracer is not None:
            prefix += ["--trace-out", str(trace_file)]
        done = subprocess.run(prefix + argv, cwd=self.workdir, capture_output=True,
                              text=True, timeout=170)
        check(done.returncode == 0,
              f"relaxcert {' '.join(argv)} exited {done.returncode}: "
              f"{done.stderr.strip()[-300:]}")
        if self.tracer is not None:
            self.tracer.merge(json.loads(trace_file.read_text()))
            trace_file.unlink()


def _cli(rng: random.Random, size: dict) -> Workload:
    OUT_DIR.mkdir(exist_ok=True)
    session = CliSession(Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)))
    eps = rng.choice(CERTIFIED_EPS)
    commands = (
        ["build", "dim5", "--eps", eps, "--out", "dim5.json",
         "--mixed-out", "m5.json", "--heights-out", "h5.json"],
        ["verify", "--system", "dim5.json", "--points", "dim5.json", "--box=-2:3"],
        ["certify-mixed", "--system", "m5.json", "--heights", "h5.json",
         "--out", "c5.json"],
        ["build", "pipeline", "--k", "3", "--out", "p3.json",
         "--mixed-out", "m3.json", "--heights-out", "h3.json"],
        ["certify-mixed", "--system", "m3.json", "--heights", "h3.json",
         "--out", "c3.json"],
        ["verify", "--system", "p3.json", "--points", "p3.json", "--box=-1:2"],
    )

    def roundtrip() -> Job:
        def run():
            for name in ARTIFACTS:
                (session.workdir / name).unlink(missing_ok=True)
            for argv in commands:
                session.command(argv)
            contents = {name: (session.workdir / name).read_bytes() for name in ARTIFACTS}
            if session.tracer is not None:
                session.tracer.counters["cli.json_bytes"] += sum(map(len, contents.values()))
            if not session.first_artifacts:
                session.first_artifacts = contents
            changed = [name for name in ARTIFACTS
                       if contents[name] != session.first_artifacts[name]]
            check(not changed, f"artifacts differ from the first round trip: {changed}")
        return Job("cli_roundtrip", {"commands": len(commands), "eps": eps}, run)

    def make_cycle(cycle_rng: random.Random) -> list[Job]:
        return [roundtrip()]

    return Workload(("cli_roundtrip",), make_cycle,
                    close=lambda: shutil.rmtree(session.workdir, ignore_errors=True),
                    inputs={"dim5_eps": eps}, cli=session)


BUILDERS = {"pipeline": _pipeline, "composed": _composed,
            "facets": _facets, "cli": _cli}
