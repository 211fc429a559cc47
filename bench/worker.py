"""One phase of one workload, in a fresh process; prints one JSON line.

Usage: python3 bench/worker.py --workload W --seed N --size {full,tiny}
           --mode {setup,timed,traced} [--seconds S] [--cycles C]

``setup`` times the import of relaxcert and the building of the
workload's inputs, then stops.  ``timed`` also runs whole cycles of jobs,
one job at a time, until --seconds have passed.  ``traced`` installs the
tracer and runs exactly --cycles cycles, so that it repeats the jobs of a
``timed`` run with the same seed; it writes its spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def reference_s() -> float:
    """Median of three timings of a fixed integer loop: how fast this CPU runs now.

    The host's speed drifts by tens of percent within a run, as other load on
    the machine comes and goes; dividing each job's time by this loop's time,
    taken just before and just after the job, cancels most of that drift.  The
    loop allocates nothing, so garbage collection does not disturb it.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value = 1
        for i in range(5000):
            value = (value * 48271 + i) % 2147483647
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def run_cycles(workload, rng, more, tracer) -> dict:
    """Run whole cycles of jobs while `more(cycles_done)` holds; at least one.

    Untraced, each job is bracketed by `reference_s` timings, and its time
    relative to their mean is kept next to its time in seconds.
    """
    samples = {kind: [] for kind in workload.kinds}
    relative = {kind: [] for kind in workload.kinds}
    failures, inputs = [], []
    cycles = 0
    if tracer is None:
        reference_s()                                 # warm the loop up
        before = reference_s()
    while cycles == 0 or more(cycles):
        for job in workload.make_cycle(rng):
            inputs.append(job.label())
            start = time.perf_counter()
            try:
                if tracer is None:
                    job.run()
                else:
                    tracer.job = len(inputs) - 1
                    tracer.call(f"job.{job.kind}", job.run)
            except Exception as exc:  # every failure is counted, none stops the run
                failures.append(f"{job.label()}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            samples[job.kind].append(elapsed)
            if tracer is None:
                after = reference_s()
                relative[job.kind].append(2 * elapsed / (before + after))
                before = after
        cycles += 1
    return {"samples": samples, "relative": relative, "failures": failures,
            "inputs": inputs, "cycles": cycles}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cycles", type=int, default=1)
    args = parser.parse_args()

    start = time.perf_counter()
    workload = workloads.setup(args.workload, args.seed, args.size)
    result = {"setup_s": time.perf_counter() - start}
    try:
        if args.mode != "setup":
            import numpy
            result.update(numpy=numpy.__version__, workload_inputs=workload.inputs)
            tracer = None
            if args.mode == "traced":
                tracer = tracing.Tracer()
                tracing.install(tracer)
                if workload.cli is not None:
                    workload.cli.tracer = tracer

                def more(cycles):
                    return cycles < args.cycles
            else:
                deadline = time.perf_counter() + args.seconds

                def more(cycles):
                    return time.perf_counter() < deadline
            rng = random.Random(f"cycles-{args.seed}")
            if tracer is None:
                result.update(run_cycles(workload, rng, more, None))
            else:
                result.update(tracer.call("phase", run_cycles, workload, rng, more, tracer))
            result["peak_rss_mb"] = peak_rss_mb(workload.cli is not None)
            if tracer is not None:
                result["totals"] = {key: value for key, value in tracer.dump().items()
                                    if key != "spans"}
                result["job_coverage"] = sum(tracer.ns[f"job.{kind}"]
                                             for kind in workload.kinds) / tracer.ns["phase"]
                tracer.write(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl",
                             {"workload": args.workload, "seed": args.seed,
                              "cycles": args.cycles})
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
