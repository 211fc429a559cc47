"""relaxcert benchmark: time to a checked verdict on four seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {pipeline,composed,facets,cli} --seed N
                         --seconds S --trace {0,1} [--size {full,tiny}]

The load is a closed loop: one caller runs one job at a time, each job
waiting for the previous one, and never more than one process computes at
a time.  Every phase runs in a fresh process (bench/worker.py), so set-up
time and peak memory belong to one workload alone.

--trace 0 times set-up in several fresh processes, then runs whole cycles
of the workload's jobs for S seconds.  It prints each operation kind's
median time by name, then the last line: a JSON object whose metrics are
setup_s, verdict_ref and peak_rss_mb.  verdict_ref is each job's time over
the time of a fixed reference loop run just before and after it
(worker.reference_s), as a median per kind and a geometric mean over the
kinds: the cost of a verdict with the host's drifting speed divided out.
The same figure in seconds is printed as verdict_s.

--trace 1 runs whole cycles untraced for S/2 seconds, then the same jobs
again with every traced layer wrapped (bench/tracing.py), and prints the
per-layer metrics listed in BENCHMARK.json, per cycle of jobs, with
trace.overhead_ratio (traced over untraced time of the same jobs).

Each run also writes .bench_out/result-<workload>-seed<N>-trace<T>.json
with an environment stamp and every sampled input.  Exit code 0 means a
result was printed; "correct" in it is false when any job failed a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4          # set-up-only processes; the timed process adds a fifth sample
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker(args, mode: str, **extra) -> dict:
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--mode", mode]
    for key, value in extra.items():
        command += [f"--{key}", str(value)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, run: dict) -> dict:
    return {"python": platform.python_version(), "numpy": run.get("numpy"),
            "git_revision": git_revision(), "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "size": args.size, "seconds": args.seconds,
            "workload_inputs": run.get("workload_inputs"), "jobs": run.get("inputs")}


def geomean(values) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def untraced(args) -> tuple[dict, dict, dict]:
    setups = [worker(args, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    run = worker(args, "timed", seconds=args.seconds)
    setups.append(run["setup_s"])
    seconds = {kind: statistics.median(times) for kind, times in run["samples"].items()}
    relative = {kind: statistics.median(ratios) for kind, ratios in run["relative"].items()}
    detail = {f"{kind}_s": (value, "s", len(run["samples"][kind]))
              for kind, value in seconds.items()}
    attempted = len(run["inputs"])
    detail["verdict_s"] = (geomean(seconds.values()), "s", attempted)
    detail["failed_ratio"] = (len(run["failures"]) / attempted, "1", attempted)
    detail["peak_rss_mb"] = (run["peak_rss_mb"], "MB", 1)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verdict_ref": {"value": geomean(relative.values()), "unit": "1"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    run["setup_samples"] = setups
    return run, detail, metrics


def traced(args, spec: dict) -> tuple[dict, dict, dict]:
    # half the time untraced, then the same jobs traced, to stay well inside 180 s
    base = worker(args, "timed", seconds=args.seconds / 2)
    run = worker(args, "traced", cycles=base["cycles"])
    if run["inputs"] != base["inputs"]:
        raise WorkerError("the traced run did not repeat the untraced run's jobs")
    untraced_s, traced_s = (sum(sum(times) for times in r["samples"].values())
                            for r in (base, run))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = tracing.layer_metrics(units, run["totals"], run["cycles"])
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.job_coverage"] = run["job_coverage"]
    run["failures"] = base["failures"] + run["failures"]
    run["inputs"] = base["inputs"] + run["inputs"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail = {"untraced_jobs_s": (untraced_s, "s", len(base["inputs"])),
              "traced_jobs_s": (traced_s, "s", len(base["inputs"]))}
    return run, detail, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny shrinks every input, for the benchmark's own smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "relaxcert" / "__init__.py").is_file():
        print(f"error: no relaxcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        run, detail, metrics = (traced(args, spec) if args.trace else untraced(args))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = run["failures"]
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit, samples) in detail.items():
        print(f"{name:<22} {value:>12.6g} {unit:<3} (n={samples})")
    env = environment(args, run)
    print("env " + json.dumps({k: v for k, v in env.items() if k != "jobs"}))
    workloads.OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "detail": detail, "metrics": metrics, "failures": failures,
              "samples": run.get("samples"), "relative": run.get("relative"),
              "setup_samples": run.get("setup_samples")}
    out = workloads.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": len(run["inputs"]),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
