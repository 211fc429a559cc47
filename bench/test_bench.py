"""Smoke test of the benchmark itself: every workload at tiny size on two seeds.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KINDS = json.loads((ROOT / "bench" / "predictions.json").read_text())["kinds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload must reach even at tiny size (tiny pipelines stop at degree 5)
REACHED = {
    "pipeline": ("construct.pipeline_run.calls", "lift.perturb.calls", "poly.eliminate.calls",
                 "verify.certify_mixed.certified", "field.mul.d5.calls", "field.bits_max.d5",
                 "poly.enumerate.calls", "cover.build_full_cover.calls"),
    "composed": ("construct.composed.calls", "construct.simplex5.calls",
                 "construct.free_join.calls", "verify.certify_mixed.refuted",
                 "poly.enumerate.points_per_s", "field.mul.d2.calls"),
    "facets": ("cover.enumerate_facets.found_ratio", "linalg.determinant.calls",
               "lift.facet_inequality.calls", "field.mul.d1.calls"),
    "cli": ("cli.build.s", "cli.verify.s", "cli.certify_mixed.s", "cli.import_s",
            "cli.json_bytes", "verify.box_check.calls"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_tiny(workload, seed, trace):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], lines
    return lines[:-1], result["metrics"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, seed):
    lines, metrics = run_tiny(workload, seed, 0)
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    printed = {line.split()[0]: line.split() for line in lines if line.strip()}
    for name in list(KINDS[workload]) + ["verdict_s", "failed_ratio", "peak_rss_mb"]:
        assert name in printed, name
    assert all(printed[name][2] == "s" for name in list(KINDS[workload]) + ["verdict_s"])
    assert float(printed["failed_ratio"][1]) == 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, seed):
    _, metrics = run_tiny(workload, seed, 1)
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in REACHED[workload] + ("trace.overhead_ratio",):
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.job_coverage"]["value"] > 0.95
    if workload == "facets":
        assert metrics["poly.enumerate.calls"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "facets", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
