#!/usr/bin/env python3
"""Smoke check for the benchmark: every workload once at tiny sizes.

    python3 bench/smoke.py

Runs each workload untraced and traced on a small grid and short
campaigns, checks that every run is correct and that its result follows
the schema BENCHMARK.json declares, and checks that run.py refuses to run
(non-zero exit, no result line) in a directory holding only
BENCHMARK.json and the benchmark. Takes about half a minute; exits 0 on success.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny(workload: bench.Workload) -> bench.Workload:
    frames = 10 if workload.cora_beats_baseline else 3
    return dataclasses.replace(
        workload,
        grid_symbols=2_000,
        probe_symbols=1_000,
        n_campaigns=2,
        campaign={**workload.campaign, "n_frames": frames},
    )


def schema_problems(result: dict, declared: dict[str, str]) -> list[str]:
    """What is wrong with the printed part of one result, or [] when nothing is."""
    line = {k: result[k] for k in RESULT_KEYS}
    problems = []
    try:
        json.dumps(line, allow_nan=False)
    except ValueError as exc:
        problems.append(f"result line does not serialise: {exc}")
    if not isinstance(line["correct"], bool) or not line["correct"]:
        problems.append(f"correct is {line['correct']!r}; failures {result['failures']}")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool):
            problems.append(f"{key} is not a whole number")
    if line["attempted"] < 1 or not 0 <= line["failed"] <= line["attempted"]:
        problems.append(f"attempted {line['attempted']}, failed {line['failed']}")
    if set(line["metrics"]) != set(declared):
        problems.append(f"metrics {sorted(set(line['metrics']) ^ set(declared))} differ from BENCHMARK.json")
    for name, metric in line["metrics"].items():
        if set(metric) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(metric)}")
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if metric["unit"] != declared.get(name):
            problems.append(f"{name}: unit {metric['unit']!r}, declared {declared.get(name)!r}")
    return problems


def refuses_without_sources(scratch: Path) -> list[str]:
    """run.py in a directory with only BENCHMARK.json and bench/ must fail without a result."""
    bare = scratch / "bare"
    shutil.copytree(bench.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "collide_sf8", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    problems = []
    if proc.returncode == 0:
        problems.append("run.py exited 0 without cora sources")
    if '"correct"' in proc.stdout:
        problems.append("run.py printed a result without cora sources")
    return problems


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, per_layer = bench.read_declared()
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    (bench.ROOT / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=bench.ROOT / ".bench_run"))
    try:
        for name, workload in bench.WORKLOADS.items():
            for trace, declared in ((False, end_to_end), (True, per_layer)):
                result = bench.run_workload(
                    name, 1, 0.1, trace, workload=tiny(workload), setup_reps=2, out_dir=scratch
                )
                found = schema_problems(result, declared)
                if trace:
                    fades = result["metrics"]["channel.apply_fading.calls"]["value"] > 0
                    if fades != (workload.campaign.get("fading") == "true"):
                        found.append(f"apply_fading traced {'with' if fades else 'without'} fading")
                print(f"{name} trace={int(trace)}: {'ok' if not found else 'FAILED'}")
                problems.extend(f"{name} trace={int(trace)}: {p}" for p in found)
        found = refuses_without_sources(scratch)
        print(f"refuses without sources: {'ok' if not found else 'FAILED'}")
        problems.extend(found)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
