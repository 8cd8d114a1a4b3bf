#!/usr/bin/env python3
"""Run every workload on several seeds and record one BENCH_*.json.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_<commit>.json

Runs `bench/run.py` for every workload of BENCHMARK.json for its
run_seconds, once per seed untraced, each in its own process and one after
another, then once traced per workload (on the first seed). For each
end-to-end metric it records every value with its median, quartiles and
quartile spread (q3 - q1 over the median, the figure BENCHMARK.json's
bounds are set against), and prints the spreads next to the bounds,
flagging any above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' to a list of seeds."""
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = ROOT / ".bench_run" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"line": line, "environment": json.loads(full.read_text(encoding="utf-8"))["environment"]}


def spread_stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'; at least two")
    parser.add_argument("--out", type=Path, help="where to write the BENCH json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, seconds, 0)
            line = result["line"]
            all_correct &= line["correct"]
            runs.append(line)
            print(
                f"{workload} seed {seed}: correct={line['correct']} "
                + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                flush=True,
            )
        record.setdefault("environment", result["environment"])
        metrics = {}
        for name, unit in ((m["name"], m["unit"]) for m in spec["end_to_end"]):
            metrics[name] = {"unit": unit, **spread_stats([r["metrics"][name]["value"] for r in runs])}
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
        traced = run_once(workload, seeds[0], seconds, 1)["line"]
        all_correct &= traced["correct"]
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
        for name, stats in metrics.items():
            flag = "" if stats["spread"] is None or stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(
                f"{workload:<12} {name:<22} median {stats['median']:<12.6g} "
                f"spread {stats['spread'] if stats['spread'] is not None else float('nan'):.4f} "
                f"bound {bounds[name]}{flag}",
                flush=True,
            )
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
