"""Repeat run.py over seeds and summarise each metric.

    python3 perfbench/collect.py --out perfbench/BENCH_1.json

Run from the root of a checkout.  For every workload in BENCHMARK.json it
makes ten untraced runs on seeds 1..10, then two traced runs on seed 1.  It
reports, per end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound, plus whether the traced counts repeated exactly.  The summary
is printed and, with --out, written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACE_SEED = 1
TRACE_RUNS = 2


def bench(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    records = json.loads(next(line for line in lines
                              if line.startswith("records "))[len("records "):])
    return json.loads(lines[-1]), records


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    out = {"run_seconds": seconds, "runs": len(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        out["records"] = runs[0][1]
        entry = {"seeds": list(SEEDS), "end_to_end": {},
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "rounds": [rec["rounds"] for _, rec in runs],
                 "known_defects": runs[0][1]["known_defects"]}
        entry["failed_frac"] = summary([r["failed"] / r["attempted"]
                                        for r, _ in runs])
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r, _ in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            print(f"{workload:<16} {name:<12} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}  bound {bound}  "
                  f"{'ok' if s['spread'] < bound / 3 else 'WIDE'}",
                  flush=True)
        traced = [bench(workload, TRACE_SEED, seconds, 1)[0]
                  for _ in range(TRACE_RUNS)]
        counts = [{k: m["value"] for k, m in t["metrics"].items()
                   if m["unit"] == "count"} for t in traced]
        entry["per_layer"] = {k: m["value"]
                              for k, m in traced[0]["metrics"].items()}
        entry["per_layer_seed"] = TRACE_SEED
        entry["counts_repeat"] = all(c == counts[0] for c in counts)
        print(f"{workload:<16} traced counts repeat: "
              f"{entry['counts_repeat']}", flush=True)
        out["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True)
                                  + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
