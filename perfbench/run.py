"""cantarray benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload galerkin-graded --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's src/ (nothing is installed).  The run

1. times a fresh interpreter importing cantarray.cli (with numpy and scipy)
   several times before and after step 2; their median, rescaled to the
   nominal host speed that step 2 measures (hostclock.py), is setup_s;
2. starts worker.py in a fresh process with one BLAS/OpenMP thread, which
   writes the seeded configs, runs the workload's jobs through
   cantarray.cli.main, and checks every output; then it runs and checks the
   workload's known-defect probes once, untimed;
3. prints each metric with its unit and each probe's check result, then, as
   the last line, one JSON object with the end-to-end metrics (--trace 0) or
   the per-layer metrics of a traced round (--trace 1).  `correct`,
   `attempted` and `failed` count the timed jobs' checked operations; probe
   failures are printed above it and never counted there.

Files go to .perfbench_work/ in the checkout.  Exit code 0 means a result was
printed; any failure to run exits non-zero without one.  There is no time
limit of its own: a slow change is measured, not cut off.  On SIGTERM the
worker is killed and waited for before exiting.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3     # before the worker, and again after it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
PROBE = ("import cantarray.cli, numpy, scipy; "
         "print(cantarray.__file__, flush=True)")


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def time_setup(root: Path, env: dict) -> list[float]:
    """Seconds from spawning an interpreter until cantarray.cli is imported;
    each probe must import the checkout's copy."""
    src = (root / "src").resolve()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                              cwd=root, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - t0
        where = Path(proc.stdout.strip() or ".").resolve()
        if proc.returncode != 0 or src not in where.parents:
            raise BenchError("cannot import cantarray from the checkout: "
                             + (proc.stderr.strip().splitlines() or ["?"])[-1])
        times.append(elapsed)
    return times


def count_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(src.rglob("*.py")))


def run(args, spec: dict) -> dict:
    t_start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "cantarray" / "cli.py").is_file():
        raise BenchError(f"no src/cantarray in {root}; run from a checkout")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    env = child_env(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = time_setup(root, env)
    out = work / "result.json"
    log = work / "worker.log"
    with open(log, "w") as fh:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work), "--out", str(out)],
            env=env, cwd=root, stdout=fh, stderr=subprocess.STDOUT)
    if proc.returncode != 0 or not out.is_file():
        tail = log.read_text().strip().splitlines()[-5:]
        raise BenchError("worker failed:\n" + "\n".join(tail))
    result = json.loads(out.read_text())
    result["setup"] = setup + time_setup(root, env)
    result["src_lines"] = count_lines(root / "src")
    result["run_s"] = time.perf_counter() - t_start
    return result


def metrics_of(args, result, spec: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    if args.trace:
        values = result["layers"]
    else:
        wall = statistics.median(result["nominal_walls"])
        values = {"setup_s": statistics.median(result["setup"])
                  / result["host_slowdown"],
                  "wall_s": wall,
                  "items_per_s": result["items"] / wall,
                  "peak_rss_mb": result["peak_rss_mb"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]}


def report(args, result, metrics) -> None:
    walls = result["walls"]
    attempted, failed = result["attempted"], result["failed"]
    records = {**result["records"], "nproc": os.cpu_count(),
               "seed": args.seed, "src_lines": result["src_lines"],
               "rounds": len(walls), "jobs": result["jobs"],
               "items_per_round": result["items"],
               "host_slowdown": result["host_slowdown"],
               "known_defects": result["known_defects"]}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("records " + json.dumps(records, sort_keys=True))
    print("round walls (s) " + " ".join(f"{w:.4f}" for w in walls)
          + "   at nominal speed "
          + " ".join(f"{w:.4f}" for w in result["nominal_walls"])
          + f"   checks {result['check_s']:.1f} s   run {result['run_s']:.1f} s")
    print("setup (s) " + " ".join(f"{t:.4f}" for t in result["setup"]))
    for name, r in result["per_job"].items():
        print(f"  job {name:<20} {r['seconds']:9.4f} s  exit {r['exit']}  "
              f"failed {r['failed']} of {r['attempted']}")
    for name, m in metrics.items():
        note = ""
        if name == "trace.overhead_frac" and not result["overhead_resolved"]:
            note = "  unresolved: the untraced rounds differ by more"
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{'failed_frac':<44} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checked operations)")
    for name, r in result["known_defects"].items():
        print(f"known defect, not timed or gated: {name}  exit {r['exit']}  "
              f"failed {r['failed']} of {r['attempted']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SystemExit unwinds subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        result = run(args, spec)
        metrics = metrics_of(args, result, spec)
        if result["attempted"] < 1:
            raise BenchError("no output was checked")
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, result, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
