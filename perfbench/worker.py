"""Benchmark child process: runs one workload's jobs through cli.main.

Started by run.py in a fresh interpreter with the checkout's src/ on the path
and one BLAS/OpenMP thread.  One client, jobs back to back (a closed loop),
no extra threads.  Untraced, the job list is repeated while another round
still fits in --seconds (at least one round) and every round after the first
must reproduce the first round's output bytes.  Traced, it runs an untraced
round, a traced round and another untraced round, so that the trace overhead
is measured against the untraced rounds on both sides of it.  Outputs are
checked after the timing.  Known-defect probes (jobs marked `probe`) then run
once, untimed, and their checks are reported apart from the timed jobs'.  A
JSON summary is written to --out.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import cantarray
from cantarray import cli

import checks
import workloads
from hostclock import HostClock
from tracer import Tracer

# (module, function, is_generator): traced at every module that binds them
TRACED = [
    ("model", "load_config", False),
    ("beam", "beam_modes", False),
    ("beam", "beam_roots", False),
    ("kernel", "check_pole_distance", False),
    ("kernel", "nearest_band_edge", False),
    ("kernel", "band_edge_gammas", False),
    ("kernel", "shear_kernel", False),
    ("galerkin", "solve", False),
    ("galerkin", "assemble", False),
    ("quadrature", "gauss_rule", False),
    ("quadrature", "fixed_quad", False),
    ("quadrature", "adaptive_quad", False),
    ("quadrature", "cumulative_square_quad", False),
    ("spectrum", "solve_uniform", False),
    ("spectrum", "solve_uniform_dimensionless", False),
    ("spectrum", "solve_alternating", False),
    ("spectrum", "sweep_uniform", True),
    ("nonlinear", "select_modes", False),
    ("nonlinear", "overlap_integrals", False),
    ("nonlinear", "effective_params", False),
    ("nonlinear", "coupled_steady_state", False),
]

# patched at one binding only: scipy's brentq as the kernel module sees it
SINGLE = [("cantarray.kernel", "brentq", "kernel.brentq")]
# (module, function, name, scope, name outside the scope)
SCOPED = [("numpy.linalg", "eigvalsh", "galerkin.eigvalsh", "galerkin.solve",
           "numpy.linalg.eigvalsh"),
          ("numpy", "roots", "nonlinear.roots",
           "nonlinear.coupled_steady_state", "numpy.roots")]

PR_SET_PDEATHSIG = 1
QUADRATURE_WARNING = "did not reach the requested tolerance"
DROPPED_WARNING = "dropped"


def run_round(jobs, paths, call, clock: HostClock | None = None
              ) -> tuple[list[float], list[int], float]:
    """Per-job wall times, exit codes and the wall time of one pass over the
    job list; the clock, if given, samples the host during the pass."""
    times, codes = [], []
    start = time.perf_counter()
    with clock or contextlib.nullcontext():
        for job in jobs:
            cfg, out = paths[job.name]
            argv = [*job.args, "--config", str(cfg), "--output", str(out)]
            t0 = time.perf_counter()
            code = call(argv)
            times.append(time.perf_counter() - t0)
            codes.append(code)
    return times, codes, time.perf_counter() - start


def snapshot(jobs, paths, codes) -> dict:
    """Output bytes of every job that succeeded, for the repeat check."""
    return {job.name: Path(paths[job.name][1]).read_bytes()
            for job, code in zip(jobs, codes) if code == 0}


def overhead(walls) -> tuple[float, bool]:
    """Traced round (walls[1]) over the mean of the untraced rounds around
    it, minus one; resolved only if those two differ by less than that."""
    untraced = 0.5 * (walls[0] + walls[2])
    frac = walls[1] / untraced - 1.0
    return frac, abs(walls[2] - walls[0]) / untraced < abs(frac)


def wrapper_cost(calls: int = 100_000) -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op.  The
    busy time of a traced function includes this once per traced call it
    makes."""
    def noop():
        return None

    elapsed = []
    for fn in (noop, Tracer().wrap("noop", noop)):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - t0)
    return (elapsed[1] - elapsed[0]) / calls


def layer_metrics(names, tracer: Tracer, jobs, manifests, walls) -> dict:
    """Per-layer metrics by name: "<traced function>.<calls|busy_s|self_s>"
    from the tracer, the rest derived from it and from the manifests."""
    stats = tracer.table()
    traced = {f"{m}.{f}" for m, f, _ in TRACED} | {
        "cli.main", *(name for _, _, name in SINGLE),
        *(name for _, _, name, _, _ in SCOPED)}

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    def rows(*kinds):
        return sum(manifests[j.name].get("rows", 0) for j in jobs
                   if j.kind in kinds)

    def warned(kind, text):
        return sum(text in w for j in jobs if j.kind == kind
                   for w in manifests[j.name].get("warnings", []))

    levels = rows("galerkin")
    points = sum(j.items for j in jobs if j.kind == "response")
    main_busy = stat("cli.main", "busy_s")
    derived = {
        "cli.self_s": stat("cli.main", "self_s"),
        "galerkin.levels": levels,
        "galerkin.assemble_per_level":
            stat("galerkin.assemble", "calls") / levels if levels else 0.0,
        "galerkin.quadrature_unconverged":
            warned("galerkin", QUADRATURE_WARNING),
        "spectrum.levels": rows("spectrum", "sweep"),
        "nonlinear.roots_per_point":
            stat("nonlinear.roots", "calls") / points if points else 0.0,
        "nonlinear.states": rows("response"),
        "nonlinear.dropped": warned("response", DROPPED_WARNING),
        "trace.coverage":
            tracer.top_level_busy() / main_busy if main_busy else 0.0,
        "trace.overhead_frac": overhead(walls)[0],
    }
    values = {}
    for name in names:
        base, key = name.rsplit(".", 1)
        if name in derived:
            values[name] = derived[name]
        elif base in traced and key in ("calls", "busy_s", "self_s"):
            values[name] = stat(base, key)
        else:
            raise KeyError(f"no per-layer metric {name!r}")
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if sys.platform == "linux":     # end with run.py, even if it is killed
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)

    src = Path.cwd() / "src"
    if src.resolve() not in Path(cantarray.__file__).resolve().parents:
        print(f"cantarray imported from {cantarray.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = Path(args.work)
    built = workloads.build(args.workload, args.seed)
    jobs = [job for job in built if not job.probe]
    probes = [job for job in built if job.probe]
    paths = {}
    for job in built:
        cfg = work / f"{job.name}.json"
        cfg.write_text(json.dumps(job.config))
        paths[job.name] = (cfg, work / f"{job.name}.csv")

    result = {"items": sum(j.items for j in jobs), "jobs": len(jobs)}
    walls, nominal = [], []     # per pass: wall time, and at nominal speed
    slowdowns = []

    def timed_round(call):
        # untraced passes sample the host; samples would land in traced spans
        clock = None if args.trace else HostClock()
        times, codes, wall = run_round(jobs, paths, call, clock)
        walls.append(wall)
        nominal.append(clock.rescale(wall) if clock else wall)
        slowdowns.append(clock.slowdown() if clock else 1.0)
        return times, codes

    start = time.perf_counter()
    job_times, codes = timed_round(cli.main)
    first = snapshot(jobs, paths, codes)
    unstable = set()

    def repeat(call) -> None:
        _, again = timed_round(call)
        outputs = snapshot(jobs, paths, again)
        unstable.update(name for name in first
                        if outputs.get(name) != first[name])

    if args.trace:
        tracer = Tracer()
        tracer.install("cantarray", TRACED, SINGLE, SCOPED)
        try:
            repeat(tracer.wrap("cli.main", cli.main))
        finally:
            tracer.uninstall()
        repeat(cli.main)
    else:
        while (time.perf_counter() - start + statistics.median(walls)
               <= args.seconds):
            repeat(cli.main)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["walls"] = walls
    result["nominal_walls"] = nominal
    result["host_slowdown"] = statistics.median(slowdowns)

    manifests = {}
    for job, code in zip(jobs, codes):
        manifest = Path(str(paths[job.name][1]) + ".manifest.json")
        manifests[job.name] = (json.loads(manifest.read_text())
                               if code == 0 and manifest.exists() else {})
    if args.trace:
        names = [m["name"] for m in
                 json.loads(Path("BENCHMARK.json").read_text())["per_layer"]]
        result["layers"] = layer_metrics(names, tracer, jobs, manifests,
                                         walls)
        result["overhead_resolved"] = overhead(walls)[1]
        (work / "trace.json").write_text(json.dumps(
            {"stats": tracer.table(), "spans": tracer.spans}, indent=1))

    checked_at = time.perf_counter()
    attempted = failed = 0
    per_job = {}
    for job, code, seconds in zip(jobs, codes, job_times):
        a, f = checks.check_job(job, paths[job.name][1], code, args.seed)
        if job.name in unstable:
            f = a
        per_job[job.name] = {"exit": code, "attempted": a, "failed": f,
                             "seconds": seconds}
        attempted += a
        failed += f
    records = {"python": platform.python_version(),
               "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.trace:
        records["wrapper_us"] = 1e6 * wrapper_cost()
    _, probe_codes, _ = run_round(probes, paths, cli.main)
    known_defects = {}
    for job, code in zip(probes, probe_codes):
        # probe inputs are fixed, so is their oracle sample: counts repeat
        a, f = checks.check_job(job, paths[job.name][1], code, 0)
        known_defects[job.name] = {"exit": code, "attempted": a, "failed": f}
    result.update(attempted=attempted, failed=failed, per_job=per_job,
                  check_s=time.perf_counter() - checked_at, records=records,
                  known_defects=known_defects)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
