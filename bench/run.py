"""qfridge benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the repository root:

    python3 bench/run.py --workload reproduce|sweep-many|all \
        --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed (and at least
the workload's minimum number of rounds), checks every round's outputs
outside the timed region, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each round runs untraced and then
again traced, and the metrics are the per-layer ones per traced round plus
the tracing overhead. `all` runs each workload in a child process of its own,
so that each peak RSS is the workload's own, prints each one's result line,
then a combined line with metrics named <workload>.<metric>. See
bench/README.md.
"""

import os

# Pinned for this process and its children only, before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# One CPU. The CLI's sweep pool still starts os.cpu_count() threads, but they
# take turns on this CPU: on two CPUs of a shared host a 46-point sweep on two
# threads took 0.6 to 1.6 times its serial time, switching for minutes at a
# time, which no run length averages out.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK_DIR = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
SETUP_REPEATS = 15
NAMES = ("reproduce", "sweep-many")


def p95(values):
    """Linear-interpolation 95th percentile. Of the 200 or more single
    solves a run times it leaves at least 10 beyond it."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()}


def measure_setup(config):
    """Median over fresh processes of start -> first reference solve done."""
    probe = os.path.join(BENCH, "setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, ROOT, json.dumps(config)],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_pass(workload, tally, seconds, min_rounds, latencies, traced=None, tracer=None):
    """Whole rounds until `seconds` and `min_rounds` are met, each timed with
    `latencies` recording. With `traced` (a second instance of the workload,
    same seed) each round is followed by the same round under `tracer`.
    Returns (round walls, traced round walls)."""
    walls, traced_walls = [], []
    start = time.perf_counter()
    while True:
        wall, check = workload.run_round(latencies)
        check(tally)
        walls.append(wall)
        if traced is not None:
            wall, check = traced.run_round(tracer)
            check(tally)
            traced_walls.append(wall)
        if len(walls) >= min_rounds and time.perf_counter() - start >= seconds:
            return walls, traced_walls


def run_workload(name, seed, seconds, traced):
    # These import qfridge, so they load only once main() has put src/ on the path.
    import checks
    import oracle
    import workloads
    from tracing import Latencies, Tracer

    tally = checks.Tally()
    selftest = oracle.self_test(
        [checks.reference(tc, th, hot) for tc, th, hot in
         ((1.0, 10.0, "bosonic"), (1.5, -2.0, "fermionic"), (0.5, 0.3, "fermionic"))])
    if selftest > 1e-12:
        tally.problems.append(f"oracle self-test deviates by {selftest:.3e}")
    setup_s = None if traced else measure_setup(checks.REFERENCE_CONFIG)
    kind = workloads.WORKLOADS[name]
    work_dir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    latencies, tracer = Latencies(), Tracer() if traced else None
    try:
        walls, traced_walls = run_pass(
            kind(name, work_dir, seed), tally, seconds, workloads.MIN_ROUNDS[name],
            latencies, traced=kind(name, work_dir, seed) if traced else None,
            tracer=tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    if traced:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = {
            "value": (sum(traced_walls) - sum(walls)) / len(walls), "unit": "s"}
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{name}-seed{seed}.json"))
    else:
        solve_s = latencies.seconds
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "solve_p50_us": {"value": 1e6 * statistics.median(solve_s), "unit": "us"},
            "solve_p95_us": {"value": 1e6 * p95(solve_s), "unit": "us"},
        }
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_child(name, args):
    """One workload in a fresh process; its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qfridge", "__init__.py")):
        print(f"qfridge sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps({"environment": environment()}), flush=True)

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))))
        return 0
    results = {}
    for name in NAMES:
        results[name] = run_child(name, args)
        print(json.dumps({"workload": name, **results[name]}), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
