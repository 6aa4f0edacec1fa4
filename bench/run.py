#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of relaxtoc.

    python3 bench/run.py --workload bound-sweeps --seed 3 --seconds 30 --trace 0

Runs one workload in one process and one thread as a closed loop: the next
operation starts only after the previous one returned.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it runs a fixed list of
operations twice, untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  Every output is checked.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See bench/README.md for the metrics and workloads.
"""

import os
import sys

# Pin the environment before NumPy loads: one BLAS thread and no solver
# worker threads (relaxtoc.cli.run reads RELAXTOC_WORKERS).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RELAXTOC_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3  # this process plus two fresh child processes
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_package():
    """Import relaxtoc from this checkout's src/ only, and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "relaxtoc", "__init__.py")):
        raise SystemExit(f"bench: no relaxtoc sources under {SRC}")
    sys.path.insert(0, SRC)
    import relaxtoc

    if not os.path.abspath(relaxtoc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: relaxtoc imported from {relaxtoc.__file__}, not {SRC}")
    import workloads

    return workloads


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def child_setup_seconds(args):
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def attempt(wl, k):
    """(latency_s, ok) of one operation; a raise is a failure."""
    start = time.perf_counter()
    try:
        out = wl.op(k)
    except Exception:
        latency = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return latency, False
    latency = time.perf_counter() - start
    try:
        ok = bool(wl.check(k, out))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"bench: operation {k} of {wl.name} failed its check", file=sys.stderr)
    return latency, ok


def closed_loop(wl, seconds):
    """Operations until the next one would end past `seconds` (at least one)."""
    lat, fails = [], 0
    start = time.perf_counter()
    while True:
        latency, ok = attempt(wl, len(lat))
        lat.append(latency)
        fails += not ok
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lat) > seconds:
            return lat, fails, elapsed


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def set_up(workloads, args, scratch, t0):
    """Build the workload and warm it up; the seconds since t0 are one setup sample."""
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch=scratch)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def untraced_run(args, workloads, t0):
    with workloads.scratch_dir(OUT) as scratch:
        wl, own_setup_s = set_up(workloads, args, scratch, t0)
        setup_s = [own_setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        cpu0 = time.process_time()
        lat, fails, elapsed = closed_loop(wl, args.seconds)
        cpu_s = time.process_time() - cpu0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(lat) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (p90(lat), "s"),
        "cpu_s": (cpu_s / len(lat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(
        f"# {args.workload}: {len(lat)} ops in {elapsed:.3f} s, fail_frac {fails / len(lat):.4f}, "
        f"setup samples {[round(s, 4) for s in setup_s]} s"
    )
    return len(lat), fails, metrics


def traced_run(args, workloads, t0):
    import spans

    wl_cls = workloads.WORKLOADS[args.workload]
    n = wl_cls.traced_ops
    failed = 0
    with workloads.scratch_dir(OUT) as scratch:
        wl, _ = set_up(workloads, args, scratch, t0)
        start = time.perf_counter()
        for k in range(n):
            failed += not attempt(wl, k)[1]
        untraced_s = time.perf_counter() - start

        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            tracer.op = "setup"
            wl = wl_cls(args.seed, tracer=tracer, scratch=scratch)
            start = time.perf_counter()
            for k in range(n):
                tracer.op = k
                failed += not attempt(wl, k)[1]
            traced_s = time.perf_counter() - start
        finally:
            restore()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(path)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    print(
        f"# {args.workload}: {n} ops untraced in {untraced_s:.3f} s, traced in {traced_s:.3f} s, "
        f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}"
    )
    return 2 * n, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        workloads = load_package()
    except ImportError as exc:
        print(f"bench: cannot import relaxtoc: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        with workloads.scratch_dir(OUT) as scratch:
            print(json.dumps({"setup_s": set_up(workloads, args, scratch, t0)[1]}))
        return 0

    run = traced_run if args.trace else untraced_run
    attempted, failed, metrics = run(args, workloads, t0)
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
