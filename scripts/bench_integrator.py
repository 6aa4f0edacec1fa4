"""Integrator work counters and CPU time of the bound-sweeps comparison checks.

Runs the first ROUNDS rounds of the bound-sweeps benchmark workload
(`BoundSweeps` in bench/workloads.py) on seed SEED: round k holds samples 3k
(envelope bracket on a random-control blowup trajectory), 3k + 1 (damping
lower bound) and 3k + 2 (quench monotonicity, case i in even rounds and ii in
odd ones). Per kind it records

- RK trial steps, rejected steps and field (rhs) evaluations, barrier
  quadratures (calls of barrier.quad), inverse-map evaluations (calls of
  barrier._fast_radius) and target-distance evaluations (calls of
  TargetSet.distance), summed over the samples; these are deterministic and
  repeat on any machine;
- the median over REPEATS passes of the process CPU time per sample;
- for the lower-bound and monotonicity kinds, the largest error of the
  answer against `per_cell_dop853` of tests/oracles.py (SciPy's DOP853 run
  one constant-input cell at a time, rtol 1e-13): the relative error of the
  terminal radius, and the absolute error of the baseline and perturbed y1;
- a SHA-256 digest of every sample's verdict (`to_json_dict`, all kinds in
  sample order). Two sides of a change that keeps results bit for bit must
  show the same digest.

A `kernel` section times the DOPRI5 primitives alone: the median
microseconds of one trial (`_rk.step` plus `_rk.error_norm`) on the linear
field y' = M y and of one `_rk.hermite` call from arrays (their tolist()
included), at each state size of KERNEL_SIZES.  The field's own cost is in
the trial time.

Results merge into --out under runs[--label], so two checkouts can be
recorded side by side:

    python scripts/bench_integrator.py --root <other checkout> --label before
    python scripts/bench_integrator.py --label after

--root (default: this checkout) names the checkout whose src/ and bench/ run;
the reference always comes from this checkout's tests/oracles.py.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("envelope", "lower-bound", "monotonicity-i", "monotonicity-ii")
MONO_T = 0.3  # the monotonicity horizon of BoundSweeps.sample
SEED, ROUNDS, REPEATS = 5, 20, 7
KERNEL_SIZES, KERNEL_CALLS = (1, 2, 6, 9, 20), 2000


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_integrator.json"))
    return ap.parse_args(argv)


def reference_errors(wl, j, verdict):
    """Deviation of sample j's answer from a per-cell DOP853 reference."""
    import numpy as np
    from oracles import per_cell_dop853

    from relaxtoc import barrier

    kind, x = wl.kind(j), wl.inputs(j)
    if kind == "envelope":
        return {}
    if kind == "lower-bound":
        T = barrier.xi_upper_time(wl.table, float(np.linalg.norm(x["y0"]))) * x["T_frac"]
        ref = per_cell_dop853(
            lambda k, y: np.linalg.norm(y) ** (wl.p - 1.0) * y - x["h"][k] * y,
            np.linspace(0.0, T, 9),
            x["y0"],
        )
        r = float(np.linalg.norm(ref))
        return {"terminal_radius_rel": abs(verdict.terminal_radius - r) / r}
    out = {}
    for key, damped in (("baseline_y1", 0.0), ("perturbed_y1", 1.0)):
        ref = per_cell_dop853(
            lambda k, y: np.array([y[1] / (1.0 - y[0]), y[0] + y[1]])
            + x["g"][k]
            + np.array([damped * x["h"][k], 0.0]),
            np.linspace(0.0, MONO_T, wl.cells + 1),
            x["y0"],
        )
        out[key] = abs(getattr(verdict, key) - float(ref[0]))
    return out


COUNTS = ("rk_steps", "rejected_steps", "rhs_evals", "barrier_quads", "inverse_map_evals", "target_distances")


def counted_pass(wl, samples):
    """One pass with the RK primitives, the fields, the barrier quadrature,
    the inverse map and the target distance wrapped by counters.

    A trial step is one call of _rk.step; it is rejected when it raises (a
    stage left the admissible region) or when its error norm is not <= 1 or
    its new state is not finite, exactly the acceptance test of the one step
    loop `_rk.steps`, which both integrators consume.  It looks _rk.step
    and _rk.error_norm up at each trial, and barrier looks quad and
    _fast_radius up at each call.
    """
    import numpy as np

    from relaxtoc import _rk, barrier, target
    from relaxtoc._rk import StageFailure

    counts = dict.fromkeys(COUNTS, 0)

    def counting(fn, key="rhs_evals"):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def counted_system(sys_):
        # the forward rhs calls the drift; nothing calls the one-call field
        affine = dataclasses.replace(sys_.affine, drift=counting(sys_.affine.drift))
        return dataclasses.replace(sys_, affine=affine)

    step, error_norm = _rk.step, _rk.error_norm
    plain, forced = barrier.integrate_plain, barrier._quench_forced_system
    quad, fast_radius, distance = barrier.quad, barrier._fast_radius, target.TargetSet.distance

    def counted_step(*args):
        counts["rk_steps"] += 1
        try:
            return step(*args)
        except StageFailure:
            counts["rejected_steps"] += 1
            raise

    def counted_error_norm(err, y0, y1, rtol, atol, cols=1):
        val = error_norm(err, y0, y1, rtol, atol, cols)
        if not (val <= 1.0 and np.isfinite(y1).all()):
            counts["rejected_steps"] += 1
        return val

    _rk.step, _rk.error_norm = counted_step, counted_error_norm
    barrier.integrate_plain = lambda rhs, *a, **kw: plain(counting(rhs), *a, **kw)
    barrier._quench_forced_system = lambda *a: counted_system(forced(*a))
    barrier.quad = counting(quad, "barrier_quads")
    barrier._fast_radius = counting(fast_radius, "inverse_map_evals")
    target.TargetSet.distance = counting(distance, "target_distances")
    envelope_sys = wl.sys
    wl.sys = counted_system(envelope_sys)
    per_kind = {k: {"samples": 0, **dict.fromkeys(COUNTS, 0)} for k in KINDS}
    verdicts = {}
    try:
        for j in samples:
            before = dict(counts)
            verdicts[j] = wl.sample(j)
            row = per_kind[wl.kind(j)]
            row["samples"] += 1
            for key in counts:
                row[key] += counts[key] - before[key]
    finally:
        _rk.step, _rk.error_norm = step, error_norm
        barrier.integrate_plain, barrier._quench_forced_system = plain, forced
        barrier.quad, barrier._fast_radius, target.TargetSet.distance = quad, fast_radius, distance
        wl.sys = envelope_sys
    return per_kind, verdicts


def kernel_timings():
    """Median microseconds per trial step and per Hermite call, by state size."""
    import numpy as np

    from relaxtoc import _rk

    def per_call_us(fn):
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(KERNEL_CALLS):
                fn()
            runs.append((time.perf_counter() - t0) / KERNEL_CALLS * 1e6)
        return statistics.median(runs)

    out = {}
    for n in KERNEL_SIZES:
        rng = np.random.default_rng(n)
        M = rng.normal(size=(n, n)) / n
        y0, y1, f1 = rng.normal(size=(3, n))

        def rhs(t, y):
            return M @ y

        f0 = rhs(0.0, y0)

        def trial():
            y_new, _, err = _rk.step(rhs, 0.0, y0, f0, 0.01)
            return _rk.error_norm(err, y0, y_new, 1e-9, 1e-11)

        out[str(n)] = {
            "step_error_norm_us": per_call_us(trial),
            "hermite_us": per_call_us(
                lambda: _rk.hermite(0.0, y0.tolist(), f0.tolist(), 0.01, y1.tolist(), f1.tolist(), 0.004)
            ),
        }
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        with open(args.out) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = os.path.join(os.path.abspath(args.root), "src")
    bench = os.path.join(os.path.abspath(args.root), "bench")
    sys.path[:0] = [src, bench, os.path.join(ROOT, "tests")]
    import numpy
    import scipy

    import relaxtoc
    import workloads

    if not os.path.abspath(relaxtoc.__file__).startswith(src + os.sep):
        raise SystemExit(f"relaxtoc imported from {relaxtoc.__file__}, not from {src}")

    wl = workloads.BoundSweeps(SEED)
    wl.warm_up()
    samples = range(3 * ROUNDS)
    per_kind, verdicts = counted_pass(wl, samples)

    cpu = {k: [] for k in KINDS}
    for _ in range(REPEATS):
        spent = {k: 0.0 for k in KINDS}
        for j in samples:
            t0 = time.process_time()
            wl.sample(j)
            spent[wl.kind(j)] += time.process_time() - t0
        for k in KINDS:
            cpu[k].append(spent[k] / per_kind[k]["samples"])

    for kind in KINDS:
        worst = {}
        for j in samples:
            if wl.kind(j) == kind:
                for key, val in reference_errors(wl, j, verdicts[j]).items():
                    worst[key] = max(worst.get(key, 0.0), val)
        row = per_kind[kind]
        row["cpu_s_per_sample_median"] = statistics.median(cpu[kind])
        row["max_error_vs_per_cell_dop853"] = worst or None
        row["all_ok"] = all(verdicts[j].ok for j in samples if wl.kind(j) == kind)

    kernel = kernel_timings()
    verdict_json = json.dumps([verdicts[j].to_json_dict() for j in samples], sort_keys=True)
    digest = hashlib.sha256(verdict_json.encode()).hexdigest()

    doc["what"] = __doc__.split("\n\n")[0]
    doc["inputs"] = {
        "seed": SEED,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "kernel_sizes": list(KERNEL_SIZES),
        "kernel_calls": KERNEL_CALLS,
    }
    doc.setdefault("runs", {})[args.label] = {
        "kinds": per_kind,
        "output_sha256": digest,
        "kernel": kernel,
        "environment": {
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for kind in KINDS:
        row = per_kind[kind]
        print(
            f"{kind:16s} steps {row['rk_steps']:5d}  rejected {row['rejected_steps']:5d}  "
            f"rhs {row['rhs_evals']:6d}  quad {row['barrier_quads']:4d}  "
            f"inverse {row['inverse_map_evals']:5d}  distance {row['target_distances']:5d}  "
            f"cpu/sample {row['cpu_s_per_sample_median'] * 1e3:7.2f} ms"
        )
    for n, row in kernel.items():
        print(
            f"kernel n={n:>2s}  step+error_norm {row['step_error_norm_us']:6.1f} us  "
            f"hermite {row['hermite_us']:5.1f} us"
        )
    print(f"verdicts {digest[:12]}")


if __name__ == "__main__":
    main()
