"""Solver lookup counters, CPU time and an output digest of fixed benchmark operations.

Runs fixed operations of two workloads of bench/workloads.py: quench-ladder
operation 0 (the README quench study: a five-rung alpha ladder, verify at the
last rung, the winner continued to alpha = 0 and its quenching conclusions)
and chart-verify operations 0 and 1 on seed SEED (one `relaxtoc run` verify
on blowup-ex2 each, n = 1 and n = 2). Per workload it records

- adjoint rhs evaluations and system Jacobian evaluations;
- adjoint passes (calls of integrate_adjoint) and the seeds they carry
  (columns: a pre-terminal family is one pass of three columns);
- the same four counts split by the pmp function that ran the pass
  (`by_caller`: bang_polish's proposal sweeps, verify, and
  quenching_conclusions), with the rtol of each pass;
- forward passes inside bang_polish, and the solver's own forward passes
  split into greedy probes and certifying passes (solve._certify), with the
  rtol of each probe (`probe_rtol`);
- forward trials: DOPRI5 trial steps (calls of _rk.step) taken inside
  integrate_forward, accepted or rejected, over every forward pass;
- scanned steps: accepted forward steps whose event scan ran
  (calls of integrate._scan_step), the rest being cleared by its bound;
- segment lookups (binary searches of Trajectory.segment_of over a
  trajectory's times) and cell lookups (relaxed._cell_index over a
  schedule's grid);
- the median over REPEATS passes of the process CPU time per operation;
- a SHA-256 digest of the outputs: for quench-ladder the rung alphas and
  `ws`, `w_star`, the rung schedules, the verify report and the conclusions;
  for chart-verify the exit codes and every CLI artifact byte. Two sides of
  a change that keeps results bit for bit must show the same digest.

RK steps, the other forward passes and the other layer counts come
from `bench/run.py --trace 1`. All counts here are deterministic and repeat on
any machine. Results merge into --out under runs[--label], so two checkouts
can be recorded side by side:

    python scripts/bench_solver.py --root <other checkout> --label before
    python scripts/bench_solver.py --label after

--root (default: this checkout) names the checkout whose src/ and bench/ run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, REPEATS = 5, 7
OPS = {"quench-ladder": (0,), "chart-verify": (0, 1)}
# the pmp functions that run adjoint passes, by the name by_caller files them under
CALLERS = {"bang_polish": "polish", "verify": "verify", "quenching_conclusions": "conclusions"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT)
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_solver.json"))
    return ap.parse_args(argv)


def output_bytes(wl, out):
    """The bytes of one operation's results that the digest covers."""
    if wl.name == "quench-ladder":
        trace, report, conc = out
        head = {
            "alphas": list(trace.alphas),
            "ws": list(trace.ws),
            "w_star": trace.w_star,
            "verify": report.to_json_dict(),
            "conclusions": None if conc is None else conc.to_json_dict(),
        }
        blob = json.dumps(head, sort_keys=True).encode()
        return blob + b"".join(s.hash_bytes() for s in trace.schedules)
    blob = json.dumps(out, sort_keys=True).encode()
    for name in sorted(os.listdir(wl.scratch)):
        with open(os.path.join(wl.scratch, name), "rb") as fh:
            blob += name.encode() + fh.read()
    return blob


def run_ops(wl, ops):
    """Run the operations in order: (digest of their outputs, summary, CPU
    seconds per operation).  The CPU time leaves out the checks and the digest."""
    h = hashlib.sha256()
    summary = []
    cpu = 0.0
    for k in ops:
        t0 = time.process_time()
        out = wl.op(k)
        cpu += time.process_time() - t0
        if not wl.check(k, out):
            raise SystemExit(f"{wl.name} operation {k} failed its check")
        h.update(output_bytes(wl, out))
        if wl.name == "quench-ladder":
            summary.append({"ws": list(out[0].ws), "w_star": out[0].w_star})
        else:
            summary.append({"w": out["w"], "rc": out["rc"]})
    return h.hexdigest(), summary, cpu / len(ops)


COUNTS = (
    "adjoint_rhs_evals",
    "jacobian_evals",
    "adjoint_passes",
    "adjoint_columns",
    "polish_forward_passes",
    "probe_passes",
    "certify_passes",
    "scanned_steps",
    "forward_trials",
    "segment_lookups",
    "cell_lookups",
)
# the counts by_caller splits
SPLIT = ("adjoint_rhs_evals", "jacobian_evals", "adjoint_passes", "adjoint_columns")


def counted_pass(workloads, name, scratch):
    """The operations run once more with the COUNTS counters."""
    import dataclasses

    import numpy as np

    from relaxtoc import _rk, cli, dynamics, integrate, pmp, relaxed, solve

    counts = dict.fromkeys(COUNTS, 0)
    by_caller = {}
    probe_rtol = {}
    caller = "other"  # the by_caller row of the adjoint pass running now

    def tally(key, n=1):
        counts[key] += n
        if key in SPLIT:
            row = by_caller.setdefault(caller, {**dict.fromkeys(SPLIT, 0), "rtol": {}})
            row[key] += n

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            tally(key)
            return fn(*args, **kwargs)

        return wrapper

    def counted_system(make):
        # the workloads build their systems through these module attributes
        def build(*args, **kwargs):
            sys_ = make(*args, **kwargs)
            return dataclasses.replace(sys_, jacobian=counted("jacobian_evals", sys_.jacobian))

        return build

    adjoint = pmp.integrate_adjoint

    def counted_adjoint(sys_, traj, control, terminal_psi, *args, **kwargs):
        # pmp is the one caller; a 2-D terminal_psi holds one seed per row
        nonlocal caller
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in CALLERS:
            frame = frame.f_back
        caller = "other" if frame is None else CALLERS[frame.f_code.co_name]
        tally("adjoint_passes")
        tally("adjoint_columns", len(terminal_psi) if np.ndim(terminal_psi) == 2 else 1)
        rtol = repr((kwargs.get("opts") or integrate.IntegratorOptions()).rtol)
        rtols = by_caller[caller]["rtol"]
        rtols[rtol] = rtols.get(rtol, 0) + 1
        try:
            return adjoint(sys_, traj, control, terminal_psi, *args, **kwargs)
        finally:
            caller = "other"

    forward = solve.integrate_forward

    def counted_forward(*args, **kwargs):
        # solve runs forward passes in two functions: the greedy probe and _certify
        if sys._getframe(1).f_code.co_name == "_certify":
            tally("certify_passes")
        else:
            tally("probe_passes")
            rtol = repr(kwargs["opts"].rtol)
            probe_rtol[rtol] = probe_rtol.get(rtol, 0) + 1
        return forward(*args, **kwargs)

    step = _rk.step

    def counted_step(*args):
        # _rk.steps reads the module's step per trial; the generator's frame
        # is resumed by the loop that iterates it
        if sys._getframe(2).f_code.co_name == "integrate_forward":
            tally("forward_trials")
        return step(*args)

    # integrate_adjoint is the one caller of _rk.integrate_plain through the
    # module attribute; solve and barrier bind the name at import
    plain = _rk.integrate_plain

    def counted_plain(rhs, *args, **kwargs):
        return plain(counted("adjoint_rhs_evals", rhs), *args, **kwargs)

    patches = {
        (_rk, "integrate_plain"): counted_plain,
        (_rk, "step"): counted_step,
        (integrate.Trajectory, "segment_of"): counted("segment_lookups", integrate.Trajectory.segment_of),
        (relaxed, "_cell_index"): counted("cell_lookups", relaxed._cell_index),
        (pmp, "integrate_adjoint"): counted_adjoint,
        # bang_polish is pmp's one caller of integrate_forward
        (pmp, "integrate_forward"): counted("polish_forward_passes", pmp.integrate_forward),
        (solve, "integrate_forward"): counted_forward,
        (integrate, "_scan_step"): counted("scanned_steps", integrate._scan_step),
        (dynamics, "make_quenching_system"): counted_system(dynamics.make_quenching_system),
        (cli, "make_blowup_system"): counted_system(cli.make_blowup_system),
    }
    originals = {key: getattr(*key) for key in patches}
    for (owner, attr), value in patches.items():
        setattr(owner, attr, value)
    try:
        wl = workloads.WORKLOADS[name](SEED, scratch=scratch)
        digest = run_ops(wl, OPS[name])[0]
    finally:
        for (owner, attr), value in originals.items():
            setattr(owner, attr, value)
    return counts, by_caller, probe_rtol, digest


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
    sys.path[:0] = [src, bench]
    import numpy
    import scipy

    import relaxtoc
    import workloads

    if not os.path.abspath(relaxtoc.__file__).startswith(src + os.sep):
        raise SystemExit(f"relaxtoc imported from {relaxtoc.__file__}, not from {src}")

    results = {}
    for name, ops in OPS.items():
        with workloads.scratch_dir(tempfile.gettempdir()) as scratch, contextlib.redirect_stdout(
            io.StringIO()
        ):
            wl = workloads.WORKLOADS[name](SEED, scratch=scratch)
            wl.warm_up()
            digests, cpu = set(), []
            for _ in range(REPEATS):
                digest, summary, cpu_per_op = run_ops(wl, ops)
                cpu.append(cpu_per_op)
                digests.add(digest)
            counts, by_caller, probe_rtol, counted_digest = counted_pass(workloads, name, scratch)
        digests.add(counted_digest)
        if len(digests) != 1:
            raise SystemExit(f"{name}: outputs differ between passes")
        results[name] = {
            "ops": list(ops),
            "counts": counts,
            "by_caller": by_caller,
            "probe_rtol": probe_rtol,
            "cpu_s_per_op_median": statistics.median(cpu),
            "cpu_s_per_op_quartiles": statistics.quantiles(cpu, n=4)[::2],
            "output_sha256": digest,
            "outputs": summary,
        }

    doc["what"] = __doc__.split("\n\n")[0]
    doc["inputs"] = {"seed": SEED, "repeats": REPEATS, "ops": {k: list(v) for k, v in OPS.items()}}
    doc.setdefault("runs", {})[args.label] = {
        "workloads": results,
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
    for name, row in results.items():
        c = row["counts"]
        print(
            f"{name:14s} adjoint rhs {c['adjoint_rhs_evals']:6d}  jacobian {c['jacobian_evals']:6d}  "
            f"adjoint passes {c['adjoint_passes']:3d} ({c['adjoint_columns']:3d} columns)  "
            f"polish forwards {c['polish_forward_passes']:3d}  "
            f"probes {c['probe_passes']:3d} (rtol {row['probe_rtol']})  certifies {c['certify_passes']:3d}  "
            f"scanned {c['scanned_steps']:5d}  forward trials {c['forward_trials']:5d}  "
            f"segment {c['segment_lookups']:6d}  cell {c['cell_lookups']:6d}  "
            f"cpu/op {row['cpu_s_per_op_median'] * 1e3:7.1f} ms  {row['output_sha256'][:12]}"
        )
        for who, c in sorted(row["by_caller"].items()):
            print(
                f"  {who:12s} adjoint rhs {c['adjoint_rhs_evals']:6d}  jacobian {c['jacobian_evals']:6d}  "
                f"adjoint passes {c['adjoint_passes']:3d} ({c['adjoint_columns']:3d} columns)  rtol {c['rtol']}"
            )


if __name__ == "__main__":
    main()
