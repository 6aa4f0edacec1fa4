"""Benchmark workloads: inputs drawn from the seed, one operation, its check.

Each workload is built once per process (the set-up that `setup_s` times)
and then serves operations k = 0, 1, 2, ...; `op(k)` is what the latency
metrics time, `check(k, out)` runs outside that timing and calls nothing in
relaxtoc.  relaxtoc functions are looked up through their modules at call
time so that the traced run's rebindings see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
from scipy.integrate import quad

import relaxtoc.barrier as barrier
import relaxtoc.cli as cli
import relaxtoc.dynamics as dynamics
import relaxtoc.integrate as integrate
import relaxtoc.pmp as pmp
import relaxtoc.solve as solve
from relaxtoc.relaxed import ClassicalSchedule
from relaxtoc.target import Hyperplane, Point

from spans import counting_signal

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)

HIT = integrate.HIT_TARGET


def _input_matrix(tracer, n):
    """B = I, counted when traced (make_*_system builds the same default)."""
    return None if tracer is None else counting_signal(tracer, [0.0], [np.eye(n)])


def _system(tracer, sys_):
    return sys_ if tracer is None else tracer.wrap_system(sys_)


class QuenchLadder:
    """README quick-start study on quenching-ex1, then verify and alpha = 0.

    The study runs as the README writes it, with SolveOptions.seed = 0, on
    every run seed.  The solver seed only picks the random second start of
    rung 0; it leaves every certified w unchanged but moved the study's cost
    from 33 s to 55 s over seeds 0-9, a spread that no bound on a one-study
    run can hold.
    """

    name = "quench-ladder"
    traced_ops = 1
    y0 = np.array([0.0, 0.5])
    solver_seed = 0

    def __init__(self, seed, tracer=None, scratch=None):
        self.sys = _system(tracer, dynamics.make_quenching_system(B=_input_matrix(tracer, 2)))
        self.tgt = Hyperplane(axis=0, level=1.0)
        self.opts = solve.SolveOptions(n_cells=8, n_atoms=2, multi_starts=2, seed=self.solver_seed)
        self.ref = REFERENCE["quench-ladder"]

    def warm_up(self):
        integrate.integrate_forward(self.sys, None, self.y0, tgt=self.tgt.with_alpha(0.2), t_max=0.1)

    def op(self, k):
        trace = solve.alpha_ladder(
            self.sys, self.tgt, self.y0, alpha0=0.2, ratio=0.5, k_max=5, opts=self.opts
        )
        res = trace.results[-1]
        report = pmp.verify(self.sys, self.tgt.with_alpha(res.alpha), res, opts=self.opts.final)
        # the conclusions concern the true singular line: continue the winner
        cont = integrate.integrate_forward(
            self.sys, res.schedule, self.y0, tgt=self.tgt, t_max=1.5 * res.w + 0.1,
            opts=integrate.IntegratorOptions(hit_tol=1e-6),
        )
        conc = None
        if cont.hit.status == HIT:
            conc = pmp.quenching_conclusions(
                (cont.hit.time, cont, res.schedule), sys=self.sys, tgt=self.tgt
            )
        return trace, report, conc

    def check(self, k, out):
        trace, report, conc = out
        ws = trace.ws
        return (
            all(r.trajectory.hit.status == HIT for r in trace.results)
            and all(b >= a for a, b in zip(ws, ws[1:]))
            and len(ws) == len(self.ref["w"])
            and all(w <= ref * (1.0 + self.ref["rel_tol"]) for w, ref in zip(ws, self.ref["w"]))
            and report.hamiltonian_residual <= self.ref["h_residual_per_scale"] * report.hamiltonian_scale
            and conc is not None
            and conc.ok
        )


def _xi(r, p, M, sign):
    """int_r^inf dtheta / (theta^p + sign (theta + M)), by direct quadrature."""
    val, _ = quad(lambda th: 1.0 / (th**p + sign * (th + M)), r, np.inf, epsabs=1e-13, epsrel=1e-12)
    return val


class ChartVerify:
    """`relaxtoc run` task verify on blowup-ex2, read through the chart.

    One solver start (the greedy seed).  With three starts each operation
    took 7-14 s; the two random starts moved that cost by about 15 % per
    input and never the certified w, so at two or three operations per run
    no bound could hold the spread.  One start keeps the descent, the
    gradient sweeps, verify and the CLI layer in each ~2 s operation.
    """

    name = "chart-verify"
    traced_ops = 2
    p = 2.0
    alpha = 0.05
    M = 1.0  # rho0 = 1 and B = I bound the input by 1

    def __init__(self, seed, tracer=None, scratch=None):
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch

    def inputs(self, k):
        n = 1 + k % 2
        rng = np.random.default_rng([self.seed, k])
        radius = rng.uniform(3.0, 5.0)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        return {
            "schema_version": 1,
            "task": "verify",
            "seed": self.seed,
            "system": {"example": "blowup-ex2", "n": n, "p": self.p, "gamma": 1.0},
            "alpha": self.alpha,
            "y0": [float(v) for v in radius * direction],
            "solver": {"n_cells": 4, "n_atoms": 2, "multi_starts": 1},
            "verify": {"max_hamiltonian_residual": 1e-3},
        }

    def warm_up(self):
        sys_ = dynamics.make_blowup_system(n=1, p=self.p, gamma=1.0)
        integrate.integrate_forward(
            sys_, None, np.array([3.0]), tgt=Point(location=np.zeros(1)).with_alpha(self.alpha), t_max=1.0
        )

    def op(self, k):
        config = self.inputs(k)
        for entry in os.listdir(self.scratch):
            os.remove(os.path.join(self.scratch, entry))
        # the report summary cli.run prints stays out of the metric output
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(config, out_dir=self.scratch)
        with open(os.path.join(self.scratch, "pmp_report.json")) as fh:
            w = json.load(fh)["w"]
        if self.tracer is not None:
            self.tracer.values["cli.artifact_bytes"] += sum(
                os.path.getsize(os.path.join(self.scratch, e)) for e in os.listdir(self.scratch)
            )
        return {"rc": rc, "w": w, "r": float(np.linalg.norm(config["y0"]))}

    def check(self, k, out):
        r, far = out["r"], 1.0 / self.alpha
        lo = _xi(r, self.p, self.M, +1.0) - _xi(far, self.p, self.M, +1.0)
        hi = _xi(r, self.p, self.M, -1.0) - _xi(far, self.p, self.M, -1.0)
        return out["rc"] == 0 and lo <= out["w"] <= hi


class BoundSweeps:
    """One round of comparison checks: samples 3k, 3k+1, 3k+2 are one
    envelope, one lower-bound and one monotonicity sample (cases i and ii
    alternating between rounds).

    An operation is a round, not a single sample, because the three kinds
    cost about 35, 30 and 65-110 ms: the median of single samples fell
    between those clusters and moved by a quarter from run to run.  The
    latency of a round has one mode, so its median and 90th percentile hold.
    """

    name = "bound-sweeps"
    traced_ops = 20
    kinds_per_op = 3
    p = 2.0
    t_span = 5.0
    cells = 6
    lb_alpha = 0.5

    def __init__(self, seed, tracer=None, scratch=None):
        self.seed = seed
        self.sys = _system(
            tracer, dynamics.make_blowup_system(n=2, p=self.p, gamma=1.0, B=_input_matrix(tracer, 2))
        )
        M = dynamics.input_bound(self.sys.affine.input_matrix, self.sys.control_set)
        self.table = barrier.build_barrier_table(self.p, M)
        self.m_tilde = barrier.mtilde(self.table, self.lb_alpha)

    def kind(self, j):
        if j % 3 == 0:
            return "envelope"
        if j % 3 == 1:
            return "lower-bound"
        return "monotonicity-i" if (j // 3) % 2 == 0 else "monotonicity-ii"

    def inputs(self, j):
        """Draws exactly as the CLI sweeps do for sample j."""
        rng = np.random.default_rng([self.seed, j])
        kind = self.kind(j)
        if kind == "envelope":
            radius = self.table.r0 * (1.1 + 2.0 * rng.uniform())
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            values = np.stack([self.sys.control_set.boundary_sample(rng) for _ in range(self.cells)])
            return {"kind": kind, "y0": radius * direction, "values": values}
        if kind == "lower-bound":
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            radius = self.m_tilde * (1.0 + 2.0 * rng.uniform())
            T_frac = 0.1 + 0.8 * rng.uniform()
            return {"kind": kind, "y0": radius * direction, "T_frac": T_frac, "h": rng.uniform(size=8)}
        sign = -1.0 if kind == "monotonicity-i" else 1.0
        g_vals = 0.2 * rng.uniform(-1.0, 1.0, size=(self.cells, 2))
        h_vals = sign * 0.2 * rng.uniform(0.0, 1.0, size=self.cells)
        y0 = np.array([0.0, 0.5]) if sign < 0 else np.array([2.0, 0.5])
        return {"kind": kind, "y0": y0, "g": g_vals, "h": h_vals}

    def warm_up(self):
        self.op(0)

    def op(self, k):
        first = self.kinds_per_op * k
        return [self.sample(j) for j in range(first, first + self.kinds_per_op)]

    def sample(self, j):
        x = self.inputs(j)
        if x["kind"] == "envelope":
            control = ClassicalSchedule(grid=np.linspace(0.0, self.t_span, self.cells + 1), values=x["values"])
            traj = integrate.integrate_forward(
                self.sys, control, x["y0"], t_max=self.t_span, opts=integrate.IntegratorOptions()
            )
            return barrier.envelope_bracket_check(self.table, traj)
        if x["kind"] == "lower-bound":
            radius = float(np.linalg.norm(x["y0"]))
            T = barrier.xi_upper_time(self.table, radius) * x["T_frac"]
            h = dynamics.PiecewiseConstant(np.linspace(0.0, T, 9)[:-1], x["h"])
            return barrier.blowup_lower_bound_check(
                self.table, alpha=self.lb_alpha, s=0.0, T=T, h=h, y_s=x["y0"]
            )
        starts = np.linspace(0.0, 0.3, self.cells + 1)[:-1]
        return barrier.quench_monotonicity_check(
            g=dynamics.PiecewiseConstant(starts, x["g"]),
            h=dynamics.PiecewiseConstant(starts, x["h"]),
            y0=x["y0"],
            T=0.3,
        )

    def check(self, k, out):
        return len(out) == self.kinds_per_op and all(v.ok for v in out)


WORKLOADS = {w.name: w for w in (QuenchLadder, ChartVerify, BoundSweeps)}


@contextlib.contextmanager
def scratch_dir(parent):
    """A private directory for CLI artifacts, removed on exit."""
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="cli-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
