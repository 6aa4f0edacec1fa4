"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into relaxtoc's public functions by
rebinding module attributes in this process; nothing in the package itself
changes.  Hot leaf functions (one RK step, a field evaluation, a distance
query) would make millions of spans per operation, so they are only counted
(and, for `rk.step` and `barrier.quad`, timed into their parent's child time)
at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from functools import wraps

import numpy as np

perf = time.perf_counter


class Frame:
    __slots__ = ("sid", "name", "child_s", "attrs")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.child_s = 0.0
        self.attrs = {}


class Tracer:
    """Span stack, span records and counters of one traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        self.stack = [Frame(0, "root")]
        self.op = None
        self._next_id = 1

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, on_result=None):
        """Record a span per call; on_result(tracer, frame, parent, result) reads outputs."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1]
            frame = Frame(sid, name)
            self.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self.stack.pop()
                dur = end - start
                parent.child_s += dur
                self.calls[name] += 1
                self.calls[f"{name}@{parent.name}"] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame.child_s
                self.spans.append((sid, name, start, end, parent.sid, self.op))
            if on_result is not None:
                on_result(self, frame, parent, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        """Count and time a hot call without keeping a span record."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                parent = self.stack[-1]
                parent.child_s += dur
                self.calls[name] += 1
                self.calls[f"{name}@{parent.name}"] += 1
                self.total_s[name] += dur

        return wrapper

    def counter(self, name, fn):
        """Count calls only."""
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_system(self, sys_):
        """Copy of a control system whose field and jacobian are counted."""
        return dataclasses.replace(
            sys_,
            field=self.counter("dynamics.field", sys_.field),
            jacobian=self.counter("dynamics.jacobian", sys_.jacobian),
        )

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def counting_signal(tracer, starts, values):
    """A PiecewiseConstant input matrix whose lookups are counted."""
    from relaxtoc.dynamics import PiecewiseConstant

    class CountedSignal(PiecewiseConstant):
        def __call__(self, t):
            tracer.calls["dynamics.input_matrix"] += 1
            return PiecewiseConstant.__call__(self, t)

    return CountedSignal(starts, values)


def _forward_result(tracer, frame, parent, traj):
    tracer.values["integrate.forward.accepted_steps"] += len(traj.times) - 1
    status = traj.hit.status
    tracer.calls[f"integrate.forward.status.{status}"] += 1
    if parent.name == "pmp.bang_polish" and "w_in" not in parent.attrs and status == "hit-target":
        parent.attrs["w_in"] = float(traj.hit.time)


def _polish_result(tracer, frame, parent, result):
    if result is not None and "w_in" in frame.attrs:
        tracer.values["pmp.polish_gain"] += frame.attrs["w_in"] - float(result[0])


def install(tracer):
    """Rebind relaxtoc's module attributes to traced wrappers.

    Returns a function that restores every original binding.
    """
    import relaxtoc._rk as rk
    import relaxtoc.barrier as barrier
    import relaxtoc.cli as cli
    import relaxtoc.integrate as integrate
    import relaxtoc.pmp as pmp
    import relaxtoc.relaxed as relaxed
    import relaxtoc.solve as solve
    import relaxtoc.target as target

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    t = tracer
    forward = t.span("integrate.forward", integrate.integrate_forward, _forward_result)
    adjoint = t.span("integrate.adjoint", integrate.integrate_adjoint)
    plain = t.span("rk.integrate_plain", rk.integrate_plain)
    solve_alpha = t.span("solve.solve_alpha", solve.solve_alpha)
    verify = t.span("pmp.verify", pmp.verify)
    conclusions = t.span("pmp.quenching_conclusions", pmp.quenching_conclusions)
    build_table = t.span("barrier.build_table", barrier.build_barrier_table)

    # _rk: integrate.py reads rk.step and rk.integrate_plain per call, and
    # integrate_plain reads its module's `step` global per step.
    rebind(rk, "step", t.leaf("rk.step", rk.step))
    rebind(rk, "integrate_plain", plain)

    rebind(integrate, "integrate_forward", forward)
    rebind(integrate, "integrate_adjoint", adjoint)
    rebind(integrate.Trajectory, "interp", t.counter("integrate.interp", integrate.Trajectory.interp))

    rebind(solve, "solve_alpha", solve_alpha)
    rebind(solve, "alpha_ladder", t.span("solve.alpha_ladder", solve.alpha_ladder))
    rebind(solve, "integrate_plain", t.span("solve.grad_sweep", plain))
    rebind(solve, "integrate_forward", t.span("solve.forward", forward))

    rebind(pmp, "integrate_forward", forward)
    rebind(pmp, "integrate_adjoint", adjoint)
    rebind(pmp, "verify", verify)
    rebind(pmp, "quenching_conclusions", conclusions)
    rebind(pmp, "bang_polish", t.span("pmp.bang_polish", pmp.bang_polish, _polish_result))
    rebind(pmp, "max_hamiltonian", t.counter("pmp.max_hamiltonian", pmp.max_hamiltonian))

    rebind(target.TargetSet, "distance", t.counter("target.distance", target.TargetSet.distance))
    rebind(relaxed.RelaxedSchedule, "cell_at", t.counter("relaxed.cell_at", relaxed.RelaxedSchedule.cell_at))

    rebind(barrier, "quad", t.leaf("barrier.quad", barrier.quad))
    rebind(barrier, "integrate_plain", plain)
    rebind(barrier, "integrate_forward", forward)
    rebind(barrier, "build_barrier_table", build_table)
    rebind(barrier, "envelope_bracket_check", t.span("barrier.envelope_check", barrier.envelope_bracket_check))
    rebind(barrier, "blowup_lower_bound_check", t.span("barrier.lower_bound_check", barrier.blowup_lower_bound_check))
    rebind(barrier, "quench_monotonicity_check", t.span("barrier.monotonicity_check", barrier.quench_monotonicity_check))
    forced = barrier._quench_forced_system
    rebind(barrier, "_quench_forced_system", lambda *a: t.wrap_system(forced(*a)))

    make_blowup = cli.make_blowup_system

    def traced_blowup(n=1, p=2.0, B=None, **kwargs):
        # the catalog passes B = None: the same identity input matrix, counted
        if B is None:
            B = counting_signal(t, [0.0], [np.eye(n)])
        return t.wrap_system(make_blowup(n=n, p=p, B=B, **kwargs))

    rebind(cli, "run", t.span("cli.run", cli.run))
    rebind(cli, "make_blowup_system", traced_blowup)
    rebind(cli, "solve_alpha", solve_alpha)
    rebind(cli, "verify", verify)
    rebind(cli, "quenching_conclusions", conclusions)
    rebind(cli, "integrate_forward", forward)
    rebind(cli, "build_barrier_table", build_table)

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(t):
    """Per-layer metric values {name: (value, unit)} from a finished trace."""
    c, s, self_s, v = t.calls, t.total_s, t.self_s, t.values
    fwd_steps = c["rk.step@integrate.forward"]
    return {
        "solve.solve_alpha.calls": (c["solve.solve_alpha"], "count"),
        "solve.solve_alpha.s": (s["solve.solve_alpha"], "s"),
        "solve.solve_alpha.self_s": (self_s["solve.solve_alpha"], "s"),
        "solve.alpha_ladder.s": (s["solve.alpha_ladder"], "s"),
        "solve.grad_sweep.calls": (c["solve.grad_sweep"], "count"),
        "solve.grad_sweep.s": (s["solve.grad_sweep"], "s"),
        "solve.forward.calls": (c["solve.forward"], "count"),
        "solve.forward.s": (s["solve.forward"], "s"),
        "solve.forward_per_solve": (_ratio(c["solve.forward"], c["solve.solve_alpha"]), "ratio"),
        "pmp.bang_polish.calls": (c["pmp.bang_polish"], "count"),
        "pmp.bang_polish.s": (s["pmp.bang_polish"], "s"),
        "pmp.bang_polish.rounds": (c["integrate.forward@pmp.bang_polish"], "count"),
        "pmp.polish_gain": (v["pmp.polish_gain"], "time"),
        "pmp.verify.calls": (c["pmp.verify"], "count"),
        "pmp.verify.s": (s["pmp.verify"], "s"),
        "pmp.quenching_conclusions.s": (s["pmp.quenching_conclusions"], "s"),
        "pmp.max_hamiltonian.calls": (c["pmp.max_hamiltonian"], "count"),
        "integrate.forward.calls": (c["integrate.forward"], "count"),
        "integrate.forward.s": (s["integrate.forward"], "s"),
        "integrate.forward.self_s": (self_s["integrate.forward"], "s"),
        "integrate.forward.accepted_steps": (int(v["integrate.forward.accepted_steps"]), "count"),
        "integrate.forward.accept_ratio": (
            _ratio(v["integrate.forward.accepted_steps"], fwd_steps),
            "ratio",
        ),
        "integrate.forward.hits": (c["integrate.forward.status.hit-target"], "count"),
        "integrate.forward.stalls": (c["integrate.forward.status.singular-stall"], "count"),
        "integrate.forward.diverged": (c["integrate.forward.status.diverged"], "count"),
        "integrate.adjoint.calls": (c["integrate.adjoint"], "count"),
        "integrate.adjoint.s": (s["integrate.adjoint"], "s"),
        "integrate.interp.calls": (c["integrate.interp"], "count"),
        "rk.step.calls": (c["rk.step"], "count"),
        "rk.step.s": (s["rk.step"], "s"),
        "rk.integrate_plain.calls": (c["rk.integrate_plain"], "count"),
        "rk.integrate_plain.s": (s["rk.integrate_plain"], "s"),
        "dynamics.field.calls": (c["dynamics.field"], "count"),
        "dynamics.jacobian.calls": (c["dynamics.jacobian"], "count"),
        "dynamics.input_matrix.calls": (c["dynamics.input_matrix"], "count"),
        "target.distance.calls": (c["target.distance"], "count"),
        "relaxed.cell_at.calls": (c["relaxed.cell_at"], "count"),
        "barrier.quad.calls": (c["barrier.quad"], "count"),
        "barrier.quad.s": (s["barrier.quad"], "s"),
        "barrier.build_table.s": (s["barrier.build_table"], "s"),
        "barrier.envelope_check.s": (s["barrier.envelope_check"], "s"),
        "barrier.lower_bound_check.s": (s["barrier.lower_bound_check"], "s"),
        "barrier.monotonicity_check.s": (s["barrier.monotonicity_check"], "s"),
        "cli.run.calls": (c["cli.run"], "count"),
        "cli.run.self_s": (self_s["cli.run"], "s"),
        "cli.artifact_bytes": (int(v["cli.artifact_bytes"]), "bytes"),
    }
