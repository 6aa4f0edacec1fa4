"""Minimum-time solver over relaxed controls, carried as cell means.

Every system is control-affine, so a relaxed control acts on a cell only
through its mean (g + B u_mean): the unknown is one control per cell, a
ClassicalSchedule.  The returned w is always the hit time of a forward pass
of the winning schedule at the final tolerances, never an iterate's estimate.

The route is seed -> certify -> polish.  The greedy seed is the maximum
condition at t = 0 with the costate frozen at the target's exit normal (one
control atom, held constant; pmp.max_hamiltonian); a one-cell probe finds
its hit time.  The warm start is certified by tight re-integration.  A
certified warm start bounds the probe's horizon, since a greedy seed that
cannot hit by then cannot win, and a probe hit is then certified; without
one the probe runs at the final tolerances and is the certificate, since
the seed, its atom on n_cells cells, jumps nowhere.  The best of them is
finished by the maximum-condition fixed point of the verification module
(pmp.bang_polish): each cell takes the argmax of its cell-integrated
switching vector, and the result is kept only when the certified hit time
does not get worse.  The relaxed maximum principle is thus the solver,
not only its check.  The argmax is closed-form because every system is
control-affine and every control set a ball, a box or a finite set; a route
without a certified hit raises Infeasible.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _rk, errors, pmp
from .dynamics import ControlSystem
from .integrate import HIT_TARGET, IntegratorOptions, Trajectory, integrate_forward
from .relaxed import ClassicalSchedule, RelaxedSchedule
from .target import TargetSet

# no pass of the solver integrates a plain ODE; the name stays bound because
# the benchmark's tracer (bench/spans.py) rebinds it as the solve.grad_sweep
# span and reads the original binding first
integrate_plain = _rk.integrate_plain

# the greedy probe runs this many search rtols past a certified warm start:
# a probe's hit time came within 9.8e-8 relative of its control's certified
# hit over 45 probes at the search rtol 1e-7
PROBE_MARGIN = 1e3


@dataclass(frozen=True)
class SolveOptions:
    n_cells: int = 12
    # validated and without effect, kept because the benchmark passes them:
    # the solver carries one mean per cell, and its route has one start
    n_atoms: int = 3
    multi_starts: int = 8
    w_max: float = 50.0
    seed: int = 0
    final: IntegratorOptions = field(default_factory=IntegratorOptions)

    def __post_init__(self):
        if not self.n_cells >= 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells!r}")
        if not self.n_atoms >= 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms!r}")
        if not (math.isfinite(self.w_max) and self.w_max > 0.0):
            raise ValueError(f"w_max must be finite and positive, got {self.w_max!r}")


@dataclass(eq=False)
class SolveResult:
    """A certified answer of one mean control per cell.  alpha and
    terminal_distance are read from target and trajectory, so a copy that
    replaces those (a ladder repair) cannot keep a stale one."""

    w: float
    schedule: ClassicalSchedule
    trajectory: Trajectory
    reason: str
    system: ControlSystem
    target: TargetSet

    @property
    def alpha(self) -> float:
        return self.target.alpha

    @property
    def terminal_distance(self) -> float:
        return self.trajectory.hit.terminal_distance

    def to_json_dict(self):
        return {
            "w": float(self.w),
            "alpha": float(self.alpha),
            "reason": self.reason,
            "terminal_distance": float(self.terminal_distance),
            "schedule": self.schedule.to_json_dict(),
        }


@dataclass(eq=False)
class LadderTrace:
    results: tuple
    w_star: float

    @property
    def alphas(self) -> tuple:
        return tuple(r.alpha for r in self.results)

    @property
    def ws(self) -> tuple:
        return tuple(r.w for r in self.results)

    @property
    def schedules(self) -> tuple:
        return tuple(r.schedule for r in self.results)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "alpha", "w"])
            for k, (a, wv) in enumerate(zip(self.alphas, self.ws)):
                w.writerow([k, f"{a:.17g}", f"{wv:.17g}"])

    def to_json_dict(self):
        return {
            "alphas": [float(a) for a in self.alphas],
            "ws": [float(w) for w in self.ws],
            "w_star": float(self.w_star),
        }


def initial_distance(sys: ControlSystem, tgt: TargetSet, y0) -> float:
    """Distance from the start to the (possibly inflated) target, measured in
    chart coordinates for compactified systems."""
    return float(tgt.distance(sys.target_coords(y0)))


def _greedy_atom(sys, tgt_a, y0, opts):
    """The maximum condition at t = 0 with the costate frozen at the target's
    exit normal: the control that closes the distance to the target fastest
    at the start.  When every control maximizes, a boundary sample of the
    control set, drawn from the solver seed."""
    x0 = sys.target_coords(y0)
    psi0 = sys.covector_to_state(y0, tgt_a.exit_normal(x0, x0))
    # the argmax ignores the scale of psi0 but the degeneracy test reads it,
    # and the chart shrinks the normal to almost nothing for far starts
    n = float(np.linalg.norm(psi0))
    h = pmp.max_hamiltonian(sys, 0.0, y0, psi0 / n if n > 0.0 else psi0)
    if h.degenerate:
        return sys.control_set.boundary_sample(np.random.default_rng([opts.seed, 7]))
    return h.control


def _constant(atom, grid) -> ClassicalSchedule:
    """The atom held on every cell of grid."""
    return ClassicalSchedule(grid, np.tile(atom, (len(grid) - 1, 1)))


def _certify(sys, tgt_a, y0, sched_phys, opts):
    """Tight re-integration of a physical-time schedule defines the certified
    hit time: (w, schedule, trajectory), or None without a hit."""
    span = float(sched_phys.grid[-1] - sched_phys.grid[0])
    if span <= 0.0:
        return None
    t_max = min(span * 1.2 + 100.0 * opts.final.hit_tol, opts.w_max * 1.2)
    traj = integrate_forward(sys, sched_phys, y0, tgt=tgt_a, t_max=t_max, opts=opts.final)
    if traj.hit.status != HIT_TARGET:
        return None
    return traj.hit.time, sched_phys, traj


def classicalize(result: SolveResult) -> ClassicalSchedule:
    """Cell means of result.schedule on result.system's control set."""
    return _cell_means(result.schedule, result.system.control_set)


def _cell_means(sched: RelaxedSchedule, control_set) -> ClassicalSchedule:
    """Per-cell barycenter: the one control with the cell's relaxed velocity,
    since B(t) applied to the mean of the atoms is the mean of B(t) applied
    to them.  A ClassicalSchedule is its own; a cell on one point takes it
    exactly, and one mixing points of a non-convex set is refused."""
    if isinstance(sched, ClassicalSchedule):
        return sched
    values = []
    for atoms, weights in zip(sched.atoms, sched.weights):
        support = atoms[weights > 0.0]
        one_point = np.all(support == support[0])
        if not (one_point or control_set.is_convex):
            raise errors.NonConvexControlSet("the mean of distinct points may leave a non-convex control set")
        values.append(support[0] if one_point else weights @ atoms)
    return ClassicalSchedule(grid=sched.grid.copy(), values=np.stack(values))


def _best_candidate(outcomes):
    """Lowest (w, terminal distance, schedule hash) among certified outcomes."""
    certified = [out for out in outcomes if out is not None]
    if not certified:
        return None
    return min(
        certified,
        key=lambda out: (
            out[0],
            out[2].hit.terminal_distance,
            hashlib.sha256(out[1].hash_bytes()).hexdigest(),
        ),
    )


def _seed_candidates(sys, tgt_a, y0, init, opts):
    """The seeds as certified (w, schedule, trajectory), None without a hit:
    the warm start at its own physical span, and the greedy atom on n_cells
    cells up to the hit time of its probe, one cell on [0, w_max].

    A certified warm start w_init stops the probe at w_init (1 + PROBE_MARGIN
    rtol), rtol the search tolerance it then runs at: a seed without a hit
    by then could not have won, and a hit is certified.  Without one the
    probe runs at the final tolerances and is the seed's certificate: the
    seed jumps nowhere, so its own pass would repeat the probe's."""
    outcomes = [] if init is None else [_certify(sys, tgt_a, y0, init, opts)]
    bounded = bool(outcomes) and outcomes[0] is not None
    t_max, probe_opts = opts.w_max, opts.final
    if bounded:
        t_max = min(t_max, outcomes[0][0] * (1.0 + PROBE_MARGIN * opts.final.search.rtol))
        probe_opts = opts.final.search
    atom = _greedy_atom(sys, tgt_a, y0, opts)
    probe = _constant(atom, np.array([0.0, opts.w_max]))
    tr = integrate_forward(sys, probe, y0, tgt=tgt_a, t_max=t_max, opts=probe_opts)
    if tr.hit.status == HIT_TARGET:
        seed = _constant(atom, np.linspace(0.0, 1.0, opts.n_cells + 1) * tr.hit.time)
        outcomes.append(_certify(sys, tgt_a, y0, seed, opts) if bounded else (tr.hit.time, seed, tr))
    return outcomes


def solve_alpha(
    sys: ControlSystem,
    tgt: TargetSet,
    y0,
    alpha: float,
    init: Optional[RelaxedSchedule] = None,
    opts: Optional[SolveOptions] = None,
) -> SolveResult:
    """Minimize the hit time of the alpha-inflated target over relaxed controls.

    The warm start init (a schedule in physical time), when given, is
    reduced to its cell means (classicalize); it and the greedy seed are
    certified by tight re-integration, and the earliest certified hit is
    polished by the maximum condition (pmp.bang_polish).  The result's
    reason names the certifying path: "seed" or "seed+polish".
    Raises AlphaOutOfRange when the start lies within the hit tolerance of
    the inflated target, ValueError when an atom of init lies outside the
    control set, NonConvexControlSet when a cell of init mixes points of a
    non-convex set, and Infeasible when no seed yields a certified hit
    within opts.w_max.
    """
    opts = opts or SolveOptions()
    y0 = np.asarray(y0, dtype=float)
    d0 = initial_distance(sys, tgt.with_alpha(0.0), y0)
    room = d0 - opts.final.hit_tol
    if not (0.0 <= alpha < room):
        raise errors.AlphaOutOfRange(
            f"alpha = {alpha!r} outside [0, d(y0, Q) - hit_tol) = [0, {room!r})"
        )
    tgt_a = tgt.with_alpha(alpha)
    if init is not None:
        init.validate_in(sys.control_set)
        init = _cell_means(init, sys.control_set)

    best = _best_candidate(_seed_candidates(sys, tgt_a, y0, init, opts))
    if best is None:
        raise errors.Infeasible(
            f"neither the warm start nor the greedy seed yields a certified hit within w_max = {opts.w_max!r}"
        )
    polished = pmp.bang_polish(sys, tgt_a, best, y0, opts=opts.final)
    reason = "seed" if polished is best else "seed+polish"
    w_cert, sched_phys, traj = polished

    return SolveResult(w=w_cert, schedule=sched_phys, trajectory=traj, reason=reason, system=sys, target=tgt_a)


def alpha_ladder(
    sys: ControlSystem,
    tgt: TargetSet,
    y0,
    alpha0: Optional[float] = None,
    ratio: float = 0.5,
    k_max: int = 12,
    opts: Optional[SolveOptions] = None,
) -> LadderTrace:
    """Solve a decreasing sequence of inflations alpha_k = alpha0 * ratio^k,
    warm-starting each rung from the previous schedule.

    w^{alpha_k} is nondecreasing for true optima; small numerical violations
    are repaired by re-certifying the earlier rung with the later schedule.
    The limit estimate extrapolates the final geometric increments.
    """
    opts = opts or SolveOptions()
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    if not k_max >= 1:
        raise ValueError(f"k_max must be >= 1, got {k_max!r}")
    y0 = np.asarray(y0, dtype=float)
    d0 = initial_distance(sys, tgt.with_alpha(0.0), y0)
    if alpha0 is None:
        alpha0 = 0.5 * d0
    if not (0.0 < alpha0 < d0):
        raise errors.AlphaOutOfRange("alpha0 must lie in (0, d(y0, Q))")

    alphas = [alpha0 * ratio**k for k in range(k_max)]
    results = []
    init = None
    for a in alphas:
        res = solve_alpha(sys, tgt, y0, a, init=init, opts=opts)
        results.append(res)
        init = res.schedule

    ws = [r.w for r in results]
    for k in range(len(ws) - 1, 0, -1):
        if ws[k - 1] > ws[k] + 1e-12 * max(1.0, ws[k]):
            redo = _certify(sys, results[k - 1].target, y0, results[k].schedule, opts)
            if redo is not None and redo[0] < ws[k - 1]:
                w_new, sched_new, traj_new = redo
                results[k - 1] = replace(
                    results[k - 1], w=w_new, schedule=sched_new, trajectory=traj_new, reason="ladder-repair"
                )
                ws[k - 1] = w_new

    w_star = ws[-1]
    if len(ws) >= 3:
        d1 = ws[-2] - ws[-3]
        d2 = ws[-1] - ws[-2]
        if d1 > 0.0 and 0.0 < d2 < d1:
            r = d2 / d1
            w_star = ws[-1] + d2 * r / (1.0 - r)

    return LadderTrace(results=tuple(results), w_star=float(w_star))
