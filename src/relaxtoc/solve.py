"""Minimum-time solver over relaxed schedules.

A relaxed schedule holds per-cell atoms and weights on a fixed time grid,
and the state follows y' = f(t, y, sigma(t)).  The returned w is always the
hit time of a tight re-integration of the winning schedule, never an
iterate's estimate.

The route is seed -> certify -> polish.  The warm start and the greedy seed
(one bang atom toward the target) are certified by tight re-integration,
and the best of them is finished by the maximum-condition fixed point of
the verification module (pmp.bang_polish): each cell takes the argmax of
its cell-integrated switching vector, and the result is kept only when the
certified hit time does not get worse.  The relaxed maximum principle is
thus the solver, not only its check.  The argmax is closed-form for
control-affine dynamics with a ball, box or finite control set; any other
system raises UnsupportedControlSet, and a route without a certified hit
raises Infeasible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import _rk, errors, pmp
from .dynamics import ControlSystem
from .integrate import HIT_TARGET, IntegratorOptions, Trajectory, integrate_forward
from .relaxed import ClassicalSchedule, RelaxedSchedule, filippov_select
from .target import TargetSet

# no pass of the solver integrates a plain ODE; the name stays bound because
# the benchmark's tracer (bench/spans.py) rebinds it as the solve.grad_sweep
# span and reads the original binding first
integrate_plain = _rk.integrate_plain


@dataclass(frozen=True)
class SolveOptions:
    n_cells: int = 12
    n_atoms: int = 3
    # accepted for compatibility and without effect: the seed -> polish route
    # has one start
    multi_starts: int = 8
    w_max: float = 50.0
    seed: int = 0
    final: IntegratorOptions = field(default_factory=IntegratorOptions)


@dataclass(eq=False)
class SolveResult:
    w: float
    schedule: RelaxedSchedule
    classical: Optional[ClassicalSchedule]
    trajectory: Trajectory
    alpha: float
    converged: bool
    reason: str
    terminal_distance: float
    system: ControlSystem
    target: TargetSet

    def to_json_dict(self):
        return {
            "w": float(self.w),
            "alpha": float(self.alpha),
            "converged": bool(self.converged),
            "reason": self.reason,
            "terminal_distance": float(self.terminal_distance),
            "schedule": self.schedule.to_json_dict(),
            "classical": None if self.classical is None else self.classical.to_json_dict(),
        }


@dataclass(eq=False)
class LadderTrace:
    alphas: tuple
    ws: tuple
    schedules: tuple
    results: tuple
    w_star: float

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


def _target_direction(sys, tgt_a, y0):
    """Unit covector along which motion decreases the target distance."""
    x = sys.target_coords(y0)
    gap = tgt_a.project(x) - x
    d = float(np.linalg.norm(gap))
    if d == 0.0:
        raise errors.AlphaOutOfRange("start already inside the inflated target")
    direction = gap / d
    if sys.chart is not None:
        direction = sys.chart.gradient_jacobian(np.asarray(y0, dtype=float)) @ direction
        n = float(np.linalg.norm(direction))
        if n > 0.0:
            direction = direction / n
    return direction


def _bang_atom(sys, t, direction, rng):
    """Atom maximizing the instantaneous drive along `direction`."""
    cs = sys.control_set
    B = np.atleast_2d(np.asarray(sys.affine.input_matrix(t), dtype=float))
    u, _, degenerate = pmp._linear_argmax(cs, B.T @ direction, 1e-14)
    return cs.project(cs.boundary_sample(rng)) if degenerate else u


def _greedy_schedule(sys, tgt_a, y0, opts) -> RelaxedSchedule:
    rng = np.random.default_rng([opts.seed, 7])
    direction = _target_direction(sys, tgt_a, y0)
    atom = _bang_atom(sys, 0.0, direction, rng)
    grid = np.linspace(0.0, 1.0, opts.n_cells + 1)
    atoms = np.tile(atom, (opts.n_cells, opts.n_atoms, 1))
    weights = np.full((opts.n_cells, opts.n_atoms), 1.0 / opts.n_atoms)
    return RelaxedSchedule(grid=grid, atoms=atoms, weights=weights)


def _probe_w(sys, tgt_a, y0, sched_unit, opts):
    """Hit time of the unit schedule stretched to w_max, integrated at the
    search tolerances, or None without a hit."""
    phys = sched_unit.scaled_grid(opts.w_max)
    tr = integrate_forward(sys, phys, y0, tgt=tgt_a, t_max=opts.w_max, opts=opts.final.search)
    if tr.hit.status != HIT_TARGET:
        return None
    return min(tr.hit.time, opts.w_max)


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
    """Per-cell barycenter selection of the relaxed schedule (affine systems)."""
    sys = result.system
    sched = result.schedule
    values = []
    for i in range(len(sched.grid) - 1):
        t_mid = 0.5 * (sched.grid[i] + sched.grid[i + 1])
        values.append(filippov_select(sys, t_mid, sched.atoms[i], sched.weights[i]))
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


def _seed_candidates(sys, tgt_a, y0, init, greedy, opts):
    """Certify the seeds: the warm start at its own physical span, the greedy
    seed at the hit time its probe reports."""
    outcomes = [] if init is None else [_certify(sys, tgt_a, y0, init, opts)]
    w = _probe_w(sys, tgt_a, y0, greedy, opts)
    if w is not None:
        outcomes.append(_certify(sys, tgt_a, y0, greedy.scaled_grid(w), opts))
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

    The warm start init (a schedule in physical time), when given, and the
    greedy seed are certified by tight re-integration; the earliest certified
    hit is polished by the maximum condition (pmp.bang_polish).  The
    result's reason names the certifying path: "seed" or "seed+polish".
    Raises UnsupportedControlSet, before any integration, unless the system
    is control-affine (pmp.polishable); AlphaOutOfRange when the start lies
    within the hit tolerance of the inflated target; and Infeasible when no
    seed yields a certified hit within opts.w_max.
    """
    opts = opts or SolveOptions()
    if not pmp.polishable(sys):
        raise errors.UnsupportedControlSet(
            "solve_alpha needs control-affine dynamics: the maximum condition has no closed form here"
        )
    y0 = np.asarray(y0, dtype=float)
    d0 = initial_distance(sys, tgt.with_alpha(0.0), y0)
    room = d0 - opts.final.hit_tol
    if not (0.0 <= alpha < room):
        raise errors.AlphaOutOfRange(
            f"alpha = {alpha!r} outside [0, d(y0, Q) - hit_tol) = [0, {room!r})"
        )
    tgt_a = tgt.with_alpha(alpha)

    greedy = _greedy_schedule(sys, tgt_a, y0, opts)
    best = _best_candidate(_seed_candidates(sys, tgt_a, y0, init, greedy, opts))
    if best is None:
        raise errors.Infeasible(
            f"neither the warm start nor the greedy seed yields a certified hit within w_max = {opts.w_max!r}"
        )
    polished = pmp.bang_polish(sys, tgt_a, best, y0, opts=opts.final)
    reason = "seed" if polished is best else "seed+polish"
    w_cert, sched_phys, traj = polished

    result = SolveResult(
        w=w_cert,
        schedule=sched_phys,
        classical=None,
        trajectory=traj,
        alpha=alpha,
        converged=True,
        reason=reason,
        terminal_distance=traj.hit.terminal_distance,
        system=sys,
        target=tgt_a,
    )
    if sys.control_set.is_convex:
        result.classical = classicalize(result)
    return result


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
            redo = _certify(sys, tgt.with_alpha(alphas[k - 1]), y0, results[k].schedule, opts)
            if redo is not None and redo[0] < ws[k - 1]:
                w_new, sched_new, traj_new = redo
                results[k - 1] = replace(
                    results[k - 1],
                    w=w_new,
                    schedule=sched_new,
                    trajectory=traj_new,
                    reason="ladder-repair",
                    terminal_distance=traj_new.hit.terminal_distance,
                )
                ws[k - 1] = w_new

    w_star = ws[-1]
    if len(ws) >= 3:
        d1 = ws[-2] - ws[-3]
        d2 = ws[-1] - ws[-2]
        if d1 > 0.0 and 0.0 < d2 < d1:
            r = d2 / d1
            w_star = ws[-1] + d2 * r / (1.0 - r)

    return LadderTrace(
        alphas=tuple(alphas),
        ws=tuple(ws),
        schedules=tuple(r.schedule for r in results),
        results=tuple(results),
        w_star=float(w_star),
    )
