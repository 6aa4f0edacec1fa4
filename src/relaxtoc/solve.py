"""Minimum-time solver over relaxed schedules on a unit grid stretched by w.

Decision variables are the horizon w together with the per-cell atoms and
weights of a relaxed schedule on a fixed grid over [0, 1]; the cells are
stretched by w, and the state follows the physical system
y' = f(t, y, sigma(t)) up to t = w.  The returned w is always defined by a
tight re-integration of the winning schedule, never by an optimizer's
iterate.

Affine systems with a ball or box control set are solved by seed -> certify
-> polish: the warm start and the greedy seed are certified by tight
re-integration, and the best of them is finished by the maximum-condition
fixed point from the verification module, which replaces each cell by the
argmax of the cell-averaged switching vector and keeps the result only when
the certified hit time does not get worse.  The hit time is flat in the
control to first order at the optimum, so that fixed point lands where
descent would crawl.

Every other system (finite control sets, non-affine dynamics) and a seed
that yields no certified hit fall back to multi-start projected gradient
descent on

    J = w + penalty * d(y(w), Q_alpha)^2

with Armijo backtracking and penalty continuation; gradients come from one
backward pass of the adjoint augmented with the running integrals that make
up the w/atom/weight sensitivities.  An early hit at t_h = w s_h < w
contracts w to t_h directly.  The singular target makes indirect shooting
ill-conditioned, so the descent never relies on the maximum principle to
find the basin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import errors, pmp
from ._rk import integrate_plain
from .dynamics import ControlSystem, FiniteSet, control_jacobian
from .integrate import HIT_TARGET, MAX_TIME, IntegratorOptions, Trajectory, integrate_forward
from .relaxed import ClassicalSchedule, RelaxedSchedule, filippov_select, project_simplex, relaxed_jacobian
from .target import TargetSet

# descent constants: continuation rounds, first penalty and its growth per
# round, iterations per round, relative gradient and step floors, and the
# smallest horizon a step may take
PENALTY_ROUNDS = 4
PENALTY0 = 10.0
PENALTY_GROWTH = 10.0
MAX_ITERS = 40
GRAD_TOL = 1e-7
STEP_TOL = 1e-10
W_MIN = 1e-6


@dataclass(frozen=True)
class SolveOptions:
    n_cells: int = 12
    n_atoms: int = 3
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


def _bang_atom(sys, t, y, direction, rng):
    """Atom maximizing the instantaneous drive along `direction`."""
    cs = sys.control_set
    if isinstance(cs, FiniteSet):
        scores = [float(direction @ sys.field(t, y, p)) for p in cs.points]
        return np.asarray(cs.points[int(np.argmax(scores))], dtype=float)
    fu = control_jacobian(sys, t, y, cs.project(np.zeros(sys.dim_control)))
    u, _, degenerate = pmp._linear_argmax(cs, fu.T @ direction, 1e-14)
    return cs.project(cs.boundary_sample(rng)) if degenerate else u


def _greedy_schedule(sys, tgt_a, y0, opts) -> RelaxedSchedule:
    rng = np.random.default_rng([opts.seed, 7])
    direction = _target_direction(sys, tgt_a, y0)
    atom = _bang_atom(sys, 0.0, np.asarray(y0, dtype=float), direction, rng)
    grid = np.linspace(0.0, 1.0, opts.n_cells + 1)
    atoms = np.tile(atom, (opts.n_cells, opts.n_atoms, 1))
    weights = np.full((opts.n_cells, opts.n_atoms), 1.0 / opts.n_atoms)
    return RelaxedSchedule(grid=grid, atoms=atoms, weights=weights)


def _random_schedule(sys, opts, idx) -> RelaxedSchedule:
    rng = np.random.default_rng([opts.seed, idx])
    grid = np.linspace(0.0, 1.0, opts.n_cells + 1)
    m = sys.dim_control
    atoms = np.empty((opts.n_cells, opts.n_atoms, m))
    for i in range(opts.n_cells):
        for k in range(opts.n_atoms):
            atoms[i, k] = sys.control_set.boundary_sample(rng)
    weights = rng.dirichlet(np.ones(opts.n_atoms), size=opts.n_cells)
    return RelaxedSchedule(grid=grid, atoms=atoms, weights=weights)


def _probe_w(sys, tgt_a, y0, sched_unit, opts):
    """Integrate the unit schedule stretched to w_max; returns a starting w."""
    phys = sched_unit.scaled_grid(opts.w_max)
    tr = integrate_forward(sys, phys, y0, tgt=tgt_a, t_max=opts.w_max, opts=opts.final.search)
    if tr.hit.status == HIT_TARGET:
        return min(tr.hit.time, opts.w_max), True
    if tr.hit.status == MAX_TIME:
        return opts.w_max, False
    return max(0.9 * tr.hit.time, 10.0 * W_MIN), False


def objective_gradient(
    sys: ControlSystem,
    tgt: TargetSet,
    schedule: RelaxedSchedule,
    w: float,
    y0,
    penalty: float = 1.0,
    opts: Optional[IntegratorOptions] = None,
):
    """Value and gradient of J = w + penalty*d(x(w), Q)^2.

    `schedule` lives on a unit grid stretched by w; the physical trajectory
    must reach t = w.  Returns (value, grad) with grad a dict holding d_w,
    d_atoms (N,K,m), d_weights (N,K), and the terminal distance.
    """
    opts = opts or IntegratorOptions()
    traj = integrate_forward(sys, schedule.scaled_grid(w), np.asarray(y0, dtype=float), tgt=None, t_max=w, opts=opts)
    if traj.hit.status != MAX_TIME:
        raise errors.SingularStall(
            f"trajectory ended with status {traj.hit.status!r} before t = w"
        )
    return _gradient_from_trajectory(sys, tgt, schedule, w, traj, penalty, opts)


def _terminal_seed(sys, tgt, y1, penalty):
    x1 = sys.target_coords(y1)
    d = float(tgt.distance(x1))
    gap = x1 - tgt.project(x1)
    lam = 2.0 * penalty * gap
    if sys.chart is not None:
        lam = sys.chart.gradient_jacobian(np.asarray(y1, dtype=float)) @ lam
    return d, lam


def _gradient_from_trajectory(sys, tgt, schedule, w, traj, penalty, opts):
    n = sys.dim_state
    m = sys.dim_control
    grid = schedule.grid
    N = len(grid) - 1
    K = schedule.atoms.shape[1]
    finite_u = isinstance(sys.control_set, FiniteSet)

    y1 = traj.final_state
    d_term, lam = _terminal_seed(sys, tgt, y1, penalty)
    value = w + penalty * d_term * d_term

    d_atoms = np.zeros((N, K, m))
    d_weights = np.zeros((N, K))
    i_w = 0.0
    affine = sys.affine is not None

    q = np.concatenate([lam, [0.0], np.zeros(K * m), np.zeros(K)])
    y_at = traj.cursor()
    for i in range(N - 1, -1, -1):
        s_hi, s_lo = float(grid[i + 1]), float(grid[i])
        if s_hi <= s_lo:
            continue
        atoms_i = schedule.atoms[i]
        mu_i = schedule.weights[i]
        # DOPRI5's last two stages share s + h: the second reuses the first's
        # fields and Jacobians
        at_s, at = None, None

        def rhs(s, qv):
            nonlocal at_s, at
            if s != at_s:
                t_phys = w * s
                y = y_at(t_phys)
                fk = np.stack([np.asarray(sys.field(t_phys, y, a), dtype=float) for a in atoms_i])
                jac = relaxed_jacobian(sys, t_phys, y, atoms_i, mu_i)
                if finite_u:
                    fus = None
                elif affine:
                    fus = [control_jacobian(sys, t_phys, y, atoms_i[0])] * K
                else:
                    fus = [control_jacobian(sys, t_phys, y, a) for a in atoms_i]
                at_s, at = s, (fk, mu_i @ fk, jac, fus)
            fk, F, jac, fus = at
            lam_s = qv[:n]
            out = np.empty_like(qv)
            out[:n] = -w * (jac @ lam_s)
            out[n] = -(lam_s @ F)
            if fus is None:
                out[n + 1 : n + 1 + K * m] = 0.0
            else:
                out[n + 1 : n + 1 + K * m] = np.concatenate(
                    [-w * mu_i[k] * (fus[k].T @ lam_s) for k in range(K)]
                )
            out[n + 1 + K * m :] = -w * (fk @ lam_s)
            return out

        lam_scale = max(1.0, float(np.linalg.norm(q[:n])))
        q = integrate_plain(
            rhs, s_hi, s_lo, q, rtol=opts.rtol, atol=opts.atol * lam_scale
        )
        i_w += q[n]
        d_atoms[i] = q[n + 1 : n + 1 + K * m].reshape(K, m)
        d_weights[i] = q[n + 1 + K * m :]
        q[n:] = 0.0

    grad = {
        "d_w": 1.0 + i_w,
        "d_atoms": d_atoms,
        "d_weights": d_weights,
        "terminal_distance": d_term,
    }
    return value, grad


def _eval_objective(sys, tgt_a, sched_unit, w, y0, penalty, opts):
    """(J, d_term, s_hit or None, trajectory).  Early hits report the hit time
    as a fraction s_hit of w."""
    traj = integrate_forward(sys, sched_unit.scaled_grid(w), y0, tgt=tgt_a, t_max=w, opts=opts)
    if traj.hit.status == HIT_TARGET:
        s_h = min(traj.hit.time / w, 1.0)
        if s_h < 1.0 - 1e-9:
            return w * s_h, traj.hit.terminal_distance, s_h, traj
        d = traj.hit.terminal_distance
        return w + penalty * d * d, d, None, traj
    if traj.hit.status != MAX_TIME:
        return np.inf, np.inf, None, traj
    d = float(tgt_a.distance(sys.target_coords(traj.final_state)))
    return w + penalty * d * d, d, None, traj


def _pack(w, atoms, weights):
    return np.concatenate([[w], atoms.ravel(), weights.ravel()])


def _unpack(theta, shape_a, shape_w):
    w = float(theta[0])
    na = int(np.prod(shape_a))
    atoms = theta[1 : 1 + na].reshape(shape_a)
    weights = theta[1 + na :].reshape(shape_w)
    return w, atoms, weights


def _project_params(theta, sys, opts, shape_a, shape_w, freeze_atoms):
    w, atoms, weights = _unpack(theta, shape_a, shape_w)
    w = float(np.clip(w, W_MIN, opts.w_max))
    if not freeze_atoms:
        atoms = np.stack(
            [
                np.stack([sys.control_set.project(a) for a in cell])
                for cell in atoms
            ]
        )
    weights = np.stack([project_simplex(row) for row in weights])
    return _pack(w, atoms, weights)


def _optimize_seed(sys, tgt_a, y0, sched0, opts):
    """Projected gradient descent from one seed; returns the best iterate."""
    grid = sched0.grid
    shape_a = sched0.atoms.shape
    shape_w = sched0.weights.shape
    freeze_atoms = isinstance(sys.control_set, FiniteSet)
    search = opts.final.search

    w, hit0 = _probe_w(sys, tgt_a, y0, sched0, opts)
    atoms = sched0.atoms.copy()
    weights = sched0.weights.copy()

    penalty = PENALTY0
    eta = 0.5
    best = None

    for _round in range(PENALTY_ROUNDS):
        sched = RelaxedSchedule(grid=grid, atoms=atoms, weights=weights)
        J, d_term, s_h, traj = _eval_objective(sys, tgt_a, sched, w, y0, penalty, search)
        while s_h is not None:
            w = max(w * s_h, W_MIN)
            J, d_term, s_h, traj = _eval_objective(sys, tgt_a, sched, w, y0, penalty, search)
        for _it in range(MAX_ITERS):
            if not np.isfinite(J):
                break
            _, grad = _gradient_from_trajectory(sys, tgt_a, sched, w, traj, penalty, search)
            g = _pack(grad["d_w"], grad["d_atoms"], grad["d_weights"])
            theta = _pack(w, atoms, weights)
            accepted = False
            for _bt in range(25):
                trial = _project_params(
                    theta - eta * g, sys, opts, shape_a, shape_w, freeze_atoms
                )
                step = trial - theta
                step_norm = float(np.linalg.norm(step))
                if step_norm <= STEP_TOL * (1.0 + float(np.linalg.norm(theta))):
                    break
                w_t, atoms_t, weights_t = _unpack(trial, shape_a, shape_w)
                sched_t = RelaxedSchedule(grid=grid, atoms=atoms_t, weights=weights_t)
                J_t, d_t, s_h, traj_t = _eval_objective(sys, tgt_a, sched_t, w_t, y0, penalty, search)
                if s_h is not None:
                    w_t = max(w_t * s_h, W_MIN)
                    J_t, d_t, s_h2, traj_t = _eval_objective(sys, tgt_a, sched_t, w_t, y0, penalty, search)
                    if s_h2 is not None:
                        w_t = max(w_t * s_h2, W_MIN)
                        J_t, d_t, _, traj_t = _eval_objective(sys, tgt_a, sched_t, w_t, y0, penalty, search)
                if J_t <= J - 1e-4 * step_norm * step_norm / max(eta, 1e-16):
                    w, atoms, weights = w_t, atoms_t, weights_t
                    sched, J, d_term, traj = sched_t, J_t, d_t, traj_t
                    accepted = True
                    eta = min(eta * 1.3, 10.0)
                    break
                eta *= 0.4
            if not accepted:
                break
            if float(np.linalg.norm(g)) <= GRAD_TOL * (1.0 + abs(J)):
                break
        penalty *= PENALTY_GROWTH
        best = (w, atoms.copy(), weights.copy(), d_term)
    return best


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
    """Certify seeds without descent: the warm start at its own physical span,
    the greedy seed at the hit time its probe reports."""
    outcomes = [] if init is None else [_certify(sys, tgt_a, y0, init, opts)]
    w, hit = _probe_w(sys, tgt_a, y0, greedy, opts)
    if hit:
        outcomes.append(_certify(sys, tgt_a, y0, greedy.scaled_grid(w), opts))
    return outcomes


def _descent_candidates(sys, tgt_a, y0, seeds, opts):
    """Multi-start projected gradient from the seeds plus random starts."""
    seeds = list(seeds)
    idx = 1
    while len(seeds) < max(opts.multi_starts, 1):
        seeds.append(_random_schedule(sys, opts, idx))
        idx += 1
    outcomes = []
    for sched0 in seeds[: max(opts.multi_starts, 1)]:
        best = _optimize_seed(sys, tgt_a, y0, sched0, opts)
        if best is not None:
            w, atoms, weights, _d = best
            sched = RelaxedSchedule(grid=sched0.grid, atoms=atoms, weights=weights)
            outcomes.append(_certify(sys, tgt_a, y0, sched.scaled_grid(w), opts))
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

    Affine systems with a ball or box control set take the certified seed;
    everything else, and a seed without a certified hit, take multi-start
    projected gradient.  The winner is polished by the maximum condition
    where the system allows it.  init, when given, is a schedule in physical
    time used as the first seed.  The result's reason names the certifying
    path: "seed", "seed+polish", "descent" or "descent+polish".  Raises
    AlphaOutOfRange when the start lies within the hit tolerance of the
    inflated target, and Infeasible when no seed yields a certified hit.
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

    seeds = []
    if init is not None:
        span = float(init.grid[-1] - init.grid[0])
        seeds.append(init.scaled_grid(1.0 / span) if span > 0 else init)
    seeds.append(_greedy_schedule(sys, tgt_a, y0, opts))

    best = None
    if pmp.polishable(sys):
        best = _best_candidate(_seed_candidates(sys, tgt_a, y0, init, seeds[-1], opts))
        path = "seed"
    if best is None:
        best = _best_candidate(_descent_candidates(sys, tgt_a, y0, seeds, opts))
        path = "descent"
    if best is None:
        raise errors.Infeasible(
            "no multi-start seed produced a certified target hit within the horizon"
        )
    polished = pmp.bang_polish(sys, tgt_a, best, y0, opts=opts.final)
    if polished is not None and polished is not best:
        best = polished
        path += "+polish"
    w_cert, sched_phys, traj = best

    result = SolveResult(
        w=w_cert,
        schedule=sched_phys,
        classical=None,
        trajectory=traj,
        alpha=alpha,
        converged=True,
        reason=path,
        terminal_distance=traj.hit.terminal_distance,
        system=sys,
        target=tgt_a,
    )
    if sys.affine is not None and sys.control_set.is_convex:
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
    rung_opts = opts
    for k, a in enumerate(alphas):
        res = solve_alpha(sys, tgt, y0, a, init=init, opts=rung_opts)
        results.append(res)
        init = res.schedule
        if k == 0:
            # later rungs refine the warm start; full multi-start only once
            rung_opts = replace(opts, multi_starts=2)

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
