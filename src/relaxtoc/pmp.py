"""Pontryagin-principle checks for candidate time-optimal triples.

The relaxed maximum principle asks for a nontrivial costate psi solving
psi' = -f_y(t, y(t), .) psi (gradient layout), with supp sigma(t) inside the
argmax set of u -> <psi(t), f(t, y(t), u)> a.e., and <psi(T), q - q(T)> >= 0
for every q in the (inflated) target.  verify() integrates the costate
backward from a normal-cone seed, normalizes |psi(0)| = 1, and fills a report
by sampling along the trajectory grid.  Nothing here certifies sufficiency;
the report measures how badly the necessary conditions fail.

Targets the state only reaches in the limit (a point target, or any set read
through a compactification chart) admit no terminal covector: the adjoint
norm vanishes as t -> T.  For those the seed is planted on a shrinking family
of pre-terminal times T - delta and the report carries the decay trend of
|psi| in place of a single terminal value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import errors
from .dynamics import BallSet, ControlSystem, FiniteSet, eval_field
from .integrate import (
    AdjointTrajectory,
    HIT_TARGET,
    IntegratorOptions,
    Trajectory,
    _norm,
    _resolve_cell,
    integrate_adjoint,
    integrate_forward,
)
from .relaxed import RelaxedSchedule, _cell_index, relaxed_field
from .target import Ball, HalfSpace, Hyperplane, Point, TargetSet, transformed_transversality_residual

# relative pre-terminal offsets T - delta * T of the adjoint seed family
DELTAS = (1e-2, 1e-3, 1e-4)
# relative distance within which a cell's mean control agrees with the argmax
AGREEMENT_TOL = 1e-3
# bang_polish runs at most POLISH_ROUNDS rounds (a costate sweep and a forward
# pass of the updated schedule each), and stops at the first round that does
# not cut w by POLISH_W_TOL (relative), or before the forward pass of a round
# whose argmax moves no atom by more than POLISH_ATOM_TOL (relative to the
# control set's scale): the schedule is then a fixed point of the maximum
# condition, and integrating it again would repeat the last hit up to roundoff
POLISH_ROUNDS = 29
POLISH_W_TOL = 1e-12
POLISH_ATOM_TOL = 64 * np.finfo(float).eps
# quenching conclusions: relative tolerance on the sign of y2(T), and the
# largest admitted ratio of consecutive covector norms on the delta family
SIGN_TOL = 1e-7
DECAY_RATIO = 0.7


class HamiltonianMax(NamedTuple):
    value: float
    control: np.ndarray
    degenerate: bool


def hamiltonian(sys: ControlSystem, t: float, y, psi, u) -> float:
    """<psi, f(t, y, u)>, guarded against evaluation on the singular set."""
    psi = np.asarray(psi, dtype=float)
    return float(psi @ eval_field(sys, t, y, u))


def relaxed_hamiltonian(sys: ControlSystem, t: float, y, psi, atoms, weights) -> float:
    """<psi, averaged field of the cell>; linear in the measure."""
    psi = np.asarray(psi, dtype=float)
    return float(psi @ relaxed_field(sys, t, y, atoms, weights))


def polishable(sys: ControlSystem) -> bool:
    """True for the systems bang_polish accepts: the control-affine ones,
    whose argmax over every control set (ball, box, finite) is closed-form."""
    return sys.affine is not None


def _linear_argmax(cs, q, tiny):
    """(u, <q, u>, degenerate) for a maximizer u of <q, u> over a ball, box
    or finite set.

    The ball answer is rho q / |q|, the box answer the componentwise sign
    rule (the midpoint where a component of q is zero), and the finite-set
    answer the first point with the largest <q, p>.  degenerate means that
    every control maximizes to within tiny: q is within tiny of zero for a
    ball or box (the ball then answers with its center), and all points of a
    finite set tie within tiny.
    """
    if isinstance(cs, FiniteSet):
        vals = cs.points @ q
        best = int(np.argmax(vals))
        return cs.points[best].copy(), float(vals[best]), float(vals[best] - vals.min()) <= tiny
    if isinstance(cs, BallSet):
        qn = _norm(q)
        if qn <= tiny or cs.radius == 0.0:
            return np.zeros(cs.dim), 0.0, qn <= tiny
        return (cs.radius / qn) * q, cs.radius * qn, False
    mid = 0.5 * (cs.lower + cs.upper)
    u = np.where(q > 0.0, cs.upper, np.where(q < 0.0, cs.lower, mid))
    return u, float(q @ u), float(np.max(np.abs(q))) <= tiny


def max_hamiltonian(sys: ControlSystem, t: float, y, psi) -> HamiltonianMax:
    """Maximize u -> <psi, f(t, y, u)> over the control set, in closed form.

    Finite sets are enumerated through the full field, so they work for any
    dynamics.  Ball and box sets require the affine decomposition
    f = g + B u: the maximizer is rho B^T psi / |B^T psi| for a ball and the
    componentwise sign rule for a box.  When B^T psi vanishes every control
    maximizes and the result is flagged degenerate (the principle says
    nothing at such times).
    """
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    cs = sys.control_set

    if isinstance(cs, FiniteSet):
        vals = [float(psi @ np.asarray(sys.field(t, y, u), dtype=float)) for u in cs.points]
        order = np.argsort(vals)[::-1]
        best = int(order[0])
        tie = len(vals) > 1 and vals[best] - vals[int(order[1])] <= 1e-12 * (1.0 + abs(vals[best]))
        return HamiltonianMax(vals[best], np.array(cs.points[best], dtype=float), tie)

    if not polishable(sys):
        raise errors.UnsupportedControlSet(
            "closed-form argmax over a ball or box needs a control-affine system"
        )
    g = np.asarray(sys.affine.drift(t, y), dtype=float)
    B = np.atleast_2d(np.asarray(sys.affine.input_matrix(t), dtype=float))
    base = float(psi @ g)
    scale = 1e-12 * (1.0 + _norm(psi)) * max(1.0, float(np.linalg.norm(B)))
    u_star, gain, degenerate = _linear_argmax(cs, B.T @ psi, scale)
    return HamiltonianMax(base + gain, u_star, degenerate)


# ---------------------------------------------------------------------------
# residual sampling


def _sample_grid(adjoint: AdjointTrajectory):
    """Midpoints of the shared trajectory/adjoint grid with their lengths."""
    ts = np.asarray(adjoint.times, dtype=float)
    mids = 0.5 * (ts[:-1] + ts[1:])
    lens = np.diff(ts)
    keep = lens > 0.0
    return mids[keep], lens[keep], ts, np.asarray(adjoint.psis, dtype=float)


def _psi_at(ts, psis, t):
    """Linear interpolation of the costate samples at the times in t, one row
    per time; elementwise, so each row equals the scalar formula's."""
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    th = ((t - ts[j]) / (ts[j + 1] - ts[j]))[:, None]
    return (1.0 - th) * psis[j] + th * psis[j + 1]


# ---------------------------------------------------------------------------
# terminal covector seeding


def _approach_direction(z_end, z_prev):
    step = z_end - z_prev
    n = float(np.linalg.norm(step))
    return step / n if n > 0.0 else None


def normal_cone_seed(tgt: TargetSet, z_end, z_prev) -> np.ndarray:
    """Unit covector psi with <psi, q - q*> >= 0 over the inflated target.

    Coordinates are the ones the target is expressed in.  z_prev disambiguates
    the approach side when the exit point is (numerically) on the target.
    """
    z_end = np.asarray(z_end, dtype=float)
    z_prev = np.asarray(z_prev, dtype=float)
    if isinstance(tgt, Hyperplane):
        side = np.sign(tgt.level - z_end[tgt.axis])
        if side == 0.0:
            side = np.sign(tgt.level - z_prev[tgt.axis]) or 1.0
        seed = np.zeros(z_end.size)
        seed[tgt.axis] = side
        return seed
    if isinstance(tgt, HalfSpace):
        return -tgt.normal
    if isinstance(tgt, (Ball, Point)):
        center = tgt.center if isinstance(tgt, Ball) else tgt.location
        gap = np.asarray(center, dtype=float) - z_end
        n = float(np.linalg.norm(gap))
        if n > 0.0:
            return gap / n
        direction = _approach_direction(z_end, z_prev)
        if direction is None:
            raise errors.ZeroTerminalCovector("no approach direction at the exit point")
        return direction
    raise errors.UnsupportedControlSet(f"no normal-cone seed rule for {type(tgt).__name__}")


def exit_covector(sys: ControlSystem, tgt: TargetSet, traj: Trajectory, t_end: float) -> np.ndarray:
    """Normal-cone covector at y(t_end), in state coordinates.

    The last stored sample before t_end fixes the approach side.  Chart
    systems read the target in chart coordinates, so the chart seed is
    pulled back through the chart Jacobian.
    """
    y_end = traj.interp(t_end)
    j = int(np.searchsorted(traj.times, t_end)) - 1
    y_prev = traj.states[max(j, 0)]
    seed = normal_cone_seed(tgt, sys.target_coords(y_end), sys.target_coords(y_prev))
    if sys.chart is None:
        return seed
    return sys.chart.gradient_jacobian(y_end) @ seed


def _preterminal_sweeps(sys, tgt, traj, schedule, t_bar, opts=None):
    """One backward pass seeded in the normal cone at each T - delta * T, delta
    from DELTAS: (the sweep seeded last, the covector norms at the seed times)."""
    t_ends = [t_bar * (1.0 - d) for d in DELTAS]
    seeds = np.array([exit_covector(sys, tgt, traj, t_end) for t_end in t_ends])
    sweeps = integrate_adjoint(sys, traj, schedule, seeds, t_end=t_ends, opts=opts)
    return sweeps[-1], [sweep.norm_at_end() for sweep in sweeps]


# ---------------------------------------------------------------------------
# the report


@dataclass
class PmpReport:
    """Residuals of the maximum-principle necessary conditions.

    All residuals are nonnegative; nontriviality is |psi(0)| and equals 1
    exactly under the default normalization.  terminal_decay is None for
    regular targets and a ((delta, |psi(T - delta)|), ...) trend for targets
    seeded on the shrinking pre-terminal family.  Times where the argmax is
    degenerate are excluded from bang_bang_agreement and accounted in
    degenerate_time_fraction.
    """

    hamiltonian_residual: float
    hamiltonian_scale: float
    support_violation_mass: float
    transversality_residual: float
    terminal_adjoint_norm: float
    nontriviality: float
    bang_bang_agreement: float
    degenerate_time_fraction: float
    seed_time: float
    terminal_decay: Optional[tuple]
    adjoint: AdjointTrajectory

    def to_json_dict(self) -> dict:
        return {
            "hamiltonian_residual": self.hamiltonian_residual,
            "hamiltonian_scale": self.hamiltonian_scale,
            "support_violation_mass": self.support_violation_mass,
            "transversality_residual": self.transversality_residual,
            "terminal_adjoint_norm": self.terminal_adjoint_norm,
            "nontriviality": self.nontriviality,
            "bang_bang_agreement": self.bang_bang_agreement,
            "degenerate_time_fraction": self.degenerate_time_fraction,
            "seed_time": self.seed_time,
            "terminal_decay": None
            if self.terminal_decay is None
            else [[d, n] for d, n in self.terminal_decay],
        }

    def summary(self) -> str:
        rows = [
            ("hamiltonian residual", f"{self.hamiltonian_residual:.3e}"),
            ("hamiltonian scale", f"{self.hamiltonian_scale:.3e}"),
            ("support violation mass", f"{self.support_violation_mass:.3e}"),
            ("transversality residual", f"{self.transversality_residual:.3e}"),
            ("terminal adjoint norm", f"{self.terminal_adjoint_norm:.3e}"),
            ("nontriviality |psi(0)|", f"{self.nontriviality:.6f}"),
            ("bang-bang agreement", f"{self.bang_bang_agreement:.4f}"),
            ("degenerate time fraction", f"{self.degenerate_time_fraction:.4f}"),
            ("seed time", f"{self.seed_time:.9g}"),
        ]
        if self.terminal_decay is not None:
            trend = ", ".join(f"{n:.3e} @ delta={d:.1e}" for d, n in self.terminal_decay)
            rows.append(("terminal decay", trend))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _unpack_triple(triple):
    if hasattr(triple, "trajectory"):
        return float(triple.w), triple.trajectory, triple.schedule
    w, traj, schedule = triple
    return float(w), traj, schedule


def verify(
    sys: ControlSystem,
    tgt: TargetSet,
    triple,
    adjoint_seed=None,
    opts: Optional[IntegratorOptions] = None,
) -> PmpReport:
    """Measure the maximum-principle residuals of a candidate triple.

    triple is (w, trajectory, schedule) or any object exposing those fields;
    the trajectory must have hit the target.  adjoint_seed is an explicit
    terminal covector, or None to derive one from the target geometry at the
    exit point.  Point targets and chart-read targets are seeded at the
    pre-terminal family T - delta * T, delta from DELTAS, and the |psi| trend
    is reported in terminal_decay.  The support-violation mass is the
    time-averaged weight on atoms whose H falls short of max H by more than
    1e-6 * (1 + sup |max H|), relative because H scales with both psi and the
    field: weight lambda parked on a strictly suboptimal atom for the whole
    horizon comes back as lambda.
    """
    w, traj, schedule = _unpack_triple(triple)
    if traj.hit is None or traj.hit.status != HIT_TARGET:
        raise errors.NotHit("maximum-principle verification needs a hitting trajectory")
    # the reported hit time extrapolates past the last stored sample; the
    # adjoint can only be seeded on the sampled range
    t_bar = min(float(traj.hit.time), float(traj.times[-1]))
    decay = None
    if adjoint_seed is None and (isinstance(tgt, Point) or sys.chart is not None):
        adjoint, norms = _preterminal_sweeps(sys, tgt, traj, schedule, t_bar, opts)
        decay = tuple((d * t_bar, n) for d, n in zip(DELTAS, norms))
    else:
        seed = exit_covector(sys, tgt, traj, t_bar) if adjoint_seed is None else adjoint_seed
        adjoint = integrate_adjoint(sys, traj, schedule, seed, t_end=t_bar, opts=opts)
    terminal_norm = adjoint.norm_at_end()

    # transversality at the exit point actually used for seeding
    t_end = adjoint.seed_time
    y_end = traj.interp(t_end)
    z_end = sys.target_coords(y_end)
    psi_end = np.asarray(adjoint.psis[-1], dtype=float)
    q_star = tgt.project(z_end)
    if sys.chart is None:
        transversality = tgt.transversality_residual(q_star, psi_end)
    else:
        transversality = transformed_transversality_residual(
            tgt, sys.chart.gradient_jacobian(y_end), q_star, psi_end
        )

    mids, lens, ts, psis = _sample_grid(adjoint)
    total = float(np.sum(lens)) if len(lens) else 1.0
    residual = 0.0
    sup_h = 0.0
    degenerate_time = 0.0
    agree_time = 0.0
    live_time = 0.0
    rows = []
    y_at = traj.cursor()
    for t, dt, psi in zip(mids, lens, _psi_at(ts, psis, mids)):
        y = y_at(t)
        atoms, weights = _resolve_cell(schedule, sys, t)
        best = max_hamiltonian(sys, t, y, psi)
        h_cand = relaxed_hamiltonian(sys, t, y, psi, atoms, weights)
        residual = max(residual, best.value - h_cand)
        sup_h = max(sup_h, abs(best.value))
        h_atoms = [float(psi @ np.asarray(sys.field(t, y, u), dtype=float)) for u in atoms]
        rows.append((dt, weights, h_atoms, best.value))
        if best.degenerate:
            degenerate_time += dt
            continue
        live_time += dt
        u_mean = weights @ atoms
        if float(np.linalg.norm(u_mean - best.control)) <= AGREEMENT_TOL * (
            1.0 + float(np.linalg.norm(best.control))
        ):
            agree_time += dt

    tol_h = 1e-6 * (1.0 + sup_h)
    mass = 0.0
    for dt, weights, h_atoms, h_max in rows:
        mass += dt * sum(lam for lam, hv in zip(weights, h_atoms) if hv < h_max - tol_h)
    return PmpReport(
        hamiltonian_residual=max(0.0, float(residual)),
        hamiltonian_scale=1.0 + float(sup_h),
        support_violation_mass=float(mass / total),
        transversality_residual=float(transversality),
        terminal_adjoint_norm=float(terminal_norm),
        nontriviality=adjoint.norm_at_zero(),
        bang_bang_agreement=float(agree_time / live_time) if live_time > 0.0 else 1.0,
        degenerate_time_fraction=float(degenerate_time / total),
        seed_time=float(adjoint.seed_time),
        terminal_decay=decay,
        adjoint=adjoint,
    )


# ---------------------------------------------------------------------------
# maximum-condition fixed point


def _cell_switching_vector(sys, adj, a, b):
    """Integral of B(t)^T psi(t) over [a, b] on the adjoint's own grid.

    The grid holds every time knot of B, so each trapezoid reads B one ulp
    inside its own interval: a left-continuous B read at a knot would smear
    the jump over the interval after it.
    """
    ts = np.asarray(adj.times, dtype=float)
    psis = np.asarray(adj.psis, dtype=float)
    inner = ts[(ts > a) & (ts < b)]
    pts = np.concatenate(([a], inner, [b]))
    psi = _psi_at(ts, psis, pts)
    B = sys.affine.input_matrix
    q = np.zeros(sys.dim_control)
    for k in range(len(pts) - 1):
        lo, hi = pts[k], pts[k + 1]
        q_lo = np.atleast_2d(B(np.nextafter(lo, hi))).T @ psi[k]
        q_hi = np.atleast_2d(B(np.nextafter(hi, lo))).T @ psi[k + 1]
        q += 0.5 * (hi - lo) * (q_lo + q_hi)
    return q


def _proposed_atoms(sys, adj, grid, t_end, atoms):
    """A copy of atoms (one row of atoms per cell of grid) with every atom of
    each cell set to the argmax of the cell's switching vector, read up to
    t_end; a cell whose argmax is degenerate (every control maximizes) keeps
    its atoms."""
    atoms = np.array(atoms, dtype=float, copy=True)
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), min(float(grid[i + 1]), t_end)
        if b <= a:
            continue
        q = _cell_switching_vector(sys, adj, a, b)
        u_i, _, degenerate = _linear_argmax(sys.control_set, q, 1e-14 * (b - a))
        if not degenerate:
            atoms[i, :, :] = u_i
    return atoms


def _control_scale(cs) -> float:
    """Largest control magnitude of a centered ball, a box or a finite set."""
    if isinstance(cs, BallSet):
        return float(cs.radius)
    if isinstance(cs, FiniteSet):
        return float(np.max(np.abs(cs.points)))
    return float(np.max(np.maximum(np.abs(cs.lower), np.abs(cs.upper))))


def _applies_same_control(sched, grid, atoms, tol) -> bool:
    """True when, on every cell of (grid, atoms), each atom of each cell of
    sched overlapping it lies within tol (max norm) of each of its atoms."""
    for i in range(len(grid) - 1):
        lo = _cell_index(sched.grid, np.nextafter(grid[i], grid[i + 1]))
        hi = _cell_index(sched.grid, grid[i + 1])
        old = sched.atoms[lo : hi + 1, :, None, :]
        if not np.max(np.abs(old - atoms[i][None, None])) <= tol:
            return False
    return True


def bang_polish(
    sys: ControlSystem,
    tgt: TargetSet,
    certified,
    y0,
    opts: Optional[IntegratorOptions] = None,
):
    """Refine a certified (w, schedule, trajectory) by iterating the maximum condition.

    Each round runs a backward costate sweep seeded in the target's normal
    cone at the exit of the best trajectory so far, replaces each cell's
    control by the argmax of the cell-averaged switching vector B^T psi (a
    cell whose argmax is degenerate keeps its control), and integrates the
    new schedule forward.  The sweep runs at opts.search, since its argmax is
    only a proposal, and the forward pass at opts, which certifies the
    proposal's hit time.  Gradient methods stall on this last stretch (the
    hit time is flat in the control to first order at the optimum), while
    the fixed point lands on the extremal of the piecewise-constant class
    directly.  Stops at the first round that does not cut w by POLISH_W_TOL,
    or before the forward pass when the new schedule applies the control the
    current one applies, to POLISH_ATOM_TOL, on every new cell (a fixed point
    of the maximum condition), and returns the best triple seen, which is
    `certified` itself when no round improves on it.  sys must be
    control-affine (polishable), with a ball, box or finite control set.
    certified is a hit: w is the hit time of the trajectory, the schedule
    integrated with opts (solve._certify makes one), so the polish starts at
    the costate sweep.  Every w returned is thus the hit time of a forward
    pass at opts.
    """
    opts = opts or IntegratorOptions()
    atom_tol = POLISH_ATOM_TOL * _control_scale(sys.control_set)
    best = certified
    w, sched, traj = certified
    n_cells = sched.weights.shape[0]
    for _ in range(POLISH_ROUNDS):
        t_end = min(w, float(traj.times[-1]))
        seed = exit_covector(sys, tgt, traj, t_end)
        try:
            adj = integrate_adjoint(sys, traj, sched, seed, t_end=t_end, opts=opts.search)
        except errors.Error:
            break
        grid = np.linspace(0.0, w, n_cells + 1)
        atoms = _proposed_atoms(sys, adj, grid, t_end, sched.atoms[:n_cells])
        if _applies_same_control(sched, grid, atoms, atom_tol):
            break
        sched = RelaxedSchedule(grid=grid, atoms=atoms, weights=np.array(sched.weights, copy=True))
        t_max = best[0] * 1.2 + 100.0 * opts.hit_tol
        try:
            traj = integrate_forward(sys, sched, y0, tgt=tgt, t_max=t_max, opts=opts)
        except errors.Error:
            break
        if traj.hit.status != HIT_TARGET:
            break
        w = float(traj.hit.time)
        improved = w < best[0] - POLISH_W_TOL * (1.0 + w)
        if w < best[0]:
            best = (w, sched, traj)
        if not improved:
            break
    return best


# ---------------------------------------------------------------------------
# example-specific conclusions


@dataclass
class QuenchingConclusions:
    """Terminal-state sign and adjoint-decay checks for the quenching problem.

    sign_ok records y2(T) >= -tol.  When y2(T) is strictly positive the
    costate must vanish at the quenching time; decay_norms holds
    |psi(T - delta)| on the shrinking family (normalized at t = 0) and
    decay_ok asks every consecutive ratio to drop below the threshold.  A
    terminal y2 at zero makes the decay claim vacuous and it is skipped.
    """

    ok: bool
    y2_terminal: float
    sign_ok: bool
    decay_skipped: bool
    decay_norms: tuple
    decay_ratios: tuple
    decay_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "y2_terminal": self.y2_terminal,
            "sign_ok": self.sign_ok,
            "decay_skipped": self.decay_skipped,
            "decay_norms": list(self.decay_norms),
            "decay_ratios": list(self.decay_ratios),
            "decay_ok": self.decay_ok,
        }


def quenching_conclusions(
    triple,
    *,
    sys: ControlSystem,
    tgt: TargetSet,
    opts: Optional[IntegratorOptions] = None,
) -> QuenchingConclusions:
    """Check the optimal-quenching conclusions on a candidate triple.

    The trajectory should approach the true singular line (tiny or zero
    inflation), since both conclusions concern the singular limit; one
    backward pass serves every pre-terminal time T - delta * T.
    """
    w, traj, schedule = _unpack_triple(triple)
    if sys.kind != "quenching":
        raise errors.NotQuenchingSystem(f"system kind is {sys.kind!r}, not 'quenching'")
    if traj.hit is None or traj.hit.status != HIT_TARGET:
        raise errors.NotHit("conclusions need a trajectory that reaches the singular line")

    t_bar = min(float(traj.hit.time), float(traj.times[-1]))
    y_end = traj.states[-1]
    y2_terminal = float(y_end[1])
    scale = 1.0 + float(np.linalg.norm(y_end))
    sign_ok = y2_terminal >= -SIGN_TOL * scale
    decay_skipped = y2_terminal <= SIGN_TOL * scale

    norms = []
    if not decay_skipped:
        _, norms = _preterminal_sweeps(sys, tgt, traj, schedule, t_bar, opts)
    ratios = tuple(b / a for a, b in zip(norms, norms[1:]) if a > 0.0)
    decay_ok = decay_skipped or (len(ratios) == len(norms) - 1 and all(r < DECAY_RATIO for r in ratios))
    return QuenchingConclusions(
        ok=bool(sign_ok and decay_ok),
        y2_terminal=y2_terminal,
        sign_ok=bool(sign_ok),
        decay_skipped=bool(decay_skipped),
        decay_norms=tuple(norms),
        decay_ratios=ratios,
        decay_ok=bool(decay_ok),
    )
