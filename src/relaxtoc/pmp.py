"""Pontryagin-principle checks for candidate time-optimal triples.

The relaxed maximum principle asks for a nontrivial costate psi solving
psi' = -f_y(t, y(t), .) psi (gradient layout), with supp sigma(t) inside the
argmax set of u -> <psi(t), f(t, y(t), u)> a.e., and <psi(T), q - q(T)> >= 0
for every q in the (inflated) target.  verify() integrates the costate
backward from a normal-cone seed, normalizes |psi(0)| = 1, and fills a report
by sampling along the trajectory grid.  Nothing here certifies sufficiency;
the report measures how badly the necessary conditions fail.

Every system is control-affine, f = g + B u, so H(u) = <psi, g> +
<B^T psi, u> and the maximum condition is the control set's own linear
argmax, which verify() and bang_polish() both read: the checker reads the
condition the solver imposes.  The target owns its normal cone
(exit_normal), and the system carries covectors between coordinates.

Targets the state only reaches in the limit (a point target, or any set read
through a compactification chart) admit no terminal covector: the adjoint
norm vanishes as t -> T.  For those the seed is planted on a shrinking family
of pre-terminal times T - delta and the report carries the decay trend of
|psi| in place of a single terminal value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from . import errors
from .dynamics import ControlSystem
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
from .relaxed import RelaxedSchedule
from .target import TargetSet

# relative pre-terminal offsets T - delta * T of the adjoint seed family
DELTAS = (1e-2, 1e-3, 1e-4)
# relative distance within which a cell's mean control agrees with the argmax
AGREEMENT_TOL = 1e-3
# bang_polish runs at most POLISH_ROUNDS rounds (a costate sweep and a forward
# pass of the updated schedule each).  It stops before the forward pass of a
# round whose proposal is predicted to move the exit point by at most hit_tol
# along the target's exit normal: the forward pass locates the hit only to
# within hit_tol, so it could not resolve the move.  It stops after the
# forward pass of a round that does not cut w by POLISH_W_TOL (relative).
POLISH_ROUNDS = 29
POLISH_W_TOL = 1e-12
# quenching conclusions: relative tolerance on the sign of y2(T), and the
# largest admitted ratio of consecutive covector norms on the delta family
SIGN_TOL = 1e-7
DECAY_RATIO = 0.7


class HamiltonianMax(NamedTuple):
    """max_u H(u) = base + <switching, control>, with base = <psi, g> and
    switching = B^T psi."""

    value: float
    control: np.ndarray
    degenerate: bool
    base: float
    switching: np.ndarray


def max_hamiltonian(sys: ControlSystem, t: float, y, psi) -> HamiltonianMax:
    """Maximize u -> <psi, f(t, y, u)> over the control set, in closed form.

    With f = g + B u, H(u) = <psi, g> + <B^T psi, u>, maximized by the
    control set's argmax (rho B^T psi / |B^T psi| for a ball, the sign rule
    for a box, the first best point of a finite set).  When every control
    maximizes, to within roundoff of psi and B, the result is flagged
    degenerate (the principle says nothing at such times).
    """
    y = np.asarray(y, dtype=float)
    psi = np.asarray(psi, dtype=float)
    g = np.asarray(sys.affine.drift(t, y), dtype=float)
    B = np.atleast_2d(np.asarray(sys.affine.input_matrix(t), dtype=float))
    base = float(psi @ g)
    switching = B.T @ psi
    scale = 1e-12 * (1.0 + _norm(psi)) * max(1.0, float(np.linalg.norm(B)))
    u_star, gain, degenerate = sys.control_set.argmax(switching, scale)
    return HamiltonianMax(base + gain, u_star, degenerate, base, switching)


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


def exit_covector(sys: ControlSystem, tgt: TargetSet, traj: Trajectory, t_end: float) -> np.ndarray:
    """Normal-cone covector at y(t_end), in state coordinates.

    The target picks the covector in its own coordinates (exit_normal), the
    last stored sample before t_end fixing the approach side, and the system
    carries it back to state coordinates.
    """
    y_end = traj.interp(t_end)
    j = int(np.searchsorted(traj.times, t_end)) - 1
    y_prev = traj.states[max(j, 0)]
    seed = tgt.exit_normal(sys.target_coords(y_end), sys.target_coords(y_prev))
    return sys.covector_to_state(y_end, seed)


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

    All residuals are nonnegative; psi is always normalized at 0, so
    nontriviality, |psi(0)|, is 1 up to roundoff.  terminal_decay is None for
    regular targets and a ((delta, |psi(T - delta)|), ...) trend for targets
    seeded on the shrinking pre-terminal family.  Times where the argmax is
    degenerate (every control maximizes: B^T psi vanishes for a ball or box,
    every point of a finite set ties) are excluded from bang_bang_agreement
    and accounted in degenerate_time_fraction.
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


def _unpack_triple(triple):
    """(trajectory, schedule) of a (w, trajectory, schedule) triple or a SolveResult."""
    if hasattr(triple, "trajectory"):
        return triple.trajectory, triple.schedule
    _, traj, schedule = triple
    return traj, schedule


def verify(
    sys: ControlSystem,
    tgt: TargetSet,
    triple,
    opts: Optional[IntegratorOptions] = None,
) -> PmpReport:
    """Measure the maximum-principle residuals of a candidate triple.

    triple is (w, trajectory, schedule) or any object exposing those fields;
    the trajectory must have hit the target.  The costate is seeded in the
    target's normal cone at the exit point (exit_covector) and normalized so
    |psi(0)| = 1.  Targets with seeds_preterminal (a Point) and chart-read
    targets are seeded at the pre-terminal family T - delta * T, delta from
    DELTAS, and the |psi| trend is reported in terminal_decay.
    Transversality is tested in the target's coordinates, on the covector
    sys.covector_to_target carries there.  The support-violation mass is the
    time-averaged weight on atoms whose H falls short of max H by more than
    1e-6 * (1 + sup |max H|), relative because H scales with both psi and the
    field: weight lambda parked on a strictly suboptimal atom for the whole
    horizon comes back as lambda.  H is read from the affine structure
    exactly as bang_polish reads it (see max_hamiltonian).
    """
    traj, schedule = _unpack_triple(triple)
    if traj.hit is None or traj.hit.status != HIT_TARGET:
        raise errors.NotHit("maximum-principle verification needs a hitting trajectory")
    # the reported hit time extrapolates past the last stored sample (the
    # event), and the adjoint can only be seeded on the sampled range
    t_bar = float(traj.times[-1])
    decay = None
    if tgt.seeds_preterminal or sys.chart is not None:
        adjoint, norms = _preterminal_sweeps(sys, tgt, traj, schedule, t_bar, opts)
        decay = tuple((d * t_bar, n) for d, n in zip(DELTAS, norms))
    else:
        seed = exit_covector(sys, tgt, traj, t_bar)
        adjoint = integrate_adjoint(sys, traj, schedule, seed, t_end=t_bar, opts=opts)
    terminal_norm = adjoint.norm_at_end()

    # transversality at the exit point actually used for seeding
    t_end = adjoint.seed_time
    y_end = traj.interp(t_end)
    z_end = sys.target_coords(y_end)
    psi_end = np.asarray(adjoint.psis[-1], dtype=float)
    q_star = tgt.project(z_end)
    transversality = tgt.transversality_residual(q_star, sys.covector_to_target(y_end, psi_end))

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
        u_mean = weights @ atoms
        residual = max(residual, best.value - (best.base + float(best.switching @ u_mean)))
        sup_h = max(sup_h, abs(best.value))
        rows.append((dt, weights, best.base + atoms @ best.switching, best.value))
        if best.degenerate:
            degenerate_time += dt
            continue
        live_time += dt
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


def _piece_integrals(sys, adj, cuts):
    """Integrals of B(t)^T psi(t) over the pieces [cuts[k], cuts[k + 1]], one
    row per piece, by the trapezoid rule on the adjoint's grid refined by the
    cuts (strictly increasing, inside the adjoint's range), in one pass.

    The grid holds every time knot of B, so each trapezoid reads B one ulp
    inside its own interval: a left-continuous B read at a knot would smear
    the jump over the interval after it.
    """
    ts = np.asarray(adj.times, dtype=float)
    psis = np.asarray(adj.psis, dtype=float)
    pts = np.union1d(cuts, ts[(ts > cuts[0]) & (ts < cuts[-1])])
    psi = _psi_at(ts, psis, pts)[:, None, :]
    lo, hi = pts[:-1], pts[1:]
    B = sys.affine.input_matrix
    q_lo = (psi[:-1] @ B.at(np.nextafter(lo, hi)))[:, 0]
    q_hi = (psi[1:] @ B.at(np.nextafter(hi, lo)))[:, 0]
    q = (0.5 * (hi - lo))[:, None] * (q_lo + q_hi)
    return np.add.reduceat(q, np.searchsorted(pts, cuts[:-1]))


def _propose(sys, adj, sched, grid, t_end):
    """One polish round's proposal and the exit displacement it predicts.

    The proposal is a copy of sched's atoms with every atom of each cell of
    grid set to the argmax of the cell's switching vector, read up to t_end;
    a cell whose argmax is degenerate (every control maximizes) keeps its
    atoms.  Cutting [0, t_end] at the knots of grid and of sched gives
    pieces that each lie in one cell of either, and a cell's switching
    vector is the sum of its pieces'.  The displacement is the first-order
    change of psi(T) . y(T) that the proposal makes,
    D = sum over pieces of q . (u_new - u_old) in the raw scale of the seed
    (q the piece's integral of B^T psi, u the cell's mean control): with
    the target's unit exit normal as the seed, the distance the exit point
    moves along it.  D >= 0 up to roundoff, since each cell takes its
    argmax, and D = 0 for a proposal that reproduces sched.

    Returns (atoms, D).
    """
    knots = np.concatenate((grid, sched.grid))
    cuts = np.union1d(knots[(knots > 0.0) & (knots < t_end)], [0.0, t_end])
    q = _piece_integrals(sys, adj, cuts)
    # the cell of each piece on either grid, by the left-continuous rule of
    # relaxed._cell_index read at the piece's end
    new = np.searchsorted(grid, cuts[1:], side="left") - 1
    old = np.clip(np.searchsorted(sched.grid, cuts[1:], side="left") - 1, 0, sched.cells - 1)
    q_cell = np.zeros((len(grid) - 1, q.shape[1]))
    np.add.at(q_cell, new, q)
    atoms = np.array(sched.atoms, dtype=float, copy=True)
    for i in range(len(grid) - 1):
        a, b = float(grid[i]), min(float(grid[i + 1]), t_end)
        if b <= a:
            continue
        u_i, _, degenerate = sys.control_set.argmax(q_cell[i], 1e-14 * (b - a))
        if not degenerate:
            atoms[i, :, :] = u_i
    u_new = (sched.weights[:, None, :] @ atoms)[:, 0]
    u_old = (sched.weights[:, None, :] @ sched.atoms)[:, 0]
    shift = float(np.sum(q * (u_new[new] - u_old[old]))) / adj.normalization
    return atoms, shift


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
    directly.  Stops before the forward pass of a round whose proposal
    moves the exit point by at most opts.hit_tol to first order (the
    displacement D of _propose: psi(T) . delta y(T) = integral of
    psi^T B delta u, with psi seeded at the target's unit exit normal), which
    no forward pass at opts can resolve; a proposal that reproduces the
    current schedule predicts D = 0.  Stops after the forward pass of a round
    that does not cut w by POLISH_W_TOL.  Returns the best triple seen, which
    is `certified` itself when no round improves on it.  sys has a ball, box or
    finite control set.  certified is a hit: w is the hit time of the
    trajectory, the schedule integrated with opts (solve._certify makes
    one), so the polish starts at the costate sweep.  Every w returned is
    thus the hit time of a forward pass at opts.
    """
    opts = opts or IntegratorOptions()
    best = certified
    w, sched, traj = certified
    n_cells = sched.weights.shape[0]
    for _ in range(POLISH_ROUNDS):
        t_end = float(traj.times[-1])
        seed = exit_covector(sys, tgt, traj, t_end)
        try:
            adj = integrate_adjoint(sys, traj, sched, seed, t_end=t_end, opts=opts.search)
        except errors.Error:
            break
        grid = np.linspace(0.0, w, n_cells + 1)
        atoms, shift = _propose(sys, adj, sched, grid, t_end)
        if shift <= opts.hit_tol:
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
    traj, schedule = _unpack_triple(triple)
    if sys.kind != "quenching":
        raise errors.NotQuenchingSystem(f"system kind is {sys.kind!r}, not 'quenching'")
    if traj.hit is None or traj.hit.status != HIT_TARGET:
        raise errors.NotHit("conclusions need a trajectory that reaches the singular line")

    t_bar = float(traj.times[-1])
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


def continue_to_singular_line(
    sys: ControlSystem, tgt: TargetSet, schedule, y0, w: float, opts: Optional[IntegratorOptions] = None
) -> Trajectory:
    """Run a schedule that won on an inflated target on to the true one,
    tgt.with_alpha(0), for up to 1.5 w + 0.1: the quenching conclusions
    concern the singular limit, so they read this pass.

    The pass resolves the hit to no less than 1e-6: the approach to the
    singular line is sqrt-like, which caps the hit band it can resolve.
    """
    opts = opts or IntegratorOptions()
    cont_opts = replace(opts, hit_tol=max(opts.hit_tol, 1e-6))
    return integrate_forward(sys, schedule, y0, tgt=tgt.with_alpha(0.0), t_max=1.5 * w + 0.1, opts=cont_opts)
