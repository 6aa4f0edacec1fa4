"""Adaptive forward integration with target-hit events, plus adjoint sweeps.

The forward driver runs an embedded Runge-Kutta 4/5 pair and stops at the
first time the distance to the (inflated) target drops to the hit tolerance.
The crossing is localized by bisection on the distance along the dense output
of the final step, then sharpened by one linear extrapolation of the distance
decay rate to distance zero; the stored terminal sample stays on the computed
trajectory, so its distance is at most the hit tolerance.  A step whose dense
output provably stays clear of the target (`_step_clears`) skips the scan.
The proof bounds the distance's change per unit of the integration
coordinates by L: 1 where the target reads them, the chart's jacobian bound
where a chart system outside its chart reads the target through the chart.

The steps come from the one step loop, `_rk.steps`, which lands on every
control and system time knot and restarts the pair past it: each leg's rhs
closure is built for the leg's cell, and its first stage is evaluated one
ulp inside the leg, where left-continuous signals already read the new cell.
The trajectory keeps both derivatives at such a sample: `derivs` (the left
limit, what the step into it ended with) and `start_derivs` (what the leg
out of it started from, the one dense output uses).

Systems with a compactification chart integrate in chart coordinates outside
the switch radius (hysteresis band [r1, 2 r1]); for such systems the target
is interpreted in chart coordinates.  A chart switch restarts the steps at
the switch time, with the step budget of the pass.  A step size below the
step loop's stall floor near a singular set is reported as a "singular-stall"
status, never as a crash.

Stop sets are approached geometrically (`_approach_cap`, the step loop's cap
on the first trial at each position): while the distance to the target, or
in the chart |z| to the divergence band around z = 0, is shrinking, one step
covers at most 0.8 of the way to a quarter of the band, so no step jumps
across the set and is rejected for it.  L lets the cap skip reading the
rate when the step cannot cover the room.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _rk, errors
from .dynamics import ControlSystem

HIT_TARGET = "hit-target"
MAX_TIME = "max-time"
SINGULAR_STALL = "singular-stall"
DIVERGED = "diverged"

# states past this norm (chart states below its chart image) count as diverged
DIVERGENCE_RADIUS = 1e12


@dataclass(frozen=True)
class IntegratorOptions:
    rtol: float = 1e-9
    atol: float = 1e-11
    hit_tol: float = 1e-8
    max_steps: int = 500_000

    @property
    def search(self) -> "IntegratorOptions":
        """These options loosened to rtol >= 1e-7 and atol >= 1e-9, for passes
        whose output is a proposal that a pass at these options certifies."""
        return dataclasses.replace(self, rtol=max(self.rtol, 1e-7), atol=max(self.atol, 1e-9))


@dataclass
class HitInfo:
    status: str
    time: float
    terminal_distance: float


@dataclass(eq=False)
class Trajectory:
    """Accepted samples of one integration, always in original coordinates.

    in_chart[i] tells whether the segment starting at sample i was integrated
    in chart coordinates; interpolation honors that so dense evaluation keeps
    the accuracy of the underlying representation.  derivs[i] is the
    derivative the step into sample i ended with (the left limit at a knot);
    start_derivs[i] is the one the segment out of sample i started from (the
    right limit), and the two differ only at knots and chart switches.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    start_derivs: np.ndarray
    in_chart: np.ndarray
    hit: HitInfo
    chart: object = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def segment_of(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self.times) - 2)

    def interp(self, t: float) -> np.ndarray:
        if len(self.times) == 1:
            return self.states[0].copy()
        return self._dense(self.segment_of(t), t)

    def cursor(self):
        """A function equal to interp, bit for bit, for callers whose t moves
        mostly one way (a backward sweep, a loop over midpoints).

        It finds the segment by stepping from the one it found last, with
        segment_of's side="right" rule and clamp, instead of a binary search
        per call; t may move either way.  It reads the samples from lists,
        converted once, and a segment integrated in the chart through
        _dense.
        """
        if len(self.times) == 1:
            return lambda t: self.states[0].copy()
        times = self.times.tolist()
        states = self.states.tolist()
        starts = self.start_derivs.tolist()
        ends = self.derivs.tolist()
        charted = (self.in_chart & (self.chart is not None)).tolist()
        last = len(times) - 2
        i = 0

        def at(t):
            nonlocal i
            while i < last and times[i + 1] <= t:
                i += 1
            while i > 0 and times[i] > t:
                i -= 1
            if charted[i]:
                return self._dense(i, t)
            return _rk.hermite(times[i], states[i], starts[i], times[i + 1], states[i + 1], ends[i + 1], t)

        return at

    def _dense(self, i: int, t: float) -> np.ndarray:
        """Dense output on segment i, in the coordinates it was integrated in."""
        ta, tb = self.times[i], self.times[i + 1]
        ya, yb = self.states[i], self.states[i + 1]
        fa, fb = self.start_derivs[i], self.derivs[i + 1]
        if self.in_chart[i] and self.chart is not None:
            za, zb = self.chart.to_chart(ya), self.chart.to_chart(yb)
            ga, gb = self.chart.push_velocity(ya, fa), self.chart.push_velocity(yb, fb)
            z = _rk.hermite(ta, za.tolist(), ga.tolist(), tb, zb.tolist(), gb.tolist(), t)
            return self.chart.from_chart(z)
        return _rk.hermite(ta, ya.tolist(), fa.tolist(), tb, yb.tolist(), fb.tolist(), t)

    def switch_times(self):
        flips = np.nonzero(self.in_chart[1:] != self.in_chart[:-1])[0]
        return tuple(float(self.times[i + 1]) for i in flips)

    def write_csv(self, path, adjoint: "AdjointTrajectory" = None) -> None:
        n = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            header = ["t"] + [f"y{i}" for i in range(n)] + [f"dy{i}" for i in range(n)]
            header.append("in_chart")
            if adjoint is not None:
                header += [f"psi{i}" for i in range(n)]
            w.writerow(header)
            psi_lookup = None
            if adjoint is not None:
                psi_lookup = {float(t): p for t, p in zip(adjoint.times, adjoint.psis)}
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"]
                row += [f"{v:.17g}" for v in self.states[i]]
                row += [f"{v:.17g}" for v in self.derivs[i]]
                row.append(str(int(self.in_chart[i])))
                if psi_lookup is not None:
                    psi = psi_lookup.get(float(t))
                    row += [f"{v:.17g}" for v in psi] if psi is not None else [""] * n
                w.writerow(row)


@dataclass(eq=False)
class AdjointTrajectory:
    """Backward costate samples sharing times with a forward trajectory,
    scaled by normalization so that |psi(0)| = 1."""

    times: np.ndarray
    psis: np.ndarray
    seed_time: float
    seed: np.ndarray
    normalization: float

    def norm_at_end(self) -> float:
        return float(np.linalg.norm(self.psis[-1]))

    def norm_at_zero(self) -> float:
        return float(np.linalg.norm(self.psis[0]))


def _resolve_cell(control, sys, t_mid):
    """(atoms, weights) active at t_mid; None control means u = 0."""
    if control is None:
        return np.zeros((1, sys.dim_control)), np.ones(1)
    return control.cell_at(t_mid)


def _cell_rhs(sys, atoms, weights, mode, chart, seg_end):
    """Guarded rhs closure for one (control cell, coordinate mode) segment,
    the one ending at seg_end.

    B u_mean is formed once, from B(seg_end): B is a left-continuous
    PiecewiseConstant whose knots are time knots of the system (ControlSystem
    checks both), segments end at every time knot, so B reads a single cell
    over the segment, and every stage is drift(t, y) + B u_mean.  Callers
    evaluate the closure under np.errstate(all="ignore"): an overflow shows
    up as a non-finite stage, which raises _rk.StageFailure and rejects the step.
    """
    drift = sys.affine.drift
    Bu = sys.affine.input_matrix(seg_end) @ (weights @ atoms)

    def base_field(t, y):
        out = drift(t, y) + Bu
        if not _rk.finite(out):
            raise _rk.StageFailure
        return out

    if not mode:
        return base_field

    def chart_field(t, z):
        nz = float(np.sqrt(z @ z))
        if not (nz > 0.0) or not math.isfinite(nz):
            raise _rk.StageFailure
        y = chart.from_chart(z)
        v = base_field(t, y)
        out = chart.push_velocity(y, v)
        if not _rk.finite(out):
            raise _rk.StageFailure
        return out

    return chart_field


def _bisect(g, t_lo, t_hi, width):
    """Shrink [t_lo, t_hi] with g(t_lo) False, g(t_hi) True; returns bracket."""
    for _ in range(60):
        if t_hi - t_lo <= width:
            break
        mid = 0.5 * (t_lo + t_hi)
        if g(mid):
            t_hi = mid
        else:
            t_lo = mid
    return t_lo, t_hi


_INV_PHI = 0.5 * (np.sqrt(5.0) - 1.0)


def _golden_min(g, a, b, iters=48):
    """Golden-section minimum of g on [a, b]; returns (argmin, min)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc <= gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = g(d)
    return (c, gc) if gc <= gd else (d, gd)


def _norm(v) -> float:
    return math.sqrt(float(v @ v))


def _target_scale(tgt) -> float:
    """Sum of the magnitudes of a target's parameters: with the state's, it
    sets the size of the roundoff in a computed distance."""
    return sum(float(np.max(np.abs(getattr(tgt, f.name)))) for f in dataclasses.fields(tgt))


def _step_clears(d0, d1, y0, f0, y1, f1, h, hit_tol, tgt_scale, lip=None):
    """True when the dense output of the step provably stays farther than
    hit_tol from the target, so its event scan cannot trigger.

    d0 and d1 are the distances at the step's ends.  The cubic Hermite on the
    step is the Bezier curve with control points y0, y0 + h f0 / 3,
    y1 - h f1 / 3 and y1, so it stays in their convex hull; every hull point
    lies within R0 of y0 and within R1 of y1, the largest distance from that
    end to a control point.  When the distance reads y itself (lip None),
    it is 1-Lipschitz (every TargetSet.distance is), so along the step it is
    at least max(d0 - R0, d1 - R1).  When it reads y through a map whose
    jacobian norm over |y| >= r is at most lip(r) (a chart's
    jacobian_bound), the hull lies in the convex ball of radius R0 about y0,
    where |y| >= |y0| - R0, so the mean-value bound turns R0 into
    L0 R0 = lip(|y0| - R0) R0 along the whole curve, and R1 into L1 R1.

    The bound must clear hit_tol by a margin far above the roundoff of the
    scan's own samples and distances, in the distance's units: a dense
    sample is off by a few ulps of |y0| + |y1 - y0| + |a| + |b|, which the
    map carries at most max(L0, L1) times over, its own image is off by a
    few ulps of |G(y)| <= L0 |y|, and the distance adds a few ulps of the
    target's parameters.  With lip None the factors are exactly 1.
    """
    third = h / 3.0
    # squared norms of a = h f0 / 3, b = h f1 / 3, y1 - y0, y1 - y0 - b,
    # y1 - y0 - a and y0, in one pass over the components
    sa = sb = sdy = sdb = sda = sy0 = 0.0
    for p, fp, q, fq in zip(y0.tolist(), f0.tolist(), y1.tolist(), f1.tolist()):
        a = third * fp
        b = third * fq
        dy = q - p
        sa += a * a
        sb += b * b
        sdy += dy * dy
        sdb += (dy - b) * (dy - b)
        sda += (dy - a) * (dy - a)
        sy0 += p * p
    na, nb, ndy = math.sqrt(sa), math.sqrt(sb), math.sqrt(sdy)
    r0 = max(na, math.sqrt(sdb), ndy)
    r1 = max(ndy, math.sqrt(sda), nb)
    l0 = l1 = 1.0
    if lip is not None:
        l0, l1 = lip(math.sqrt(sy0) - r0), lip(_norm(y1) - r1)
    lm = max(l0, l1)
    margin = 1e-12 * (1.0 + tgt_scale + lm * math.sqrt(sy0) + lm * ndy + lm * 3.0 * (na + nb))
    return max(d0 - l0 * r0, d1 - l1 * r1) > hit_tol + margin


def _approach_cap(h, gap, band, v, rate_of, factor=1.0):
    """h capped so that one step cannot overshoot a stop set.

    gap is the distance to the set, band its tolerance, v the velocity and
    rate_of() the rate of change of the gap.  While the gap is shrinking, a
    step covers at most 0.8 of the way to a quarter of the band, so the
    approach resolves geometrically.  factor bounds the jacobian norm of the
    map the gap reads the integration coordinates through (1 when it reads
    them directly), so -rate <= factor |v|, and the cap cannot bind while
    h factor |v| is below the room: rate_of is then not read.
    """
    room = 0.8 * max(gap - 0.25 * band, 0.25 * band)
    if room >= h * factor * _norm(v) * (1.0 + 1e-7):
        return h
    rate = rate_of()
    return min(h, room / -rate) if rate < 0.0 else h


def _scan_step(dense, t, h, y0, y1, d0, d1, distance, signed_of, hit_tol):
    """First target event of an accepted step: (time, "hit") or None.

    dense(tau) is the dense output of the step of size h from t, which
    starts at y0 with distance d0 and ends at y1 with distance d1.  Three
    interior samples are checked, an interior dip is followed to its
    golden-section minimum (the step may graze the target between samples),
    and for flat targets a sign change of signed_of flags a pass straight
    through; the entry into the hit tolerance is then located by bisection.
    """
    t_new = t + h
    taus = [t] + [t + th * h for th in (0.25, 0.5, 0.75)] + [t_new]
    # the interior dense states serve the distance and the signed scan
    pts = [y0] + [y1 if tau == t_new else dense(tau) for tau in taus[1:4]] + [y1]
    dvals = [d0] + [distance(s) for s in pts[1:4]] + [d1]

    def entry(lo_t, hi_t):
        _, hi = _bisect(
            lambda x: distance(dense(x)) <= hit_tol, lo_t, hi_t, 1e-15 * max(1.0, abs(hi_t))
        )
        return hi, "hit"

    for j in range(1, len(taus)):
        if dvals[j] <= hit_tol:
            return entry(taus[j - 1], taus[j])
    j = 1 + int(np.argmin(dvals[1:4]))
    if dvals[j] < dvals[0] and dvals[j] < dvals[-1]:
        tau_m, d_m = _golden_min(lambda x: distance(dense(x)), taus[j - 1], taus[j + 1])
        if d_m <= hit_tol:
            return entry(taus[0], tau_m)
    if signed_of is not None:
        svals = [signed_of(s) for s in pts]
        for j in range(1, len(taus)):
            if svals[j - 1] * svals[j] < 0.0:
                _, cross = _bisect(
                    lambda x: signed_of(dense(x)) * svals[j - 1] <= 0.0,
                    taus[j - 1],
                    taus[j],
                    1e-15 * max(1.0, abs(taus[j])),
                )
                return entry(taus[j - 1], cross)
    return None


def integrate_forward(
    sys: ControlSystem,
    control,
    y0,
    tgt=None,
    t_max: float = 1.0,
    opts: Optional[IntegratorOptions] = None,
) -> Trajectory:
    """Integrate y' = f(t, y, u(t)) from t = 0, stopping at the first target hit.

    control is a relaxed or classical schedule (or None for u = 0); tgt is an
    inflated target set, interpreted in chart coordinates when the system has
    a compactification chart.  Statuses: hit-target, max-time, singular-stall,
    diverged.
    """
    opts = opts or IntegratorOptions()
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    y0 = np.asarray(y0, dtype=float).copy()
    chart = sys.chart
    r1 = chart.effective_r1(float(np.linalg.norm(y0))) if chart is not None else None

    def distance_of(state, mode):
        if tgt is None:
            return np.inf
        try:
            z = state if mode else (chart.to_chart(state) if chart is not None else state)
        except errors.InnerRegion:
            return np.inf
        return tgt.distance(z)

    signed_of = tgt.signed_gap if chart is None and tgt is not None else None
    # in the chart, |z| -> 0 is |y| -> infinity: this band around z = 0 is a
    # stop set like the target.  It sits above atol: past z = 0 the chart
    # field flips sign, so the solution chatters at the atol scale and would
    # never reach a narrower band.
    if chart is not None:
        band = max(DIVERGENCE_RADIUS ** (-chart.gamma), 10.0 * opts.atol)
    tgt_scale = _target_scale(tgt) if tgt is not None else 0.0

    mode = False
    state = y0
    if chart is not None and float(np.linalg.norm(y0)) >= 2.0 * r1:
        mode = True
        state = chart.to_chart(y0)

    d_state = distance_of(state, mode)  # always the distance at (t, state)
    if tgt is not None and d_state <= opts.hit_tol:
        raise ValueError("initial state already within the hit tolerance of the target")

    knots = {float(t_max)}
    knots.update(k for k in sys.time_knots if 0.0 < k < t_max)
    if control is not None:
        knots.update(k for k in control.knots if 0.0 < k < t_max)
    knots = sorted(float(k) for k in knots)

    def to_y(s, m):
        return chart.from_chart(s) if m else s

    def to_ydot(s, v, m):
        return chart.pull_velocity(s, v) if m else v

    def gap_and_rate(s, v, m):
        """(distance, d/dt distance) to the inflated target, chart-aware."""
        if chart is not None and not m:
            z = chart.to_chart(s)
            zdot = chart.push_velocity(s, v)
        else:
            z, zdot = s, v
        gap = z - tgt.project(z)
        gn = _norm(gap)
        if gn == 0.0:
            return 0.0, 0.0
        return gn, float(gap @ zdot) / gn

    rhs = None  # the closure of the leg at hand

    def rhs_for(t, stop):
        nonlocal rhs
        atoms, weights = _resolve_cell(control, sys, 0.5 * (t + stop))
        rhs = _cell_rhs(sys, atoms, weights, mode, chart, stop)
        return rhs

    def cap(t, s, f, h):
        """Both stop sets cap the first trial at each position (_approach_cap)."""
        if tgt is not None and np.isfinite(d_state) and d_state > 0.0:
            factor = 1.0 if lip is None else lip(_norm(s))
            h = _approach_cap(h, d_state, opts.hit_tol, f, lambda: gap_and_rate(s, f, mode)[1], factor)
        if mode:
            # no step may jump across z = 0 into the flipped chart field
            zn = _norm(s)
            h = _approach_cap(h, zn, band, f, lambda: float(s @ f) / zn)
        return h

    times, states_y, derivs_y, start_derivs_y, flags = [], [], [], [], []

    def emit(t_s, s_s, f_s, m_s):
        times.append(t_s)
        states_y.append(to_y(s_s, m_s))
        derivs_y.append(to_ydot(s_s, f_s, m_s))
        start_derivs_y.append(derivs_y[-1])
        flags.append(m_s)

    t = 0.0
    h = None
    budget = iter(range(opts.max_steps))  # one per trial of the pass, across chart restarts
    status = None
    # one context for the pass: every rhs closure is evaluated under it, and
    # an overflow shows up as a non-finite stage that rejects the step
    with np.errstate(all="ignore"):
        while status is None:
            # the distance is 1-Lipschitz in the integration coordinates (lip None)
            # except outside the chart, where it reads them through the chart
            lip = chart.jacobian_bound if chart is not None and not mode else None
            event = None  # (time, kind)
            f_end = None  # the derivative the last accepted step ended with
            stops = [k for k in knots if k > t] or knots[-1:]  # a switch at t_max ends at once
            steps = _rk.steps(rhs_for, t, state, stops, opts.rtol, opts.atol, budget, h=h, cap=cap)
            try:
                for t0, s0, f, h_try, t_new, s_new, f_new, h in steps:
                    if f is not f_end:  # a leg starts at the last sample: f is its right limit
                        if times:
                            start_derivs_y[-1] = to_ydot(s0, f, mode)
                        else:
                            emit(t, state, f, mode)

                    def dense(tau):
                        return _rk.hermite(
                            t0, s0.tolist(), f.tolist(), t_new, s_new.tolist(), f_new.tolist(), tau
                        )

                    # --- event scan on the accepted step (first trigger wins) ---
                    d_new = distance_of(s_new, mode)
                    if tgt is not None and not _step_clears(
                        d_state, d_new, s0, f, s_new, f_new, h_try, opts.hit_tol, tgt_scale, lip
                    ):
                        distance = lambda x: distance_of(x, mode)
                        event = _scan_step(
                            dense, t0, h_try, s0, s_new, d_state, d_new, distance, signed_of, opts.hit_tol
                        )

                    if chart is not None and event is None:
                        # hysteresis: switch in at |y| >= 2 r1, back out at |y| <= r1
                        if mode:
                            crossed = lambda s: _norm(s) ** (-1.0 / chart.gamma) <= r1
                        else:
                            crossed = lambda s: _norm(s) >= 2.0 * r1
                        if crossed(s_new):
                            _, hi = _bisect(
                                lambda x: crossed(dense(x)), t0, t_new, 1e-15 * max(1.0, abs(t_new))
                            )
                            event = (hi, "chart-out" if mode else "chart-in")

                    if event is None:
                        if chart is None:
                            if _norm(s_new) > DIVERGENCE_RADIUS:
                                event = (t_new, "diverged")
                        elif mode and _norm(s_new) <= band:
                            # without a target there to stop at, the state has left
                            # every compact set: report divergence
                            event = (t_new, "diverged")
                    if event is not None:
                        break
                    emit(t_new, s_new, f_new, mode)
                    t, state, f_end, d_state = t_new, s_new, f_new, d_new
                else:
                    status, hit_time, terminal_distance = MAX_TIME, t, d_state
                    break
            except errors.StepStall as stall:
                if not times:
                    emit(t, state, stall.f, mode)
                status, hit_time, terminal_distance = SINGULAR_STALL, t, d_state
                break

            tau, kind = event
            s_tau = s_new if tau == t_new else dense(tau)
            f_tau = f_new
            if kind != "diverged":
                try:
                    f_tau = rhs(tau, s_tau)
                except _rk.StageFailure:
                    pass
            emit(tau, s_tau, f_tau, mode)
            if kind == "hit":
                d_ev = distance_of(s_tau, mode)
                _, rate = gap_and_rate(s_tau, f_tau, mode)
                extra = d_ev / max(-rate, 1e-300) if rate < 0.0 else 0.0
                status, hit_time, terminal_distance = HIT_TARGET, tau + min(extra, h_try), d_ev
            elif kind == "diverged":
                status, hit_time, terminal_distance = DIVERGED, tau, distance_of(s_tau, mode)
            else:
                # the chart switch restarts the steps at tau, with the next
                # trial size the step into it proposed
                y_here = to_y(s_tau, mode)
                mode = kind == "chart-in"
                state = chart.to_chart(y_here) if mode else y_here
                flags[-1] = mode
                t = tau
                d_state = distance_of(state, mode)

    return Trajectory(
        times=np.array(times),
        states=np.array(states_y),
        derivs=np.array(derivs_y),
        start_derivs=np.array(start_derivs_y),
        in_chart=np.array(flags, dtype=bool),
        hit=HitInfo(status=status, time=float(hit_time), terminal_distance=float(terminal_distance)),
        chart=chart,
    )


def integrate_adjoint(
    sys: ControlSystem,
    traj: Trajectory,
    control,
    terminal_psi,
    t_end=None,
    opts: Optional[IntegratorOptions] = None,
):
    """Integrate psi' = -jacobian(t, y(t)) psi backward from t_end to 0.

    The jacobian is in gradient layout so no transpose appears, and free of
    u, since the field is affine in u: control only adds its knots to the
    step breaks, so a relaxed schedule needs no averaging.  atol is
    scaled by the seed magnitude, which makes the sweep exactly homogeneous:
    scaling the seed scales every raw sample.

    terminal_psi may instead hold k seeds, one per row, with t_end a sequence
    of k seed times; the result is then a list of k AdjointTrajectory, one
    per seed.  All k sweeps share one backward pass: it runs in legs between
    the seed times, each seed joins as a new column at its own time, and
    every stage evaluates the jacobian once for all live columns.  Step
    control takes the worst column, each measured against its own seed-scaled
    atol, and each sweep samples exactly the times its sweep alone would; a
    single seed runs the sweep alone.

    Every sweep is returned normalized so |psi(0)| = 1; the raw samples are
    psis / normalization.
    """
    opts = opts or IntegratorOptions()
    family = np.ndim(terminal_psi) == 2
    seeds = np.array(terminal_psi, dtype=float, ndmin=2)
    if t_end is None:
        t_end = float(traj.times[-1])
    t_ends = [float(t) for t in np.atleast_1d(t_end)]
    if len(t_ends) != len(seeds):
        raise ValueError("need one seed time per seed")
    seed_norms = [float(np.linalg.norm(seed)) for seed in seeds]
    if 0.0 in seed_norms:
        raise errors.ZeroTerminalCovector("adjoint seed must be nonzero")
    for t in t_ends:
        if t <= 0.0 or t > traj.times[-1] + 1e-12 * max(1.0, traj.times[-1]):
            raise ValueError("t_end must lie in (0, trajectory end]")

    samples = [
        [float(t) for t in traj.times if t < t_c - 1e-15 * max(1.0, t_c)] + [t_c] for t_c in t_ends
    ]

    y_at = traj.cursor()
    n = seeds.shape[1]
    # DOPRI5's last two stages share t + h: the second reuses the first's jacobian
    jac_t, jac = None, None

    def rhs(t, psi):
        nonlocal jac_t, jac
        if t != jac_t:
            jac_t, jac = t, np.asarray(sys.jacobian(t, y_at(t)), dtype=float)
        if len(psi) == n:
            return -(jac @ psi)
        # live columns stacked end to end: row c of the product is jac @ psi_c
        return -(psi.reshape(-1, n) @ jac.T).ravel()

    knots = set(sys.time_knots)
    if control is not None:
        knots.update(control.knots)
    knots.update(traj.switch_times())

    # legs between the distinct seed times, latest first; a leg's end is
    # recorded, and the next leg starts from it with its new columns stacked
    starts = sorted(set(t_ends), reverse=True)
    live = []
    state = np.empty(0)
    atol = np.empty(0)
    rows = {}
    for leg, t0 in enumerate(starts):
        t1 = starts[leg + 1] if leg + 1 < len(starts) else 0.0
        joining = [c for c, t_c in enumerate(t_ends) if t_c == t0]
        live += joining
        state = np.concatenate([state] + [seeds[c] for c in joining])
        atol = np.concatenate([atol] + [np.full(n, opts.atol * seed_norms[c]) for c in joining])
        rec = {t for c in live for t in samples[c] if t1 <= t <= t0}
        rec.add(t1)
        ts, states = _rk.integrate_plain(
            rhs,
            t0,
            t1,
            state,
            rtol=opts.rtol,
            atol=atol,
            knots=tuple(k for k in knots if t1 < k < t0),
            max_steps=opts.max_steps,
            record=np.array(sorted(rec, reverse=True)),
            cols=len(live),
        )
        rows.update(zip(ts.tolist(), states))
        state = states[-1]

    sweeps = []
    for c, t_c in enumerate(t_ends):
        col = slice(live.index(c) * n, (live.index(c) + 1) * n)
        psis = np.array([rows[t][col] for t in samples[c]])
        n0 = float(np.linalg.norm(psis[0]))
        if n0 == 0.0:
            raise errors.ZeroTerminalCovector("adjoint vanished at t = 0")
        factor = 1.0 / n0
        psis = psis * factor
        sweeps.append(
            AdjointTrajectory(
                times=np.array(samples[c]), psis=psis, seed_time=t_c, seed=seeds[c], normalization=factor
            )
        )
    return sweeps if family else sweeps[0]
