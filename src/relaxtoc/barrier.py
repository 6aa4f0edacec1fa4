"""Scalar comparison machinery for blowup systems, plus the quenching
monotonicity oracle.

Radial envelopes: a solution of y' = |y|^{p-1} y + (input with |.| <= M)
+ (damping -h y, |h| <= 1) is squeezed between the solutions of

    upper:  theta' = theta^p + theta + M,
    lower:  theta' = theta^p - theta - M,

both seeded at theta(s) = |y(s)|.  With the time-to-blowup integrals

    Xi_upper(r) = int_r^inf dtheta / (theta^p + theta + M),
    Xi_lower(r) = int_r^inf dtheta / (theta^p - theta - M),

the envelopes are xi(Xi(r) - (t - s)) where xi is the inverse map, and the
blowup time of any such solution lies in [s + Xi_upper(r), s + Xi_lower(r)].
The lower map needs r above r0 = (p + M)/(p - 1), which sits strictly above
the positive root of theta^p - theta - M.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from ._rk import integrate_plain
from .dynamics import (
    AffineStructure,
    BallSet,
    ControlSystem,
    PiecewiseConstant,
    quench_drift,
    quench_drift_jacobian,
)
from .integrate import HIT_TARGET, MAX_TIME, IntegratorOptions, integrate_forward
from .target import Hyperplane


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first quadrature: importing SciPy
    takes most of `import relaxtoc`, and only the barrier checks need it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)

UPPER = "upper"
LOWER = "lower"

_GUARD_BAND = 1e-6
_TABLE_RADIUS_CAP = 1e8
_TABLE_NODES = 512


def _quad_xi(p: float, M: float, r: float, sign: float) -> float:
    """Xi(r) = int_r^inf dtheta / (theta^p + sign (theta + M)).

    Substituting theta = r / sigma maps the tail onto sigma in (0, 1] with a
    bounded integrand for p >= 2 and an integrable one for 1 < p < 2.
    """

    def integrand(sigma):
        return (r * sigma ** (p - 2.0)) / (
            r ** p + sign * (r * sigma ** (p - 1.0) + M * sigma ** p)
        )

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(val)


@dataclass(eq=False)
class BarrierTable:
    """Immutable table of the two blowup-time integrals on a log radius grid.

    The *_time functions always use direct quadrature; the stored monotone
    interpolants of log r against Xi (PCHIP, as breakpoints and the four
    coefficient rows of its pieces) serve the fast envelope evaluation, and
    invert() refines a table bracket by bisection on direct quadrature.
    """

    p: float
    M: float
    r0: float
    radii: np.ndarray
    xi_upper_vals: np.ndarray
    xi_lower_vals: np.ndarray
    _inv_upper: tuple
    _inv_lower: tuple

    def _vals(self, which: str) -> np.ndarray:
        return self.xi_upper_vals if which == UPPER else self.xi_lower_vals

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["r", "xi_upper", "xi_lower"])
            for r, a, b in zip(self.radii, self.xi_upper_vals, self.xi_lower_vals):
                w.writerow([f"{r:.17g}", f"{a:.17g}", f"{b:.17g}"])


def build_barrier_table(p: float, M: float) -> BarrierTable:
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"blowup exponent must satisfy p > 1, got {p!r}")
    if M < 0.0:
        raise ValueError("input bound M must be nonnegative")
    r0 = (p + M) / (p - 1.0)
    if not r0 * (1.0 + _GUARD_BAND) < _TABLE_RADIUS_CAP:
        raise errors.OutOfRange(
            f"barrier radius r0 = {r0:.3e} is past the table cap {_TABLE_RADIUS_CAP:.0e}"
        )
    radii = np.geomspace(r0 * (1.0 + _GUARD_BAND), _TABLE_RADIUS_CAP, _TABLE_NODES)
    up = np.array([_quad_xi(p, M, r, +1.0) for r in radii])
    lo = np.array([_quad_xi(p, M, r, -1.0) for r in radii])
    log_r = np.log(radii)
    from scipy.interpolate import PchipInterpolator

    def pieces(vals):
        pchip = PchipInterpolator(vals[::-1], log_r[::-1])
        return (pchip.x.tolist(), *(row.tolist() for row in pchip.c))

    return BarrierTable(
        p=float(p),
        M=float(M),
        r0=float(r0),
        radii=radii,
        xi_upper_vals=up,
        xi_lower_vals=lo,
        _inv_upper=pieces(up),
        _inv_lower=pieces(lo),
    )


def xi_upper_time(table: BarrierTable, r: float) -> float:
    """Time to blowup of theta' = theta^p + theta + M from theta = r."""
    if not (r > 0.0):
        raise errors.OutOfRange("upper blowup-time integral needs r > 0")
    return _quad_xi(table.p, table.M, r, +1.0)


def xi_lower_time(table: BarrierTable, r: float) -> float:
    """Time to blowup of theta' = theta^p - theta - M from theta = r.

    The integral converges whenever theta^p - theta - M > 0 on [r, inf), i.e.
    for r strictly above the largest root of the denominator; r0 = (p+M)/(p-1)
    is an upper bound for that root, so any r > r0 is accepted, and so are
    smaller radii (down to and including r0 itself) when the denominator is
    already positive there.
    """
    if not (r > 0.0) or r ** table.p - r - table.M <= 0.0:
        raise errors.BelowThreshold(
            "lower blowup-time integral needs theta^p - theta - M > 0 at theta = r"
        )
    return _quad_xi(table.p, table.M, r, -1.0)


def _fast_radius(table: BarrierTable, tau: float, which: str) -> float:
    """Interpolated inverse; inf beyond the table (radius past the grid cap).

    Equal bit for bit to np.exp(PchipInterpolator(Xi, log r)(tau)): the same
    interval (x[i] <= tau < x[i + 1], the last one closed) and the same sum
    c3 + c2 s + c1 s^2 + c0 s^3 with the powers accumulated as SciPy's
    evaluate_poly1 does, without the array call's overhead.
    """
    vals = table._vals(which)
    if tau <= vals[-1]:
        return np.inf
    if tau >= vals[0]:
        return float(table.radii[0])
    x, c0, c1, c2, c3 = table._inv_upper if which == UPPER else table._inv_lower
    i = min(bisect.bisect_right(x, tau) - 1, len(x) - 2)
    s = tau - x[i]
    s2 = s * s
    return float(np.exp(c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)))


def invert(table: BarrierTable, tau: float, which: str) -> float:
    """Radius r with Xi(r) = tau, sharpened so |Xi(r) - tau| <= 1e-9.

    Domain: 0 < tau < Xi(r0 * (1 + guard band)) for the chosen branch; small
    tau beyond the table cap is handled by an expanding bracket, so inverting
    a decreasing tau sequence yields an increasing radius sequence.
    """
    if which not in (UPPER, LOWER):
        raise ValueError("which must be 'upper' or 'lower'")
    vals = table._vals(which)
    sign = +1.0 if which == UPPER else -1.0
    if not (tau > 0.0) or (which == LOWER and tau >= vals[0]):
        raise errors.OutOfRange(
            f"tau = {tau!r} outside the invertible range of the {which} branch"
        )

    if tau > vals[0]:
        # upper branch only: the map stays strictly decreasing below r0
        b = float(table.radii[0])
        a = 0.5 * b
        while _quad_xi(table.p, table.M, a, sign) <= tau:
            b, a = a, 0.5 * a
            if a < 1e-12:
                raise errors.OutOfRange(
                    f"tau = {tau!r} beyond the upper branch range"
                )
    elif tau >= vals[-1]:
        j = int(np.searchsorted(-vals, -tau, side="right"))
        a = float(table.radii[max(j - 1, 0)])
        b = float(table.radii[min(j, len(vals) - 1)])
    else:
        a = float(table.radii[-1])
        b = 2.0 * a
        while _quad_xi(table.p, table.M, b, sign) > tau:
            a, b = b, 2.0 * b

    for _ in range(200):
        mid = 0.5 * (a + b)
        val = _quad_xi(table.p, table.M, mid, sign)
        if val > tau:
            a = mid
        else:
            b = mid
        if b - a <= 1e-9 * max(1.0, b) and abs(val - tau) <= 1e-9:
            break
    return 0.5 * (a + b)


def _envelope(table: BarrierTable, xi_r: float, t: float, s: float, r: float, which: str) -> float:
    """Envelope xi(Xi(r) - (t - s)) of one branch, given xi_r = Xi(r) (inf if blown)."""
    if t < s:
        raise ValueError("envelope evaluation needs t >= s")
    tau = xi_r - (t - s)
    if tau <= 0.0:
        return np.inf
    return max(_fast_radius(table, tau, which), r)


@dataclass(frozen=True)
class EnvelopeVerdict:
    ok: bool
    n_checked: int
    min_upper_margin: float
    min_lower_margin: float
    first_violation_time: Optional[float]

    def to_json_dict(self):
        return {
            "ok": bool(self.ok),
            "n_checked": int(self.n_checked),
            "min_upper_margin": float(self.min_upper_margin),
            "min_lower_margin": float(self.min_lower_margin),
            "first_violation_time": None
            if self.first_violation_time is None
            else float(self.first_violation_time),
        }


def envelope_bracket_check(table: BarrierTable, traj) -> EnvelopeVerdict:
    """Check lower envelope <= |y(t)| <= upper envelope at every sample
    after the first, both seeded at s = times[0] with radius r = |y(s)|.

    Margins are relative to max(|y|, 1) and fail below 0; samples where both
    the state and the lower envelope have outgrown the table cap are skipped
    (the bracket is already decided there).  Failure is a result, not an error.
    """
    times = np.asarray(traj.times)
    norms = np.linalg.norm(np.asarray(traj.states), axis=1)
    s = float(times[0])
    r = float(norms[0])
    if r <= table.r0:
        raise errors.BelowThreshold("envelope bracket needs |y(s)| > r0")
    if r > 0.1 * _TABLE_RADIUS_CAP:
        raise errors.OutOfRange("start radius too close to the table cap")

    # both envelopes start from the same radius: one quadrature per branch
    xi_up, xi_lo = xi_upper_time(table, r), xi_lower_time(table, r)
    min_up = np.inf
    min_lo = np.inf
    first_bad = None
    n_checked = 0
    for t, yn in zip(times[1:], norms[1:]):
        up = _envelope(table, xi_up, float(t), s, r, UPPER)
        lo = _envelope(table, xi_lo, float(t), s, r, LOWER)
        scale = max(yn, 1.0)
        m_up = (up - yn) / scale if np.isfinite(up) else np.inf
        m_lo = (yn - lo) / scale if np.isfinite(lo) else np.inf
        if np.isfinite(lo) and lo > 0.1 * _TABLE_RADIUS_CAP and yn > 0.1 * _TABLE_RADIUS_CAP:
            m_lo = np.inf
        n_checked += 1
        min_up = min(min_up, m_up)
        min_lo = min(min_lo, m_lo)
        if (m_up < 0.0 or m_lo < 0.0) and first_bad is None:
            first_bad = float(t)
    ok = min_up >= 0.0 and min_lo >= 0.0
    return EnvelopeVerdict(
        ok=bool(ok),
        n_checked=n_checked,
        min_upper_margin=float(min_up),
        min_lower_margin=float(min_lo),
        first_violation_time=first_bad,
    )


def mtilde(table: BarrierTable, alpha: float) -> float:
    """Radius threshold above which the damping lower bound applies.

    The exponential factor reads the lower blowup-time integral just above
    r0.
    """
    p, M, r0 = table.p, table.M, table.r0
    if not (0.0 < alpha < p - 1.0):
        raise errors.AlphaOutOfRange("need 0 < alpha < p - 1")
    r_edge = r0 * (1.0 + _GUARD_BAND)
    e_xi = float(np.exp(xi_lower_time(table, r_edge)))
    terms = (
        r0,
        (4.0 * alpha / (p - 1.0 - alpha)) ** (1.0 / (p - 1.0)),
        (2.0 * e_xi / (p - 1.0 - alpha)) ** (1.0 / p),
        2.0 * e_xi * M,
    )
    return float(max(terms))


def _as_profile(h, default=0.0) -> PiecewiseConstant:
    """h if it is a PiecewiseConstant, else the constant h (default for None)
    as a one-cell one."""
    if isinstance(h, PiecewiseConstant):
        return h
    return PiecewiseConstant.constant(default if h is None else h)


@dataclass(frozen=True)
class LowerBoundVerdict:
    ok: bool
    lhs: float
    rhs: float
    slack: float
    terminal_radius: float

    def to_json_dict(self):
        return {
            "ok": bool(self.ok),
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "slack": float(self.slack),
            "terminal_radius": float(self.terminal_radius),
        }


def blowup_lower_bound_check(
    table: BarrierTable,
    alpha: float,
    s: float,
    T: float,
    h,
    y_s,
    g=None,
) -> LowerBoundVerdict:
    """Damping bound: integrate y' = |y|^{p-1} y + g(t) - h(t) y from y(s) = y_s
    and verify |y(T)|^{-alpha} >= int_s^T alpha xi_lower(T - t)^{-alpha} h(t) dt.

    Needs 0 <= h <= 1, |g| <= M, |y_s| >= mtilde(alpha), and a horizon short
    enough that the damped solution exists and the lower inverse map covers
    T - s.  h and g are PiecewiseConstant signals or constants (g = None is
    zero).  The right-hand side uses the fast table inverse inside adaptive
    quadrature.
    """
    p, M = table.p, table.M
    if not (0.0 < alpha < p - 1.0):
        raise errors.AlphaOutOfRange("need 0 < alpha < p - 1")
    y_s = np.atleast_1d(np.asarray(y_s, dtype=float))
    r_s = float(np.linalg.norm(y_s))
    thresh = mtilde(table, alpha)
    if r_s < thresh:
        raise errors.BelowMtilde(f"|y_s| = {r_s:g} below the threshold {thresh:g}")
    if not (T > s):
        raise ValueError("need T > s")
    if T - s >= table.xi_lower_vals[0]:
        raise errors.OutOfRange("horizon exceeds the lower inverse-map domain")

    h_fn = _as_profile(h)
    g_fn = _as_profile(g, default=np.zeros_like(y_s))
    hv = np.array([float(v) for v in h_fn.values_on(s, T)])
    if hv.min() < -1e-12 or hv.max() > 1.0 + 1e-12:
        raise ValueError("damping profile must satisfy 0 <= h <= 1")
    gv = np.array(
        [float(np.linalg.norm(np.broadcast_to(v, y_s.shape))) for v in g_fn.values_on(s, T)]
    )
    if gv.max() > M * (1.0 + 1e-9) + 1e-30:
        raise ValueError("forcing profile must satisfy |g(t)| <= M")

    def rhs(t, y):
        ny = float(np.linalg.norm(y))
        # g broadcasts against y; the check above made sure that it can
        return ny ** (p - 1.0) * y + g_fn(t) - float(h_fn(t)) * y

    knots = tuple(k for k in set(h_fn.knots) | set(g_fn.knots) if s < k < T)
    try:
        y_T = integrate_plain(rhs, s, T, y_s, rtol=1e-10, atol=1e-12, knots=knots)
    except errors.IntegrationFailed as exc:
        raise errors.OutOfRange(f"damped solution left the integrable range: {exc}")
    r_T = float(np.linalg.norm(y_T))
    lhs = r_T ** (-alpha)

    def integrand(tau):
        rad = _fast_radius(table, tau, LOWER)
        if not np.isfinite(rad):
            return 0.0
        return alpha * rad ** (-alpha) * float(h_fn(T - tau))

    pts = sorted({T - k for k in knots})
    rhs_val, _ = quad(
        integrand, 0.0, T - s, points=pts or None, epsabs=1e-10, epsrel=1e-10, limit=200
    )
    slack = lhs - rhs_val
    return LowerBoundVerdict(
        ok=bool(slack >= 0.0),
        lhs=float(lhs),
        rhs=float(rhs_val),
        slack=float(slack),
        terminal_radius=r_T,
    )


@dataclass(frozen=True)
class MonotonicityVerdict:
    ok: bool
    case: str
    margin: float
    baseline_y1: float
    perturbed_y1: float
    h_vanishes: bool

    def to_json_dict(self):
        return {
            "ok": bool(self.ok),
            "case": self.case,
            "margin": float(self.margin),
            "baseline_y1": float(self.baseline_y1),
            "perturbed_y1": float(self.perturbed_y1),
            "h_vanishes": bool(self.h_vanishes),
        }


def _quench_forced_system(g_fn, h_fn, knots):
    """The uncontrolled quench field plus the forcing g + (h, 0): an affine
    system with a zero input matrix and a zero-radius control ball."""

    def drift(t, y):
        return quench_drift(t, y) + (g_fn(t) + np.array([float(h_fn(t)), 0.0]))

    return ControlSystem(
        name="quenching-forced",
        kind="custom",
        jacobian=quench_drift_jacobian,
        control_set=BallSet(radius=0.0, dim=1),
        affine=AffineStructure(drift=drift, input_matrix=PiecewiseConstant.constant(np.zeros((2, 1)))),
        time_knots=knots,
    )


def quench_monotonicity_check(g, h, y0, T: float) -> MonotonicityVerdict:
    """One-sided forcing on the quench coordinate moves the quench value the
    same way: with y0_1 < 1 and h <= 0 the perturbed first coordinate ends
    strictly below the baseline at T, and symmetrically for y0_1 > 1, h >= 0.

    g and h are PiecewiseConstant signals or constants (g = None is zero);
    h enters the first component only.  h identically zero is the boundary
    case: the two runs coincide and the margin is reported as ~0.
    """
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (2,):
        raise ValueError("quenching state must be 2-dimensional")
    if y0[0] == 1.0:
        raise errors.SingularState("y0 starts on the quench set")
    case = "i" if y0[0] < 1.0 else "ii"

    g_fn = _as_profile(g, default=np.zeros(2))
    h_fn = _as_profile(h)
    hv = np.array([float(v) for v in h_fn.values_on(0.0, T)])
    if case == "i" and hv.max() > 1e-12:
        raise ValueError("case y0_1 < 1 needs h <= 0")
    if case == "ii" and hv.min() < -1e-12:
        raise ValueError("case y0_1 > 1 needs h >= 0")
    h_vanishes = bool(np.max(np.abs(hv)) == 0.0)

    knots = tuple(k for k in set(g_fn.knots) | set(h_fn.knots) if 0.0 < k < T)
    zero = lambda t: 0.0
    base_sys = _quench_forced_system(g_fn, zero, knots)
    pert_sys = _quench_forced_system(g_fn, h_fn, knots)
    tgt = Hyperplane(axis=0, level=1.0)

    base = integrate_forward(base_sys, None, y0, tgt=tgt, t_max=T, opts=opts)
    if base.hit.status != MAX_TIME:
        raise errors.BaselineQuenchedEarly(
            f"baseline reached the quench set at t = {base.hit.time:g} < {T:g}"
        )
    pert = integrate_forward(pert_sys, None, y0, tgt=tgt, t_max=T, opts=opts)
    if pert.hit.status == HIT_TARGET and case == "ii":
        # forcing toward the quench set from above can only help case (ii)
        margin = np.inf
        pert_y1 = 1.0
    elif pert.hit.status != MAX_TIME:
        return MonotonicityVerdict(
            ok=False,
            case=case,
            margin=-np.inf,
            baseline_y1=float(base.final_state[0]),
            perturbed_y1=float(pert.final_state[0]),
            h_vanishes=h_vanishes,
        )
    else:
        pert_y1 = float(pert.final_state[0])
        base_y1 = float(base.final_state[0])
        margin = base_y1 - pert_y1 if case == "i" else pert_y1 - base_y1

    base_y1 = float(base.final_state[0])
    if h_vanishes:
        ok = abs(margin) <= 1e-7 * max(1.0, abs(base_y1))
    else:
        ok = margin > 0.0
    return MonotonicityVerdict(
        ok=bool(ok),
        case=case,
        margin=float(margin),
        baseline_y1=base_y1,
        perturbed_y1=float(pert_y1),
        h_vanishes=h_vanishes,
    )
