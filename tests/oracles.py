"""Independent oracles the test suite trusts more than the package.

Everything here is deliberately primitive: fixed-step classical RK4, closed
forms obtained by partial fractions, composite Gauss-Legendre panels, and
SciPy's DOP853 run one constant-input cell at a time.  None of it shares
code paths with the package's adaptive integrator or its adaptive
quadrature, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp


# ---------------------------------------------------------------------------
# fixed-step RK4


def rk4(f, t0, t1, y0, steps):
    """Classical fixed-step RK4; returns the terminal state only."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def rk4_path(f, t0, t1, y0, steps):
    """Fixed-step RK4 keeping every sample; returns (times, states)."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / steps
    times = [t0]
    states = [y.copy()]
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        times.append(t)
        states.append(y.copy())
    return np.array(times), np.array(states)


# ---------------------------------------------------------------------------
# blowup-time integrals Xi(r) = int_r^inf dtheta / (theta^p +- (theta + M))


def xi_upper_closed_p2_m0(r):
    """int_r^inf dtheta/(theta^2 + theta) = ln((r+1)/r) by partial fractions."""
    return float(np.log((r + 1.0) / r))


def xi_lower_closed_p2_m0(r):
    """int_r^inf dtheta/(theta^2 - theta) = ln(r/(r-1)) for r > 1."""
    if r <= 1.0:
        raise ValueError("closed form needs r > 1")
    return float(np.log(r / (r - 1.0)))


def xi_gauss(p, M, r, sign, panels=400, order=12):
    """Composite Gauss-Legendre evaluation of the blowup-time integral.

    Substituting theta = r/sigma maps [r, inf) to (0, 1]; a second layer
    sigma = tau^2 removes the sigma^(p-2) cusp for fractional p, leaving
    2 r tau^(2p-3) / (r^p + sign (r tau^(2p-2) + M tau^(2p))).
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    tau = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    vals = (2.0 * r * tau ** (2.0 * p - 3.0)) / (
        r ** p + sign * (r * tau ** (2.0 * p - 2.0) + M * tau ** (2.0 * p))
    )
    return float(np.sum(wts * vals))


# ---------------------------------------------------------------------------
# quenching example: hit times by brute force

_RHO = 1.0


def quench_field(t, y, u):
    return np.array(
        [y[1] / (1.0 - y[0]) + u[0], y[0] + y[1] + u[1]], dtype=float
    )


def quench_hit_time(u_of_t, y0, level=1.0, h=1e-5, d_stop=0.02):
    """First time y1 reaches `level`, by fixed-step RK4 plus an analytic tail.

    For level = 1 (the singular line) integration stops at distance d_stop
    and the remaining time is d^2/(2 y2) + O(d^3), from (d^2)' = -2 y2 - 2 d u1.
    For level < 1 the crossing is regular and located by a secant step.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    singular = abs(level - 1.0) < 1e-12
    stop = (1.0 - d_stop) if singular else level
    prev_t, prev_y1 = t, y[0]
    for _ in range(int(5.0 / h)):
        if y[0] >= stop:
            break
        prev_t, prev_y1 = t, y[0]
        f = lambda tt, yy: quench_field(tt, yy, u_of_t(tt))
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    else:
        raise RuntimeError("quench oracle: level not reached")
    if singular:
        d = 1.0 - y[0]
        return t + d * d / (2.0 * y[1])
    # secant within the last step
    frac = (stop - prev_y1) / (y[0] - prev_y1)
    return prev_t + frac * (t - prev_t)


def one_switch_bang_bang(alpha, y0=(0.0, 0.5), rho=_RHO, h=2e-4):
    """Best hit time of {y1 >= 1 - alpha} over one-switch boundary controls.

    Controls are u(t) = rho (cos a1, sin a1) before the switch and
    rho (cos a2, sin a2) after; the three parameters are grid-searched in a
    vectorized batch, then the winner's neighborhood is refined three times
    with a finer step.  Brute force by design.
    """
    level = 1.0 - alpha

    def batch_hit(ts, a1, a2, step):
        # all arrays flat, one candidate per entry
        n = ts.size
        y1 = np.full(n, float(y0[0]))
        y2 = np.full(n, float(y0[1]))
        c1, s1 = rho * np.cos(a1), rho * np.sin(a1)
        c2, s2 = rho * np.cos(a2), rho * np.sin(a2)
        hit = np.full(n, np.inf)
        t = 0.0
        # a candidate still short of the level at t hits at t or later, so
        # none can beat the best hit once t reaches it
        while t < min(3.0, hit.min()):
            u1 = np.where(t < ts, c1, c2)
            u2 = np.where(t < ts, s1, s2)

            def f(y1v, y2v):
                return y2v / (1.0 - y1v) + u1, y1v + y2v + u2

            p1, p2 = y1.copy(), y2.copy()
            k1a, k1b = f(y1, y2)
            k2a, k2b = f(y1 + 0.5 * step * k1a, y2 + 0.5 * step * k1b)
            k3a, k3b = f(y1 + 0.5 * step * k2a, y2 + 0.5 * step * k2b)
            k4a, k4b = f(y1 + step * k3a, y2 + step * k3b)
            y1 = y1 + (step / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
            y2 = y2 + (step / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
            t += step
            fresh = np.isinf(hit) & (y1 >= level) & (y1 > p1)
            if np.any(fresh):
                frac = (level - p1[fresh]) / (y1[fresh] - p1[fresh])
                hit[fresh] = (t - step) + frac * step
            # freeze candidates that already quenched without hitting
            dead = np.isinf(hit) & (y1 >= 0.999)
            y1[dead] = -10.0
            y2[dead] = 0.0
            hit[dead & np.isinf(hit)] = np.inf
        return hit

    ts = np.linspace(0.0, 0.5, 14)
    ang = np.linspace(0.0, 2.0 * np.pi, 25)[:-1]
    TS, A1, A2 = np.meshgrid(ts, ang, ang, indexing="ij")
    flat = (TS.ravel(), A1.ravel(), A2.ravel())
    hits = batch_hit(*flat, h)
    best = int(np.argmin(hits))
    ts_b, a1_b, a2_b = flat[0][best], flat[1][best], flat[2][best]
    span_t, span_a, step = 0.05, 0.35, h
    for _ in range(3):
        span_t *= 0.25
        span_a *= 0.25
        step = max(step * 0.4, 2e-5)
        ts = np.linspace(max(ts_b - span_t, 0.0), ts_b + span_t, 9)
        a1 = np.linspace(a1_b - span_a, a1_b + span_a, 9)
        a2 = np.linspace(a2_b - span_a, a2_b + span_a, 9)
        TS, A1, A2 = np.meshgrid(ts, a1, a2, indexing="ij")
        flat = (TS.ravel(), A1.ravel(), A2.ravel())
        hits = batch_hit(*flat, step)
        best = int(np.argmin(hits))
        ts_b, a1_b, a2_b = flat[0][best], flat[1][best], flat[2][best]
    return float(hits[best]), (float(ts_b), float(a1_b), float(a2_b))


# ---------------------------------------------------------------------------
# backward adjoint by fixed-step RK4


def adjoint_rk4(jac_of_t, t_end, psi_end, steps, t0=0.0):
    """Integrate psi' = -J(t) psi backward from psi(t_end); J in gradient layout."""
    psi = np.asarray(psi_end, dtype=float).copy()
    h = (t_end - t0) / steps
    t = t_end

    def f(tt, p):
        return -(jac_of_t(tt) @ p)

    for _ in range(steps):
        k1 = f(t, psi)
        k2 = f(t - 0.5 * h, psi - 0.5 * h * k1)
        k3 = f(t - 0.5 * h, psi - 0.5 * h * k2)
        k4 = f(t - h, psi - h * k3)
        psi = psi - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t -= h
    return psi


# ---------------------------------------------------------------------------
# piecewise-constant inputs: one DOP853 run per cell, no step across a jump


def per_cell_dop853(field_of_cell, edges, y0, rtol=1e-13, atol=1e-15):
    """State at edges[-1] of y' = field_of_cell(j, y) on [edges[j], edges[j+1]].

    The field is constant in time inside each cell, so each run sees a smooth
    problem and the only error is DOP853's at rtol.
    """
    y = np.asarray(y0, dtype=float)
    for j, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        sol = solve_ivp(
            lambda t, yy: field_of_cell(j, yy), (a, b), y, method="DOP853", rtol=rtol, atol=atol
        )
        y = sol.y[:, -1]
    return y


# ---------------------------------------------------------------------------
# DOPRI5 kernel: the NumPy formulas of relaxtoc._rk, one vector op per term

DOPRI5_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DOPRI5_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DOPRI5_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DOPRI5_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def dopri5_step(rhs, t, y, f, h):
    """One DOPRI5 trial with matmul stage sums; returns (y_new, f_new, err)."""
    k = np.empty((7, len(y)))
    k[0] = f
    for i in range(1, 7):
        k[i] = rhs(t + DOPRI5_C[i] * h, y + h * (k[:i].T @ DOPRI5_A[i]))
    return y + h * (k.T @ DOPRI5_B5), k[6], h * (k.T @ DOPRI5_E)


def dopri5_error_norm(err, y0, y1, rtol, atol, cols=1):
    """Largest column RMS of err over atol + rtol max(|y0|, |y1|)."""
    with np.errstate(all="ignore"):
        q = err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1)))
        q = q.reshape(cols, -1)
        return float(np.sqrt(np.add.reduce(q * q, axis=1).max() / q.shape[1]))


def hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolation between (t0, y0, f0) and (t1, y1, f1)."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


def switching_integral(B, times, psis, a, b):
    """Integral of B(t)^T psi(t) over [a, b], psi linear between the samples
    (times, psis): one trapezoid per interval of the samples inside (a, b),
    B read one ulp inside each interval's ends, as a loop."""
    inner = [t for t in times if a < t < b]
    pts = [a] + inner + [b]
    psi = [np.array([np.interp(t, times, col) for col in np.asarray(psis).T]) for t in pts]
    q = 0.0
    for k in range(len(pts) - 1):
        lo, hi = pts[k], pts[k + 1]
        q_lo = np.asarray(B(np.nextafter(lo, hi))).T @ psi[k]
        q_hi = np.asarray(B(np.nextafter(hi, lo))).T @ psi[k + 1]
        q = q + 0.5 * (hi - lo) * (q_lo + q_hi)
    return q
