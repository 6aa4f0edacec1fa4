"""Dormand-Prince 5(4) stepping primitives shared by the integrators.

Both integrators size their steps with one rule, `next_step`: a rejected
trial shrinks by the error-norm factor (halves when the norm is not finite),
and an accepted trial grows by it, except right after a rejection, when it
may not grow (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Without that
cap the retried step grows back about 4.6x next to a singular set and is
rejected again, in a cycle.
"""

from __future__ import annotations

import math

import numpy as np

from . import errors

# Classic DOPRI5 tableau; the first-same-as-last stage doubles as the next k1.
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
SAFETY = 0.9


def step(rhs, t, y, f, h):
    """One trial step from (t, y) with f = rhs(t, y).

    Returns (y_new, f_new, err); err is the embedded error estimate, which
    error_norm scales by the caller's tolerances.
    """
    # kT[:, :i] has the memory layout of np.stack(stages).T, so each stage
    # sum takes the same matmul path and rounds the same way
    karr = np.empty((7, len(y)))
    kT = karr.T
    karr[0] = f
    for i in range(1, 7):
        karr[i] = rhs(t + C[i] * h, y + h * (kT[:, :i] @ A[i]))
    return y + h * (kT @ B5), karr[6], h * (kT @ E)


def finite(v):
    """np.isfinite(v).all() for a float vector, without the ufunc's overhead."""
    return all(map(math.isfinite, v.tolist()))


def error_norm(err, y0, y1, rtol, atol, cols=1):
    """RMS of the embedded error estimate over the mixed tolerance scale.

    A state that stacks cols equal-length columns gets the largest of the
    column RMS values, so no column is held to a looser control than it
    would be alone.
    """
    q = err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1)))
    if cols == 1:
        return math.sqrt(float(np.add.reduce(q * q)) / len(q))
    q = q.reshape(cols, -1)
    return math.sqrt(float(np.add.reduce(q * q, axis=1).max()) / q.shape[1])


def next_factor(err_norm):
    if err_norm == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err_norm ** -0.2))


def next_step(h, err_norm, after_rejection=False):
    """Size of the trial after one of size h with this error norm.

    A rejected trial (err_norm not <= 1) shrinks by next_factor, or halves
    when the norm is not finite (a stage left the field's domain or
    overflowed).  An accepted trial grows by next_factor, but not past h
    when after_rejection: it was a retry of a rejected trial.
    """
    if not err_norm <= 1.0:
        return h * (next_factor(err_norm) if math.isfinite(err_norm) else 0.5)
    factor = next_factor(err_norm)
    return h * (min(1.0, factor) if after_rejection else factor)


def initial_step(rhs, t0, y0, f0, direction, rtol, atol):
    """Hairer-style first step guess from the local solution scale.

    Call it under np.errstate(all="ignore"), as the integrators do.
    """
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))  # an infinite d1 fails the h0 check
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if not h0 > 0.0:
        raise errors.IntegrationFailed("field too large for a first step at these tolerances")
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def hermite(t0, y0, f0, t1, y1, f1, t):
    """Cubic Hermite interpolation between two accepted samples."""
    h = t1 - t0
    if h == 0.0:
        return y0.copy()
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


def integrate_plain(rhs, t0, t1, y0, rtol, atol, knots=(), max_steps=200_000, record=None, cols=1):
    """Adaptive integration without events; supports t1 < t0 (backward).

    atol may be a scalar or a vector.  y may stack cols equal-length
    columns; step control then takes the worst column (error_norm).  knots
    are interior times where the rhs may be discontinuous; steps land on
    them, and past each one the stage derivative restarts: the
    first-same-as-last derivative carried into the knot is the left limit,
    so f is evaluated afresh one ulp into the next leg (and into the first
    one), where a left-continuous signal already reads its new cell.  A
    backward leg ends a few ulps short of its knot instead: a step landing on
    the knot would evaluate its last stages there, where a left-continuous
    signal reads the cell ahead.  When `record` is a sorted array of times
    (in travel order) the state is recorded exactly at those times and
    (times, states) is returned; otherwise the terminal state.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        if record is not None:
            return np.array([t0]), y[None, :].copy()
        return y
    stops = sorted({float(k) for k in knots if min(t0, t1) < k < max(t0, t1)} | {float(t1)})
    if direction < 0:
        stops = stops[::-1]
    rec_times = None if record is None else list(record)
    rec_out = []
    rec_states = []
    if rec_times:
        # Record the initial time if requested.
        while rec_times and (rec_times[0] - t) * direction <= 1e-16 * max(1.0, abs(t)):
            rec_out.append(rec_times.pop(0))
            rec_states.append(y.copy())

    n_steps = 0
    h = None
    for stop in stops:
        with np.errstate(all="ignore"):
            # each leg starts one ulp inside: the f carried into a knot is the
            # left limit there, and a left-continuous signal read at the knot
            # itself gives the cell behind
            f = rhs(np.nextafter(t, stop), y)
            if h is None:
                atol_max = np.max(np.atleast_1d(atol))
                h = min(initial_step(rhs, t, y, f, direction, rtol, atol_max), span)
        short = direction < 0 and stop != stops[-1]  # a backward leg into a knot
        while (stop - t) * direction > 1e-15 * max(1.0, abs(t)):
            h = min(h, abs(stop - t))
            if short and t - h <= stop:
                h = t - math.nextafter(stop, t)
                while t - h <= stop:
                    h -= math.ulp(t)
            rejected = False
            while True:
                n_steps += 1
                if n_steps > max_steps:
                    raise errors.IntegrationFailed("step budget exhausted in plain integration")
                t_new = t + direction * h
                with np.errstate(all="ignore"):
                    y_new, f_new, err = step(rhs, t, y, f, direction * h)
                    err_norm = error_norm(err, y, y_new, rtol, atol, cols)
                if not finite(y_new):
                    err_norm = np.inf  # an overflowing stage rejects the step
                if err_norm <= 1.0:
                    break
                rejected = True
                h = next_step(h, err_norm)
                if h < 1e-15 * max(1.0, abs(t)):
                    raise errors.IntegrationFailed("step underflow in plain integration")
            if rec_times:
                while rec_times and (rec_times[0] - t_new) * direction <= 0.0:
                    tr = rec_times.pop(0)
                    rec_out.append(tr)
                    rec_states.append(hermite(t, y, f, t_new, y_new, f_new, tr))
            t, y, f = t_new, y_new, f_new
            h = next_step(h, err_norm, rejected)
        t = stop  # the leg ended within roundoff of its stop
    if record is not None:
        # Anything left records the terminal state (guards roundoff at t1).
        for tr in rec_times:
            rec_out.append(tr)
            rec_states.append(y.copy())
        return np.array(rec_out), np.array(rec_states)
    return y
