"""Dormand-Prince 5(4) stepping: the primitives and the one step loop.

`steps` is the adaptive step loop of the package.  `integrate_plain`
records the steps it yields, and `integrate.integrate_forward` scans them
for target events and restarts it at a chart switch.  `steps` owns every
rule of the loop: the restart one ulp inside each leg between knots, the
first-step guess, the landing on each stop, the trial and its rejection, the
step-size rule `next_step`, the stall floor and the step budget.  A rejected
trial shrinks by the error-norm factor (halves when the norm is not finite),
and an accepted trial grows by it, except right after a rejection, when it
may not grow (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Without that
cap the retried step grows back about 4.6x next to a singular set and is
rejected again, in a cycle.

The per-trial kernel (`step`, `error_norm`, `hermite`) runs on Python
floats: it reads its vectors with `tolist()` (`hermite` takes them as
float sequences, so a caller converts once), forms each stage sum as one
comprehension over the components, and builds one array per stage state for
the field.  Every state the package integrates is short, and on a short
vector a NumPy call costs far more in dispatch than in arithmetic.  On a
2-vector with a linear field y' = M y (x86-64, Python 3.11, NumPy 2.4, both
kernels timed in one process) a trial, `step` plus `error_norm`, took 42 us
on floats and 70 us as NumPy calls, `error_norm` alone 1.9 and 11.3 us, and
`hermite` 5.5 and 9.6 us.  Floats lose from about 12-15 components: at 12 the trial took
73 us on floats and 80 on NumPy, at 20 it took 96 and 73.  The built-in
examples stay below that crossover: the forward state has n components, and
the largest state, the pre-terminal adjoint family, 3n (three stacked
covector columns), which is 6 for the two-dimensional quench.
`scripts/bench_integrator.py` records the kernel timings at 1, 2, 6, 9 and
20 components in `BENCH_integrator.json`.

`hermite` and `error_norm` give NumPy's bits: they apply the same elementwise
operations in the same order, and NumPy's add.reduce sums fewer than 8
elements left to right, as `error_norm` sums each column.  The stage sums of
`step` round differently from the BLAS matmul they replace, which fuses
multiply-adds; the two agree to roundoff.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from . import errors

# Classic DOPRI5 tableau (Hairer, Norsett & Wanner I, Table II.5.2); the
# seventh stage is evaluated at y_new, and its derivative (first same as last)
# doubles as the next step's k1.  The zero entries (a72, b2, b7 and e2) are
# left out of the sums.
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40

MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
SAFETY = 0.9
# a rejected trial shrinking below this, relative to max(1, |t|), stalls the pass
STALL_FLOOR = 1e-14


def step(rhs, t, y, f, h):
    """One trial step from (t, y) with f = rhs(t, y); rhs returns a float array.

    Returns (y_new, f_new, err): y_new and f_new = rhs(t + h, y_new) are
    arrays, err (the embedded error estimate, which error_norm scales by the
    caller's tolerances) is a list.
    """
    h = float(h)  # a NumPy scalar h would make every product below a NumPy call
    y = y.tolist()
    k1 = f.tolist()
    k2 = rhs(t + C2 * h, np.array([v + h * (A21 * a) for v, a in zip(y, k1)])).tolist()
    k3 = rhs(
        t + C3 * h, np.array([v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)])
    ).tolist()
    k4 = rhs(
        t + C4 * h,
        np.array([v + h * (A41 * a + A42 * b + A43 * c) for v, a, b, c in zip(y, k1, k2, k3)]),
    ).tolist()
    k5 = rhs(
        t + C5 * h,
        np.array(
            [
                v + h * (A51 * a + A52 * b + A53 * c + A54 * d)
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
        ),
    ).tolist()
    k6 = rhs(
        t + h,
        np.array(
            [
                v + h * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
            ]
        ),
    ).tolist()
    y_new = np.array(
        [
            v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * g)
            for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)
        ]
    )
    f_new = rhs(t + h, y_new)
    err = [
        h * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * k)
        for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, f_new.tolist())
    ]
    return y_new, f_new, err


def finite(v):
    """np.isfinite(v).all() for a float vector, without the ufunc's overhead."""
    return all(map(math.isfinite, v.tolist()))


def error_norm(err, y0, y1, rtol, atol, cols=1):
    """RMS of the embedded error estimate over the mixed tolerance scale.

    A state that stacks cols equal-length columns gets the largest of the
    column RMS values, so no column is held to a looser control than it
    would be alone.  err is a list or an array, atol a scalar or an array.
    A zero scale or a non-finite err gives a norm that fails <= 1.
    """
    if isinstance(err, np.ndarray):
        err = err.tolist()
    rtol = float(rtol)
    atols = atol.tolist() if isinstance(atol, np.ndarray) and atol.ndim else repeat(float(atol))
    width = len(err) // cols
    worst = total = 0.0
    try:
        for i, (e, s, a, b) in enumerate(zip(err, atols, y0.tolist(), y1.tolist()), 1):
            a, b = abs(a), abs(b)
            q = e / (s + rtol * (a if a >= b else b))
            # left to right, as NumPy's add.reduce sums fewer than 8 elements
            total += q * q
            if i % width == 0:  # the end of a column
                if total > worst:
                    worst = total
                elif total != total:
                    return math.nan
                total = 0.0
    except ZeroDivisionError:
        return math.inf
    return math.sqrt(worst / width)


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
    """Cubic Hermite interpolation between two accepted samples, as an array.

    y0, f0, y1 and f1 are float sequences: array callers pass tolist(), and a
    trajectory cursor its lists, converted once.
    """
    h = float(t1 - t0)
    if h == 0.0:
        return np.array(y0, dtype=float)
    s = float(t - t0) / h
    s2 = s * s
    s3 = s2 * s
    a = 2 * s3 - 3 * s2 + 1
    b = (s3 - 2 * s2 + s) * h
    c = -2 * s3 + 3 * s2
    d = (s3 - s2) * h
    return np.array([a * p + b * q + c * r + d * v for p, q, r, v in zip(y0, f0, y1, f1)])


class StageFailure(Exception):
    """A stage left the field's domain: the trial is rejected and retried smaller."""


def steps(rhs_for, t, y, stops, rtol, atol, budget, cols=1, h=None, cap=None):
    """The one adaptive step loop: accepted steps from (t, y) through stops.

    stops are in travel order (decreasing integrates backward), and each ends
    a leg whose rhs is rhs_for(t, stop).  A leg restarts the stage derivative
    one ulp inside, where a left-continuous signal reads the new cell: the
    first-same-as-last derivative carried into a knot is its left limit.  A
    step lands on its leg's stop, but a backward leg into a knot ends a few
    ulps short of it, so no stage of its last step reads the cell ahead.

    h is the first trial size (default `initial_step`, within the span), and
    cap(t, y, f, h) may shorten the first trial at each position; a rejected
    trial only shrinks below it.  A trial is rejected when a stage raises
    StageFailure, the new state is not finite or the error norm is above 1.
    Each trial takes one item of the iterator budget (callers may share it
    across restarts) and raises IntegrationFailed when it is empty.  A step
    size below STALL_FLOOR * max(1, |t|) raises StepStall.

    Yields (t, y, f, h, t_new, y_new, f_new, h_next) per accepted step, with
    the trial size h itself (t_new - t rounds) and the next trial size
    h_next.  Run it under np.errstate(all="ignore"), as the integrators do.
    """
    direction = 1.0 if stops[-1] >= t else -1.0
    for stop in stops:
        rhs = rhs_for(t, stop)
        try:
            f = rhs(np.nextafter(t, stop), y)
        except StageFailure:
            raise errors.SingularState("field not evaluable at the leg start") from None
        if h is None:
            h = min(initial_step(rhs, t, y, f, direction, rtol, np.max(atol)), abs(stops[-1] - t))
        short = direction < 0 and stop != stops[-1]  # a backward leg into a knot
        while (stop - t) * direction > 1e-15 * max(1.0, abs(t)):
            h = min(h, abs(stop - t))
            if short and t - h <= stop:
                h = t - math.nextafter(stop, t)
                while t - h <= stop:
                    h -= math.ulp(t)
            if cap is not None:
                h = cap(t, y, f, h)
            rejected = False
            while True:
                if next(budget, None) is None:
                    raise errors.IntegrationFailed("integration exceeded its step budget")
                try:
                    y_new, f_new, err = step(rhs, t, y, f, direction * h)
                    err_norm = error_norm(err, y, y_new, rtol, atol, cols)
                    if not finite(y_new):
                        err_norm = math.inf  # an overflowing stage rejects the step
                except StageFailure:
                    err_norm = math.inf
                if err_norm <= 1.0:
                    break
                rejected = True
                h = next_step(h, err_norm)
                if h < STALL_FLOOR * max(1.0, abs(t)):
                    raise errors.StepStall(t, f)
            t_new = t + direction * h
            h_next = next_step(h, err_norm, rejected)
            yield t, y, f, h, t_new, y_new, f_new, h_next
            t, y, f, h = t_new, y_new, f_new, h_next
        t = stop  # the leg ended within roundoff of its stop


def integrate_plain(rhs, t0, t1, y0, rtol, atol, knots=(), max_steps=200_000, record=None, cols=1):
    """Adaptive integration without events; supports t1 < t0 (backward).

    atol may be a scalar or a vector.  y may stack cols equal-length
    columns; step control then takes the worst column (error_norm).  knots
    are interior times where the rhs may be discontinuous: each ends a leg of
    `steps`.  When `record` is a sorted array of times (in travel order) the
    state is recorded exactly at those times and (times, states) is returned;
    otherwise the terminal state.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    if t1 == t0:
        if record is not None:
            return np.array([t0]), y[None, :].copy()
        return y
    stops = sorted({float(k) for k in knots if min(t0, t1) < k < max(t0, t1)} | {float(t1)})
    if direction < 0:
        stops = stops[::-1]
    rec_times = None if record is None else list(record)
    rec_out, rec_states = [], []
    while rec_times and (rec_times[0] - t) * direction <= 1e-16 * max(1.0, abs(t)):
        rec_out.append(rec_times.pop(0))  # the initial time
        rec_states.append(y.copy())

    accepted = steps(lambda t, stop: rhs, t, y, stops, rtol, atol, iter(range(max_steps)), cols)
    with np.errstate(all="ignore"):  # one context for the pass
        for t, y, f, _, t_new, y_new, f_new, _ in accepted:
            while rec_times and (rec_times[0] - t_new) * direction <= 0.0:
                tr = rec_times.pop(0)
                rec_out.append(tr)
                rec_states.append(
                    hermite(t, y.tolist(), f.tolist(), t_new, y_new.tolist(), f_new.tolist(), tr)
                )
            y = y_new
    if record is not None:
        # Anything left records the terminal state (guards roundoff at t1).
        for tr in rec_times:
            rec_out.append(tr)
            rec_states.append(y.copy())
        return np.array(rec_out), np.array(rec_states)
    return y
