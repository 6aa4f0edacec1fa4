import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from relaxtoc import _rk, errors, integrate, pmp
from relaxtoc.dynamics import (
    AffineStructure,
    BallSet,
    ControlSystem,
    PiecewiseConstant,
    make_blowup_system,
    make_integrator_system,
    make_quenching_system,
)
from relaxtoc.integrate import (
    DIVERGED,
    HIT_TARGET,
    MAX_TIME,
    SINGULAR_STALL,
    IntegratorOptions,
    Trajectory,
    integrate_adjoint,
    integrate_forward,
)
from relaxtoc.relaxed import ClassicalSchedule, RelaxedSchedule
from relaxtoc.target import Ball, HalfSpace, Hyperplane, Point

QUENCH_FREE_HIT = 0.65376084  # fixed-step RK4 + analytic tail, h -> 0


@pytest.fixture(scope="module")
def quench_free_traj(quench_sys, quench_target):
    # hit_tol 1e-6 is the resolvable scale at the singular line: the distance
    # shrinks like sqrt(tbar - t), so d = tol happens at tbar - t ~ tol^2
    return integrate_forward(
        quench_sys,
        None,
        np.array([0.0, 0.5]),
        tgt=quench_target.with_alpha(0.0),
        t_max=2.0,
        opts=IntegratorOptions(hit_tol=1e-6),
    )


def test_toy_constant_hit_time(toy_sys, toy_target):
    control = ClassicalSchedule(grid=np.array([0.0, 2.0]), values=np.array([[1.0]]))
    for tol in (1e-6, 1e-8, 1e-10):
        traj = integrate_forward(
            toy_sys,
            control,
            np.zeros(1),
            tgt=toy_target,
            t_max=2.0,
            opts=IntegratorOptions(hit_tol=tol),
        )
        assert traj.hit.status == HIT_TARGET
        assert abs(traj.hit.time - 1.0) <= 10.0 * tol


def test_receding_then_crossing(toy_sys):
    # drive away from the target first; the approach clamp must not burn the
    # step budget while the distance grows
    control = ClassicalSchedule(
        grid=np.array([0.0, 0.3, 3.0]), values=np.array([[-1.0], [1.0]])
    )
    traj = integrate_forward(
        toy_sys,
        control,
        np.array([0.5]),
        tgt=Point(location=np.array([1.0])),
        t_max=3.0,
        opts=IntegratorOptions(hit_tol=1e-8),
    )
    assert traj.hit.status == HIT_TARGET
    assert abs(traj.hit.time - 1.1) <= 1e-7
    assert len(traj.times) < 1000


def test_flythrough_point_target():
    # the trajectory passes exactly through the target; the in-step dip scan
    # must catch it even though the endpoint distances never cross zero
    sys2 = make_integrator_system(2)
    control = ClassicalSchedule(
        grid=np.array([0.0, 2.0]), values=np.array([[1.0, 0.246]])
    )
    traj = integrate_forward(
        sys2,
        control,
        np.zeros(2),
        tgt=Point(location=np.array([0.5, 0.123])),
        t_max=2.0,
        opts=IntegratorOptions(hit_tol=1e-8),
    )
    assert traj.hit.status == HIT_TARGET
    assert abs(traj.hit.time - 0.5) <= 1e-6


def _scan(tgt, y0, f0, y1, f1, h, hit_tol, t=0.0):
    """(clearance verdict, scan event) of one Hermite step against tgt."""
    dense = lambda tau: _rk.hermite(t, y0, f0, t + h, y1, f1, tau)
    d0, d1 = tgt.distance(y0), tgt.distance(y1)
    clears = integrate._step_clears(d0, d1, y0, f0, y1, f1, h, hit_tol, integrate._target_scale(tgt))
    event = integrate._scan_step(
        dense, t, h, y0, y1, d0, d1, tgt.distance, tgt.signed_gap, hit_tol
    )
    return clears, event, dense


_coord = st.floats(-2.0, 2.0)
_vec2 = st.tuples(_coord, _coord).map(np.array)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["hyperplane", "halfspace", "ball", "point"]),
    alpha=st.sampled_from([0.0, 1e-3, 0.3]),
    y0=_vec2,
    dy=_vec2,
    f0=_vec2,
    f1=_vec2,
    h=st.floats(1e-3, 1.0),
    s_near=st.floats(0.0, 1.0),
    gap=st.floats(0.0, 0.2),
    unit=st.floats(0.0, 2.0 * np.pi),
    log_tol=st.floats(-8.0, -2.0),
)
def test_step_clearance_bound_implies_an_empty_scan(kind, alpha, y0, dy, f0, f1, h, s_near, gap, unit, log_tol):
    # the target sits gap (plus its inflation) from one point of the step's
    # dense output, so the bound is often close to the tolerance; whenever
    # it clears the step, the full scan (samples, golden minimum, signed
    # crossings) finds no event and a fine sweep stays outside hit_tol
    y1 = y0 + dy
    hit_tol = 10.0**log_tol
    near = _rk.hermite(0.0, y0, f0, h, y1, f1, s_near * h)
    e = np.array([np.cos(unit), np.sin(unit)])
    if kind == "hyperplane":
        tgt = Hyperplane(axis=0, level=float(near[0]) + gap + alpha)
    elif kind == "halfspace":
        tgt = HalfSpace(normal=e, offset=float(e @ near) - gap - alpha)
    elif kind == "ball":
        tgt = Ball(center=near + (gap + alpha + 0.5) * e, radius=0.5)
    else:
        tgt = Point(location=near + (gap + alpha) * e)
    tgt = tgt.with_alpha(alpha)
    if tgt.distance(y0) <= hit_tol:
        return  # the integrator never starts a step within the tolerance
    clears, event, dense = _scan(tgt, y0, f0, y1, f1, h, hit_tol)
    if clears:
        assert event is None
        assert min(tgt.distance(dense(tau)) for tau in np.linspace(0.0, h, 1001)) > hit_tol


def test_step_clearance_keeps_grazing_hits_and_crossings():
    # the dense output below dips to (0.5, 0) and runs through (0.4, 0.04)
    # between the scan's samples at 0.25 and 0.5; both a grazing ball and a
    # line crossed between the last two samples must still be found
    y0, y1 = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    f0, f1 = np.array([1.0, -4.0]), np.array([1.0, 4.0])
    graze = Point(location=np.array([0.4, 0.04])).with_alpha(1e-3)
    cross = Hyperplane(axis=0, level=0.9)
    for tgt, t_hit in ((graze, 0.4), (cross, 0.9)):
        clears, event, _ = _scan(tgt, y0, f0, y1, f1, 1.0, 1e-8)
        assert not clears
        assert event is not None and event[1] == "hit" and abs(event[0] - t_hit) < 0.01
    # far from either target the bound clears the step
    clears, event, _ = _scan(graze, y0 + 3.0, f0, y1 + 3.0, f1, 1.0, 1e-8)
    assert clears and event is None


def test_scalar_blowup_closed_form(blowup_free_g1):
    # y' = y^2, y(0) = 1 blows up at t = 1; in the chart z = 1/y that is the
    # hit time of the origin
    traj = integrate_forward(
        blowup_free_g1,
        None,
        np.array([1.0]),
        tgt=Point(location=np.array([0.0])),
        t_max=2.0,
        opts=IntegratorOptions(hit_tol=1e-8),
    )
    assert traj.hit.status == HIT_TARGET
    assert abs(traj.hit.time - 1.0) <= 1e-7


def test_quench_hit_matches_rk4_oracle(quench_free_traj):
    assert quench_free_traj.hit.status == HIT_TARGET
    assert abs(quench_free_traj.hit.time - QUENCH_FREE_HIT) <= 2e-7
    # the frozen constant itself reproduces from the oracle at coarse step
    fresh = oracles.quench_hit_time(lambda t: np.zeros(2), (0.0, 0.5), h=5e-5)
    assert abs(fresh - QUENCH_FREE_HIT) <= 1e-6


def test_hit_invariants(quench_free_traj, quench_target):
    tgt = quench_target.with_alpha(0.0)
    assert quench_free_traj.hit.terminal_distance <= 1e-6
    # interior samples stay strictly outside the target
    for y in quench_free_traj.states[:-1]:
        assert tgt.distance(y) > 0.0
    assert np.all(np.diff(quench_free_traj.times) > 0.0)


def test_statuses_max_time_and_stall(toy_sys, quench_sys):
    idle = integrate_forward(toy_sys, None, np.zeros(1), tgt=Point(location=np.array([1.0])), t_max=0.5)
    assert idle.hit.status == MAX_TIME
    stalled = integrate_forward(quench_sys, None, np.array([0.0, 0.5]), tgt=None, t_max=2.0)
    assert stalled.hit.status == SINGULAR_STALL
    assert abs(stalled.times[-1] - QUENCH_FREE_HIT) <= 1e-4


def test_forward_and_plain_take_the_same_steps(quench_sys):
    # both sweeps consume one step loop: with no target and no control the
    # forward's steps are plain's on the drift, bit for bit, up to the floor
    y0 = np.array([0.0, 0.5])
    opts = IntegratorOptions()
    drift = quench_sys.affine.drift
    free = integrate_forward(quench_sys, None, y0, tgt=None, t_max=0.5, opts=opts)
    assert free.hit.status == MAX_TIME
    times, states = _rk.integrate_plain(drift, 0.0, 0.5, y0, opts.rtol, opts.atol, record=free.times)
    assert np.array_equal(times, free.times) and np.array_equal(states, free.states)
    stalled = integrate_forward(quench_sys, None, y0, tgt=None, t_max=2.0, opts=opts)
    assert stalled.hit.status == SINGULAR_STALL
    assert stalled.hit.time == 0.6537608185058283
    with pytest.raises(errors.IntegrationFailed) as failed:
        _rk.integrate_plain(drift, 0.0, 2.0, y0, opts.rtol, opts.atol)
    assert isinstance(failed.value, errors.StepStall)
    assert failed.value.t == stalled.hit.time


def test_a_stall_before_any_step_keeps_the_start_sample(quench_sys):
    # 1e-9 below the singular line no trial is accepted: the pass still
    # returns its start, with the derivative its first leg started from
    y0 = np.array([1.0 - 1e-9, 0.5])
    traj = integrate_forward(quench_sys, None, y0, tgt=None, t_max=1.0)
    assert traj.hit.status == SINGULAR_STALL and traj.hit.time == 0.0
    assert traj.times.tolist() == [0.0] and np.array_equal(traj.states, [y0])
    assert np.array_equal(traj.derivs, [quench_sys.affine.drift(0.0, y0)])


@pytest.mark.xfail(
    strict=True,
    raises=errors.IntegrationFailed,
    reason="known defect: at search tolerances an accepted step lands past the singular "
    "line y1 = 1 (y1 = 1.0000017), and the run chatters there in steps of about 1e-12 "
    "until the step budget is spent",
)
def test_search_tolerances_stall_at_the_singular_line(quench_sys):
    # at the default tolerances the same run stalls after 164 trials
    opts = dataclasses.replace(IntegratorOptions().search, max_steps=20_000)
    traj = integrate_forward(quench_sys, None, np.array([0.0, 0.5]), tgt=None, t_max=2.0, opts=opts)
    assert traj.hit.status == SINGULAR_STALL


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the hit time is the event time plus min(d / -rate, h_try), and the "
    "approach cap makes h_try, the trial that found the event, shorter than d / -rate on "
    "some step histories, so the extrapolation is cut short (3.17e-9 early on 3 and 12 cells)",
)
def test_hit_time_does_not_depend_on_the_knots(toy_sys):
    # y' = 1 from 0 towards the ball |y - 1| <= 0.25 hits at 0.75 exactly,
    # whatever grid carries the constant control
    tgt = Point([1.0]).with_alpha(0.25)
    gaps = []
    for cells in (1, 3, 4, 7, 12):
        control = ClassicalSchedule(np.linspace(0.0, 2.0, cells + 1), np.ones((cells, 1)))
        traj = integrate_forward(toy_sys, control, np.zeros(1), tgt=tgt, t_max=2.0)
        assert traj.hit.status == HIT_TARGET
        gaps.append(abs(traj.hit.time - 0.75))
    assert max(gaps) <= 1e-12, gaps


def test_step_budget_raises_a_package_error(quench_sys, quench_short):
    # a run out of steps is an integration failure, not a status and not a
    # bare RuntimeError, so the command line reports it as exit 2
    tight = IntegratorOptions(max_steps=5)
    with pytest.raises(errors.IntegrationFailed):
        integrate_forward(quench_sys, None, np.array([0.0, 0.5]), tgt=None, t_max=0.5, opts=tight)
    control, traj = quench_short
    with pytest.raises(errors.IntegrationFailed):
        integrate_adjoint(quench_sys, traj, control, np.array([0.3, 0.9]), opts=tight)


def test_status_diverged_in_chart(blowup_free_g1):
    traj = integrate_forward(blowup_free_g1, None, np.array([1.0]), tgt=None, t_max=2.0)
    assert traj.hit.status == DIVERGED
    assert abs(traj.times[-1] - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("radius", [3.0, 5.0])
def test_blowup_reaches_the_divergence_band_without_rejections(monkeypatch, n, radius):
    # |y|' = |y|^2 blows up at 1 / |y0|; the chart approaches z = 0 the way
    # the target is approached, so no step jumps across it and is rejected
    trials = _record_trials(monkeypatch)
    y0 = radius * (np.array([1.0]) if n == 1 else np.array([0.6, 0.8]))
    traj = integrate_forward(make_blowup_system(n=n, p=2.0, gamma=1.0), None, y0, t_max=1.0)
    assert traj.hit.status == DIVERGED
    assert abs(traj.hit.time - 1.0 / radius) <= 3e-9
    assert _rejections(trials) <= 2


def _record_trials(monkeypatch):
    """(t, h) of every _rk.step call from here on."""
    trials = []
    step = _rk.step

    def recording_step(rhs, t, y, f, h):
        trials.append((t, h))
        return step(rhs, t, y, f, h)

    monkeypatch.setattr(_rk, "step", recording_step)
    return trials


def _rejections(trials):
    # a rejected trial is retried from the same time
    return sum(a[0] == b[0] for a, b in zip(trials, trials[1:]))


def test_no_step_growth_right_after_a_rejection(monkeypatch, quench_sys):
    # an accepted retry may not propose a larger next step: next to the
    # singular line and the chart origin it would be rejected again
    quench_sched = RelaxedSchedule(
        grid=[0.0, 0.2, 0.4],
        atoms=np.array([[[1.0, 0.0], [0.6, 0.8]], [[0.8, -0.6], [1.0, 0.0]]]),
        weights=np.array([[0.5, 0.5], [0.25, 0.75]]),
    )
    angles = np.array([0.3, 2.1, 4.0, 5.2, 1.1, 3.3])
    envelope = ClassicalSchedule(
        grid=np.linspace(0.0, 5.0, 7), values=np.stack([np.cos(angles), np.sin(angles)], axis=1)
    )
    trials = _record_trials(monkeypatch)
    for sys_, control, y0, tgt, t_max, status in (
        (quench_sys, quench_sched, [0.0, 0.5], Hyperplane(axis=0, level=1.0), 1.0, HIT_TARGET),
        (make_blowup_system(n=2, p=2.0, gamma=1.0), envelope, [1.2, 1.6], None, 5.0, DIVERGED),
    ):
        trials.clear()
        traj = integrate_forward(
            sys_, control, np.array(y0), tgt=tgt, t_max=t_max, opts=IntegratorOptions(hit_tol=1e-6)
        )
        assert traj.hit.status == status
        retries = [
            i
            for i in range(1, len(trials) - 1)
            if trials[i - 1][0] == trials[i][0] != trials[i + 1][0]
        ]
        assert retries
        for i in retries:
            assert trials[i + 1][1] <= trials[i][1]


def test_status_diverged_without_chart():
    # bare exponential growth in original coordinates: left every compact set
    # once |y| passes the divergence radius
    sys1 = ControlSystem(
        name="exp-growth",
        kind="toy",
        jacobian=lambda t, y: np.array([[5.0]]),
        control_set=BallSet(radius=0.0, dim=1),
        affine=AffineStructure(
            drift=lambda t, y: 5.0 * y,
            input_matrix=PiecewiseConstant.constant(np.zeros((1, 1))),
        ),
    )
    traj = integrate_forward(sys1, None, np.array([1.0]), tgt=None, t_max=10.0)
    assert traj.hit.status == DIVERGED
    assert abs(traj.times[-1] - np.log(1e12) / 5.0) <= 1e-2


def test_sample_accuracy_against_rk4(quench_sys):
    control = ClassicalSchedule(grid=np.array([0.0, 0.5]), values=np.array([[0.3, -0.1]]))
    traj = integrate_forward(
        quench_sys,
        control,
        np.array([0.0, 0.5]),
        tgt=None,
        t_max=0.5,
        opts=IntegratorOptions(rtol=1e-10, atol=1e-12),
    )
    u = np.array([0.3, -0.1])
    ref = oracles.rk4(
        lambda t, y: np.array([y[1] / (1.0 - y[0]) + u[0], y[0] + y[1] + u[1]]),
        0.0,
        0.5,
        np.array([0.0, 0.5]),
        20000,
    )
    assert np.abs(traj.states[-1] - ref).max() <= 1e-8


def test_plain_restarts_past_each_knot(monkeypatch):
    # y' = c(t) with a left-continuous piecewise-constant c: DOPRI5 is exact
    # on each leg, provided the first stage of a leg reads the new cell
    signal = PiecewiseConstant([0.0, 0.3, 0.7, 1.1], [1.0, -2.0, 3.0, 0.5])
    trial_starts = []
    step = _rk.step

    def recording_step(rhs, t, y, f, h):
        trial_starts.append(t)
        return step(rhs, t, y, f, h)

    monkeypatch.setattr(_rk, "step", recording_step)
    y = _rk.integrate_plain(
        lambda t, y: np.array([signal(t)]), 0.0, 1.5, np.zeros(1), 1e-10, 1e-12, knots=signal.knots
    )
    assert abs(y[0] - (0.3 - 0.8 + 1.2 + 0.2)) <= 1e-14
    # a rejected trial step is retried from the same time
    assert len(trial_starts) == len(set(trial_starts))


def test_plain_backward_stops_short_of_each_knot(monkeypatch):
    # backward over the same signal: a step landing on a knot would evaluate
    # its last stages in the cell ahead, so each leg ends just short of its
    # knot, and DOPRI5 is exact on each leg again
    signal = PiecewiseConstant([0.0, 0.3, 0.7, 1.1], [1.0, -2.0, 3.0, 0.5])
    trials = _record_trials(monkeypatch)
    y = _rk.integrate_plain(
        lambda t, y: np.array([signal(t)]), 1.5, 0.0, np.zeros(1), 1e-9, 1e-11, knots=signal.knots
    )
    assert abs(y[0] + 0.9) <= 1e-12
    assert len(trials) <= 16


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_step_matches_the_matmul_tableau(n):
    # the unrolled stage sums round differently from the tableau matmuls,
    # so the two agree to roundoff, not bit for bit
    rng = np.random.default_rng(n)
    for _ in range(20):
        M, c = rng.normal(size=(n, n)), rng.normal(size=n)
        rhs = lambda t, y: M @ y + np.cos(t) * c
        t, y, h = float(rng.uniform(-1.0, 1.0)), rng.normal(size=n), float(rng.uniform(-0.3, 0.3))
        f = rhs(t, y)
        y_new, f_new, err = _rk.step(rhs, t, y, f, h)
        ref_y, ref_f, ref_err = oracles.dopri5_step(rhs, t, y, f, h)
        scale = np.abs(ref_y).max()
        assert np.abs(y_new - ref_y).max() <= 1e-13 * scale
        assert np.abs(f_new - ref_f).max() <= 1e-13 * np.abs(ref_f).max()
        assert np.abs(np.asarray(err) - ref_err).max() <= 1e-13 * scale
        # f_new is the field at y_new, the first-same-as-last derivative
        assert _same_bits(f_new, rhs(t + h, y_new))


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("vector_atol", [False, True])
def test_error_norm_matches_numpy_bit_for_bit(cols, vector_atol):
    # every column is shorter than 8 elements, where NumPy's add.reduce sums
    # left to right like the kernel
    rng = np.random.default_rng(3 * cols + vector_atol)
    for width in range(1, 8):
        size = cols * width
        for _ in range(50):
            err = rng.normal(size=size) * 10.0 ** rng.uniform(-14, -6, size=size)
            y0, y1 = rng.normal(size=size), rng.normal(size=size)
            y1[rng.random(size) < 0.2] = 0.0
            atol = 10.0 ** rng.uniform(-14, -9, size=size) if vector_atol else 1e-11
            for e in (err, err.tolist()):
                got = _rk.error_norm(e, y0, y1, 1e-9, atol, cols)
                assert got == oracles.dopri5_error_norm(err, y0, y1, 1e-9, atol, cols)


def test_error_norm_fails_on_a_zero_scale_or_a_non_finite_error():
    # the NumPy norm returned inf or nan here under errstate; float division
    # raises instead, and the kernel must still return a failing norm
    zero = np.zeros(2)
    for err in ([1e-9, 0.0], [0.0, 0.0]):
        assert not _rk.error_norm(err, zero, zero, 1e-9, 0.0) <= 1.0
        assert not _rk.error_norm(err, zero, zero, 1e-9, np.zeros(2)) <= 1.0
    y = np.ones(6)
    for bad in (np.nan, np.inf, -np.inf):
        for j in range(6):
            err = np.zeros(6)
            err[j] = bad
            for cols in (1, 2, 3):
                assert not _rk.error_norm(err, y, y, 1e-9, 1e-11, cols) <= 1.0


@pytest.mark.parametrize("n", [1, 2, 6])
def test_hermite_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        t0 = float(rng.uniform(-1.0, 1.0))
        t1 = t0 + float(rng.uniform(-0.5, 0.5))
        y0, f0, y1, f1 = rng.normal(size=(4, n))
        # sample times come as floats and, from trajectories, as NumPy scalars
        for t in (t0, t1, t0 + 0.3 * (t1 - t0), np.float64(t0 + 0.7 * (t1 - t0))):
            got = _rk.hermite(np.float64(t0), y0.tolist(), f0.tolist(), t1, y1.tolist(), f1.tolist(), t)
            assert _same_bits(got, oracles.hermite(np.float64(t0), y0, f0, t1, y1, f1, t))


def test_dense_output_after_a_knot(quench_sys):
    # the control jumps at every knot; interpolation in the step after a
    # knot must start from the right-limit derivative, not the left one
    grid = np.linspace(0.0, 0.4, 9)
    angles = 2.5 * np.arange(8)
    values = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    traj = integrate_forward(
        quench_sys, ClassicalSchedule(grid=grid, values=values), np.array([0.0, 0.5]), t_max=0.4
    )

    def reference(t):
        cells = np.append(grid[grid < t], t)
        return oracles.per_cell_dop853(
            lambda j, y: oracles.quench_field(0.0, y, values[j]), cells, [0.0, 0.5]
        )

    for knot in grid[1:-1]:
        i = int(np.searchsorted(traj.times, knot))
        assert traj.times[i] == knot
        for s in (0.25, 0.5, 0.75):
            t = traj.times[i] + s * (traj.times[i + 1] - traj.times[i])
            assert np.abs(traj.interp(t) - reference(t)).max() <= 1e-6


def test_gronwall_stability(quench_sys):
    y0 = np.array([0.0, 0.5])
    delta = 1e-6
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    base = integrate_forward(quench_sys, None, y0, tgt=None, t_max=0.25, opts=opts)
    pert = integrate_forward(
        quench_sys, None, y0 + np.array([delta, 0.0]), tgt=None, t_max=0.25, opts=opts
    )
    # both runs read through their dense output on one grid of spacing 0.002
    grid = np.linspace(0.0, 0.25, 126)
    L = max(float(np.linalg.norm(quench_sys.jacobian(t, base.interp(t)).T, 2)) for t in grid)
    gap = max(float(np.linalg.norm(pert.interp(t) - base.interp(t))) for t in grid)
    assert gap <= delta * np.exp(L * 0.25) * (1.0 + 1e-6)


@pytest.fixture(scope="module")
def quench_short(quench_sys):
    control = ClassicalSchedule(grid=np.array([0.0, 0.2]), values=np.array([[0.4, 0.2]]))
    traj = integrate_forward(
        quench_sys,
        control,
        np.array([0.0, 0.5]),
        tgt=None,
        t_max=0.2,
        opts=IntegratorOptions(rtol=1e-11, atol=1e-13),
    )
    return control, traj


@settings(max_examples=10)
@given(st.floats(-3.0, 3.0))
def test_adjoint_homogeneity(quench_sys, quench_short, log_c):
    control, traj = quench_short
    c = float(10.0 ** log_c)
    seed = np.array([0.7, -0.4])
    n1 = integrate_adjoint(quench_sys, traj, control, seed)
    n2 = integrate_adjoint(quench_sys, traj, control, c * seed)
    base, scaled = n1.psis / n1.normalization, n2.psis / n2.normalization
    ref = np.abs(c * base).max()
    assert np.abs(scaled - c * base).max() <= 1e-13 * ref
    # the sweep normalized at zero is invariant under positive scaling
    assert np.abs(n1.psis - n2.psis).max() <= 1e-12
    assert abs(n1.norm_at_zero() - 1.0) <= 1e-12


def test_adjoint_matches_rk4_oracle(quench_sys, quench_short):
    control, traj = quench_short
    seed = np.array([0.3, 0.9])
    adj = integrate_adjoint(quench_sys, traj, control, seed)

    def jac_of_t(t):
        return quench_sys.jacobian(t, traj.interp(t))

    psi0 = oracles.adjoint_rk4(jac_of_t, traj.times[-1], seed, steps=20000)
    mine = adj.psis[0] / adj.normalization
    assert np.abs(mine - psi0).max() <= 1e-8 * (1.0 + np.abs(psi0).max())


def test_adjoint_norm_nonincreasing_on_blowup(blowup_free_g1):
    # drift Jacobian is symmetric positive semi-definite, so |psi| cannot
    # grow backward-in-time... i.e. forward in t it is nonincreasing
    traj = integrate_forward(
        blowup_free_g1,
        None,
        np.array([1.0]),
        tgt=Point(location=np.array([0.0])),
        t_max=2.0,
        opts=IntegratorOptions(hit_tol=1e-8),
    )
    adj = integrate_adjoint(
        blowup_free_g1, traj, None, np.array([1.0]), t_end=min(traj.hit.time, traj.times[-1]) * 0.99
    )
    norms = np.linalg.norm(adj.psis, axis=1)
    assert np.all(np.diff(norms) <= 1e-10 * norms.max())


def _preterminal_family(sys_, tgt, traj):
    """Seed times T - delta * T and their normal-cone seeds, as verify takes them."""
    t_bar = min(traj.hit.time, float(traj.times[-1]))
    t_ends = [t_bar * (1.0 - d) for d in pmp.DELTAS]
    return t_ends, np.array([pmp.exit_covector(sys_, tgt, traj, t) for t in t_ends])


def test_adjoint_family_matches_solo_sweeps():
    # one backward pass serves k seeds at k seed times: each column samples
    # exactly the times of its own sweep and carries the same costate up to
    # that sweep's own integration error; a single seed runs the solo sweep,
    # whose bits are pinned (digests of the three solo sweeps per case)
    err, y = np.array([1e-9, 0.0, 2e-10, 3e-10]), np.array([1.0, 2.0, 1e-3, 1e-3])
    atol = np.array([1e-11, 1e-11, 1e-14, 1e-14])
    worst = max(_rk.error_norm(err[i : i + 2], y[i : i + 2], y[i : i + 2], 1e-9, atol[i : i + 2]) for i in (0, 2))
    assert _rk.error_norm(err, y, y, 1e-9, atol, cols=2) == worst
    blowup =make_blowup_system(n=2, p=2.0, gamma=1.0, r1=2.0)
    b_tgt = Point(location=np.zeros(2)).with_alpha(0.01)
    b_traj = integrate_forward(blowup, None, np.array([1.5, 1.0]), tgt=b_tgt, t_max=1.0)
    assert b_traj.hit.status == HIT_TARGET and b_traj.switch_times()
    quench = make_quenching_system()
    q_tgt = Hyperplane(axis=0, level=1.0).with_alpha(0.1)
    sched = RelaxedSchedule(
        grid=[0.0, 0.2, 0.4],
        atoms=np.array([[[1.0, 0.0], [0.6, 0.8]], [[0.8, -0.6], [1.0, 0.0]]]),
        weights=np.array([[0.5, 0.5], [0.25, 0.75]]),
    )
    q_traj = integrate_forward(quench, sched, np.array([0.0, 0.5]), tgt=q_tgt, t_max=1.0)
    assert q_traj.hit.status == HIT_TARGET
    tight = IntegratorOptions(rtol=1e-13, atol=1e-15)
    for sys_, tgt, traj, control, digest in (
        (blowup, b_tgt, b_traj, None, "691e189fcdb7f99b8b5d6a2f32cbcf9509305770d45df96c626a1d5c6b79ace3"),
        (quench, q_tgt, q_traj, sched, "1eee36141f8c3fc6fcd60f4082e2b29221e006bd7037417183487992dcbc31db"),
    ):
        t_ends, seeds = _preterminal_family(sys_, tgt, traj)
        family = integrate_adjoint(sys_, traj, control, seeds, t_end=t_ends)
        solo = [integrate_adjoint(sys_, traj, control, s, t_end=t) for s, t in zip(seeds, t_ends)]
        h = hashlib.sha256()
        for sweep in solo:
            h.update(sweep.times.tobytes() + sweep.psis.tobytes())
        assert h.hexdigest() == digest
        assert len(family) == len(seeds)
        for col, one, seed, t_end in zip(family, solo, seeds, t_ends):
            assert _same_bits(col.times, one.times)
            assert col.seed_time == t_end and np.array_equal(col.seed, seed)
            sup = np.abs(one.psis).max()
            # the step ends (the seed time and t = 0) carry the decay norms
            for i in (0, -1):
                assert np.abs(col.psis[i] - one.psis[i]).max() <= 1e-9 * sup
            if sys_ is blowup:
                assert np.abs(col.psis - one.psis).max() <= 1e-9 * sup
            else:
                # between step ends both read cubic Hermite dense output,
                # off by up to ~1e-7 of sup here on either step sequence: the
                # family must be as close to a tight sweep as the solo one
                ref = integrate_adjoint(sys_, traj, control, seed, t_end=t_end, opts=tight)
                solo_err = np.abs(one.psis - ref.psis).max()
                assert np.abs(col.psis - ref.psis).max() <= 2.0 * solo_err
                assert solo_err <= 1e-6 * sup


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sweep_reads(monkeypatch, sys_, traj, control, seed, t_end):
    """(t, cursor value, interp value) at every stage time of one backward sweep."""
    reads = []
    cursor = Trajectory.cursor

    def checked_cursor(self):
        at = cursor(self)

        def read(t):
            y = at(t)
            reads.append((t, y, self.interp(t)))
            return y

        return read

    monkeypatch.setattr(Trajectory, "cursor", checked_cursor)
    integrate_adjoint(sys_, traj, control, seed, t_end=t_end)
    monkeypatch.undo()
    return reads


def test_cursor_matches_interp_bit_for_bit(monkeypatch, quench_sys):
    # the backward sweep reads y(t) through the cursor at every stage; each
    # read must equal interp's, and so must reads at the sample times (knots
    # included) walked backward, forward and in random order
    # eight cells over 0.4: the sweep reads y once per distinct stage time,
    # and this horizon keeps that above 100 reads
    grid = np.linspace(0.0, 0.4, 9)
    values = np.stack([np.cos(2.5 * np.arange(8)), np.sin(2.5 * np.arange(8))], axis=1)
    control = ClassicalSchedule(grid=grid, values=values)
    quench = integrate_forward(quench_sys, control, np.array([0.0, 0.5]), t_max=0.4)
    assert set(grid[1:-1]) <= set(quench.times)

    blowup = make_blowup_system(n=2, p=2.0, gamma=1.0, r1=2.0)
    chart = integrate_forward(
        blowup, None, np.array([1.5, 1.0]), tgt=Point(location=np.zeros(2)).with_alpha(0.01), t_max=1.0
    )
    assert chart.hit.status == HIT_TARGET and chart.switch_times()

    rng = np.random.default_rng(7)
    for sys_, traj, ctrl, seed in (
        (quench_sys, quench, control, np.array([1.0, 0.0])),
        (blowup, chart, None, np.array([0.6, 0.8])),
    ):
        t_end = min(traj.hit.time, float(traj.times[-1])) * (1.0 - 1e-3)
        reads = _sweep_reads(monkeypatch, sys_, traj, ctrl, seed, t_end)
        assert len(reads) > 100
        assert all(_same_bits(a, b) for _, a, b in reads)
        assert any(t in set(traj.times) for t, _, _ in reads)
        at = traj.cursor()
        times = list(traj.times)
        for t in times[::-1] + times + list(rng.permutation(times)) + [-1.0, 2.0 * times[-1]]:
            assert _same_bits(at(t), traj.interp(t))


def test_adjoint_evaluates_the_jacobian_once_per_stage_time(monkeypatch, quench_sys):
    # DOPRI5's last two stages share t + h; the sweep evaluates the jacobian
    # there once, and every stage reads y(t) at a time it has a jacobian for
    grid = np.linspace(0.0, 0.4, 9)
    values = np.stack([np.cos(2.5 * np.arange(8)), np.sin(2.5 * np.arange(8))], axis=1)
    control = ClassicalSchedule(grid=grid, values=values)
    traj = integrate_forward(quench_sys, control, np.array([0.0, 0.5]), t_max=0.4)
    jac_times, steps = [], []
    sys_ = dataclasses.replace(
        quench_sys, jacobian=lambda t, y: jac_times.append(t) or quench_sys.jacobian(t, y)
    )
    step = _rk.step
    monkeypatch.setattr(_rk, "step", lambda *a: steps.append(a[1]) or step(*a))
    reads = _sweep_reads(monkeypatch, sys_, traj, control, np.array([1.0, 0.0]), 0.399)
    assert steps and len(jac_times) == len(set(jac_times)) == len(reads)
    assert jac_times == [t for t, _, _ in reads]
    # six stage evaluations per step, five distinct times
    assert len(jac_times) < 5.5 * len(steps)


def _stepped_system(**extra):
    """y' = B(t) u with B = 1 up to t = 0.3 and -1 after."""
    B = PiecewiseConstant([0.0, 0.3], [[[1.0]], [[-1.0]]])
    return ControlSystem(
        name="steps",
        kind="toy",
        jacobian=lambda t, y: np.zeros((1, 1)),
        control_set=BallSet(radius=1.0, dim=1),
        affine=AffineStructure(drift=lambda t, y: np.zeros(1), input_matrix=B),
        **extra,
    )


def test_input_matrix_knots_are_time_knots():
    # the forward integrator forms B u once per segment, which is exact only
    # for a piecewise-constant B whose knots end segments: the system adds
    # B's knots to its own, and reads its dimensions from B's shape
    with pytest.raises(TypeError, match="PiecewiseConstant"):
        AffineStructure(drift=lambda t, y: np.zeros(1), input_matrix=lambda t: np.eye(1))
    # every system is control-affine: no system without the structure
    with pytest.raises(TypeError, match="AffineStructure"):
        ControlSystem(name="none", kind="toy", jacobian=None, control_set=BallSet(radius=1.0, dim=1), affine=None)
    sys1 = _stepped_system(time_knots=(0.4,))
    assert sys1.time_knots == (0.3, 0.4)
    assert (sys1.dim_state, sys1.dim_control) == (1, 1)
    assert _stepped_system().time_knots == (0.3,)
    control = ClassicalSchedule(grid=np.array([0.0, 0.5]), values=np.array([[1.0]]))
    traj = integrate_forward(sys1, control, np.array([0.0]), tgt=None, t_max=0.5)
    # y' = 1 up to 0.3, then -1
    assert abs(traj.states[-1][0] - 0.1) <= 1e-12
    # the one-call field is drift + B u
    assert sys1.field(0.2, np.zeros(1), np.array([0.5])) == 0.5
    assert sys1.field(0.35, np.zeros(1), np.array([0.5])) == -0.5


def test_replacing_field_and_jacobian_keeps_the_structure():
    # a copy with substituted field and jacobian (how a caller counts
    # evaluations) keeps the dimensions, the knots and the substitute
    sys1 = _stepped_system(time_knots=(0.4,))

    def field(t, y, u):
        return sys1.field(t, y, u)

    def jac(t, y):
        return sys1.jacobian(t, y)

    copy = dataclasses.replace(sys1, field=field, jacobian=jac)
    assert copy.field is field and copy.jacobian is jac
    assert copy.time_knots == (0.3, 0.4)
    assert (copy.dim_state, copy.dim_control) == (1, 1)
    assert copy.affine is sys1.affine


def test_trajectory_csv(tmp_path, quench_free_traj):
    path = tmp_path / "traj.csv"
    quench_free_traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == quench_free_traj.times[0]
    assert first[1] == quench_free_traj.states[0][0]
    # 17 significant digits survive the round trip
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last[0] == quench_free_traj.times[-1]
