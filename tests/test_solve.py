"""Solver behavior: exactness on the toy, ladders, brackets, gradients."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from relaxtoc.barrier import build_barrier_table, xi_lower_time, xi_upper_time
from relaxtoc.dynamics import FiniteSet, make_blowup_system, make_integrator_system
from relaxtoc import pmp, solve
from relaxtoc.integrate import HIT_TARGET, IntegratorOptions, integrate_forward
from relaxtoc.relaxed import RelaxedSchedule
from relaxtoc.solve import (
    SolveOptions,
    alpha_ladder,
    classicalize,
    objective_gradient,
    solve_alpha,
)
from relaxtoc.target import Point

SMALL = SolveOptions(n_cells=4, n_atoms=2, multi_starts=3, seed=0)


@pytest.fixture(scope="module")
def quench_solution(quench_sys, quench_target, quench_y0):
    opts = SolveOptions(n_cells=6, n_atoms=2, multi_starts=2, seed=0)
    return solve_alpha(quench_sys, quench_target, quench_y0, 0.25, opts=opts), opts


def test_toy_solve_is_exact(toy_sys, toy_target):
    res = solve_alpha(toy_sys, toy_target, [0.0], 0.0, opts=SMALL)
    assert res.converged
    assert res.w == pytest.approx(1.0, abs=1e-3)
    assert res.trajectory.hit.status == HIT_TARGET
    assert res.terminal_distance <= 10.0 * res.trajectory.hit.terminal_distance + 1e-7
    assert res.alpha == 0.0


def test_result_feasible_under_tighter_integration(quench_sys, quench_target, quench_y0, quench_solution):
    # a certified schedule is a real control, not an artifact of loose
    # tolerances: re-integrating 100x tighter must still hit
    res, opts = quench_solution
    tight = IntegratorOptions(
        rtol=opts.final.rtol * 1e-2, atol=opts.final.atol * 1e-2, hit_tol=opts.final.hit_tol
    )
    traj = integrate_forward(
        quench_sys,
        res.schedule,
        quench_y0,
        tgt=quench_target.with_alpha(0.25),
        t_max=1.2 * res.w + 0.1,
        opts=tight,
    )
    assert traj.hit.status == HIT_TARGET
    assert abs(traj.hit.time - res.w) <= 1e-6 * (1.0 + res.w)


def test_toy_ladder_tracks_inflation(toy_sys, toy_target):
    trace = alpha_ladder(toy_sys, toy_target, [0.0], alpha0=0.5, ratio=0.5, k_max=5, opts=SMALL)
    ws = np.array(trace.ws)
    assert np.all(np.diff(ws) >= -1e-10)
    # the inflated point target is the ball |y - 1| <= alpha, so the optimum
    # stops exactly at 1 - alpha
    for a, w in zip(trace.alphas, trace.ws):
        assert w == pytest.approx(1.0 - a, abs=1e-3)
    assert trace.w_star == pytest.approx(1.0, abs=2e-2)
    assert trace.w_star >= ws[-1] - 1e-12


def test_quench_ladder_monotone(quench_sys, quench_target, quench_y0):
    opts = SolveOptions(n_cells=6, n_atoms=2, multi_starts=2, seed=0)
    trace = alpha_ladder(
        quench_sys, quench_target, quench_y0, alpha0=0.2, ratio=0.5, k_max=3, opts=opts
    )
    ws = np.array(trace.ws)
    assert np.all(np.diff(ws) >= -1e-10)
    assert trace.w_star >= ws[-1] - 1e-12
    assert len(trace.results) == 3 and all(r.converged for r in trace.results)


def test_blowup_solve_lands_in_barrier_bracket(blowup_sys_g1):
    # scalar p = 2, |u| <= 1: the hit time of |z| <= alpha (that is,
    # |y| >= 1/alpha) is squeezed between the envelope transit times
    alpha = 0.05
    y0 = 4.0
    res = solve_alpha(blowup_sys_g1, Point(location=[0.0]), [y0], alpha, opts=SMALL)
    assert res.converged and res.trajectory.hit.status == HIT_TARGET
    # chart systems take the seed -> polish route too
    assert res.reason.startswith("seed")
    table = build_barrier_table(2.0, 1.0)
    fast = xi_upper_time(table, y0) - xi_upper_time(table, 1.0 / alpha)
    slow = xi_lower_time(table, y0) - xi_lower_time(table, 1.0 / alpha)
    assert fast - 1e-3 <= res.w <= slow + 1e-3


def test_gradient_matches_central_differences(quench_sys, quench_target):
    # the adjoint-based gradient of J = w + penalty d^2 against central
    # differences, in directions that keep the weights on the simplex
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    y0 = np.array([0.0, 0.5])
    w0 = 0.5
    rng = np.random.default_rng(7)
    for _ in range(3):
        atoms = 0.6 * _unit_rows(rng, (3, 2, 2))
        weights = np.column_stack([np.full(3, 0.3), np.full(3, 0.7)])
        sched = RelaxedSchedule(grid=np.linspace(0.0, 1.0, 4), atoms=atoms, weights=weights)
        value, grad = objective_gradient(
            quench_sys, quench_target, sched, w0, y0, penalty=1.0, opts=opts
        )

        def J(sched_p, w_p):
            v, _ = objective_gradient(
                quench_sys, quench_target, sched_p, w_p, y0, penalty=1.0, opts=opts
            )
            return v

        h = 1e-6
        fd_w = (J(sched, w0 + h) - J(sched, w0 - h)) / (2.0 * h)
        assert abs(fd_w - grad["d_w"]) <= 1e-4 * (1.0 + abs(grad["d_w"]))

        i, k, j = rng.integers(3), rng.integers(2), rng.integers(2)
        bump = np.zeros_like(atoms)
        bump[i, k, j] = h
        fd_a = (
            J(replace(sched, atoms=atoms + bump), w0) - J(replace(sched, atoms=atoms - bump), w0)
        ) / (2.0 * h)
        assert abs(fd_a - grad["d_atoms"][i, k, j]) <= 1e-4 * (1.0 + abs(fd_a))

        i = rng.integers(3)
        dw = np.zeros_like(weights)
        dw[i, 0], dw[i, 1] = h, -h
        fd_l = (
            J(replace(sched, weights=weights + dw), w0)
            - J(replace(sched, weights=weights - dw), w0)
        ) / (2.0 * h)
        an_l = grad["d_weights"][i, 0] - grad["d_weights"][i, 1]
        assert abs(fd_l - an_l) <= 1e-4 * (1.0 + abs(fd_l))


def _unit_rows(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_classicalize_reproduces_hit(quench_sys, quench_target, quench_y0, quench_solution):
    # Filippov selection preserves the averaged field, hence the trajectory
    res, opts = quench_solution
    classical = classicalize(res)
    assert res.classical is not None
    assert np.array_equal(classical.values, res.classical.values)
    traj = integrate_forward(
        quench_sys,
        classical,
        quench_y0,
        tgt=quench_target.with_alpha(0.25),
        t_max=1.2 * res.w + 0.1,
        opts=opts.final,
    )
    assert traj.hit.status == HIT_TARGET
    assert abs(traj.hit.time - res.w) <= 1e-6 * (1.0 + res.w)


def test_same_seed_same_answer(toy_sys, toy_target):
    a = solve_alpha(toy_sys, toy_target, [0.0], 0.1, opts=SMALL)
    b = solve_alpha(toy_sys, toy_target, [0.0], 0.1, opts=SMALL)
    assert a.w == b.w
    assert np.array_equal(a.schedule.atoms, b.schedule.atoms)
    assert np.array_equal(a.schedule.weights, b.schedule.weights)
    assert a.schedule.hash_bytes() == b.schedule.hash_bytes()


def test_alpha_must_leave_room(toy_sys, toy_target):
    from relaxtoc import errors

    with pytest.raises(errors.AlphaOutOfRange):
        solve_alpha(toy_sys, toy_target, [0.0], 1.5, opts=SMALL)
    with pytest.raises(errors.AlphaOutOfRange):
        alpha_ladder(toy_sys, toy_target, [0.0], alpha0=2.0, opts=SMALL)


def test_result_serializes(quench_solution):
    res, _ = quench_solution
    d = res.to_json_dict()
    assert d["w"] == res.w and d["alpha"] == 0.25
    assert d["converged"] is True


def test_quench_solve_takes_seed_route(quench_solution):
    res, _ = quench_solution
    assert res.reason in ("seed", "seed+polish")


def test_polish_starts_from_the_certified_hit(monkeypatch, quench_sys, quench_target, quench_y0):
    # bang_polish takes the certified (w, schedule, trajectory) and starts at
    # the costate sweep: on the quench at alpha 0.1 it integrates 5 schedules
    # forward, one fewer than the 6 a polish that re-integrates the certified
    # schedule first takes, and certifies the same answer
    forwards = []
    forward = pmp.integrate_forward

    def counting_forward(*args, **kwargs):
        forwards.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pmp, "integrate_forward", counting_forward)
    opts = SolveOptions(n_cells=8, n_atoms=2, multi_starts=2)
    res = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=opts)
    assert len(forwards) == 6 - 1
    assert res.reason == "seed+polish"
    assert res.w == 0.3687481846971308
    digest = hashlib.sha256(res.schedule.hash_bytes()).hexdigest()
    assert digest == "baa5a518cca8d714a742b220691a114d7358aa2493635f2a0c4e531b167a26fa"


def test_finite_control_set_falls_back_to_descent(toy_target):
    # a finite control set has no closed-form polish: the multi-start
    # descent certifies the answer, here the exact 1 - alpha
    sys_ = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [1.0]]))
    res = solve_alpha(sys_, toy_target, [0.0], 0.25, opts=SMALL)
    assert res.reason == "descent"
    assert res.trajectory.hit.status == HIT_TARGET
    assert res.w == pytest.approx(0.75, abs=1e-3)


def test_descent_without_polish_is_no_better(quench_sys, quench_target, quench_y0, quench_solution):
    # descent from the greedy seed, unpolished, certifies a hit that cannot
    # beat the seed -> polish answer beyond the integration tolerance
    routed, opts = quench_solution
    opts = replace(opts, multi_starts=1)
    tgt_a = quench_target.with_alpha(0.25)
    greedy = solve._greedy_schedule(quench_sys, tgt_a, quench_y0, opts)
    best = solve._best_candidate(
        solve._descent_candidates(quench_sys, tgt_a, quench_y0, [greedy], opts)
    )
    assert best is not None
    w, _sched, traj = best
    assert traj.hit.status == HIT_TARGET
    assert w >= routed.w - 1e-8 * (1.0 + routed.w)


def test_gradient_sweep_evaluates_each_stage_time_once(quench_sys, quench_target, quench_y0):
    # DOPRI5's last two stages share a time: the descent's costate sweep
    # evaluates the fields and the Jacobian there once.  A cell's first
    # stage, one ulp of s inside it, may map to the physical time of the
    # previous cell's last stage; it evaluates at its own cell's atom.
    calls = []
    jacobian = quench_sys.jacobian
    sys_ = replace(
        quench_sys, jacobian=lambda t, y, u: calls.append((t, tuple(u))) or jacobian(t, y, u)
    )
    opts = SolveOptions(n_cells=6, n_atoms=2, multi_starts=1, seed=0)
    tgt_a = quench_target.with_alpha(0.25)
    greedy = solve._greedy_schedule(sys_, tgt_a, quench_y0, opts)
    best = solve._best_candidate(solve._descent_candidates(sys_, tgt_a, quench_y0, [greedy], opts))
    assert best is not None and best[2].hit.status == HIT_TARGET
    assert len(calls) > 10_000
    assert sum(a == b for a, b in zip(calls, calls[1:])) == 0


def test_seed_leaves_an_undriven_axis_alone():
    # the drive toward (1, 0) from the origin has a zero second component;
    # the greedy seed must not push that axis to a corner, or it misses the
    # target and the solve falls back to descent above the exact 0.9
    sys_ = make_integrator_system(2)
    res = solve_alpha(sys_, Point(location=[1.0, 0.0]), [0.0, 0.0], 0.1, opts=SMALL)
    assert res.reason.startswith("seed")
    assert res.w == pytest.approx(0.9, abs=1e-9)
