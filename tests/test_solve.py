"""Solver behavior: exactness on the toy, ladders, brackets, the route."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from relaxtoc.barrier import build_barrier_table, xi_lower_time, xi_upper_time
from relaxtoc.dynamics import FiniteSet, make_integrator_system
from relaxtoc import errors, pmp, solve
from relaxtoc.integrate import HIT_TARGET, IntegratorOptions, integrate_forward
from relaxtoc.relaxed import ClassicalSchedule, RelaxedSchedule
from relaxtoc.solve import SolveOptions, alpha_ladder, classicalize, solve_alpha
from relaxtoc.target import Hyperplane, Point

SMALL = SolveOptions(n_cells=4, n_atoms=2, seed=0)


@pytest.fixture(scope="module")
def quench_solution(quench_sys, quench_target, quench_y0):
    opts = SolveOptions(n_cells=6, n_atoms=2, seed=0)
    return solve_alpha(quench_sys, quench_target, quench_y0, 0.25, opts=opts), opts


def test_toy_solve_is_exact(toy_sys, toy_target):
    res = solve_alpha(toy_sys, toy_target, [0.0], 0.0, opts=SMALL)
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


def test_ladder_repairs_a_rung_later_than_the_next(monkeypatch, toy_sys, toy_target):
    # optimal w is nondecreasing down the ladder: a rung that reports a later
    # w than the next one is re-certified with the next rung's schedule
    def late_first_rung(sys, tgt, y0, alpha, init=None, opts=None):
        res = solve_alpha(sys, tgt, y0, alpha, init=init, opts=opts)
        return replace(res, w=res.w + 0.5) if init is None else res

    monkeypatch.setattr(solve, "solve_alpha", late_first_rung)
    trace = alpha_ladder(toy_sys, toy_target, [0.0], alpha0=0.5, ratio=0.5, k_max=3, opts=SMALL)
    repaired = trace.results[0]
    assert repaired.reason == "ladder-repair"
    assert [r.reason for r in trace.results[1:]] == ["seed", "seed"]
    redo = solve._certify(toy_sys, toy_target.with_alpha(trace.alphas[0]), np.zeros(1), trace.schedules[1], SMALL)
    assert repaired.w == redo[0] == trace.ws[0]
    assert repaired.schedule is trace.schedules[1] is trace.schedules[0]
    assert all(a <= b for a, b in zip(trace.ws, trace.ws[1:]))


def test_ladder_repair_renews_the_classical_control(monkeypatch, quench_sys, quench_target, quench_y0):
    # a repaired rung takes the later rung's schedule, so its control is
    # that schedule, not the discarded one (which ended at 0.35558, the
    # rung's own w, instead of 0.36875)
    def late_first_rung(sys, tgt, y0, alpha, init=None, opts=None):
        res = solve_alpha(sys, tgt, y0, alpha, init=init, opts=opts)
        return replace(res, w=res.w + 0.5) if init is None else res

    monkeypatch.setattr(solve, "solve_alpha", late_first_rung)
    opts = SolveOptions(n_cells=8, n_atoms=2, seed=0)
    trace = alpha_ladder(quench_sys, quench_target, quench_y0, alpha0=0.2, ratio=0.5, k_max=3, opts=opts)
    repaired = trace.results[0]
    assert repaired.reason == "ladder-repair"
    assert repaired.schedule is trace.results[1].schedule
    assert repaired.schedule.grid[-1] > repaired.w
    assert repaired.alpha == trace.alphas[0] == 0.2
    assert repaired.terminal_distance == repaired.trajectory.hit.terminal_distance


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_cells", 0),
        ("n_atoms", 0),
        ("w_max", 0.0),
        ("w_max", -1.0),
        ("w_max", float("inf")),
        ("w_max", float("nan")),
    ],
)
def test_solve_options_name_a_bad_field(field, value):
    # the CLI bounds these fields; built directly, they failed deep inside the
    # solve (a ZeroDivisionError for n_atoms 0, an integrator error for w_max
    # 0 or -1) without naming the field
    with pytest.raises(ValueError, match=field):
        SolveOptions(**{field: value})


def test_ladder_rejects_an_empty_ladder(toy_sys, toy_target):
    # with no rung there is no w: k_max 0 raised IndexError at ws[-1]
    with pytest.raises(ValueError, match="k_max"):
        alpha_ladder(toy_sys, toy_target, [0.0], alpha0=0.5, k_max=0, opts=SMALL)


def test_quench_ladder_monotone(quench_sys, quench_target, quench_y0):
    opts = SolveOptions(n_cells=6, n_atoms=2, seed=0)
    trace = alpha_ladder(
        quench_sys, quench_target, quench_y0, alpha0=0.2, ratio=0.5, k_max=3, opts=opts
    )
    ws = np.array(trace.ws)
    assert np.all(np.diff(ws) >= -1e-10)
    assert trace.w_star >= ws[-1] - 1e-12
    assert len(trace.results) == 3


def test_blowup_solve_lands_in_barrier_bracket(blowup_sys_g1):
    # scalar p = 2, |u| <= 1: the hit time of |z| <= alpha (that is,
    # |y| >= 1/alpha) is squeezed between the envelope transit times
    alpha = 0.05
    y0 = 4.0
    res = solve_alpha(blowup_sys_g1, Point(location=[0.0]), [y0], alpha, opts=SMALL)
    assert res.trajectory.hit.status == HIT_TARGET
    # chart systems take the seed -> polish route too
    assert res.reason.startswith("seed")
    table = build_barrier_table(2.0, 1.0)
    fast = xi_upper_time(table, y0) - xi_upper_time(table, 1.0 / alpha)
    slow = xi_lower_time(table, y0) - xi_lower_time(table, 1.0 / alpha)
    assert fast - 1e-3 <= res.w <= slow + 1e-3


def test_classicalize_reproduces_hit(quench_sys, quench_target, quench_y0, quench_solution):
    # Filippov selection preserves the averaged field, hence the trajectory
    res, opts = quench_solution
    classical = classicalize(res)
    assert np.array_equal(classical.values, res.schedule.values)
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
    with pytest.raises(errors.AlphaOutOfRange):
        solve_alpha(toy_sys, toy_target, [0.0], 1.5, opts=SMALL)
    with pytest.raises(errors.AlphaOutOfRange):
        alpha_ladder(toy_sys, toy_target, [0.0], alpha0=2.0, opts=SMALL)


def test_result_serializes(quench_solution):
    res, _ = quench_solution
    d = res.to_json_dict()
    assert d["w"] == res.w and d["alpha"] == 0.25


def test_quench_solve_takes_seed_route(quench_solution):
    res, _ = quench_solution
    assert res.reason in ("seed", "seed+polish")


def test_polish_starts_from_the_certified_hit(monkeypatch, quench_sys, quench_target, quench_y0):
    # bang_polish takes the certified (w, schedule, trajectory) and starts at
    # the costate sweep: on the quench at alpha 0.1 it integrates 3 schedules
    # forward, where a polish that re-integrates the certified schedule first
    # takes one more; its fourth proposal predicts an exit displacement below
    # hit_tol, and the polish stops before integrating it
    forwards = []
    forward = pmp.integrate_forward

    def counting_forward(*args, **kwargs):
        forwards.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(pmp, "integrate_forward", counting_forward)
    opts = SolveOptions(n_cells=8, n_atoms=2)
    res = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=opts)
    assert len(forwards) == 3
    assert res.reason == "seed+polish"
    assert res.w == 0.3687481854201667
    digest = hashlib.sha256(res.schedule.hash_bytes()).hexdigest()
    assert digest == "d178581a3dfa5245d075fc151b360ef7cac35808d613ee62d40c78174068e0ab"


def test_seed_leaves_an_undriven_axis_alone():
    # the drive toward (1, 0) from the origin has a zero second component;
    # the greedy seed must not push that axis to a corner, or it misses the
    # target and the solve has no certified hit to polish
    sys_ = make_integrator_system(2)
    res = solve_alpha(sys_, Point(location=[1.0, 0.0]), [0.0, 0.0], 0.1, opts=SMALL)
    assert res.reason.startswith("seed")
    assert res.w == pytest.approx(0.9, abs=1e-9)


def test_finite_control_set_solves_on_the_seed_route(toy_target):
    # the maximum condition over a finite set is the point with the largest
    # <B^T psi, p>: the greedy seed certifies the exact 1 - alpha
    sys_ = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [1.0]]))
    res = solve_alpha(sys_, toy_target, [0.0], 0.25, opts=SMALL)
    assert res.reason.startswith("seed")
    assert res.trajectory.hit.status == HIT_TARGET
    assert abs(res.w - 0.75) <= 1e-9


def test_finite_set_argmax_finds_the_off_axis_point():
    # toward (1, 1) the point (0.6, 0.6) drives at 0.6 sqrt(2), faster than
    # any mixture of the axis points, whose best is 1 / sqrt(2); the argmax
    # over the points picks it, and the straight run to the ball of radius
    # 0.1 about (1, 1) takes (sqrt(2) - 0.1) / (0.6 sqrt(2)) exactly
    points = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.6, 0.6]]
    sys_ = make_integrator_system(2, control_set=FiniteSet(points=points))
    res = solve_alpha(sys_, Point(location=[1.0, 1.0]), [0.0, 0.0], 0.1, opts=SMALL)
    assert res.reason.startswith("seed")
    assert np.all(res.schedule.atoms == 0.6)
    assert abs(res.w - (np.sqrt(2.0) - 0.1) / (0.6 * np.sqrt(2.0))) <= 1e-9
    assert np.all(res.schedule.values == [0.6, 0.6])


@pytest.mark.parametrize("seed", range(6))
def test_finite_set_tie_between_two_maximizers_keeps_the_first(seed):
    # toward the plane y1 = 1 the corners (1, 1) and (1, -1) tie: two points
    # maximize but not all, so the greedy seed takes the first maximizer on
    # every seed, never a random corner that drives away from the target
    corners = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
    sys_ = make_integrator_system(2, control_set=FiniteSet(points=corners))
    tgt = Hyperplane(axis=0, level=1.0)
    res = solve_alpha(sys_, tgt, [0.0, 0.0], 0.0, opts=replace(SMALL, seed=seed))
    assert res.reason.startswith("seed")
    assert abs(res.w - 1.0) <= 1e-9


def test_no_certified_hit_is_infeasible(toy_sys, toy_target):
    # the toy needs w = 1; a horizon of 0.5 leaves no seed a hit
    with pytest.raises(errors.Infeasible):
        solve_alpha(toy_sys, toy_target, [0.0], 0.0, opts=replace(SMALL, w_max=0.5))


def test_inadmissible_warm_start_is_refused(quench_sys, quench_target, quench_y0):
    # a warm start with atoms (5, 0) outside |u| <= 1 would reach the target
    # sooner than any admissible control; it must be refused, not certified
    opts = SolveOptions(n_cells=8, n_atoms=1, seed=0)
    init = RelaxedSchedule(
        grid=np.linspace(0.0, 0.2, 9), atoms=np.tile([[[5.0, 0.0]]], (8, 1, 1)), weights=np.ones((8, 1))
    )
    with pytest.raises(ValueError, match="outside the control set"):
        solve_alpha(quench_sys, quench_target, quench_y0, 0.1, init=init, opts=opts)
    res = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=opts)
    assert res.w > 0.3 and np.all(np.linalg.norm(res.schedule.atoms, axis=2) <= 1.0 + 1e-9)


def test_classical_warm_start_certifies(quench_sys, quench_target, quench_y0):
    # a ClassicalSchedule is the relaxed schedule of one Dirac atom per
    # cell, so the solver's own classical answer is a warm start as it is
    opts = SolveOptions(n_cells=8, n_atoms=2, seed=0)
    res = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=opts)
    again = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, init=res.schedule, opts=opts)
    assert again.w == res.w and again.reason == "seed"
    assert again.schedule is res.schedule
    # solve_result.json then holds the classical schedule's own block
    block = again.to_json_dict()["schedule"]
    assert block["kind"] == "classical" and block["values"] == res.schedule.values.tolist()


def test_n_atoms_changes_no_answer(quench_sys, quench_target, quench_y0):
    # the solver carries one mean control per cell, so n_atoms (validated
    # and read nowhere) moves neither w nor a bit of the schedule; K
    # identical atoms of weight 1 / K would round the mean at K = 3
    runs = [
        solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=SolveOptions(n_cells=8, n_atoms=k, seed=0))
        for k in (1, 2, 3)
    ]
    assert len({r.w for r in runs}) == 1
    assert len({r.schedule.hash_bytes() for r in runs}) == 1
    for r in runs:
        assert isinstance(r.schedule, ClassicalSchedule)
        assert r.schedule.atoms.shape == (r.schedule.cells, 1, 2) and r.schedule.cells == 8
        assert all(quench_sys.control_set.contains(u) for u in r.schedule.values)


def test_a_mixed_warm_start_solves_as_its_cell_means(quench_sys, quench_target, quench_y0):
    # on the ball a relaxed control acts only through its cell means, so a
    # warm start mixing two atoms certifies the w of its classicalized
    # means, and the solve reduces it to those means on entry
    opts = SolveOptions(n_cells=8, seed=0)
    atoms = np.tile([[[1.0, 0.0], [0.0, 1.0]]], (8, 1, 1))
    mixed = RelaxedSchedule(grid=np.linspace(0.0, 0.6, 9), atoms=atoms, weights=np.tile([0.8, 0.2], (8, 1)))
    means = classicalize(SimpleNamespace(system=quench_sys, schedule=mixed))
    tgt_a = quench_target.with_alpha(0.1)
    w_mixed = solve._certify(quench_sys, tgt_a, quench_y0, mixed, opts)[0]
    assert w_mixed == solve._certify(quench_sys, tgt_a, quench_y0, means, opts)[0]
    a = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, init=mixed, opts=opts)
    b = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, init=means, opts=opts)
    assert _result_bits(a) == _result_bits(b)


def test_a_mixed_warm_start_on_a_finite_set_is_refused(toy_target):
    # the mean of -1 and 1 is 0, which is not a point of the set; a cell that
    # sits on one point, repeated, is that point
    sys_ = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [1.0]]))
    grid = np.array([0.0, 0.5, 1.0])
    mixed = RelaxedSchedule(grid=grid, atoms=[[[1.0], [1.0]], [[-1.0], [1.0]]], weights=[[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(errors.NonConvexControlSet):
        solve_alpha(sys_, toy_target, [0.0], 0.25, init=mixed, opts=SMALL)
    repeated = RelaxedSchedule(grid=grid, atoms=[[[1.0], [1.0]]] * 2, weights=[[0.5, 0.5]] * 2)
    res = solve_alpha(sys_, toy_target, [0.0], 0.25, init=repeated, opts=SMALL)
    assert abs(res.w - 0.75) <= 1e-9 and np.all(res.schedule.values == 1.0)


def _solve_counting_passes(monkeypatch, sys_, tgt, y0, alpha, init, opts):
    """solve_alpha's result and the t_max of every forward pass solve itself runs."""
    t_maxes = []
    forward = solve.integrate_forward
    with monkeypatch.context() as m:
        m.setattr(solve, "integrate_forward", lambda *a, **kw: t_maxes.append(kw["t_max"]) or forward(*a, **kw))
        return solve_alpha(sys_, tgt, y0, alpha, init=init, opts=opts), t_maxes


def _trajectory_bits(traj):
    arrays = (traj.times, traj.states, traj.derivs, traj.start_derivs, traj.in_chart)
    return [a.tobytes() for a in arrays], traj.hit


def _result_bits(res):
    return res.w, hashlib.sha256(res.schedule.hash_bytes()).hexdigest(), _trajectory_bits(res.trajectory)


def test_a_certified_warm_start_bounds_the_greedy_probe(monkeypatch, quench_sys, quench_target, quench_y0):
    # the third rung of the README ladder: the warm start certifies at w_init,
    # so the greedy probe stops at w_init (1 + 1e3 search rtols) without a hit
    # and is not certified; a greedy seed that slow could not have won, and
    # the answer is the one of the unbounded probe to the bit
    opts = SolveOptions(n_cells=8, n_atoms=2, seed=0)
    init = alpha_ladder(quench_sys, quench_target, quench_y0, alpha0=0.2, ratio=0.5, k_max=2, opts=opts).schedules[-1]
    w_init = solve._certify(quench_sys, quench_target.with_alpha(0.05), quench_y0, init, opts)[0]
    res, t_maxes = _solve_counting_passes(monkeypatch, quench_sys, quench_target, quench_y0, 0.05, init, opts)
    assert len(t_maxes) == 2
    assert t_maxes[1] == min(opts.w_max, w_init * (1.0 + solve.PROBE_MARGIN * opts.final.search.rtol))
    monkeypatch.setattr(solve, "PROBE_MARGIN", float("inf"))
    unbounded, t_maxes = _solve_counting_passes(monkeypatch, quench_sys, quench_target, quench_y0, 0.05, init, opts)
    assert len(t_maxes) == 3 and t_maxes[1] == opts.w_max
    assert _result_bits(res) == _result_bits(unbounded)


def test_a_slow_warm_start_leaves_the_greedy_seed_to_win(monkeypatch, quench_sys, quench_target, quench_y0):
    # u = 0 on [0, 0.7] certifies at 0.65, far behind the greedy seed, whose
    # probe hits inside the bound: both certify and the greedy seed wins
    opts = SolveOptions(n_cells=8, n_atoms=2, seed=0)
    slow = ClassicalSchedule(grid=np.array([0.0, 0.7]), values=np.zeros((1, 2)))
    outcomes = solve._seed_candidates(quench_sys, quench_target.with_alpha(0.1), quench_y0, slow, opts)
    assert len(outcomes) == 2 and all(outcomes) and outcomes[1][0] < outcomes[0][0]
    res, t_maxes = _solve_counting_passes(monkeypatch, quench_sys, quench_target, quench_y0, 0.1, slow, opts)
    assert len(t_maxes) == 3 and t_maxes[1] < opts.w_max
    assert res.w == 0.3687481854201637


def test_without_a_warm_start_the_greedy_probe_is_its_own_certificate(
    monkeypatch, quench_sys, quench_target, quench_y0, blowup_sys_g1
):
    # with no certified warm start to bound it, the probe runs at the final
    # tolerances; the seed tiles its atom on n_cells cells, a control without
    # jumps and so without knots, so the seed's certifying pass would repeat
    # the probe to the bit, and solve_alpha runs one forward pass of its own
    cases = (
        (quench_sys, quench_target, quench_y0, 0.1),
        (blowup_sys_g1, Point(location=[0.0]), np.array([3.0]), 0.05),
    )
    for sys_, tgt, y0, alpha in cases:
        opts = SolveOptions(n_cells=8)
        _, t_maxes = _solve_counting_passes(monkeypatch, sys_, tgt, y0, alpha, None, opts)
        assert t_maxes == [opts.w_max]
        tgt_a = tgt.with_alpha(alpha)
        ((w, seed, traj),) = solve._seed_candidates(sys_, tgt_a, y0, None, opts)
        assert seed.cells == 8 and seed.knots == ()
        w_cert, _, traj_cert = solve._certify(sys_, tgt_a, y0, seed, opts)
        assert w == w_cert == traj.hit.time
        assert _trajectory_bits(traj) == _trajectory_bits(traj_cert)
