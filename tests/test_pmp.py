"""Maximum-principle machinery: argmax rules, seeding, reports, polishing."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relaxtoc import errors, pmp
from relaxtoc.dynamics import (
    BallSet,
    BoxSet,
    FiniteSet,
    PiecewiseConstant,
    make_blowup_system,
    make_integrator_system,
    make_quenching_system,
)
from relaxtoc.integrate import HIT_TARGET, AdjointTrajectory, IntegratorOptions, integrate_forward
from relaxtoc.pmp import (
    bang_polish,
    hamiltonian,
    max_hamiltonian,
    normal_cone_seed,
    quenching_conclusions,
    relaxed_hamiltonian,
    verify,
)
from relaxtoc.relaxed import RelaxedSchedule
from relaxtoc.solve import SolveOptions, solve_alpha
from relaxtoc.target import Ball, HalfSpace, Hyperplane, Point

REGULAR_Y = np.array([0.3, -0.4])


def _uniform_ball(rng, m, radius, count):
    z = rng.standard_normal((count, m))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return radius * z * rng.uniform(size=(count, 1)) ** (1.0 / m)


# ---------------------------------------------------------------------------
# closed-form argmax


@given(
    psi=st.tuples(
        st.floats(-3.0, 3.0, allow_nan=False), st.floats(-3.0, 3.0, allow_nan=False)
    ).filter(lambda v: abs(v[0]) + abs(v[1]) > 1e-3),
    k=st.integers(-3, 3),
)
def test_argmax_homogeneous_in_psi(quench_sys, psi, k):
    # H is linear in psi: scaling the covector scales the value and leaves
    # the maximizer alone
    psi = np.array(psi)
    c = 10.0**k
    one = max_hamiltonian(quench_sys, 0.0, REGULAR_Y, psi)
    sc = max_hamiltonian(quench_sys, 0.0, REGULAR_Y, c * psi)
    assert not one.degenerate and not sc.degenerate
    assert np.allclose(sc.control, one.control, atol=1e-10)
    assert abs(sc.value - c * one.value) <= 1e-10 * (1.0 + abs(c * one.value))


def test_ball_argmax_dominates_samples(quench_sys, rng):
    rho = quench_sys.control_set.radius
    for _ in range(20):
        psi = rng.standard_normal(2)
        y = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)])
        best = max_hamiltonian(quench_sys, 0.0, y, psi)
        assert quench_sys.control_set.contains(best.control, tol=1e-9)
        h_samples = [
            hamiltonian(quench_sys, 0.0, y, psi, u) for u in _uniform_ball(rng, 2, rho, 500)
        ]
        assert best.value >= max(h_samples) - 1e-12 * (1.0 + abs(best.value))


def test_box_argmax_is_sign_rule(rng):
    sys = make_integrator_system(3)
    for _ in range(20):
        psi = rng.standard_normal(3)
        best = max_hamiltonian(sys, 0.0, np.zeros(3), psi)
        # toy input matrix is the identity, so the box rule reads the signs
        # of psi directly
        assert np.array_equal(best.control, np.sign(psi))
        assert abs(best.value - float(np.abs(psi).sum())) <= 1e-14
        corners = 2.0 * rng.integers(0, 2, size=(50, 3)) - 1.0
        assert best.value >= max(float(psi @ c) for c in corners) - 1e-14


def test_finite_set_enumerates_full_field():
    sys = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [0.25], [1.0]]))
    up = max_hamiltonian(sys, 0.0, [0.0], [2.0])
    assert up.value == pytest.approx(2.0) and up.control[0] == 1.0 and not up.degenerate
    down = max_hamiltonian(sys, 0.0, [0.0], [-1.5])
    assert down.value == pytest.approx(1.5) and down.control[0] == -1.0


def test_finite_set_tie_is_flagged():
    sys = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [1.0]]))
    res = max_hamiltonian(sys, 0.0, [0.0], [0.0])
    assert res.degenerate and res.value == 0.0
    # the polish's linear rule: degenerate only when every point ties, as
    # for a ball or box; a tie of some points answers with the first of them
    cs = FiniteSet(points=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    u, value, degenerate = pmp._linear_argmax(cs, np.array([2.0, 1.0]), 1e-14)
    assert np.array_equal(u, [1.0, 0.0]) and value == 2.0 and not degenerate
    u, value, degenerate = pmp._linear_argmax(cs, np.array([1.0, 1.0]), 1e-14)
    assert np.array_equal(u, [1.0, 0.0]) and value == 1.0 and not degenerate
    assert pmp._linear_argmax(cs, np.zeros(2), 1e-14)[2]


def test_degenerate_when_input_cannot_act():
    # psi orthogonal to the range of B: every control maximizes and the
    # principle is silent
    sys = make_blowup_system(n=2, p=2.0, B=np.array([[1.0], [0.0]]))
    res = max_hamiltonian(sys, 0.0, [0.2, 0.3], [0.0, 1.0])
    assert res.degenerate
    drift_h = hamiltonian(sys, 0.0, [0.2, 0.3], [0.0, 1.0], np.zeros(1))
    assert res.value == pytest.approx(drift_h, abs=1e-14)


def test_max_dominates_every_relaxed_cell(quench_sys, rng):
    rho = quench_sys.control_set.radius
    for _ in range(30):
        psi = rng.standard_normal(2)
        y = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)])
        atoms = _uniform_ball(rng, 2, rho, 3)
        weights = rng.uniform(size=3)
        weights /= weights.sum()
        h_rel = relaxed_hamiltonian(quench_sys, 0.0, y, psi, atoms, weights)
        best = max_hamiltonian(quench_sys, 0.0, y, psi)
        assert h_rel <= best.value + 1e-12 * (1.0 + abs(best.value))


# ---------------------------------------------------------------------------
# terminal covector seeding


def test_seed_hyperplane_points_at_the_plane():
    tgt = Hyperplane(axis=0, level=1.0)
    below = normal_cone_seed(tgt, np.array([0.8, 0.3]), np.array([0.7, 0.3]))
    assert np.array_equal(below, [1.0, 0.0])
    above = normal_cone_seed(tgt, np.array([1.2, 0.0]), np.array([1.3, 0.0]))
    assert np.array_equal(above, [-1.0, 0.0])
    # exactly on the plane: the approach side decides
    on = normal_cone_seed(tgt, np.array([1.0, 0.0]), np.array([0.9, 0.0]))
    assert np.array_equal(on, [1.0, 0.0])


def test_seed_halfspace_is_inward_normal():
    tgt = HalfSpace(normal=[3.0, 4.0], offset=5.0)
    seed = normal_cone_seed(tgt, np.array([2.0, 2.0]), np.array([2.0, 2.1]))
    assert np.allclose(seed, [-0.6, -0.8])


def test_seed_ball_and_point_aim_at_center():
    ball = Ball(center=[1.0, 0.0], radius=0.5)
    seed = normal_cone_seed(ball, np.array([0.0, 0.0]), np.array([-0.1, 0.0]))
    assert np.allclose(seed, [1.0, 0.0])
    pt = Point(location=[0.0, 0.0])
    seed = normal_cone_seed(pt, np.array([0.3, 0.4]), np.array([0.4, 0.5]))
    assert np.allclose(seed, [-0.6, -0.8])


def test_seed_at_exact_point_uses_approach_direction():
    pt = Point(location=[1.0])
    seed = normal_cone_seed(pt, np.array([1.0]), np.array([0.9]))
    assert np.array_equal(seed, [1.0])
    with pytest.raises(errors.ZeroTerminalCovector):
        normal_cone_seed(pt, np.array([1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# the report on a known extremal


@pytest.fixture(scope="module")
def toy_extremal():
    sys = make_integrator_system(1)
    tgt = Point(location=[1.0])
    sched = RelaxedSchedule(
        grid=[0.0, 0.6, 1.2], atoms=np.ones((2, 1, 1)), weights=np.ones((2, 1))
    )
    opts = IntegratorOptions(hit_tol=1e-9)
    traj = integrate_forward(sys, sched, [0.0], tgt=tgt, t_max=2.0, opts=opts)
    assert traj.hit.status == HIT_TARGET
    return sys, tgt, sched, traj


def test_verify_on_exact_extremal(toy_extremal):
    sys, tgt, sched, traj = toy_extremal
    report = verify(sys, tgt, (traj.hit.time, traj, sched))
    assert report.hamiltonian_residual <= 1e-8 * report.hamiltonian_scale
    assert report.support_violation_mass == 0.0
    assert report.transversality_residual <= 1e-9
    assert report.bang_bang_agreement >= 0.999
    assert report.degenerate_time_fraction == 0.0
    assert report.nontriviality == pytest.approx(1.0, abs=1e-9)
    # point target: the covector is seeded on the pre-terminal family and the
    # drift-free toy keeps |psi| constant along it
    assert report.terminal_decay is not None and len(report.terminal_decay) == 3
    for _, n in report.terminal_decay:
        assert n == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("lam", [0.1, 0.2])
def test_verify_measures_weight_off_the_argmax(lam):
    # weight lam on the strictly suboptimal atom -1 for the whole horizon:
    # the support mass is lam, and max H - H = 1 - (1 - 2 lam) = 2 lam
    sys = make_integrator_system(1)
    tgt = Point(location=[1.0])
    sched = RelaxedSchedule(
        grid=[0.0, 1.0, 2.0],
        atoms=np.array([[[1.0], [-1.0]]] * 2),
        weights=np.array([[1.0 - lam, lam]] * 2),
    )
    traj = integrate_forward(
        sys, sched, [0.0], tgt=tgt, t_max=3.0, opts=IntegratorOptions(hit_tol=1e-9)
    )
    assert traj.hit.status == HIT_TARGET
    report = verify(sys, tgt, (traj.hit.time, traj, sched))
    assert report.support_violation_mass == pytest.approx(lam, rel=1e-12)
    assert report.hamiltonian_residual == pytest.approx(2.0 * lam, rel=1e-9)


def test_verify_report_serializes(toy_extremal):
    sys, tgt, sched, traj = toy_extremal
    report = verify(sys, tgt, (traj.hit.time, traj, sched))
    payload = json.loads(report.to_json())
    assert payload["nontriviality"] == pytest.approx(1.0, abs=1e-9)
    text = report.summary()
    assert "hamiltonian residual" in text and "terminal decay" in text


def test_verify_explicit_seed_disables_family(toy_extremal):
    sys, tgt, sched, traj = toy_extremal
    report = verify(sys, tgt, (traj.hit.time, traj, sched), adjoint_seed=[2.0])
    assert report.terminal_decay is None
    # the sweep keeps the |psi(0)| = 1 convention, so only the seed direction
    # survives; the drift-free toy transports it unchanged
    assert report.terminal_adjoint_norm == pytest.approx(1.0, rel=1e-9)
    assert report.nontriviality == pytest.approx(1.0, abs=1e-12)
    assert report.hamiltonian_residual <= 1e-8 * report.hamiltonian_scale


def test_verify_rejects_non_hitting_trajectory():
    sys = make_integrator_system(1)
    sched = RelaxedSchedule(
        grid=[0.0, 0.5], atoms=np.ones((1, 1, 1)), weights=np.ones((1, 1))
    )
    traj = integrate_forward(sys, sched, [0.0], tgt=Point(location=[9.0]), t_max=0.4)
    with pytest.raises(errors.NotHit):
        verify(sys, Point(location=[9.0]), (0.4, traj, sched))


# ---------------------------------------------------------------------------
# maximum-condition fixed point


def test_bang_polish_keeps_or_improves(quench_sys, quench_y0):
    tgt = Hyperplane(axis=0, level=1.0).with_alpha(0.25)
    sched = RelaxedSchedule(
        grid=[0.0, 0.4, 0.8],
        atoms=np.array([[[1.0, 0.0]], [[1.0, 0.0]]]),
        weights=np.ones((2, 1)),
    )
    opts = IntegratorOptions(hit_tol=1e-8)
    baseline = integrate_forward(quench_sys, sched, quench_y0, tgt=tgt, t_max=1.0, opts=opts)
    assert baseline.hit.status == HIT_TARGET
    out = bang_polish(quench_sys, tgt, (baseline.hit.time, sched, baseline), quench_y0, opts=opts)
    assert out is not None
    w, polished, traj = out
    assert traj.hit.status == HIT_TARGET
    assert w <= float(baseline.hit.time) + 1e-12
    assert polished.weights.shape == sched.weights.shape


def test_polish_sweeps_at_search_and_certifies_at_final(monkeypatch, quench_sys, quench_y0):
    # each round's costate sweep only proposes atoms, so it runs at the
    # search tolerance; each forward pass certifies a hit time, at final
    final = IntegratorOptions(rtol=1e-10, atol=1e-12)
    assert final.search == IntegratorOptions(rtol=1e-7, atol=1e-9)
    tgt = Hyperplane(axis=0, level=1.0).with_alpha(0.25)
    sched = RelaxedSchedule(
        grid=[0.0, 0.4, 0.8],
        atoms=np.array([[[1.0, 0.0]], [[1.0, 0.0]]]),
        weights=np.ones((2, 1)),
    )
    baseline = integrate_forward(quench_sys, sched, quench_y0, tgt=tgt, t_max=1.0, opts=final)
    seen = {"adjoint": [], "forward": []}
    adjoint, forward = pmp.integrate_adjoint, pmp.integrate_forward

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            seen[key].append(kwargs["opts"])
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pmp, "integrate_adjoint", recording("adjoint", adjoint))
    monkeypatch.setattr(pmp, "integrate_forward", recording("forward", forward))
    w, _, traj = bang_polish(quench_sys, tgt, (baseline.hit.time, sched, baseline), quench_y0, opts=final)
    assert len(seen["adjoint"]) >= 2 and len(seen["forward"]) >= 1
    assert all(opts == final.search for opts in seen["adjoint"])
    assert all(opts == final for opts in seen["forward"])
    assert w < baseline.hit.time and w == traj.hit.time


def _proposed_atoms(sys_, res, opts):
    """The atoms bang_polish proposes from res, swept at opts."""
    t_end = min(res.w, float(res.trajectory.times[-1]))
    seed = pmp.exit_covector(sys_, res.target, res.trajectory, t_end)
    adj = pmp.integrate_adjoint(sys_, res.trajectory, res.schedule, seed, t_end=t_end, opts=opts)
    grid = np.linspace(0.0, res.w, res.schedule.weights.shape[0] + 1)
    return pmp._proposed_atoms(sys_, adj, grid, t_end, res.schedule.atoms)


@pytest.mark.parametrize("case", ["quench", "blowup"])
def test_search_sweep_proposes_the_tight_argmax(case, quench_sys, quench_target, quench_y0):
    # the premise of sweeping at the search tolerance: the argmax it proposes
    # on every cell agrees with an rtol-1e-13 sweep's far inside the polish's
    # progress per round (quench: 5.0e-7 apart, a final sweep 1.7e-8;
    # blowup: 1.1e-16 either way)
    if case == "quench":
        sys_, y0, tgt, alpha = quench_sys, quench_y0, quench_target, 0.1
        opts = SolveOptions(n_cells=8, n_atoms=2)
    else:
        sys_, y0 = make_blowup_system(n=2, p=2.0, gamma=1.0), np.full(2, 4.0 / np.sqrt(2.0))
        tgt, alpha = Point(location=np.zeros(2)), 0.05
        opts = SolveOptions(n_cells=4, n_atoms=2)
    res = solve_alpha(sys_, tgt, y0, alpha, opts=opts)
    tight = _proposed_atoms(sys_, res, IntegratorOptions(rtol=1e-13, atol=1e-15))
    search = _proposed_atoms(sys_, res, opts.final.search)
    assert np.abs(search - tight).max() <= 1e-5 * pmp._control_scale(sys_.control_set)


def _chart_verify_solve(monkeypatch, n):
    """solve_alpha on a chart-verify config of blowup-ex2, with the polish's
    input, output and forward passes recorded."""
    polish, forward = pmp.bang_polish, pmp.integrate_forward
    seen = {"forwards": 0}

    def counting_forward(*args, **kwargs):
        seen["forwards"] += 1
        return forward(*args, **kwargs)

    def recording_polish(sys_, tgt, certified, y0, opts=None):
        seen["certified"] = certified
        seen["polished"] = polish(sys_, tgt, certified, y0, opts=opts)
        return seen["polished"]

    monkeypatch.setattr(pmp, "integrate_forward", counting_forward)
    monkeypatch.setattr(pmp, "bang_polish", recording_polish)
    sys_ = make_blowup_system(n=n, p=2.0, gamma=1.0)
    y0 = np.full(n, 4.0 / np.sqrt(n))
    opts = SolveOptions(n_cells=4, n_atoms=2)
    res = solve_alpha(sys_, Point(location=np.zeros(n)), y0, 0.05, opts=opts)
    monkeypatch.undo()
    return sys_, y0, res, seen


@pytest.mark.parametrize("n", [1, 2])
def test_polish_stops_at_a_fixed_point(monkeypatch, n):
    # on the chart-verify configs the costate's argmax reproduces the
    # certified schedule on every cell: the polish stops before integrating it
    # again and hands back the certified triple itself
    sys_, y0, res, seen = _chart_verify_solve(monkeypatch, n)
    assert seen["forwards"] == 0
    assert seen["polished"] is seen["certified"]
    assert res.reason == "seed"
    # one atom moved off the argmax: the polish integrates the updated schedule
    w, sched, _ = seen["certified"]
    atoms = np.array(sched.atoms, copy=True)
    atoms[1] *= 1.0 - 1e-6
    moved = RelaxedSchedule(grid=sched.grid, atoms=atoms, weights=sched.weights)
    traj = integrate_forward(sys_, moved, y0, tgt=res.target, t_max=1.2 * w)
    assert traj.hit.status == HIT_TARGET
    forwards = []
    forward = pmp.integrate_forward
    monkeypatch.setattr(pmp, "integrate_forward", lambda *a, **k: forwards.append(a) or forward(*a, **k))
    out = bang_polish(sys_, res.target, (traj.hit.time, moved, traj), y0)
    assert len(forwards) >= 1
    assert out[0] <= traj.hit.time


def test_cell_switching_vector_reads_b_inside_each_interval():
    # B jumps at the grid point 0.3; the integral of B^T psi must not smear
    # the jump over the interval after it
    B = PiecewiseConstant([0.0, 0.3], [np.eye(2), np.diag([0.5, 1.0])])
    psi = np.array([1.0, 2.0])
    adj = AdjointTrajectory(
        times=np.array([0.0, 0.3, 0.5]),
        psis=np.tile(psi, (3, 1)),
        seed_time=0.5,
        seed=psi,
        normalization=1.0,
    )
    q = pmp._cell_switching_vector(make_quenching_system(B=B), adj, 0.0, 0.5)
    assert np.allclose(q, 0.3 * psi + 0.2 * np.array([0.5, 2.0]), rtol=1e-14, atol=0.0)


def test_bang_polish_accepts_finite_sets():
    # a certified crawl at the point 0.25: the costate points at the target,
    # the argmax over the points is 1, and one round certifies the exact w = 1
    sys = make_integrator_system(1, control_set=FiniteSet(points=[[-1.0], [0.25], [1.0]]))
    sched = RelaxedSchedule(
        grid=[0.0, 4.8], atoms=np.full((1, 1, 1), 0.25), weights=np.ones((1, 1))
    )
    tgt = Point(location=[1.0])
    traj = integrate_forward(sys, sched, [0.0], tgt=tgt, t_max=4.8)
    assert traj.hit.status == HIT_TARGET
    assert pmp.polishable(sys)
    w, polished, _ = bang_polish(sys, tgt, (traj.hit.time, sched, traj), [0.0])
    assert np.all(polished.atoms == 1.0)
    assert abs(w - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# quenching conclusions


def test_conclusions_require_quenching_system(toy_extremal):
    sys, tgt, sched, traj = toy_extremal
    with pytest.raises(errors.NotQuenchingSystem):
        quenching_conclusions((traj.hit.time, traj, sched), sys=sys, tgt=tgt)


def test_conclusions_require_a_hit(quench_sys, quench_target, quench_y0):
    sched = RelaxedSchedule(
        grid=[0.0, 0.1], atoms=np.zeros((1, 1, 2)), weights=np.ones((1, 1))
    )
    traj = integrate_forward(quench_sys, sched, quench_y0, tgt=quench_target, t_max=0.05)
    with pytest.raises(errors.NotHit):
        quenching_conclusions((0.05, traj, sched), sys=quench_sys, tgt=quench_target)


def test_conclusions_hold_on_free_quench(quench_sys, quench_target, quench_y0):
    # control-free approach to the true singular line: y2 stays positive and
    # the covector norms fall like sqrt(tbar - t), ratio ~ 0.32 per decade
    opts = IntegratorOptions(hit_tol=1e-6)
    traj = integrate_forward(
        quench_sys, None, quench_y0, tgt=quench_target, t_max=1.0, opts=opts
    )
    assert traj.hit.status == HIT_TARGET
    conc = quenching_conclusions(
        (traj.hit.time, traj, None), sys=quench_sys, tgt=quench_target, opts=opts
    )
    assert conc.ok and conc.sign_ok and conc.decay_ok
    assert conc.y2_terminal > 0.5
    assert len(conc.decay_ratios) == 2
    for r in conc.decay_ratios:
        assert 0.2 < r < 0.45
    payload = conc.to_json_dict()
    assert payload["ok"] is True
