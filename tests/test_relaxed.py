import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaxtoc import errors
from relaxtoc.dynamics import FiniteSet, eval_field, make_quenching_system
from relaxtoc.integrate import IntegratorOptions, integrate_forward
from relaxtoc.relaxed import (
    ClassicalSchedule,
    RelaxedSchedule,
    chattering_realization,
    common_refinement,
    filippov_select,
    relaxed_field,
    to_dirac,
)


def _schedule(weights_rows, atoms=None, grid=None):
    rows = np.asarray(weights_rows, dtype=float)
    n, k = rows.shape
    if atoms is None:
        atoms = np.zeros((n, k, 2))
    if grid is None:
        grid = np.linspace(0.0, 1.0, n + 1)
    return RelaxedSchedule(grid=grid, atoms=atoms, weights=rows)


@given(
    st.lists(
        st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3).filter(lambda r: sum(r) > 1e-6),
        min_size=1,
        max_size=5,
    )
)
def test_simplex_invariant_on_construction(rows):
    sched = _schedule(rows)
    assert np.all(sched.weights >= 0.0)
    assert np.abs(sched.weights.sum(axis=1) - 1.0).max() <= 1e-14


def test_to_dirac_matches_classical():
    grid = np.array([0.0, 0.4, 1.0])
    values = np.array([[0.1, 0.2], [-0.3, 0.4]])
    classical = ClassicalSchedule(grid=grid, values=values)
    relaxed = to_dirac(classical)
    assert relaxed.atoms.shape == (2, 1, 2)
    for t in (0.1, 0.4, 0.9):
        assert np.array_equal(relaxed.mean_at(t), classical.value_at(t))


def test_filippov_exactness(quench_sys, rng):
    for _ in range(50):
        atoms = np.stack([quench_sys.control_set.boundary_sample(rng) for _ in range(3)])
        w = rng.uniform(0.1, 1.0, size=3)
        w /= w.sum()
        y = np.array([0.2, -0.4])
        t = rng.uniform(0.0, 1.0)
        mean = relaxed_field(quench_sys, t, y, atoms, w)
        u_star = filippov_select(quench_sys, t, atoms, w)
        direct = eval_field(quench_sys, t, y, u_star)
        assert np.abs(mean - direct).max() <= 1e-14 * (1.0 + np.abs(direct).max())


def test_filippov_rejects_nonconvex():
    sys = make_quenching_system()
    object.__setattr__(sys, "control_set", FiniteSet(points=np.array([[0.0, 0.0], [1.0, 0.0]])))
    with pytest.raises(errors.NonConvexControlSet):
        filippov_select(sys, 0.0, np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))


def test_common_refinement():
    g = common_refinement(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 1.0]))
    assert np.array_equal(g, [0.0, 0.3, 0.5, 1.0])
    with pytest.raises(ValueError):
        common_refinement(np.array([0.0, 1.0]), np.array([2.0, 3.0]))


def test_with_grid_preserves_cell_values(rng):
    sched = _schedule(
        [[0.3, 0.7], [0.6, 0.4]],
        atoms=rng.normal(size=(2, 2, 2)),
        grid=np.array([0.0, 0.5, 1.0]),
    )
    fine = sched.with_grid(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    for t in (0.1, 0.3, 0.6, 0.9):
        assert np.allclose(fine.mean_at(t), sched.mean_at(t), atol=1e-15)


@settings(max_examples=20)
@given(st.floats(0.0, 0.999))
def test_scaled_grid_lookup(s):
    sched = _schedule([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    a, w = sched.cell_at(s * sched.grid[-1])
    assert w.shape == (2,)
    assert abs(w.sum() - 1.0) <= 1e-14


def continuity_probe(sys, schedules, reference, horizon, opts=None):
    """Sup-norm trajectory gaps of each schedule against a reference trajectory.

    All runs start from the reference initial state with no target; gaps are
    measured on the reference sample times within the horizon.
    """
    opts = opts or IntegratorOptions()
    y0 = reference.states[0]
    mask = reference.times <= horizon
    ts = reference.times[mask]
    ys = reference.states[mask]
    gaps = []
    for sched in schedules:
        tr = integrate_forward(sys, sched, y0, tgt=None, t_max=horizon, opts=opts)
        gap = 0.0
        for t, y in zip(ts, ys):
            gap = max(gap, float(np.linalg.norm(tr.interp(min(t, tr.times[-1])) - y)))
        gaps.append(gap)
    return gaps


def test_chattering_convergence_rate(quench_sys):
    # sup-norm gap to the relaxed flow should scale like 1/subdivisions:
    # successive dyadic ratios in a band around 1/2
    atoms = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, -1.0]],
        ]
    )
    weights = np.array([[0.5, 0.5], [0.25, 0.75]])
    sched = RelaxedSchedule(grid=np.array([0.0, 0.125, 0.25]), atoms=atoms, weights=weights)
    opts = IntegratorOptions(rtol=1e-10, atol=1e-12, max_step=0.004)
    ref = integrate_forward(
        quench_sys, sched, np.array([0.0, 0.5]), tgt=None, t_max=0.25, opts=opts
    )
    gaps = continuity_probe(
        quench_sys,
        [chattering_realization(sched, L) for L in (4, 8, 16)],
        ref,
        horizon=0.25,
        opts=opts,
    )
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    for a, b in zip(gaps, gaps[1:]):
        assert 0.3 <= b / a <= 0.7


def test_chattering_frames_stay_in_cell():
    sched = _schedule([[0.2, 0.8]], atoms=np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    real = chattering_realization(sched, 5)
    assert real.grid[0] == sched.grid[0]
    assert real.grid[-1] == sched.grid[-1]
    assert np.all(np.diff(real.grid) > 0.0)
    # time shares match the weights
    durations = np.diff(real.grid)
    share_first = durations[np.all(real.values == [1.0, 0.0], axis=1)].sum()
    assert abs(share_first - 0.2 * (sched.grid[-1] - sched.grid[0])) <= 1e-12


def test_json_round_trip_and_hash():
    sched = _schedule([[0.25, 0.75], [1.0, 0.0]], atoms=np.arange(8.0).reshape(2, 2, 2))
    block = sched.to_json_dict()
    text = json.dumps(block, sort_keys=True)
    again = RelaxedSchedule(
        grid=np.asarray(block["grid"]),
        atoms=np.asarray(block["atoms"]),
        weights=np.asarray(block["weights"]),
    )
    assert sched.hash_bytes() == again.hash_bytes()
    assert json.dumps(again.to_json_dict(), sort_keys=True) == text


def test_validate_in_checks_control_set(quench_sys):
    bad = _schedule([[1.0]], atoms=np.array([[[9.0, 0.0]]]))
    with pytest.raises(Exception):
        bad.validate_in(quench_sys.control_set)
    ok = _schedule([[1.0]], atoms=np.array([[[0.3, 0.1]]]))
    ok.validate_in(quench_sys.control_set)
