"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with the measured quantities; a failed
assertion is the FAIL line.  Criteria that sample randomness go through the
batch front end so the seeds and artifacts match what a user would produce.
"""

import copy
import json

import numpy as np
import pytest

import oracles
from relaxtoc import cli
from relaxtoc.barrier import build_barrier_table, invert, xi_lower_time, xi_upper_time
from relaxtoc.integrate import HIT_TARGET, IntegratorOptions, integrate_forward
from relaxtoc.pmp import quenching_conclusions, verify
from relaxtoc.solve import SolveOptions, alpha_ladder, classicalize, solve_alpha
from relaxtoc.target import Point

TOY_OPTS = SolveOptions(n_cells=4, n_atoms=2, seed=0)


@pytest.fixture(scope="module")
def free_blowup(blowup_free_g1):
    # the decay law is measured at delta = 1e-3; the numerical hit must sit
    # within ~1e-8 of the true blowup time for that reading to be clean
    opts = IntegratorOptions(hit_tol=1e-9, rtol=1e-10, atol=1e-12)
    traj = integrate_forward(
        blowup_free_g1, None, [1.0], tgt=Point(location=[0.0]), t_max=2.0, opts=opts
    )
    assert traj.hit.status == HIT_TARGET
    return traj, opts


@pytest.fixture(scope="module")
def toy_solution(toy_sys, toy_target):
    return solve_alpha(toy_sys, toy_target, [0.0], 0.0, opts=TOY_OPTS)


@pytest.fixture(scope="module")
def quench_e2e(quench_sys, quench_target, quench_y0):
    opts = SolveOptions(n_cells=8, n_atoms=2, seed=0)
    res = solve_alpha(quench_sys, quench_target, quench_y0, 0.1, opts=opts)
    report = verify(quench_sys, quench_target.with_alpha(0.1), res, opts=opts.final)
    return res, report, opts


def test_blowup_hit_time_exact_and_under_tolerance_sweep(blowup_free_g1, free_blowup):
    # y' = y^2 from 1 blows up at exactly 1; the chart turns that into a hit
    t_hit = float(free_blowup[0].hit.time)
    assert abs(t_hit - 1.0) <= 1e-6
    worst = 0.0
    for tol in (1e-6, 1e-7, 1e-8):
        traj = integrate_forward(
            blowup_free_g1,
            None,
            [1.0],
            tgt=Point(location=[0.0]),
            t_max=2.0,
            opts=IntegratorOptions(hit_tol=tol),
        )
        err = abs(float(traj.hit.time) - 1.0)
        worst = max(worst, err / tol)
        assert err <= 10.0 * tol
    print(f"PASS blowup hit time: |t-1| = {abs(t_hit - 1.0):.2e}, sweep worst {worst:.2f}*tol")


def test_adjoint_terminal_decay_is_delta_squared(blowup_free_g1, free_blowup):
    traj, opts = free_blowup
    report = verify(
        blowup_free_g1, Point(location=[0.0]), (traj.hit.time, traj, None), opts=opts
    )
    assert report.terminal_decay is not None
    errs = []
    for (d_abs, n), delta in zip(report.terminal_decay, (1e-2, 1e-3, 1e-4)):
        if delta < 1e-3:
            continue
        rel = abs(n - d_abs**2) / d_abs**2
        errs.append((delta, rel))
        assert rel <= 1e-5
    print("PASS adjoint decay |psi(T-d)| = d^2:", ", ".join(f"rel {r:.2e} @ {d:.0e}" for d, r in errs))


def test_toy_solve_exact_with_clean_reports(toy_sys, toy_target, toy_solution):
    res = toy_solution
    assert abs(res.w - 1.0) <= 1e-3
    report = verify(toy_sys, toy_target, res)
    assert report.bang_bang_agreement >= 0.999
    assert report.hamiltonian_residual <= 1e-6
    assert report.support_violation_mass <= 1e-6
    assert report.transversality_residual <= 1e-6
    print(
        f"PASS toy solve: w = {res.w:.9f}, agreement {report.bang_bang_agreement:.4f}, "
        f"residuals ({report.hamiltonian_residual:.1e}, {report.support_violation_mass:.1e}, "
        f"{report.transversality_residual:.1e})"
    )


def test_toy_ladder_tracks_alpha_exactly(toy_sys, toy_target):
    trace = alpha_ladder(
        toy_sys, toy_target, [0.0], alpha0=0.5, ratio=0.5, k_max=6, opts=TOY_OPTS
    )
    diffs = np.diff(trace.ws)
    assert np.all(diffs >= -1e-12)
    worst = max(abs(w - (1.0 - a)) for a, w in zip(trace.alphas, trace.ws))
    assert worst <= 1e-3
    print(f"PASS toy ladder: max |w - (1-alpha)| = {worst:.2e}, min rung step {diffs.min():.2e}")


def test_monotonicity_sweep_all_strict(tmp_path):
    margins = []
    for case in ("i", "ii"):
        cfg = {
            "schema_version": 1,
            "task": "monotonicity-sweep",
            "seed": 0,
            "system": {"example": "quenching-ex1"},
            "sweep": {"case": case, "samples": 50},
        }
        assert cli.run(cfg, out_dir=tmp_path / case) == 0
        payload = json.loads((tmp_path / case / "monotonicity_sweep.json").read_text())
        assert payload["failures"] == 0
        for e in payload["entries"]:
            assert e["ok"] and not e["h_vanishes"] and e["margin"] > 0.0
            margins.append(e["margin"])
    print(f"PASS monotonicity sweep: 100/100 strict, min margin {min(margins):.3e}")


def test_envelope_bracket_sweep_zero_violations(tmp_path):
    cfg = {
        "schema_version": 1,
        "task": "barrier-sweep",
        "seed": 0,
        "system": {"example": "blowup-ex2", "n": 2, "p": 2.0, "gamma": 1.0},
        "sweep": {"kind": "envelope", "samples": 100, "t_max": 3.0},
    }
    assert cli.run(cfg, out_dir=tmp_path) == 0
    payload = json.loads((tmp_path / "barrier_sweep.json").read_text())
    assert payload["samples"] == 100 and payload["failures"] == 0
    lo = min(e["min_lower_margin"] for e in payload["entries"])
    up = min(e["min_upper_margin"] for e in payload["entries"])
    print(f"PASS envelope bracket: 100/100, min margins lower {lo:.3e} upper {up:.3e}")


def test_damping_lower_bound_sweep_zero_violations(tmp_path):
    cfg = {
        "schema_version": 1,
        "task": "barrier-sweep",
        "seed": 0,
        "system": {"example": "blowup-ex2", "n": 2, "p": 2.0, "gamma": 1.0},
        "sweep": {"kind": "lower-bound", "samples": 50, "alpha": 0.5},
    }
    assert cli.run(cfg, out_dir=tmp_path) == 0
    payload = json.loads((tmp_path / "barrier_sweep.json").read_text())
    assert payload["samples"] == 50 and payload["failures"] == 0
    slack = min(e["slack"] for e in payload["entries"])
    assert slack >= 0.0
    print(f"PASS damping lower bound: 50/50, min slack {slack:.3e}")


def test_quadrature_closed_forms_and_round_trip():
    table = build_barrier_table(2.0, 0.0)
    up_err = abs(xi_upper_time(table, 1.0) - np.log(2.0))
    lo_err = abs(xi_lower_time(table, 2.0) - np.log(2.0))
    assert up_err <= 1e-9
    assert lo_err <= 1e-8
    worst = 0.0
    for r in np.geomspace(1.5 * table.r0, 1e3, 7):
        for branch, xi in (("upper", xi_upper_time), ("lower", xi_lower_time)):
            back = invert(table, xi(table, float(r)), branch)
            worst = max(worst, abs(back - r) / r)
    assert worst <= 1e-7
    print(
        f"PASS quadrature: |Xi*(1)-ln2| = {up_err:.1e}, |Xi_*(2)-ln2| = {lo_err:.1e}, "
        f"round-trip {worst:.1e}"
    )


def test_quenching_end_to_end_beats_one_switch_oracle(
    quench_sys, quench_target, quench_y0, quench_e2e
):
    res, report, opts = quench_e2e
    w_oracle, params = oracles.one_switch_bang_bang(0.1, y0=tuple(quench_y0))
    # the oracle search is frozen against drift: same grid, same refinement
    assert abs(w_oracle - 0.36905855) <= 5e-4
    assert res.w <= w_oracle + 2e-2
    assert report.hamiltonian_residual <= 1e-3 * report.hamiltonian_scale

    true_tgt = quench_target.with_alpha(0.0)
    cont = integrate_forward(
        quench_sys,
        res.schedule,
        quench_y0,
        tgt=true_tgt,
        t_max=1.5 * res.w + 0.1,
        opts=IntegratorOptions(hit_tol=1e-6),
    )
    assert cont.hit.status == HIT_TARGET
    conc = quenching_conclusions(
        (cont.hit.time, cont, res.schedule), sys=quench_sys, tgt=true_tgt
    )
    assert conc.y2_terminal >= -1e-6
    if conc.y2_terminal > 0.0:
        assert len(conc.decay_ratios) == 2
        for r in conc.decay_ratios:
            assert r < 0.7
    print(
        f"PASS quench end-to-end: w = {res.w:.6f} vs oracle {w_oracle:.6f}, "
        f"H residual {report.hamiltonian_residual:.2e} (scale {report.hamiltonian_scale:.2f}), "
        f"y2 = {conc.y2_terminal:.4f}, decay ratios {[f'{r:.3f}' for r in conc.decay_ratios]}"
    )


def test_classicalization_reproduces_hit_times(
    toy_sys, toy_target, toy_solution, quench_sys, quench_target, quench_y0, quench_e2e
):
    gaps = []
    res_t = toy_solution
    traj = integrate_forward(
        toy_sys,
        classicalize(res_t),
        [0.0],
        tgt=toy_target,
        t_max=1.2 * res_t.w + 0.1,
        opts=IntegratorOptions(),
    )
    assert traj.hit.status == HIT_TARGET
    gaps.append(abs(traj.hit.time - res_t.w))

    res_q, _, opts = quench_e2e
    traj = integrate_forward(
        quench_sys,
        classicalize(res_q),
        quench_y0,
        tgt=quench_target.with_alpha(0.1),
        t_max=1.2 * res_q.w + 0.1,
        opts=opts.final,
    )
    assert traj.hit.status == HIT_TARGET
    gaps.append(abs(traj.hit.time - res_q.w))
    assert max(gaps) <= 1e-6
    print(f"PASS classicalization: hit-time gaps {[f'{g:.2e}' for g in gaps]}")


def test_reruns_are_byte_identical(tmp_path):
    toy = copy.deepcopy(cli.list_examples()["toy-integrator"]["default_config"])
    sweep = {
        "schema_version": 1,
        "task": "barrier-sweep",
        "seed": 0,
        "system": {"example": "blowup-ex2", "n": 1, "p": 2.0, "gamma": 1.0},
        "sweep": {"kind": "envelope", "samples": 10, "t_max": 3.0},
    }
    checked = []
    for name, cfg, artifact in (
        ("toy-solve", toy, "solve_result.json"),
        ("envelope-sweep", sweep, "barrier_sweep.json"),
    ):
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        assert cli.run(copy.deepcopy(cfg), out_dir=a) == 0
        assert cli.run(copy.deepcopy(cfg), out_dir=b) == 0
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
        checked.append(artifact)
    print(f"PASS determinism: byte-identical reruns for {checked}")
