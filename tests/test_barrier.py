import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import oracles
from relaxtoc import barrier, errors
from relaxtoc.barrier import (
    blowup_lower_bound_check,
    build_barrier_table,
    envelope_bracket_check,
    invert,
    mtilde,
    quench_monotonicity_check,
    xi_lower_time,
    xi_upper_time,
)
from relaxtoc.dynamics import PiecewiseConstant


@pytest.fixture(scope="module")
def table20():
    return build_barrier_table(2.0, 0.0)


@pytest.fixture(scope="module")
def table_gen():
    return build_barrier_table(2.5, 1.2)


def test_closed_forms_p2_m0(table20):
    assert abs(xi_upper_time(table20, 1.0) - np.log(2.0)) <= 1e-9
    assert abs(xi_lower_time(table20, 2.0) - np.log(2.0)) <= 1e-8
    assert abs(xi_upper_time(table20, 3.0) - np.log(4.0 / 3.0)) <= 1e-9
    assert abs(xi_lower_time(table20, 3.0) - np.log(1.5)) <= 1e-9


def test_quadrature_against_gauss_legendre(table20, table_gen):
    for table in (table20, table_gen):
        p, M = table.p, table.M
        for r in (table.r0 * 1.01, table.r0 + 1.0, 10.0, 250.0):
            up = xi_upper_time(table, r)
            assert abs(up - oracles.xi_gauss(p, M, r, +1.0)) <= 1e-9 * (1.0 + up)
            lo = xi_lower_time(table, r)
            assert abs(lo - oracles.xi_gauss(p, M, r, -1.0)) <= 1e-8 * (1.0 + lo)


def test_closed_form_grid_against_oracle(table20):
    for r in np.geomspace(1.0, 1e4, 40):
        assert abs(xi_upper_time(table20, r) - oracles.xi_upper_closed_p2_m0(r)) <= 1e-10
    for r in np.geomspace(2.0, 1e4, 40):
        assert abs(xi_lower_time(table20, r) - oracles.xi_lower_closed_p2_m0(r)) <= 1e-9


def test_xi_strictly_decreasing_and_ordered(table_gen):
    up = table_gen.xi_upper_vals
    lo = table_gen.xi_lower_vals
    assert np.all(np.diff(up) < 0.0)
    assert np.all(np.diff(lo) < 0.0)
    # the fast envelope blows up sooner; in the far tail both integrals decay
    # like r^(1-p) and the gap drops below double precision, so strictness is
    # only asserted where it is resolvable
    assert np.all(up <= lo + 1e-15)
    resolvable = table_gen.radii <= 1e4
    assert np.all(up[resolvable] < lo[resolvable])


def test_lower_time_guard_tracks_true_root():
    # for p = 2, M = 2 the denominator's largest root is 2 while r0 = 4:
    # radii in (2, 4] are inside the convergent range and must be accepted
    table = build_barrier_table(2.0, 2.0)
    assert table.r0 == 4.0
    assert xi_lower_time(table, 2.5) > xi_lower_time(table, 4.0) > 0.0
    with pytest.raises(errors.BelowThreshold):
        xi_lower_time(table, 2.0)
    with pytest.raises(errors.BelowThreshold):
        xi_lower_time(table, 1.0)
    with pytest.raises(errors.OutOfRange):
        xi_upper_time(table, 0.0)


def test_invert_round_trip(table_gen):
    for r in (table_gen.r0 * 1.3, 7.0, 123.0, 4567.0):
        tau = xi_upper_time(table_gen, r)
        assert abs(invert(table_gen, tau, "upper") - r) <= 1e-7 * r
        tau = xi_lower_time(table_gen, r)
        assert abs(invert(table_gen, tau, "lower") - r) <= 1e-7 * r
    # upper branch extends below the table grid
    r_small = 0.5 * table_gen.r0
    tau = xi_upper_time(table_gen, r_small)
    assert abs(invert(table_gen, tau, "upper") - r_small) <= 1e-7 * r_small


def test_invert_rejects_out_of_range(table_gen):
    with pytest.raises(errors.OutOfRange):
        invert(table_gen, -1.0, "upper")
    with pytest.raises(errors.OutOfRange):
        invert(table_gen, float(table_gen.xi_lower_vals[0]) * 1.01, "lower")
    with pytest.raises(ValueError):
        invert(table_gen, 0.1, "sideways")


@pytest.mark.parametrize("p", [1.0, 0.5, float("inf"), float("nan")])
def test_table_rejects_an_exponent_outside_p_gt_1(p):
    # a bad argument, like M < 0 beside it and p in make_blowup_system
    with pytest.raises(ValueError, match="p > 1"):
        build_barrier_table(p, 1.0)


def test_comparison_identity_against_direct_integration(table_gen):
    # theta' = theta^p + theta + M from theta(s) = r must equal the envelope
    # read off the inverted blowup-time integral
    p, M = table_gen.p, table_gen.M
    for r in (table_gen.r0 + 1.0, 10.0, 100.0):
        horizon = 0.9 * xi_upper_time(table_gen, r)
        ts = np.linspace(0.0, horizon, 12)[1:]
        for t in ts:
            direct = oracles.rk4(
                lambda tt, th: np.array([th[0] ** p + th[0] + M]),
                0.0,
                t,
                np.array([r]),
                4000,
            )[0]
            env = barrier._envelope(table_gen, xi_upper_time(table_gen, r), t, 0.0, r, barrier.UPPER)
            assert abs(env - direct) <= 1e-6 * direct


def test_lower_envelope_against_direct_integration(table_gen):
    p, M = table_gen.p, table_gen.M
    r = table_gen.r0 + 2.0
    horizon = 0.9 * xi_lower_time(table_gen, r)
    for t in np.linspace(0.0, horizon, 8)[1:]:
        direct = oracles.rk4(
            lambda tt, th: np.array([th[0] ** p - th[0] - M]),
            0.0,
            t,
            np.array([r]),
            4000,
        )[0]
        # the fast envelope reads the interpolated radius table; the lower
        # branch is steep near r0 so the table carries a few 1e-6 relative
        env = barrier._envelope(table_gen, xi_lower_time(table_gen, r), t, 0.0, r, barrier.LOWER)
        assert abs(env - direct) <= 1e-5 * direct
        # the Newton-sharpened inverse has no such limit
        sharp = invert(table_gen, xi_lower_time(table_gen, r) - t, "lower")
        assert abs(sharp - direct) <= 1e-8 * direct


def test_blowup_bracket_contains_closed_form(table20):
    # control-free scalar p = 2: y' = y^2 from r blows up at exactly 1/r
    for r in (3.0, 5.0, 12.0):
        assert xi_upper_time(table20, r) < 1.0 / r < xi_lower_time(table20, r)


def test_envelope_check_failure_is_result(table20):
    class Fake:
        times = np.linspace(0.0, 0.05, 20)
        states = (3.0 + 200.0 * times)[:, None]  # far above the fast envelope

    verdict = envelope_bracket_check(table20, Fake())
    assert not verdict.ok
    assert verdict.first_violation_time is not None
    assert verdict.min_upper_margin < 0.0


def test_envelope_check_passes_on_true_solution(table20):
    ts, ys = oracles.rk4_path(lambda t, y: y * y, 0.0, 0.30, np.array([3.0]), 4000)

    class Fake:
        times = ts
        states = ys

    verdict = envelope_bracket_check(table20, Fake())
    assert verdict.ok
    assert verdict.min_upper_margin > 0.0
    assert verdict.min_lower_margin > 0.0


def test_envelope_check_takes_two_quadratures(monkeypatch, table20):
    # Xi_upper(r) and Xi_lower(r) of the start radius, once each, however
    # many samples the trajectory has
    calls = []
    quad = barrier.quad
    monkeypatch.setattr(barrier, "quad", lambda *a, **kw: calls.append(a) or quad(*a, **kw))
    for n in (2, 20, 200):
        ts, ys = oracles.rk4_path(lambda t, y: y * y, 0.0, 0.30, np.array([3.0]), n)

        class Fake:
            times = ts
            states = ys

        calls.clear()
        verdict = envelope_bracket_check(table20, Fake())
        assert verdict.ok and verdict.n_checked == n
        assert len(calls) == 2


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_fast_radius_matches_scipy_pchip_bit_for_bit(p, M):
    # the stored PCHIP pieces evaluate exactly as SciPy's interpolant does:
    # at every node, every midpoint and 10k random taus inside the table
    table = build_barrier_table(p, M)
    rng = np.random.default_rng(3)
    log_r = np.log(table.radii)[::-1]
    for which, vals in ((barrier.UPPER, table.xi_upper_vals), (barrier.LOWER, table.xi_lower_vals)):
        pchip = PchipInterpolator(vals[::-1], log_r)
        x = pchip.x
        taus = np.concatenate(
            [
                x[1:-1],
                0.5 * (x[1:] + x[:-1]),
                rng.uniform(x[0], x[-1], 5000),
                np.exp(rng.uniform(np.log(x[0]), np.log(x[-1]), 5000)),
            ]
        )
        taus = taus[(taus > x[0]) & (taus < x[-1])]
        assert len(taus) > 10_000
        for tau in taus.tolist():
            assert barrier._fast_radius(table, tau, which) == float(np.exp(pchip(tau)))


def test_mtilde_frozen_value(table20):
    # alpha = 1/2, p = 2, M = 0: the threshold collapses to 4 analytically
    assert abs(mtilde(table20, 0.5) - 4.0) <= 1e-6
    with pytest.raises(errors.AlphaOutOfRange):
        mtilde(table20, 0.0)
    with pytest.raises(errors.AlphaOutOfRange):
        mtilde(table20, 1.0)


def test_lower_bound_check_verdict(table20):
    h = PiecewiseConstant(np.array([0.0]), np.array([0.7]))
    y_s = np.array([mtilde(table20, 0.5) * 1.5])
    T = 0.5 * xi_upper_time(table20, float(y_s[0]))
    verdict = blowup_lower_bound_check(table20, alpha=0.5, s=0.0, T=T, h=h, y_s=y_s)
    assert verdict.ok
    assert verdict.slack >= 0.0
    assert verdict.lhs >= verdict.rhs
    with pytest.raises(errors.BelowMtilde):
        blowup_lower_bound_check(table20, alpha=0.5, s=0.0, T=T, h=h, y_s=np.array([1.0]))


def test_lower_bound_check_reads_every_cell(table20):
    # a cell narrower than the spacing of a 257-point probe, between two of
    # its points, must still fail the 0 <= h <= 1 and |g| <= M checks
    y_s = np.array([mtilde(table20, 0.5) * 1.5])
    T = 0.5 * xi_upper_time(table20, float(y_s[0]))
    dt = T / 256
    narrow = np.array([0.0, 1.3 * dt, 1.6 * dt])
    h = PiecewiseConstant(narrow, np.array([0.7, 50.0, 0.7]))
    with pytest.raises(ValueError, match="0 <= h <= 1"):
        blowup_lower_bound_check(table20, alpha=0.5, s=0.0, T=T, h=h, y_s=y_s)
    g = PiecewiseConstant(narrow, np.array([[0.0], [1.0], [0.0]]))
    with pytest.raises(ValueError, match=r"\|g\(t\)\| <= M"):
        blowup_lower_bound_check(table20, alpha=0.5, s=0.0, T=T, h=0.7, y_s=y_s, g=g)
    # cells outside [s, T] are never read
    late = PiecewiseConstant(np.array([0.0, 1.01 * T]), np.array([0.7, 50.0]))
    assert blowup_lower_bound_check(table20, alpha=0.5, s=0.0, T=T, h=late, y_s=y_s).ok


def test_lower_bound_terminal_radius_matches_a_per_cell_reference(table20):
    # the damping jumps at every cell edge: the integrator must restart its
    # stage derivative past each jump, or the step there reads the old cell
    rng = np.random.default_rng(11)
    for _ in range(4):
        direction = rng.normal(size=2)
        y_s = mtilde(table20, 0.5) * (1.0 + 2.0 * rng.uniform()) * direction / np.linalg.norm(direction)
        T = xi_upper_time(table20, float(np.linalg.norm(y_s))) * (0.1 + 0.8 * rng.uniform())
        edges = np.linspace(0.0, T, 9)
        h = rng.uniform(size=8)
        verdict = blowup_lower_bound_check(
            table20, alpha=0.5, s=0.0, T=T, h=PiecewiseConstant(edges[:-1], h), y_s=y_s
        )
        ref = oracles.per_cell_dop853(lambda j, y: np.linalg.norm(y) * y - h[j] * y, edges, y_s)
        assert verdict.terminal_radius == pytest.approx(np.linalg.norm(ref), rel=1e-8, abs=0.0)


def test_monotonicity_values_match_a_per_cell_reference():
    rng = np.random.default_rng(7)
    edges = np.linspace(0.0, 0.3, 7)
    for sign, y0 in ((-1.0, [0.0, 0.5]), (1.0, [2.0, 0.5])):
        g = 0.2 * rng.uniform(-1.0, 1.0, size=(6, 2))
        h = sign * 0.2 * rng.uniform(0.0, 1.0, size=6)
        verdict = quench_monotonicity_check(
            g=PiecewiseConstant(edges[:-1], g),
            h=PiecewiseConstant(edges[:-1], h),
            y0=np.array(y0),
            T=0.3,
        )
        for y1, damped in ((verdict.baseline_y1, 0.0), (verdict.perturbed_y1, 1.0)):
            ref = oracles.per_cell_dop853(
                lambda j, y: oracles.quench_field(0.0, y, g[j] + [damped * h[j], 0.0]), edges, y0
            )
            assert abs(y1 - ref[0]) <= 1e-11


def test_monotonicity_case_i_and_ii():
    h_neg = PiecewiseConstant(np.array([0.0, 0.1]), np.array([-0.2, -0.05]))
    v = quench_monotonicity_check(g=None, h=h_neg, y0=np.array([0.0, 0.5]), T=0.3)
    assert v.ok and v.case == "i" and v.margin > 0.0
    h_pos = PiecewiseConstant(np.array([0.0, 0.1]), np.array([0.2, 0.05]))
    v = quench_monotonicity_check(g=None, h=h_pos, y0=np.array([2.0, 0.5]), T=0.3)
    assert v.ok and v.case == "ii" and v.margin > 0.0


def test_monotonicity_boundary_and_guards():
    zero = PiecewiseConstant(np.array([0.0]), np.array([0.0]))
    v = quench_monotonicity_check(g=None, h=zero, y0=np.array([0.0, 0.5]), T=0.3)
    assert v.h_vanishes and v.ok and abs(v.margin) <= 1e-7
    wrong_sign = PiecewiseConstant(np.array([0.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        quench_monotonicity_check(g=None, h=wrong_sign, y0=np.array([0.0, 0.5]), T=0.3)
    h_neg = PiecewiseConstant(np.array([0.0]), np.array([-0.1]))
    with pytest.raises(errors.BaselineQuenchedEarly):
        quench_monotonicity_check(g=None, h=h_neg, y0=np.array([0.98, 2.0]), T=1.0)


def test_monotonicity_check_reads_every_cell():
    # h = +0.5 on a cell 1e-6 wide, between two probe points, is not h <= 0
    starts = np.array([0.0, 0.1, 0.1 + 1e-6])
    h = PiecewiseConstant(starts, np.array([-0.1, 0.5, -0.1]))
    with pytest.raises(ValueError, match="needs h <= 0"):
        quench_monotonicity_check(g=None, h=h, y0=np.array([0.0, 0.5]), T=0.3)
    h = PiecewiseConstant(starts, np.array([0.1, -0.5, 0.1]))
    with pytest.raises(ValueError, match="needs h >= 0"):
        quench_monotonicity_check(g=None, h=h, y0=np.array([2.0, 0.5]), T=0.3)


def test_table_csv(tmp_path, table20):
    path = tmp_path / "table.csv"
    table20.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,xi_upper,xi_lower"
    r, up, lo = (float(tok) for tok in rows[1].split(","))
    assert abs(up - xi_upper_time(table20, r)) <= 1e-12
