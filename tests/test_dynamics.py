import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relaxtoc.dynamics import (
    BallSet,
    BoxSet,
    Compactification,
    FiniteSet,
    PiecewiseConstant,
    input_bound,
    make_blowup_system,
    make_integrator_system,
    make_quenching_system,
)


def _fd_jacobian(sys, t, y, u, h=1e-6):
    n = y.size
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h * max(1.0, abs(y[j]))
        out[:, j] = (sys.field(t, y + e, u) - sys.field(t, y - e, u)) / (2.0 * e[j])
    return out


def _sample_point(kind, rng):
    if kind == "quenching":
        # keep clear of the singular line y1 = 1
        y = rng.normal(scale=1.5, size=2)
        y[0] = min(y[0], 0.8) if y[0] < 1.0 else max(y[0], 1.2)
        return y
    y = rng.normal(scale=2.0, size=1)
    while abs(y[0]) < 0.1:
        y = rng.normal(scale=2.0, size=1)
    return y


def test_jacobian_matches_finite_differences(quench_sys, blowup_sys_g1, rng):
    # the jacobian uses the gradient layout (i, j) -> df^j / dy_i, so its
    # transpose is the conventional Jacobian the differences produce
    for sys in (quench_sys, blowup_sys_g1, make_integrator_system(2)):
        for _ in range(200):
            y = _sample_point(sys.kind, rng)[: sys.dim_state]
            if y.size != sys.dim_state:
                y = rng.normal(size=sys.dim_state)
            u = sys.control_set.boundary_sample(rng)
            t = rng.uniform(0.0, 1.0)
            J = sys.jacobian(t, y).T
            J_fd = _fd_jacobian(sys, t, y, u)
            scale = 1.0 + np.abs(J_fd).max()
            assert np.abs(J - J_fd).max() <= 1e-5 * scale


def test_affine_decomposition_exact(quench_sys, blowup_sys_g1, rng):
    for sys in (quench_sys, blowup_sys_g1):
        for _ in range(50):
            y = _sample_point(sys.kind, rng)[: sys.dim_state]
            u = sys.control_set.boundary_sample(rng)
            t = rng.uniform(0.0, 2.0)
            f0 = sys.field(t, y, np.zeros(sys.dim_control))
            lhs = sys.field(t, y, u) - f0
            rhs = sys.affine.input_matrix(t) @ u
            # exact up to the one rounding of drift + Bu
            scale = 1.0 + np.abs(f0).max() + np.abs(rhs).max()
            assert np.abs(lhs - rhs).max() <= 4.0 * np.finfo(float).eps * scale


def test_piecewise_constant_left_continuous_eval():
    sig = PiecewiseConstant(np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0, 30.0]))
    assert sig(0.5) == 10.0
    assert sig(1.0) == 10.0  # left-continuous: the knot keeps the older value
    assert sig(1.0 + 1e-12) == 20.0
    assert sig(5.0) == 30.0
    assert sig(-1.0) == 10.0
    # knots are the interior switch instants the integrator must land on
    assert sig.knots == (1.0, 2.0)


@given(st.floats(0.1, 5.0), st.integers(1, 4))
def test_ball_boundary_sample_on_sphere(radius, dim):
    ball = BallSet(radius=radius, dim=dim)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = ball.boundary_sample(rng)
        assert abs(np.linalg.norm(u) - radius) <= 1e-9 * (1.0 + radius)
        assert ball.contains(u)


def test_box_and_finite_sets(rng):
    box = BoxSet(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    assert box.is_convex
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.1]))
    for _ in range(20):
        v = box.boundary_sample(rng)
        assert box.contains(v)
    fin = FiniteSet(points=np.array([[0.0], [1.0]]))
    assert not fin.is_convex
    assert fin.contains(np.array([1.0]))
    assert not fin.contains(np.array([0.5]))


@pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf")])
def test_ball_set_rejects_a_negative_or_non_finite_radius(radius):
    # a negative radius flipped the argmax rho q / |q| away from q: the
    # solver certified a minimum of the Hamiltonian, with an atom outside
    # the set, and verify, sharing the argmax, reported no residual
    with pytest.raises(ValueError):
        BallSet(radius=radius, dim=2)
    with pytest.raises(ValueError):
        make_quenching_system(rho0=radius)


def test_zero_radius_ball_set_answers_its_center():
    u, value, degenerate = BallSet(radius=0.0, dim=2).argmax(np.array([1.0, 2.0]), 1e-14)
    assert np.array_equal(u, [0.0, 0.0]) and value == 0.0 and not degenerate


@pytest.mark.parametrize("points", [[], [[]], [[np.nan, 0.0]], [[1.0], [np.inf]]])
def test_finite_set_rejects_an_empty_or_non_finite_set(points):
    with pytest.raises(ValueError):
        FiniteSet(points=points)


def test_input_bound_ball_and_box():
    B = PiecewiseConstant.constant(np.array([[3.0, 0.0], [0.0, 4.0]]))
    ball = BallSet(radius=2.0, dim=2)
    assert abs(input_bound(B, ball) - 8.0) <= 1e-12  # 2 * sigma_max
    box = BoxSet(lower=-np.ones(2), upper=np.ones(2))
    assert abs(input_bound(B, box) - 5.0) <= 1e-12  # |(3, 4)|


def test_compactification_round_trip_and_jacobian(rng):
    chart = Compactification(gamma=2.0, base_radius=2.0, r1=5.0)
    for _ in range(100):
        y = rng.normal(scale=8.0, size=3)
        if np.linalg.norm(y) < 0.5:
            continue
        z = chart.to_chart(y)
        assert np.allclose(chart.from_chart(z), y, rtol=1e-10, atol=1e-12)
        # gradient layout: (i, j) -> dG^j / dy_i; symmetric for radial maps
        J = chart.gradient_jacobian(y)
        assert np.allclose(J, J.T, atol=1e-12)
        h = 1e-6 * (1.0 + np.abs(y))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h[i]
            col = (chart.to_chart(y + e) - chart.to_chart(y - e)) / (2.0 * h[i])
            assert np.abs(J[i] - col).max() <= 1e-5 * (1.0 + np.abs(col).max())
        # velocity push/pull are mutually inverse
        v = rng.normal(size=3)
        assert np.allclose(chart.pull_velocity(z, chart.push_velocity(y, v)), v, rtol=1e-9, atol=1e-12)


_unit3 = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)


@settings(max_examples=300, derandomize=True)
@given(
    gamma=st.floats(0.25, 4.0),
    n=st.integers(1, 3),
    c_dir=_unit3,
    c_norm=st.floats(0.5, 100.0),
    frac=st.floats(0.0, 0.999),
    a_dir=_unit3,
    b_dir=_unit3,
    sa=st.floats(0.0, 1.0),
    sb=st.floats(0.0, 1.0),
)
def test_chart_jacobian_bound_holds_on_a_ball(gamma, n, c_dir, c_norm, frac, a_dir, b_dir, sa, sb):
    # jacobian_bound(|c| - R) bounds |G(a) - G(b)| / |a - b| on the ball
    # B(c, R), which is what lets the forward pass clear a step read through
    # the chart; at R = 0 it is the largest singular value of the jacobian
    # (in one dimension only the radial one, gamma r^(-gamma-1), exists)
    assume(min(np.linalg.norm(v[:n]) for v in (c_dir, a_dir, b_dir)) > 0.1)
    chart = Compactification(gamma=gamma)
    c = c_norm * c_dir[:n] / np.linalg.norm(c_dir[:n])
    R = frac * c_norm
    a = c + R * sa * a_dir[:n] / np.linalg.norm(a_dir[:n])
    b = c + R * sb * b_dir[:n] / np.linalg.norm(b_dir[:n])
    gap = np.linalg.norm(a - b)
    # closer points leave G's own rounding above the slack of the bound
    assume(gap == 0.0 or gap >= 1e-6 * c_norm)
    lhs = np.linalg.norm(chart.to_chart(a) - chart.to_chart(b))
    assert lhs <= chart.jacobian_bound(c_norm - R) * gap * (1.0 + 1e-12)
    sigma = np.linalg.norm(chart.gradient_jacobian(c), 2)
    bound = chart.jacobian_bound(np.linalg.norm(c))
    if n >= 2:
        assert abs(bound - sigma) <= 1e-12 * sigma
    else:
        assert sigma <= bound * (1.0 + 1e-12)
    assert chart.jacobian_bound(0.0) == np.inf


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_blowup_field_and_chart_match_the_textbook_formulas_bit_for_bit(rng):
    # the blowup drift, its jacobian and the chart maps take |y| as
    # sqrt(y @ y), keep one identity per system and form yhat yhat^T by
    # broadcasting; each must equal the np.linalg.norm / np.eye / np.outer
    # formula to the last bit
    for n in (1, 2, 3):
        for p in (1.5, 2.0, 3.0):
            sys_ = make_blowup_system(n=n, p=p)
            chart = sys_.chart
            g = chart.gamma
            for _ in range(300):
                y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
                v = rng.standard_normal(n)
                r = float(np.linalg.norm(y))
                yhat = y / r
                jac = r ** (p - 1.0) * (np.eye(n) + (p - 1.0) * np.outer(yhat, yhat))
                assert _same_bits(sys_.affine.drift(0.0, y), r ** (p - 1.0) * y)
                assert _same_bits(sys_.jacobian(0.0, y), jac)
                z = r ** (-g - 1.0) * y
                assert _same_bits(chart.to_chart(y), z)
                s = float(np.linalg.norm(z))
                assert _same_bits(chart.from_chart(z), s ** (-(g + 1.0) / g) * z)
                assert _same_bits(
                    chart.gradient_jacobian(y), r ** (-g - 1.0) * (np.eye(n) - (g + 1.0) * np.outer(yhat, yhat))
                )
                assert _same_bits(
                    chart.push_velocity(y, v), r ** (-g - 1.0) * (v - (g + 1.0) * yhat * float(yhat @ v))
                )
                y_back = chart.from_chart(z)
                r_back = float(np.linalg.norm(y_back))
                yh_back = y_back / r_back
                assert _same_bits(
                    chart.pull_velocity(z, v),
                    r_back ** (g + 1.0) * (v - (g + 1.0) / g * yh_back * float(yh_back @ v)),
                )


def test_blowup_gamma_guard():
    with pytest.raises(ValueError):
        make_blowup_system(n=1, p=2.0, gamma=0.5)
    make_blowup_system(n=1, p=2.0, gamma=1.0)  # boundary case admitted
