import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from relaxtoc.target import Ball, HalfSpace, Hyperplane, Point

finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def _variants(dim=3):
    return [
        Hyperplane(axis=0, level=1.0),
        HalfSpace(normal=np.array([1.0, -2.0, 0.5]), offset=0.7),
        Ball(center=np.array([0.5, -1.0, 2.0]), radius=1.5),
        Point(location=np.array([1.0, 0.0, -1.0])),
    ]


def test_projection_distance_duality(rng):
    for tgt in _variants():
        for alpha in (0.0, 0.3):
            t = tgt.with_alpha(alpha)
            for _ in range(500):
                x = rng.normal(scale=5.0, size=3)
                d = t.distance(x)
                q = t.project(x)
                assert abs(np.linalg.norm(x - q) - d) <= 1e-12 * (1.0 + np.linalg.norm(x))


def test_projection_idempotent(rng):
    for tgt in _variants():
        t = tgt.with_alpha(0.2)
        for _ in range(100):
            x = rng.normal(scale=5.0, size=3)
            q = t.project(x)
            assert np.linalg.norm(t.project(q) - q) <= 1e-12


@given(x=hnp.arrays(float, 3, elements=finite), a1=st.floats(0.0, 1.0), a2=st.floats(0.0, 1.0))
def test_inflation_monotone(x, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    for tgt in _variants():
        assert tgt.with_alpha(hi).distance(x) <= tgt.with_alpha(lo).distance(x) + 1e-12


@given(x=hnp.arrays(float, 3, elements=finite), alpha=st.floats(0.0, 2.0))
def test_inflated_distance_formula(x, alpha):
    for tgt in _variants():
        d0 = tgt.distance(x)
        da = tgt.with_alpha(alpha).distance(x)
        assert abs(da - max(d0 - alpha, 0.0)) <= 1e-12 * (1.0 + abs(d0))


def test_halfspace_normal_is_normalized():
    h = HalfSpace(normal=np.array([3.0, 4.0]), offset=5.0)
    assert abs(np.linalg.norm(h.normal) - 1.0) <= 1e-15
    # offset rescales with the normal, so the set itself is unchanged:
    # signed distance of (6, 8) from {3x + 4y <= 5} is (18 + 32 - 5)/5 = 9
    assert abs(h.base_distance(np.array([6.0, 8.0])) - 9.0) <= 1e-12
    assert h.base_distance(np.array([-1.0, -1.0])) == 0.0


def test_with_alpha_changes_only_alpha():
    # renormalizing an already unit normal can move it by an ulp: the
    # inflated copy must describe the same half-space, bit for bit
    h = HalfSpace(normal=[1.0, 1.0], offset=1.0)
    assert h.with_alpha(0.0).offset == h.offset == 0.7071067811865475
    rng = np.random.default_rng(0)
    for _ in range(1000):
        h = HalfSpace(normal=rng.normal(size=3), offset=float(rng.normal()))
        h2 = h.with_alpha(0.25).with_alpha(0.0)
        assert np.array_equal(h2.normal, h.normal) and h2.offset == h.offset
        assert h.with_alpha(0.25).alpha == 0.25 and h.alpha == 0.0
    with pytest.raises(ValueError):
        h.with_alpha(-1e-3)


def test_hyperplane_transversality_characterization():
    tgt = Hyperplane(axis=0, level=1.0)
    q = np.array([1.0, 3.7])  # on the plane
    # inward normal from below is +e_0; any tangential part makes the
    # supremum over the unbounded plane infinite
    assert tgt.transversality_residual(q, np.array([1.0, 0.0])) == 0.0
    assert tgt.transversality_residual(q, np.array([-1.0, 0.0])) == 0.0
    assert tgt.transversality_residual(q, np.array([1.0, 1e-3])) == np.inf
    assert tgt.transversality_residual(q, np.array([1.0, 1e-11])) == 0.0


def test_halfspace_transversality_sign():
    tgt = HalfSpace(normal=np.array([0.0, 1.0]), offset=2.0)
    q = np.array([0.3, 2.0])
    # psi must point against the outward normal
    assert tgt.transversality_residual(q, np.array([0.0, -1.0])) == 0.0
    res = tgt.transversality_residual(q, np.array([0.0, 1.0]))
    assert res == np.inf or res > 0.0


def test_ball_transversality():
    tgt = Ball(center=np.zeros(2), radius=1.0)
    q = np.array([1.0, 0.0])
    assert tgt.transversality_residual(q, np.array([-1.0, 0.0])) <= 1e-12
    assert tgt.transversality_residual(q, np.array([1.0, 0.0])) > 0.0


def test_point_transversality_any_psi_ok():
    tgt = Point(location=np.array([2.0, -1.0]))
    q = np.array([2.0, -1.0])
    for psi in (np.array([1.0, 1.0]), np.array([-0.3, 0.2])):
        assert tgt.transversality_residual(q, psi) <= 1e-12


def test_transversality_rejects_interior_point():
    tgt = Ball(center=np.zeros(2), radius=1.0)
    with pytest.raises(Exception):
        tgt.transversality_residual(np.array([0.1, 0.0]), np.array([1.0, 0.0]))
