"""Controlled ODE systems whose fields blow up on a singular set.

Jacobian convention (used everywhere in this package): jacobians of vector
fields are stored in gradient layout, entry (i, j) = d f_j / d y_i, i.e. the
transpose of the usual layout.  With this choice the costate equation reads

    psi'(t) = -jacobian(t, y) @ psi(t)

with no transpose.  Every field is control-affine, so its state jacobian is
the drift's and free of u.  Consequence for checks: jacobian(t, y).T must
match finite differences of the drift in y.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Union

import numpy as np

from . import errors


def _vec(x):
    return np.asarray(x, dtype=float)


# ---------------------------------------------------------------------------
# control sets: each answers argmax(q, tiny) = (u, <q, u>, degenerate) for a
# maximizer u of <q, u> (degenerate when every control maximizes to within
# tiny), scale (a ball's radius, else the largest |component| of a control)
# and gain(B) = sup |B u| over the set


@dataclass(frozen=True, eq=False)
class BallSet:
    """Centered closed ball {u : |u| <= radius}."""

    radius: float
    dim: int

    is_convex = True

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"ball radius must be finite and nonnegative, got {self.radius!r}")

    @property
    def scale(self) -> float:
        return float(self.radius)

    def contains(self, u, tol: float = 1e-9) -> bool:
        return float(np.linalg.norm(_vec(u))) <= self.radius * (1.0 + tol) + tol

    def argmax(self, q, tiny):
        qn = math.sqrt(float(q @ q))
        if qn <= tiny or self.radius == 0.0:
            return np.zeros(self.dim), 0.0, qn <= tiny
        return (self.radius / qn) * q, self.radius * qn, False

    def gain(self, B) -> float:
        return self.radius * float(np.linalg.norm(B, 2))

    def boundary_sample(self, rng):
        v = rng.standard_normal(self.dim)
        n = float(np.linalg.norm(v))
        if n == 0.0:
            v = np.zeros(self.dim)
            v[0] = 1.0
            n = 1.0
        return (self.radius / n) * v


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Axis-aligned box {u : lower <= u <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    is_convex = True

    def __post_init__(self):
        lo, hi = _vec(self.lower), _vec(self.upper)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("invalid box bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = _vec(u)
        width = np.maximum(self.upper - self.lower, 1.0)
        return bool(
            np.all(u >= self.lower - tol * width) and np.all(u <= self.upper + tol * width)
        )

    @property
    def scale(self) -> float:
        return float(np.max(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def argmax(self, q, tiny):
        # the componentwise sign rule, the midpoint where a component of q is 0
        mid = 0.5 * (self.lower + self.upper)
        u = np.where(q > 0.0, self.upper, np.where(q < 0.0, self.lower, mid))
        return u, float(q @ u), float(np.max(np.abs(q))) <= tiny

    def gain(self, B) -> float:
        # |B u| is convex in u, so a vertex attains the sup
        return max(float(np.linalg.norm(B @ np.array(v))) for v in product(*zip(self.lower, self.upper)))

    def boundary_sample(self, rng):
        # A random vertex; vertices are the extreme points relevant to bang-bang seeds.
        pick = rng.integers(0, 2, size=self.dim).astype(bool)
        return np.where(pick, self.upper, self.lower).astype(float)


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """Finite control set given by its list of points (rows)."""

    points: np.ndarray

    is_convex = False

    def __post_init__(self):
        pts = np.atleast_2d(_vec(self.points))
        if pts.size == 0 or not np.all(np.isfinite(pts)):
            raise ValueError("a finite control set needs at least one point, all finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = _vec(u)
        return bool(np.any(np.linalg.norm(self.points - u, axis=1) <= tol))

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.points)))

    def argmax(self, q, tiny):
        # the first point with the largest <q, p>
        vals = self.points @ q
        best = int(np.argmax(vals))
        return self.points[best].copy(), float(vals[best]), float(vals[best] - vals.min()) <= tiny

    def gain(self, B) -> float:
        return max(float(np.linalg.norm(B @ p)) for p in self.points)

    def boundary_sample(self, rng):
        return self.points[int(rng.integers(0, len(self.points)))].copy()


ControlSet = Union[BallSet, BoxSet, FiniteSet]


# ---------------------------------------------------------------------------
# piecewise-constant signals (input matrices, drift and damping profiles)


class PiecewiseConstant:
    """Left-continuous piecewise-constant signal on [starts[0], inf).

    values[k] applies on (starts[k], starts[k+1]]; evaluation clamps outside
    the sampled range, so the signal extends constantly in both directions.
    At a knot the signal reads the cell behind it, which is right for a step
    ending there but wrong for one starting there: the integrators therefore
    restart their first stage one ulp past each knot.
    """

    def __init__(self, starts, values):
        self.starts = _vec(starts)
        self.values = np.asarray(values, dtype=float)
        if self.starts.ndim != 1 or len(self.starts) != len(self.values):
            raise ValueError("starts and values must have equal length")
        if len(self.starts) > 1 and np.any(np.diff(self.starts) <= 0.0):
            raise ValueError("starts must be strictly increasing")
        self._start_list = self.starts.tolist()  # bisect on a list beats searchsorted

    @classmethod
    def constant(cls, value):
        return cls([0.0], [value])

    def __call__(self, t: float):
        i = bisect.bisect_left(self._start_list, t) - 1
        return self.values[min(max(i, 0), len(self.values) - 1)]

    def at(self, ts) -> np.ndarray:
        """The values at the times of the array ts, stacked: the call,
        elementwise."""
        i = np.searchsorted(self.starts, ts, side="left") - 1
        return self.values[np.clip(i, 0, len(self.values) - 1)]

    @property
    def knots(self):
        return tuple(float(t) for t in self.starts[1:])

    def values_on(self, a: float, b: float) -> np.ndarray:
        """Every value the signal reads on [a, b] (a <= b), in time order."""
        last = len(self.values) - 1
        i = bisect.bisect_left(self._start_list, a) - 1
        j = bisect.bisect_left(self._start_list, b) - 1
        return self.values[min(max(i, 0), last) : min(max(j, 0), last) + 1]


@dataclass(frozen=True, eq=False)
class AffineStructure:
    """Decomposition field(t, y, u) = drift(t, y) + input_matrix(t) @ u.

    input_matrix is piecewise constant: the forward integrator forms
    input_matrix @ u once per segment, and a ControlSystem carrying this
    structure adds the input matrix's knots to its time_knots.
    """

    drift: Callable[[float, np.ndarray], np.ndarray]
    input_matrix: PiecewiseConstant

    def __post_init__(self):
        if not isinstance(self.input_matrix, PiecewiseConstant):
            raise TypeError("AffineStructure.input_matrix must be a PiecewiseConstant")


# ---------------------------------------------------------------------------
# compactification chart for fields that blow up in finite time


@dataclass(frozen=True, eq=False)
class Compactification:
    """Chart z = G(y) = |y|^(-gamma-1) y mapping a neighborhood of infinity to 0.

    |z| = |y|^(-gamma), so finite-time blowup of y becomes a finite hit of
    z = 0.  The chart is used outside radius r1 with a hysteresis band: the
    integrator switches in at |y| >= 2 r1 and back out at |y| <= r1.  When r1
    is None it defaults at integration time to 10 * max(base_radius, |y0|).
    """

    gamma: float
    base_radius: float = 1.0
    r1: Optional[float] = None

    def effective_r1(self, y0_norm: float) -> float:
        if self.r1 is not None:
            return float(self.r1)
        return 10.0 * max(self.base_radius, float(y0_norm))

    def to_chart(self, y):
        y = _vec(y)
        r = math.sqrt(float(y @ y))
        if r <= 0.0:
            raise errors.InnerRegion("chart map undefined at the origin")
        return r ** (-self.gamma - 1.0) * y

    def from_chart(self, z):
        z = _vec(z)
        s = math.sqrt(float(z @ z))
        if s <= 0.0:
            raise errors.InnerRegion("inverse chart map undefined at z = 0")
        return s ** (-(self.gamma + 1.0) / self.gamma) * z

    def gradient_jacobian(self, y):
        """Jacobian of G at y in gradient layout (symmetric for this chart)."""
        y = _vec(y)
        r = math.sqrt(float(y @ y))
        if r <= 0.0:
            raise errors.InnerRegion("chart jacobian undefined at the origin")
        yhat = y / r
        return r ** (-self.gamma - 1.0) * (
            np.eye(y.size) - (self.gamma + 1.0) * np.outer(yhat, yhat)
        )

    def jacobian_bound(self, r: float) -> float:
        """The largest norm of G's jacobian over |y| >= r: its eigenvalues are
        r^(-gamma-1) across y and -gamma r^(-gamma-1) along it, and both
        shrink as |y| grows.  +inf for r <= 0, where the chart is not defined."""
        return max(1.0, self.gamma) * r ** (-self.gamma - 1.0) if r > 0.0 else math.inf

    def push_velocity(self, y, v):
        """dz/dt given y and dy/dt (the chart jacobian applied to v)."""
        y = _vec(y)
        v = _vec(v)
        r = math.sqrt(float(y @ y))
        yhat = y / r
        return r ** (-self.gamma - 1.0) * (v - (self.gamma + 1.0) * yhat * float(yhat @ v))

    def pull_velocity(self, z, w):
        """dy/dt given z and dz/dt (inverse chart jacobian applied to w)."""
        y = self.from_chart(z)
        r = math.sqrt(float(y @ y))
        yhat = y / r
        # Inverse of r^(-g-1) (I - (g+1) yhat yhat^T): eigenvalues 1 and -gamma.
        w = _vec(w)
        return r ** (self.gamma + 1.0) * (
            w - (self.gamma + 1.0) / self.gamma * yhat * float(yhat @ w)
        )


# ---------------------------------------------------------------------------
# control systems


@dataclass(frozen=True, eq=False)
class ControlSystem:
    """Control-affine ODE y' = drift(t, y) + input_matrix(t) @ u, possibly
    singular on a target-like set.

    affine holds the decomposition, and everything else derives from it: the
    dimensions are the input matrix's shape, and time_knots gains the input
    matrix's knots.  Targets read the state in target_coords, and
    covector_to_state and covector_to_target carry covectors between the
    two.  jacobian is the drift's state jacobian (t, y) in gradient layout
    (see module docstring).  field is the same map as affine in one call; it
    defaults to drift(t, y) + input_matrix(t) @ u, and no integrator, solver
    or check reads it.
    """

    name: str
    kind: str
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    control_set: ControlSet
    affine: AffineStructure
    chart: Optional[Compactification] = None
    time_knots: tuple = ()
    field: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not isinstance(self.affine, AffineStructure):
            raise TypeError("ControlSystem.affine must be an AffineStructure")
        B = self.affine.input_matrix
        knots = {float(k) for k in self.time_knots}.union(B.knots)
        object.__setattr__(self, "time_knots", tuple(sorted(knots)))
        if self.field is None:
            drift = self.affine.drift
            object.__setattr__(self, "field", lambda t, y, u: drift(t, y) + B(t) @ u)

    @property
    def dim_state(self) -> int:
        return self.affine.input_matrix.values.shape[-2]

    @property
    def dim_control(self) -> int:
        return self.affine.input_matrix.values.shape[-1]

    def target_coords(self, y) -> np.ndarray:
        """y in the coordinates targets are read in: its chart image when there is a chart."""
        y = _vec(y)
        return self.chart.to_chart(y) if self.chart is not None else y

    def covector_to_state(self, y, phi) -> np.ndarray:
        """A covector phi at target_coords(y) pulled back to state
        coordinates: J phi, with J the chart jacobian at y in gradient layout."""
        return self.chart.gradient_jacobian(y) @ phi if self.chart is not None else phi

    def covector_to_target(self, y, psi) -> np.ndarray:
        """A state covector psi at y carried to target coordinates: J^{-1} psi,
        which pull_velocity applies since J is symmetric."""
        return self.chart.pull_velocity(self.chart.to_chart(y), psi) if self.chart is not None else psi


def _input_matrix(B, n, m):
    if B is None:
        return PiecewiseConstant.constant(np.eye(n, m))
    if isinstance(B, PiecewiseConstant):
        return B
    return PiecewiseConstant.constant(np.asarray(B, dtype=float).reshape(n, m))


def quench_drift(t, y) -> np.ndarray:
    """Uncontrolled quenching field (y2/(1 - y1), y1 + y2), singular on y1 = 1."""
    return np.array([y[1] / (1.0 - y[0]), y[0] + y[1]])


def quench_drift_jacobian(t, y) -> np.ndarray:
    """Jacobian of quench_drift in gradient layout."""
    one = 1.0 - y[0]
    return np.array([[y[1] / one**2, 1.0], [1.0 / one, 1.0]])


def make_quenching_system(B=None, rho0: float = 1.0) -> ControlSystem:
    """Planar system y1' = y2/(1 - y1) + (Bu)_1, y2' = y1 + y2 + (Bu)_2.

    The field is singular on the line y1 = 1, which is also the target of the
    associated time-optimal problem; |u| <= rho0.
    """
    return ControlSystem(
        name="quenching-ex1",
        kind="quenching",
        jacobian=quench_drift_jacobian,
        control_set=BallSet(radius=float(rho0), dim=2),
        affine=AffineStructure(drift=quench_drift, input_matrix=_input_matrix(B, 2, 2)),
    )


def make_blowup_system(
    n: int = 1,
    p: float = 2.0,
    B=None,
    rho0: float = 1.0,
    gamma: Optional[float] = None,
    r1: Optional[float] = None,
) -> ControlSystem:
    """Superlinear system y' = |y|^(p-1) y + B(t) u with finite-time blowup.

    gamma defaults to p; gamma = p - 1 is admitted as the boundary case (it
    makes the chart dynamics cross z = 0 transversally, exactly linear for
    the scalar p = 2 chart z = 1/y).
    """
    if p <= 1.0:
        raise ValueError("blowup exponent p must exceed 1")
    gamma = float(p if gamma is None else gamma)
    if gamma < p - 1.0:
        raise ValueError("chart exponent gamma must be >= p - 1")
    if B is None:
        m = n
    elif isinstance(B, PiecewiseConstant):
        m = int(np.asarray(B.values[0]).shape[-1])
    else:
        B = np.asarray(B, dtype=float).reshape(n, -1)
        m = B.shape[1]
    Bsig = _input_matrix(B, n, m)

    eye = np.eye(n)

    def drift(t, y):
        r = math.sqrt(float(y @ y))
        return r ** (p - 1.0) * y if r > 0.0 else np.zeros_like(y)

    def drift_jac(t, y):
        r = math.sqrt(float(y @ y))
        if r == 0.0:
            return np.zeros((n, n))
        yhat = y / r
        return r ** (p - 1.0) * (eye + (p - 1.0) * (yhat[:, None] * yhat[None, :]))

    M = input_bound(Bsig, BallSet(radius=float(rho0), dim=m))
    chart = Compactification(gamma=gamma, base_radius=(p + M) / (p - 1.0), r1=r1)
    return ControlSystem(
        name="blowup-ex2",
        kind="blowup",
        jacobian=drift_jac,
        control_set=BallSet(radius=float(rho0), dim=m),
        affine=AffineStructure(drift=drift, input_matrix=Bsig),
        chart=chart,
    )


def input_bound(Bsig: PiecewiseConstant, control_set) -> float:
    """sup_t sup_{u in U} |B(t) u| over the sampled input matrices."""
    bound = 0.0
    for Bk in np.atleast_3d(Bsig.values):
        bound = max(bound, control_set.gain(Bk))
    return bound


def make_integrator_system(n: int = 1, control_set: Optional[ControlSet] = None) -> ControlSystem:
    """Toy system y' = u, smooth everywhere; the default control set is [-1, 1]^n."""
    if control_set is None:
        control_set = BoxSet(lower=-np.ones(n), upper=np.ones(n))

    def drift(t, y):
        return np.zeros(n)

    def drift_jac(t, y):
        return np.zeros((n, n))

    return ControlSystem(
        name="toy-integrator",
        kind="toy",
        jacobian=drift_jac,
        control_set=control_set,
        affine=AffineStructure(drift=drift, input_matrix=PiecewiseConstant.constant(np.eye(n))),
    )
