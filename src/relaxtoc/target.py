"""Target sets, inflation, distances, projections and terminal cone tests.

Every target variant knows its own Euclidean distance and metric projection.
Inflation by alpha >= 0 replaces the set Q by Q_alpha = {x : d(x, Q) <= alpha},
so d(x, Q_alpha) = max(d(x, Q) - alpha, 0) and projections compose exactly.

The terminal cone test evaluates the closed form of

    residual = max(0, -inf_{q in Q_alpha} <psi, q - q_star>),

which is zero exactly when -psi lies in the normal cone of Q_alpha at q_star.
Unbounded violations (nonzero tangential component against a flat piece)
return float('inf') so reports remain totally ordered.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import errors

# Tangential components below this relative size count as zero in cone tests.
_TANGENT_TOL = 1e-10
# An exit point farther than this from the target boundary fails cone tests.
BOUNDARY_TOL = 1e-6


def _vec(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True, eq=False)
class TargetSet:
    """Base class; use one of the concrete variants below."""

    alpha: float = 0.0

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")

    def with_alpha(self, alpha: float) -> "TargetSet":
        """Copy of this target inflated by alpha (replaces any prior inflation);
        no other field is recomputed, so a HalfSpace's normal keeps its bits."""
        out = copy.copy(self)
        object.__setattr__(out, "alpha", float(alpha))
        TargetSet.__post_init__(out)
        return out

    # Distance to the uninflated core set.
    def base_distance(self, x) -> float:
        raise NotImplementedError

    def base_project(self, x):
        raise NotImplementedError

    def distance(self, x) -> float:
        """Euclidean distance from x to the inflated set Q_alpha."""
        return max(self.base_distance(x) - self.alpha, 0.0)

    def project(self, x):
        """Nearest point of Q_alpha to x (x itself when already inside)."""
        x = _vec(x)
        d0 = self.base_distance(x)
        if d0 <= self.alpha:
            return x.copy()
        p0 = self.base_project(x)
        return x + ((d0 - self.alpha) / d0) * (p0 - x)

    def boundary_gap(self, x) -> float:
        """Distance from x to the boundary of Q_alpha (closed form per variant)."""
        raise NotImplementedError

    def transversality_residual(self, q_star, psi) -> float:
        """Terminal cone residual at exit point q_star with covector psi.

        Returns 0.0 when the condition <psi, q - q_star> >= 0 holds for all
        q in Q_alpha, the (finite or infinite) worst violation otherwise.
        """
        raise NotImplementedError

    def _check_boundary(self, q_star):
        gap = self.boundary_gap(q_star)
        if gap > BOUNDARY_TOL:
            raise errors.NotOnBoundary(
                f"point is {gap:.3e} from the target boundary (tol {BOUNDARY_TOL:.1e})"
            )


@dataclass(frozen=True, eq=False)
class Hyperplane(TargetSet):
    """Axis-aligned hyperplane {x : x[axis] = level}; inflated form is a slab."""

    axis: int = 0
    level: float = 0.0

    def base_distance(self, x):
        return abs(float(_vec(x)[self.axis] - self.level))

    def base_project(self, x):
        p = _vec(x).copy()
        p[self.axis] = self.level
        return p

    def boundary_gap(self, x):
        return abs(self.base_distance(x) - self.alpha)

    def transversality_residual(self, q_star, psi):
        q_star = _vec(q_star)
        psi = _vec(psi)
        self._check_boundary(q_star)
        scale = max(1.0, float(np.linalg.norm(psi)))
        tang = np.delete(psi, self.axis)
        if tang.size and np.linalg.norm(tang) > _TANGENT_TOL * scale:
            return float("inf")
        pa = float(psi[self.axis])
        lo = self.level - self.alpha - float(q_star[self.axis])
        hi = self.level + self.alpha - float(q_star[self.axis])
        worst = min(pa * lo, pa * hi)
        return max(0.0, -worst)


@dataclass(frozen=True, eq=False)
class HalfSpace(TargetSet):
    """Half-space {x : <normal, x> <= offset}; the normal is unit-normalized."""

    normal: np.ndarray = None
    offset: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        n = _vec(self.normal)
        nn = float(np.linalg.norm(n))
        if nn <= 0.0:
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", n / nn)
        object.__setattr__(self, "offset", float(self.offset) / nn)

    def _signed(self, x):
        return float(self.normal @ _vec(x)) - self.offset

    def base_distance(self, x):
        return max(self._signed(x), 0.0)

    def base_project(self, x):
        x = _vec(x)
        s = self._signed(x)
        if s <= 0.0:
            return x.copy()
        return x - s * self.normal

    def boundary_gap(self, x):
        return abs(self._signed(x) - self.alpha)

    def transversality_residual(self, q_star, psi):
        q_star = _vec(q_star)
        psi = _vec(psi)
        self._check_boundary(q_star)
        scale = max(1.0, float(np.linalg.norm(psi)))
        c = float(psi @ self.normal)
        tang = psi - c * self.normal
        if np.linalg.norm(tang) > _TANGENT_TOL * scale:
            return float("inf")
        if c > _TANGENT_TOL * scale:
            # Interior recession direction -normal makes <psi, q - q*> unbounded below.
            return float("inf")
        worst = min(0.0, c * (self.offset + self.alpha - float(self.normal @ q_star)))
        return max(0.0, -worst)


@dataclass(frozen=True, eq=False)
class Ball(TargetSet):
    """Closed ball {x : |x - center| <= radius}."""

    center: np.ndarray = None
    radius: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "center", _vec(self.center))
        if self.radius < 0.0:
            raise ValueError("ball radius must be nonnegative")

    def base_distance(self, x):
        return max(float(np.linalg.norm(_vec(x) - self.center)) - self.radius, 0.0)

    def base_project(self, x):
        x = _vec(x)
        v = x - self.center
        r = float(np.linalg.norm(v))
        if r <= self.radius:
            return x.copy()
        return self.center + (self.radius / r) * v

    def boundary_gap(self, x):
        return abs(float(np.linalg.norm(_vec(x) - self.center)) - (self.radius + self.alpha))

    def transversality_residual(self, q_star, psi):
        q_star = _vec(q_star)
        psi = _vec(psi)
        self._check_boundary(q_star)
        rho = self.radius + self.alpha
        worst = float(psi @ (self.center - q_star)) - rho * float(np.linalg.norm(psi))
        return max(0.0, -worst)


@dataclass(frozen=True, eq=False)
class Point(TargetSet):
    """Singleton {location}; inflation turns it into a ball of radius alpha."""

    location: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "location", _vec(self.location))

    def base_distance(self, x):
        d = _vec(x) - self.location
        return math.sqrt(float(d @ d))

    def base_project(self, x):
        return self.location.copy()

    def boundary_gap(self, x):
        return abs(self.base_distance(x) - self.alpha)

    def transversality_residual(self, q_star, psi):
        q_star = _vec(q_star)
        psi = _vec(psi)
        self._check_boundary(q_star)
        worst = float(psi @ (self.location - q_star)) - self.alpha * float(np.linalg.norm(psi))
        return max(0.0, -worst)


def transformed_transversality_residual(tgt: TargetSet, chart_jacobian, q_star, psi) -> float:
    """Cone residual in a coordinate chart z = G(y), tested on the pulled-back covector.

    chart_jacobian is the Jacobian of G at the exit point in gradient layout,
    entry (i, j) = dG_j / dy_i; the covector transported to chart coordinates
    is phi = chart_jacobian^{-1} psi, and the residual is evaluated against
    the target expressed in chart coordinates.  The identity chart reduces to
    TargetSet.transversality_residual.
    """
    jac = np.asarray(chart_jacobian, dtype=float)
    psi = _vec(psi)
    if jac.shape != (psi.size, psi.size):
        raise ValueError("chart jacobian shape does not match the covector")
    if not np.all(np.isfinite(jac)):
        raise errors.SingularJacobian("chart jacobian has non-finite entries")
    try:
        phi = np.linalg.solve(jac, psi)
    except np.linalg.LinAlgError as exc:
        raise errors.SingularJacobian(str(exc)) from exc
    if not np.all(np.isfinite(phi)):
        raise errors.SingularJacobian("chart jacobian is numerically singular")
    return tgt.transversality_residual(q_star, phi)
