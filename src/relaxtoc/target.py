"""Target sets, inflation, distances, projections, normal cones and terminal cone tests.

Every target variant knows its own Euclidean distance and metric projection.
Inflation by alpha >= 0 replaces the set Q by Q_alpha = {x : d(x, Q) <= alpha},
so d(x, Q_alpha) = max(d(x, Q) - alpha, 0) and projections compose exactly.
A Point is the Ball of radius 0.  Each variant also owns its normal cone
(exit_normal, the costate seed at an exit point), read like everything here
in the target's own coordinates: the system carries points and covectors
into them (ControlSystem.target_coords, covector_to_target).

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

    # signed_gap(x) of a flat variant: its sign change between scan samples
    # flags a pass straight through the inflated target
    signed_gap = None
    # verify seeds the costate on the pre-terminal family T - delta * T
    seeds_preterminal = False

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

    def exit_normal(self, z_end, z_prev) -> np.ndarray:
        """Unit covector psi with <psi, q - z_end> >= 0 over Q_alpha at the exit
        point z_end; the previous sample z_prev fixes the approach side when
        z_end is (numerically) on the core set."""
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

    def signed_gap(self, x):
        return float(x[self.axis]) - self.level

    def exit_normal(self, z_end, z_prev):
        z_end = _vec(z_end)
        side = np.sign(self.level - z_end[self.axis])
        if side == 0.0:
            side = np.sign(self.level - _vec(z_prev)[self.axis]) or 1.0
        seed = np.zeros(z_end.size)
        seed[self.axis] = side
        return seed

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

    def signed_gap(self, x):
        return float(self.normal @ x) - (self.offset + self.alpha)

    def exit_normal(self, z_end, z_prev):
        return -self.normal

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
        d = _vec(x) - self.center
        return max(math.sqrt(float(d @ d)) - self.radius, 0.0)

    def base_project(self, x):
        if self.radius == 0.0:  # a Point: the center, with no arithmetic on x
            return self.center.copy()
        x = _vec(x)
        v = x - self.center
        r = float(np.linalg.norm(v))
        if r <= self.radius:
            return x.copy()
        return self.center + (self.radius / r) * v

    def boundary_gap(self, x):
        return abs(float(np.linalg.norm(_vec(x) - self.center)) - (self.radius + self.alpha))

    def exit_normal(self, z_end, z_prev):
        z_end = _vec(z_end)
        gap = self.center - z_end
        n = float(np.linalg.norm(gap))
        if n > 0.0:
            return gap / n
        step = z_end - _vec(z_prev)
        n = float(np.linalg.norm(step))
        if n == 0.0:
            raise errors.ZeroTerminalCovector("no approach direction at the exit point")
        return step / n

    def transversality_residual(self, q_star, psi):
        q_star = _vec(q_star)
        psi = _vec(psi)
        self._check_boundary(q_star)
        rho = self.radius + self.alpha
        worst = float(psi @ (self.center - q_star)) - rho * float(np.linalg.norm(psi))
        return max(0.0, -worst)


class Point(Ball):
    """Singleton {location}: the Ball of radius 0, which inflation turns into
    a ball of radius alpha."""

    seeds_preterminal = True

    def __init__(self, location=None, alpha: float = 0.0):
        super().__init__(alpha=alpha, center=location, radius=0.0)

    @property
    def location(self) -> np.ndarray:
        return self.center
