"""Finitely atomic relaxed control schedules and their classical realizations.

A relaxed schedule stores, per grid cell, K atoms in the control set and a
probability weight vector over them.  K is meant to respect the Caratheodory
bound K <= n + 2 for an n-dimensional state, which suffices to realize any
relaxed velocity; the solver enforces that default.  Weights are clipped and
renormalized on construction so the simplex invariant holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .dynamics import ControlSystem

_WEIGHT_NEG_TOL = 1e-9


def _vec(x):
    return np.asarray(x, dtype=float)


def _check_grid(grid):
    grid = _vec(grid)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid needs at least two breakpoints")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be nondecreasing")
    return grid


def _cell_index(grid, t):
    # Left-continuous lookup, clamped to the first/last cell outside the grid:
    # a knot belongs to the cell that ends there.  integrate_forward resolves
    # a segment's cell at its midpoint, and both integrators evaluate a
    # segment's first stage one ulp past its start, so that stage reads the
    # segment's own cell.
    i = int(np.searchsorted(grid, t, side="left")) - 1
    return min(max(i, 0), len(grid) - 2)


@dataclass(frozen=True, eq=False)
class ClassicalSchedule:
    """Piecewise-constant control: values[j] on (grid[j], grid[j+1]]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _check_grid(self.grid)
        values = np.atleast_2d(_vec(self.values))
        if values.shape[0] != grid.size - 1:
            raise ValueError("need one value row per grid cell")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def cells(self) -> int:
        return self.values.shape[0]

    @property
    def dim_control(self) -> int:
        return self.values.shape[1]

    @property
    def knots(self):
        return tuple(float(t) for t in self.grid[1:-1])

    def value_at(self, t: float) -> np.ndarray:
        return self.values[_cell_index(self.grid, t)]

    def to_json_dict(self) -> dict:
        return {
            "kind": "classical",
            "grid": [float(t) for t in self.grid],
            "values": [[float(v) for v in row] for row in self.values],
        }


@dataclass(frozen=True, eq=False)
class RelaxedSchedule:
    """Piecewise-constant relaxed control: per cell, atoms (K, m) with weights (K,)."""

    grid: np.ndarray
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = _check_grid(self.grid)
        atoms = _vec(self.atoms)
        weights = _vec(self.weights)
        if atoms.ndim != 3:
            raise ValueError("atoms must have shape (cells, K, m)")
        if weights.shape != atoms.shape[:2]:
            raise ValueError("weights must have shape (cells, K)")
        if atoms.shape[0] != grid.size - 1:
            raise ValueError("need one atom block per grid cell")
        if np.any(weights < -_WEIGHT_NEG_TOL):
            raise ValueError("weights must be nonnegative")
        weights = np.clip(weights, 0.0, None)
        sums = weights.sum(axis=1, keepdims=True)
        if np.any(sums <= 0.0):
            raise ValueError("each cell needs positive total weight")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights / sums)

    @property
    def cells(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    @property
    def dim_control(self) -> int:
        return self.atoms.shape[2]

    @property
    def knots(self):
        return tuple(float(t) for t in self.grid[1:-1])

    def cell_at(self, t: float):
        """(atoms, weights) of the cell containing t (clamped outside the grid)."""
        j = _cell_index(self.grid, t)
        return self.atoms[j], self.weights[j]

    def mean_at(self, t: float) -> np.ndarray:
        atoms, weights = self.cell_at(t)
        return weights @ atoms

    def validate_in(self, control_set, tol: float = 1e-7) -> None:
        for block in self.atoms:
            for atom in block:
                if not control_set.contains(atom, tol=tol):
                    raise ValueError("schedule atom outside the control set")

    def with_grid(self, new_grid) -> "RelaxedSchedule":
        """Same relaxed control re-expressed on a refinement of the grid."""
        new_grid = _check_grid(new_grid)
        mids = 0.5 * (new_grid[:-1] + new_grid[1:])
        idx = [_cell_index(self.grid, t) for t in mids]
        return RelaxedSchedule(
            grid=new_grid, atoms=self.atoms[idx], weights=self.weights[idx]
        )

    def scaled_grid(self, factor: float) -> "RelaxedSchedule":
        return RelaxedSchedule(grid=self.grid * factor, atoms=self.atoms, weights=self.weights)

    def hash_bytes(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        for arr in (self.grid, self.atoms, self.weights):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.digest()

    def to_json_dict(self) -> dict:
        return {
            "kind": "relaxed",
            "grid": [float(t) for t in self.grid],
            "atoms": [[[float(v) for v in atom] for atom in block] for block in self.atoms],
            "weights": [[float(w) for w in row] for row in self.weights],
        }


def to_dirac(schedule: ClassicalSchedule) -> RelaxedSchedule:
    """Embed a classical schedule as the relaxed schedule of point masses."""
    return RelaxedSchedule(
        grid=schedule.grid,
        atoms=schedule.values[:, None, :],
        weights=np.ones((schedule.cells, 1)),
    )


def common_refinement(grid_a, grid_b) -> np.ndarray:
    """Sorted union of two breakpoint grids over their common span."""
    grid_a = _vec(grid_a)
    grid_b = _vec(grid_b)
    lo = max(grid_a[0], grid_b[0])
    hi = min(grid_a[-1], grid_b[-1])
    if hi <= lo:
        raise ValueError("grids do not overlap")
    pts = np.union1d(grid_a, grid_b)
    pts = pts[(pts >= lo) & (pts <= hi)]
    if pts[0] != lo:
        pts = np.concatenate([[lo], pts])
    if pts[-1] != hi:
        pts = np.concatenate([pts, [hi]])
    return pts


def relaxed_field(sys: ControlSystem, t: float, y, atoms, weights) -> np.ndarray:
    """Averaged velocity sum_i weights[i] * field(t, y, atoms[i]).

    Control-affine systems use a single field evaluation at the barycenter,
    which is exact by linearity in u.
    """
    y = _vec(y)
    atoms = np.atleast_2d(_vec(atoms))
    weights = _vec(weights)
    if sys.affine is not None:
        return _vec(sys.field(t, y, weights @ atoms))
    out = np.zeros(sys.dim_state)
    for lam, atom in zip(weights, atoms):
        if lam > 0.0:
            out += lam * _vec(sys.field(t, y, atom))
    return out


def relaxed_jacobian(sys: ControlSystem, t: float, y, atoms, weights) -> np.ndarray:
    """Averaged state jacobian sum_i weights[i] * jacobian(t, y, atoms[i]).

    Control-affine systems have a jacobian free of u, so one evaluation at
    the first atom is exact.
    """
    if sys.affine is not None:
        return _vec(sys.jacobian(t, y, atoms[0]))
    out = None
    for lam, atom in zip(weights, atoms):
        if lam > 0.0:
            term = lam * _vec(sys.jacobian(t, y, atom))
            out = term if out is None else out + term
    return out


def filippov_select(sys: ControlSystem, t: float, atoms, weights) -> np.ndarray:
    """Single control matching the relaxed velocity of a cell exactly.

    For control-affine dynamics with a convex control set the barycenter
    sum_i weights[i] atoms[i] does it: B(t) applied to the mean equals the
    mean of B(t) applied to the atoms.
    """
    if sys.affine is None:
        raise errors.NonAffineSystem("Filippov selection implemented for affine systems only")
    if not sys.control_set.is_convex:
        raise errors.NonConvexControlSet("barycenter may leave a non-convex control set")
    atoms = np.atleast_2d(_vec(atoms))
    return _vec(weights) @ atoms


def chattering_cell(atoms, weights, t_lo: float, t_hi: float, subdivisions: int):
    """Classical cells realizing one relaxed cell by fast periodic switching.

    The cell is split into `subdivisions` equal frames; inside each frame
    every atom occupies a slice proportional to its weight, in atom order.
    Zero-weight slices are dropped.  Returns (breakpoints, values).
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be >= 1")
    atoms = np.atleast_2d(_vec(atoms))
    weights = _vec(weights)
    frame = (t_hi - t_lo) / subdivisions
    breaks = [t_lo]
    vals = []
    for k in range(subdivisions):
        start = t_lo + k * frame
        acc = 0.0
        for lam, atom in zip(weights, atoms):
            if lam <= 0.0:
                continue
            acc += lam
            breaks.append(start + acc * frame)
            vals.append(atom)
    breaks[-1] = t_hi
    return np.array(breaks), np.array(vals)


def chattering_realization(schedule: RelaxedSchedule, subdivisions: int) -> ClassicalSchedule:
    """Classical schedule realizing a relaxed one by chattering every cell.

    Trajectory gaps against the relaxed flow shrink like O(1/subdivisions).
    """
    grids = []
    values = []
    for c in range(schedule.cells):
        b, v = chattering_cell(
            schedule.atoms[c], schedule.weights[c], schedule.grid[c], schedule.grid[c + 1], subdivisions
        )
        if grids:
            b = b[1:]
        grids.append(b)
        values.append(v)
    return ClassicalSchedule(grid=np.concatenate(grids), values=np.concatenate(values))
