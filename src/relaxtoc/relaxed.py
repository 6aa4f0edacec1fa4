"""Finitely atomic relaxed control schedules and their classical realizations.

A relaxed schedule stores, per grid cell, K atoms in the control set and a
probability weight vector over them.  The Caratheodory bound K <= n + 2 for
an n-dimensional state suffices to realize any relaxed velocity, but nothing
enforces it: a schedule takes any K >= 1.  On a control-affine field the
velocity reads only the weighted mean of the atoms, so the solver carries
one mean per cell: a classical schedule, the relaxed one with one Dirac
atom per cell.  Weights are clipped and renormalized on construction so the
simplex invariant holds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    def knots(self):
        """The interior grid points where the control jumps: a cell whose
        atoms and weights equal its predecessor's continues its leg."""
        same = np.all(self.atoms[1:] == self.atoms[:-1], axis=(1, 2)) & np.all(
            self.weights[1:] == self.weights[:-1], axis=1
        )
        return tuple(float(t) for t in self.grid[1:-1][~same])

    def cell_at(self, t: float):
        """(atoms, weights) of the cell containing t (clamped outside the grid)."""
        j = _cell_index(self.grid, t)
        return self.atoms[j], self.weights[j]

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


class ClassicalSchedule(RelaxedSchedule):
    """Piecewise-constant control values[j] on (grid[j], grid[j+1]]: the
    relaxed schedule with one Dirac atom per cell, so every consumer of a
    relaxed schedule (integrators, verify, a warm start) takes it as is."""

    def __init__(self, grid, values):
        values = np.atleast_2d(_vec(values))
        super().__init__(grid=grid, atoms=values[:, None, :], weights=np.ones((len(values), 1)))

    @property
    def values(self) -> np.ndarray:
        return self.atoms[:, 0, :]

    def to_json_dict(self) -> dict:
        return {
            "kind": "classical",
            "grid": [float(t) for t in self.grid],
            "values": [[float(v) for v in row] for row in self.values],
        }


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
