"""Blowup study: envelope brackets, damping bound, and the solve-time squeeze.

Three views of the superlinear example y' = |y|^{p-1} y + B u read through the
compactification chart: (1) random bounded controls stay inside the fast/slow
radius envelopes, (2) random damping profiles respect the lower blowup bound,
(3) the solver's time to reach |y| = 1/alpha lands inside the envelope
transit-time bracket.
"""

import sys

import numpy as np

from relaxtoc.barrier import (
    blowup_lower_bound_check,
    build_barrier_table,
    envelope_bracket_check,
    mtilde,
    xi_lower_time,
    xi_upper_time,
)
from relaxtoc.dynamics import PiecewiseConstant, input_bound, make_blowup_system
from relaxtoc.integrate import IntegratorOptions, integrate_forward
from relaxtoc.relaxed import ClassicalSchedule
from relaxtoc.solve import SolveOptions, solve_alpha
from relaxtoc.target import Point

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
sys_ = make_blowup_system(n=2, p=2.0, gamma=1.0)
M = input_bound(sys_.affine.input_matrix, sys_.control_set)
table = build_barrier_table(2.0, M)
print(f"p = 2, M = {M}, r0 = {table.r0}")

n_ok = 0
samples = 50
for k in range(samples):
    rng = np.random.default_rng([seed, k])
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    y_start = table.r0 * (1.1 + 2.0 * rng.uniform()) * direction
    grid = np.linspace(0.0, 3.0, 7)
    control = ClassicalSchedule(
        grid=grid, values=np.stack([sys_.control_set.boundary_sample(rng) for _ in range(6)])
    )
    traj = integrate_forward(sys_, control, y_start, t_max=3.0, opts=IntegratorOptions())
    n_ok += envelope_bracket_check(table, traj).ok
print(f"envelope bracket   {n_ok}/{samples} inside")

alpha = 0.5
m_t = mtilde(table, alpha)
n_ok, worst = 0, np.inf
for k in range(samples):
    rng = np.random.default_rng([seed, k])
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    radius = m_t * (1.0 + 2.0 * rng.uniform())
    T = xi_upper_time(table, radius) * (0.1 + 0.8 * rng.uniform())
    h = PiecewiseConstant(np.linspace(0.0, T, 9)[:-1], rng.uniform(size=8))
    verdict = blowup_lower_bound_check(table, alpha=alpha, s=0.0, T=T, h=h, y_s=radius * direction)
    n_ok += verdict.ok
    worst = min(worst, verdict.slack)
print(f"damping bound      {n_ok}/{samples} hold, min slack {worst:.3e}  (M~ = {m_t:.3f})")

# scalar squeeze: time to |y| >= 1/alpha from y0, bracketed by envelope transits
scalar = make_blowup_system(n=1, p=2.0, gamma=1.0)
t1 = build_barrier_table(2.0, input_bound(scalar.affine.input_matrix, scalar.control_set))
alpha, y0 = 0.05, 4.0
res = solve_alpha(scalar, Point(location=[0.0]), [y0], alpha,
                  opts=SolveOptions(n_cells=4, seed=seed))
fast = xi_upper_time(t1, y0) - xi_upper_time(t1, 1.0 / alpha)
slow = xi_lower_time(t1, y0) - xi_lower_time(t1, 1.0 / alpha)
inside = fast <= res.w <= slow
print(f"solve-time squeeze {fast:.6f} <= w = {res.w:.6f} <= {slow:.6f}  ({'ok' if inside else 'VIOLATED'})")
