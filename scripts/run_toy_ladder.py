"""Calibration run: the toy integrator, where every answer is known exactly.

y' = u on [-1, 1], target {1}: the optimum is w = 1 - alpha for every rung,
so any daylight between the table below and 1 - alpha is solver error.
"""

import sys

from relaxtoc.dynamics import make_integrator_system
from relaxtoc.solve import SolveOptions, alpha_ladder
from relaxtoc.target import Point

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
sys_ = make_integrator_system(1)
tgt = Point(location=[1.0])
opts = SolveOptions(n_cells=4, seed=seed)

trace = alpha_ladder(sys_, tgt, [0.0], alpha0=0.5, ratio=0.5, k_max=6, opts=opts)
print(f"{'k':>2}  {'alpha':>12}  {'w':>18}  {'w - (1-alpha)':>14}")
for k, (a, w) in enumerate(zip(trace.alphas, trace.ws)):
    print(f"{k:>2}  {a:>12.6e}  {w:>18.12f}  {w - (1.0 - a):>14.2e}")
print(f"\nextrapolated w* = {trace.w_star:.12f}  (exact limit 1.0)")
