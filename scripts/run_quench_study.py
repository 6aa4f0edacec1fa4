"""Quenching study: inflation ladder, optimality report, singular-limit checks.

Solves the planar quenching example (field singular on y1 = 1) down a
geometric alpha-ladder, verifies the winning rung against the maximum
principle, then continues the winning schedule to the true singular line and
checks the two structural conclusions there: the regular coordinate stays
nonnegative at quench, and the covector decays toward the exit.
"""

import sys

import numpy as np

from relaxtoc.dynamics import make_quenching_system
from relaxtoc.pmp import continue_to_singular_line, quenching_conclusions, verify
from relaxtoc.solve import SolveOptions, alpha_ladder
from relaxtoc.target import Hyperplane

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
sys_ = make_quenching_system()
tgt = Hyperplane(axis=0, level=1.0)
y0 = np.array([0.0, 0.5])
opts = SolveOptions(n_cells=8, seed=seed)

trace = alpha_ladder(sys_, tgt, y0, alpha0=0.2, ratio=0.5, k_max=5, opts=opts)
print(f"{'k':>2}  {'alpha':>10}  {'w':>14}")
for k, (a, w) in enumerate(zip(trace.alphas, trace.ws)):
    print(f"{k:>2}  {a:>10.4e}  {w:>14.8f}")
print(f"\nextrapolated w* = {trace.w_star:.8f}")

res = trace.results[-1]
report = verify(sys_, tgt.with_alpha(res.alpha), res, opts=opts.final)
print("\nmaximum-principle report at the finest rung:")
print(report.summary())

# the structural conclusions live on the true singular line, so run the
# winning schedule past the inflated stop
cont = continue_to_singular_line(sys_, tgt, res.schedule, y0, res.w, opts=opts.final)
print(f"\ncontinuation to alpha = 0: {cont.hit.status} at t = {float(cont.hit.time):.8f}")
if cont.hit.status == "hit-target":
    conc = quenching_conclusions((cont.hit.time, cont, res.schedule), sys=sys_, tgt=tgt)
    print(f"y2 at quench       {conc.y2_terminal:.6f}  (sign ok: {conc.sign_ok})")
    print(f"covector decay     {[f'{r:.3f}' for r in conc.decay_ratios]}  (ok: {conc.decay_ok})")
    print(f"conclusions        {'PASS' if conc.ok else 'FAIL'}")
