"""End-to-end continuation walkthrough, the library-level way.

Solves K(f) = 0.9 with zero boundary data over the offset-0.5 slice, starting
the curvature path just above the slice's own curvature tanh(0.5) ~ 0.462 and
walking it to the target inside a sphere-cap sandwich.  Prints the accepted
step table, validates the sandwich, and evaluates the interior-estimate
monitor on the endpoint.  The solution lands in ./cap_walkthrough_out/.
"""

import os

import numpy as np

from graphcurv.assembly import assemble_curvature
from graphcurv.charts import HyperbolicChart
from graphcurv.diagnostics import (
    make_barrier_pair,
    pogorelov_monitor,
    validate_sandwich,
)
from graphcurv.grids import GridDomain, save_grid
from graphcurv.solver import SolveTarget, continuation_solve, start_state

chart = HyperbolicChart(n=2, offset=0.5)
dom = GridDomain.ball(1.0, 32, 128)
k = 0.9

# lower barrier: a cap of slightly larger curvature, so the target band
# [tanh(0.5), 0.95] brackets every curvature level the path visits
barrier = make_barrier_pair(chart, dom, kind="cap", k=0.95)
print(f"barrier: cap with curvature floor {barrier.phi_hat:.3f}, "
      f"depth {float(np.min(barrier.lower)):.4f}")

target = SolveTarget(chart, dom, k, lower=barrier.lower, phi_hat=barrier.phi_hat)
state = start_state(target, delta0=0.05)
print(f"path: gamma(0) = {state.gamma0:.6f}  ->  gamma(1) = {k}")

f = continuation_solve(state)

print(f"\n{'step':>4} {'tau':>8} {'residual':>10} {'margin':>8} {'size':>6}")
for row in state.history:
    print(f"{row['iter']:>4} {row['tau']:8.4f} {row['residual']:10.2e} "
          f"{row['margin']:8.4f} {row['step']:6.3f}")
print(f"total Newton steps: {state.newton_total}")

asm = assemble_curvature(chart, dom, f)
print(f"\nendpoint: residual {np.max(np.abs(asm.K[dom.interior] - k)):.2e}, "
      f"depth {float(np.min(f)):.6f}, margin {asm.margin:.4f}")

sand = validate_sandwich(f, barrier, target=k)
print(f"sandwich check: {'passed' if sand['passed'] else 'FAILED'} "
      f"(band [{sand['phi0']:.4f}, {sand['phi_hat']:.4f}])")

mon = pogorelov_monitor(chart, dom, f)
print(f"interior monitor: sup Phi = {mon['sup']:.6f} at node {mon['node']}, "
      f"transversality min <X,N> = {mon['x_min']:.3f}")

out = "cap_walkthrough_out"
os.makedirs(out, exist_ok=True)
save_grid(os.path.join(out, "solution.grid"), dom, f, chart.chart_id())
print(f"\nwrote {out}/solution.grid")
print("the same run through the command line:")
print("  graphcurv solve --config run.json   "
      "(chart hyperbolic offset 0.5, ball 32x128, k 0.9, delta0 0.05)")
