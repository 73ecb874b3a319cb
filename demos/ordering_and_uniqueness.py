"""Two structural properties of the solved graphs, demonstrated numerically.

Ordering: raising the prescribed curvature pushes the whole graph down --
solutions for a ladder of k values are strictly nested in the interior.
Uniqueness: Newton started from visibly different admissible iterates lands
on the same solution to solver tolerance.
"""

import numpy as np

from graphcurv.assembly import order_compare
from graphcurv.charts import HyperbolicChart
from graphcurv.diagnostics import make_barrier_pair
from graphcurv.grids import GridDomain
from graphcurv.solver import (
    SolveTarget,
    continuation_solve,
    start_state,
    uniqueness_probe,
)

chart = HyperbolicChart(n=2, offset=0.5)
dom = GridDomain.ball(1.0, 16, 64)
idx = dom.interior

print("curvature ladder on the offset-0.5 slice, 33x65 disk")
print(f"{'k':>6} {'depth':>10} {'newton':>7}")
sols = {}
for k in (0.5, 0.6, 0.7, 0.8):
    bp = make_barrier_pair(chart, dom, kind="cap", k=k + 0.05)
    target = SolveTarget(chart, dom, k, lower=bp.lower, phi_hat=bp.phi_hat)
    state = start_state(target)
    sols[k] = continuation_solve(state)
    print(f"{k:6.2f} {float(np.min(sols[k])):10.6f} {state.newton_total:7d}")

print("\npairwise interior ordering (deeper k below shallower k):")
ks = sorted(sols)
for i in range(len(ks)):
    for j in range(i + 1, len(ks)):
        rel = order_compare(dom, sols[ks[j]], sols[ks[i]])
        gap = float(np.min((sols[ks[i]] - sols[ks[j]])[idx]))
        print(f"  f_{ks[j]} vs f_{ks[i]}: {rel}, min gap {gap:.3e}")

print("\nuniqueness probe at k = 0.6, two unrelated admissible starts:")
s = dom.coords[:, 0]
target = SolveTarget(chart, dom, 0.6)
rep = uniqueness_probe(target, [np.zeros(dom.num_nodes), -0.08 * (1 - s**2)])
for r in rep["results"]:
    res = r.get("result")
    extra = f", {res.iterations} iterations" if res else ""
    print(f"  branch: {r['status']}{extra}")
print(f"  max pairwise distance: {rep['max_distance']:.3e}")
