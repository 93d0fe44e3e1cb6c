"""Watch the rescaled correlation of a single power run at d=100, k=300.

The natural coordinate is r_t = |<x_t, a_1>| * d / sqrt(k).  While
r_t <= s = 0.5 * d / sqrt(k) the idealized dynamics predict per-step
squaring up to saturation, r_{t+1} >= min(0.4 * r_t^2, s).  Starting from a
correlation tuned into [0.3, 0.4] this script prints r_t per iteration for
a handful of seeds so you can see which runs take off toward a component
and which stall at the bulk level sqrt(k)/d set by the remaining 299 terms.
This size is below the regime where runs converge (see the README); at
d=400, k=1200 every run of the same cohort does.
"""

import numpy as np

from tpi.power import PowerConfig, run_power
from tpi.probes import quadratic_progress_ok
from tpi.rng import stream
from tpi.tensors import FactoredTensor3, random_components

d, k = 100, 300
c0 = 0.35
iters = 15
seeds = [0, 1, 2, 3, 4, 5]

scale = d / np.sqrt(k)
print(f"saturation threshold 0.5*d/sqrt(k) = {0.5 * scale:.3f}  "
      f"(correlation {0.5:.2f} of scale; bulk level sqrt(k)/d = {1/scale:.3f})")
print()
print("seed " + " ".join(f"  r_{t:<2d}" for t in range(iters + 1)) + "  quad")

for seed in seeds:
    A = random_components(d, k, seed=seed)
    T = FactoredTensor3(A, np.ones(k))
    # exact starting correlation: c0 along a_1 plus a unit orthogonal part
    g = stream(seed, 7).standard_normal(d)
    g -= (g @ A[:, 0]) * A[:, 0]
    x0 = c0 * A[:, 0] + np.sqrt(1 - c0**2) * g / np.linalg.norm(g)

    trace = run_power(T, x0, PowerConfig(max_iters=iters), target=A[:, 0])
    corrs = np.abs(trace.target_correlations)
    quad = quadratic_progress_ok(corrs, d, k)
    cells = " ".join(f"{c * scale:5.2f}" for c in corrs)
    print(f"{seed:4d} {cells}  {str(quad):>5s}")

print()
print("r_t > 1 means the tracked component dominates the bulk; a trace that")
print(f"falls to the random-overlap level {scale / np.sqrt(d):.2f} has lost it.")
