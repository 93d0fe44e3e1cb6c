"""Track how a spectral-norm perturbation propagates through power steps.

Runs a warm start on T + E while keeping a "shadow" iterate that applies
the clean tensor T to the same trajectory.  The renormalized gap xi_t
between the noisy iterate and its shadow is the honest per-step noise
content.  Two regimes show up immediately:

* when the clean run converges, xi_t stays bounded and scales linearly
  with ||E|| — the perturbation is contracted along with everything else;
* when the clean run stalls below its target, the gap is renormalized
  against an iterate that is not shrinking toward anything, feeds back on
  itself, and compounds step over step.
"""

import numpy as np

from tpi.power import PowerConfig, run_power_with_shadow
from tpi.rng import stream
from tpi.tensors import (
    FactoredTensor3,
    PerturbedTensor,
    random_components,
    scale_noise_to,
    symmetrize,
)

d, k = 40, 80
c0 = 0.5
iters = 10
seed = 3
factors = (0.0, 0.01, 0.05, 0.2, 1.0)

A = random_components(d, k, seed=seed)

# exact starting correlation c0 against component 0
g = stream(seed, 5).standard_normal(d)
g -= (g @ A[:, 0]) * A[:, 0]
x0 = c0 * A[:, 0] + np.sqrt(1 - c0**2) * g / np.linalg.norm(g)

raw = symmetrize(stream(seed, 6).standard_normal((d, d, d)))
base_norm = np.sqrt(k) / d  # the scale the bulk of T itself lives at
cfg = PowerConfig(max_iters=iters)

print(f"d={d} k={k}, start correlation {c0}, noise unit sqrt(k)/d = "
      f"{base_norm:.3f}")

for boost, label in ((2.0, "convergent run (tracked weight 2.0)"),
                     (1.0, "stalled run (all weights 1.0)")):
    weights = np.ones(k)
    weights[0] = boost
    T = FactoredTensor3(A, weights)
    print()
    print(label)
    print("  ||E||/(sqrt(k)/d)   final corr    max xi_t")
    for factor in factors:
        E = scale_noise_to(raw, factor * base_norm, seed=0)
        trace = run_power_with_shadow(PerturbedTensor(T, E), x0, cfg,
                                      target=A[:, 0])
        xi = np.asarray(trace.noise_norms)
        corr = abs(trace.target_correlations[-1])
        print(f"  {factor:16.2f}   {corr:9.4f}   {xi.max():10.3e}")

print()
print("xi_t is measured against the clean shadow even after the two have")
print("decohered, so a lost run reports a gap of order one instead of a")
print("comfortingly small number.")
