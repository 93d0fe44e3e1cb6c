"""Learn mixture components from three-view samples, two ways.

Draws n samples from a k-component multiview mixture (each view observes
the same component matrix under isotropic noise scaled by zeta), then
estimates the components with the pipeline in its two tensor modes:

  exact-tensor      power iteration on the population moment (cheating
                    baseline: needs the model, shows the noiseless ceiling)
  implicit-samples  the third cross-moment of the batch: built once as a
                    d^3 tensor when d^2 <= n (O(d^3) per step), else
                    contracted against the sample triples directly,
                    O(d*n) per step

Initializations are the normalized view-1 samples themselves, which is the
whole point: each sample leans toward the component that generated it, so
enough samples cover every component without ever reading the labels.

Components here are orthonormal so that distinct estimates stay farther
apart than the clustering radius.  Random overcomplete components at desk
scale sit closer than that radius and merge; the experiment battery (see
configs/) probes that regime honestly.
"""

import time

import numpy as np

from tpi.decompose import learn_multiview, match_and_score
from tpi.models import MixtureModel, sample_multiview, snr
from tpi.rng import stream
from tpi.tensors import FactoredTensor3

d = k = 30
n = 4000
zeta = 0.05
inits = 600
seed = 11

A = np.linalg.qr(stream(seed, 1).standard_normal((d, d)))[0][:, :k]
model = MixtureModel(A, np.full(k, 1.0 / k), noise_scale=zeta)
batch = sample_multiview(model, n, seed=seed)
rep = snr(batch, model)
print(f"d={d} k={k} n={n} zeta={zeta}  snr empirical={rep.empirical:.2f} "
      f"theoretical={rep.theoretical:.2f}")
print()

truth = FactoredTensor3(A, np.full(k, 1.0 / k))

for mode in ("exact-tensor", "implicit-samples"):
    t0 = time.perf_counter()
    result = learn_multiview(batch, mode, max_iters=25, nu=0.5, model=model,
                             max_inits=inits)
    dt = time.perf_counter() - t0
    report = match_and_score(result.estimates, truth)
    corrs = np.asarray(report.per_component_correlations)
    print(f"{mode:16s} found {result.n_components:2d}/{k}  "
          f"median corr {np.median(corrs):.4f}  min {corrs.min():.4f}  "
          f"missed {len(report.missed):2d}  {dt:4.1f}s")
