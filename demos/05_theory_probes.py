"""Monte Carlo probes of the Gaussian identities behind the analysis.

Four checks, all at desk scale and all with explicit pass criteria:

1. conditioning: conditioning a Gaussian matrix on one linear constraint
   D v = u leaves a Gaussian whose closed-form mean/covariance the sampler
   must reproduce within 4 standard errors;
2. iterative chain: the same after stacking several alternating left/right
   constraints, which is what repeated power steps effectively do;
3. fresh randomness: after t conditioning steps the projection of D onto
   the unconstrained directions still behaves like a brand-new Gaussian;
4. mixed norm: max_j ||M e_j||-type bounds used to control cross terms,
   checked against simulated maxima.
"""

from tpi.probes import (
    check_conditioning_lemma,
    check_fresh_randomness,
    check_iterative_conditioning,
    check_mixed_norm_bound,
)

trials = 20_000
seed = 0

single = check_conditioning_lemma(20, 30, 1.0, trials, seed)
print(f"conditioning        passed={single['passed']}  "
      f"mean z={single['mean_max_z']:.2f}  cov z={single['cov_max_z']:.2f}  "
      f"orth residual={single['orthogonality_residual']:.1e} (band "
      f"{single['se_band']:.0f} SE)")

chain = check_iterative_conditioning(30, 40, 3, trials, seed)
print(f"iterative chain (3) passed={chain['passed']}  "
      f"mean z={chain['mean_max_z']:.2f}  var ratio={chain['var_ratio']:.4f}  "
      f"orth residual={chain['orthogonality_residual']:.1e}")

fresh = check_fresh_randomness(50, 400, 5, 512, seed)
print(f"fresh randomness    passed={fresh['passed']}  "
      f"min pass rate={min(fresh['pass_rates'].values()):.3f} over "
      f"{sorted(fresh['pass_rates'])}")

mixed = check_mixed_norm_bound(100, 300, 200, seed)
print(f"mixed norm          passed={mixed['passed']}  "
      f"max ratio={mixed['max_ratio']:.3f} (must stay < 1)")
