"""The benchmark's workloads: tpi experiment configs generated from a seed.

Every config sets ``seeds.base`` to the benchmark seed, so seed 0 draws the
same components, samples and starts as the frozen config each workload is
shaped after (``configs/accept4``, ``accept5``, ``accept6``).  Only the count
dimensions differ: starts are cut so that one ``run_experiment`` call takes
3-10 seconds, and seed counts are set so that the quality figure holds steady
across benchmark seeds; ``perfbench/README.md`` gives both sizes.

Each workload states why it is in the benchmark as a claim about where its
time goes, and ``confirms`` tests that claim against the traced call's
per-layer figures.  A refuted claim is reported, never hidden.
"""

import math
from dataclasses import dataclass
from typing import Callable

NOISE_FACTOR = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    config: Callable  # seed -> config dict for tpi.load_config
    quality: Callable  # (RunReport, config dict) -> (quality_error, {name: value})
    reason: str
    # (layer metrics, span summary, traced wall s) -> (measured figure, confirmed)
    confirms: Callable


def _multiview_quality(report, cfg):
    """One minus the matched correlation mass per truth column, averaged over
    seeds: matched |correlations| summed over the truth columns, a missed
    column counting 0, over k.  It lies in [0, 1]; 1 means nothing was
    recovered."""
    k = cfg["k"]
    masses = [s["mean_matched_correlation"] * (k - s["missed"]) if s["missed"] < k else 0.0
              for s in report.per_seed]
    return 1.0 - sum(masses) / (k * len(masses)), {
        "recovered_fraction": report.aggregates["recovered_fraction"]["median"],
        "frobenius_error": report.aggregates["frobenius_error"]["median"],
    }


def _noise_quality(report, _cfg):
    """RMS over seeds of the tracked column's final error ||x_T -+ a_1||,
    sqrt(2 - 2|c_T|).  It lies in [0, sqrt(2)]; sqrt(2) means no seed ends
    correlated with its column."""
    finals = [s["factors"][repr(NOISE_FACTOR)]["final_correlation"] for s in report.per_seed]
    rms = math.sqrt(sum(2.0 - 2.0 * c for c in finals) / len(finals))
    return rms, {
        "final_rate": report.aggregates["by_factor"][repr(NOISE_FACTOR)]["final_rate"],
    }


def _pool_quality(report, _cfg):
    """Median over seeds of the sample-based decomposition's Frobenius error
    over the exact-tensor decomposition's.  It has no upper limit; the
    frozen config accepts up to 2."""
    ratio = report.aggregates["decomposition_ratio"]["median"]
    return ratio, {"decomposition_ratio": ratio}


def _share(summary, wall, *names, key="s"):
    return sum(summary[n][key] for n in names if n in summary) / wall


def _samples_dominate(m, summary, wall):
    """Self-time share of the sample contraction; it must be the largest."""
    largest = max(summary, key=lambda n: summary[n]["self_s"])
    share = _share(summary, wall, "models.SampleTensor3.contract_1", key="self_s")
    return share, (largest == "models.SampleTensor3.contract_1"
                   and m["tensors.contract_1.dense.calls"] == 0)


def _noise_build(m, summary, wall):
    share = (m["experiments.self_s"] / wall
             + _share(summary, wall, "tensors.symmetrize", "tensors.scale_noise_to"))
    return share, share >= 0.75 and m["tensors.contract_1.dense.calls"] > 0


def _pool_slower(m, summary, wall):
    return m["experiments.pool_speedup"], m["experiments.pool_speedup"] < 1.0


WORKLOADS = {w.name: w for w in (
    Workload(
        name="multiview-implicit",
        why="accept5 shape (d=50, k=100, n=20000), 3 seeds of 200 sample starts on implicit samples: "
            "nearly all time is SampleTensor3.contract_1, one vector at a time",
        threads=1,
        config=lambda seed: {
            "schema": 1, "kind": "recovery", "seeds": {"count": 3, "base": seed},
            "d": 50, "k": 100, "source": "multiview",
            "snr_target": 0.88725458197698825, "n": 20000, "inits": 200,
            "tensor_mode": "implicit-samples",
            "accept": {"recovered_fraction": 0.9, "correlation_threshold": 0.95,
                       "frobenius_factor": 0.2},
        },
        quality=_multiview_quality,
        reason="models.SampleTensor3.contract_1 has the largest self-time share and "
               "no dense contraction runs",
        confirms=_samples_dominate,
    ),
    Workload(
        name="noise-sweep",
        why="accept4 shape (d=100, k=300, noise 0.02), 160 seeds: the dense d^3 noise tensor "
            "build dominates; the only dense and perturbed contractions",
        threads=1,
        config=lambda seed: {
            "schema": 1, "kind": "noise-sweep", "seeds": {"count": 160, "base": seed},
            "d": 100, "k": 300, "init_correlation": [0.3, 0.4],
            "noise_norm_factors": [NOISE_FACTOR], "power": {"max_iters": 15},
            "accept": {"final_correlation": 0.9, "final_rate": 0.9, "xi_max": 0.2},
        },
        quality=_noise_quality,
        reason="building the noise tensor (normal draw in experiments, symmetrize, "
               "scale_noise_to) takes at least 75% of the traced call, and dense "
               "contractions run",
        confirms=_noise_build,
    ),
    Workload(
        name="sample-complexity-pool",
        why="accept6 shape (d=15, k=20, n=1000/4000, decomposition at n=100000), 4 seeds on "
            "2 pool workers: the only run where the pool and OpenBLAS threads compete",
        threads=2,
        config=lambda seed: {
            "schema": 1, "kind": "sample-complexity", "seeds": {"count": 4, "base": seed},
            "d": 15, "k": 20, "zeta": 0.05, "sample_sizes": [1000, 4000],
            "compare_decomposition": {"n": 100000, "inits": 30},
            "accept": {"ratio_range": [1.4, 2.8], "ratio_pair": [1000, 4000],
                       "decomposition_factor": 2.0},
        },
        quality=_pool_quality,
        reason="two pool workers are slower than one (experiments.pool_speedup < 1)",
        confirms=_pool_slower,
    ),
)}
