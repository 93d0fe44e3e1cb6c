"""Byte-identical artifacts of a multi-seed multiview recovery run and of a
noise sweep, across worker counts and across BLAS thread counts, of a
pooled sample-complexity run across worker counts, and of the conditioning
probes across BLAS thread counts.

The recovery run has accept5's shape (d=50, k=100, n=20000, implicit
samples) on three seeds, so a pool of two workers splits it, and its long
sample sums are where a BLAS library would split a reduction across its
threads.  There d^2 <= n, so the sample tensor contracts through its built
moment; a second run at n = 2000 (d^2 > n) keeps it on the samples.  The noise sweep has accept4's shape (d=100, k=300) on four seeds;
its noise, held once per unordered index pair, is contracted one vector at a
time.  A second sweep at d=101, where the d^2 rows of a full unfolding do
not split into whole row groups, runs at both BLAS thread counts too.  The
sample-complexity run has accept6's shape with a smaller decomposition; its
two workers contract their sample tensors concurrently.  The probes are
accept8's, whose Monte Carlo sums are long matrix products.  One small
config of each kind runs at one and two workers, so a kind added to
``_KINDS`` without a case fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpi.experiments import _KINDS, load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MULTIVIEW = {
    "schema": 1, "kind": "recovery", "seeds": {"count": 3, "base": 0},
    "d": 50, "k": 100, "source": "multiview",
    "snr_target": 0.88725458197698825, "n": 20000, "inits": 60,
    "tensor_mode": "implicit-samples",
}

MULTIVIEW_SUMMED = dict(MULTIVIEW, n=2000)


POOLED = {
    "schema": 1, "kind": "sample-complexity", "seeds": {"count": 2, "base": 0},
    "d": 15, "k": 20, "zeta": 0.05, "sample_sizes": [1000, 4000],
    "compare_decomposition": {"n": 20000, "inits": 10},
}


NOISE = {
    "schema": 1, "kind": "noise-sweep", "seeds": {"count": 4, "base": 0},
    "d": 100, "k": 300, "init_correlation": [0.3, 0.4],
    "noise_norm_factors": [0.02], "power": {"max_iters": 15},
}

NOISE_ODD = dict(NOISE, seeds={"count": 2, "base": 0}, d=101, k=303)


def _artifacts(out):
    """Every artifact's bytes, with report.json less its wall-clock time."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    report = json.loads(files.pop("report.json"))
    report.pop("wall_clock_s")
    report.pop("out_dir")
    return files, report


# one small config of each kind, and of each recovery source; run on three
# seeds, so two workers split them unevenly
EVERY_KIND = {
    "dynamics": {"kind": "dynamics", "d": 10, "k": 12, "init_correlation": [0.3, 0.4],
                 "power": {"max_iters": 6}, "accept": {"success_rate": 0.5}},
    # factor 0 runs without noise, next to the noisy runs of the same seed
    "noise-sweep": {"kind": "noise-sweep", "d": 10, "k": 12, "init_correlation": [0.3, 0.4],
                    "noise_norm_factors": [0.0, 0.05], "power": {"max_iters": 6},
                    "accept": {"final_correlation": 0.5, "xi_max": 1.0}},
    "tensor-recovery": {"kind": "recovery", "d": 6, "k": 8, "weights": [1.0, 2.0],
                        "inits": 12, "accept": {"recovered_fraction": 0.5}},
    "multiview-recovery": {"kind": "recovery", "d": 6, "k": 8, "source": "multiview",
                           "zeta": 0.05, "n": 300, "inits": 10},
    "sample-complexity": {"kind": "sample-complexity", "d": 6, "k": 8, "zeta": 0.05,
                          "sample_sizes": [100, 400],
                          "compare_decomposition": {"n": 1000, "inits": 10}},
    "probe": {"kind": "probe", "checks": [
        {"check": "mixed-norm", "d": 5, "k": 6, "trials": 4},
        {"check": "fresh-randomness", "d": 6, "k": 8, "t": 2, "trials": 4}]},
}


def test_every_kind_has_a_worker_count_case():
    assert {doc["kind"] for doc in EVERY_KIND.values()} == set(_KINDS)


@pytest.mark.parametrize("name", sorted(EVERY_KIND))
def test_every_kind_identical_at_one_and_two_workers(tmp_path, name):
    doc = dict(EVERY_KIND[name], schema=1, seeds={"count": 3, "base": 0})
    for threads in (1, 2):
        run_experiment(load_config(doc, out=str(tmp_path / f"w{threads}")), threads=threads)
    files, report = _artifacts(tmp_path / "w1")
    traced = doc["kind"] in ("dynamics", "noise-sweep")
    assert sorted(files) == ["config.json", "table.csv"] + ["traces.jsonl"] * traced
    assert len(report["per_seed"]) == 3
    assert _artifacts(tmp_path / "w2") == (files, report)


def test_multiview_artifacts_identical_across_worker_counts(tmp_path):
    for threads in (1, 2):
        config = load_config(MULTIVIEW, out=str(tmp_path / f"w{threads}"))
        run_experiment(config, threads=threads)
    assert _artifacts(tmp_path / "w1") == _artifacts(tmp_path / "w2")


def test_pooled_sample_complexity_artifacts_identical_across_worker_counts(tmp_path):
    for threads in (1, 2):
        config = load_config(POOLED, out=str(tmp_path / f"w{threads}"))
        run_experiment(config, threads=threads)
    files, report = _artifacts(tmp_path / "w1")
    assert sorted(files) == ["config.json", "table.csv"]
    assert len(report["per_seed"]) == 2
    assert "decomposition_ratio" in report["aggregates"]
    assert _artifacts(tmp_path / "w2") == (files, report)


def _run_at_blas_threads(tmp_path, config, command):
    """Run ``config`` at one worker under OPENBLAS_NUM_THREADS 1 and 2, in
    two subprocesses; return the two output directories."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    procs, outs = [], []
    for blas in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas), TPI_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        outs.append(tmp_path / f"blas{blas}")
        cmd = [sys.executable, "-m", "tpi.cli", command, "--config", str(cfg),
               "--out", str(outs[-1])]
        procs.append(subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE))
    for proc in procs:
        _out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    return outs


def test_multiview_artifacts_identical_across_blas_threads(tmp_path):
    blas1, blas2 = _run_at_blas_threads(tmp_path, MULTIVIEW, "decompose")
    assert _artifacts(blas1) == _artifacts(blas2)


def test_multiview_on_the_samples_identical_across_blas_threads_and_workers(tmp_path):
    blas1, blas2 = _run_at_blas_threads(tmp_path, MULTIVIEW_SUMMED, "decompose")
    files, report = _artifacts(blas1)
    assert len(report["per_seed"]) == 3
    assert _artifacts(blas2) == (files, report)
    for threads in (1, 2):
        config = load_config(MULTIVIEW_SUMMED, out=str(tmp_path / f"w{threads}"))
        run_experiment(config, threads=threads)
        assert _artifacts(tmp_path / f"w{threads}") == (files, report)


def test_noise_sweep_artifacts_identical_across_blas_threads_and_workers(tmp_path):
    blas1, blas2 = _run_at_blas_threads(tmp_path, NOISE, "dynamics")
    files, report = _artifacts(blas1)
    assert sorted(files) == ["config.json", "table.csv", "traces.jsonl"]
    assert len(report["per_seed"]) == 4
    assert _artifacts(blas2) == (files, report)
    for threads in (1, 2):
        config = load_config(NOISE, out=str(tmp_path / f"w{threads}"))
        run_experiment(config, threads=threads)
        assert _artifacts(tmp_path / f"w{threads}") == (files, report)


def test_noise_sweep_at_an_odd_dim_identical_across_blas_threads(tmp_path):
    blas1, blas2 = _run_at_blas_threads(tmp_path, NOISE_ODD, "dynamics")
    files, report = _artifacts(blas1)
    assert len(report["per_seed"]) == 2
    assert _artifacts(blas2) == (files, report)


def test_conditioning_probe_report_identical_across_blas_threads(tmp_path):
    config = json.loads((ROOT / "configs" / "accept8_conditioning.json").read_text())
    blas1, blas2 = _run_at_blas_threads(tmp_path, config, "probe")
    assert _artifacts(blas1) == _artifacts(blas2)
