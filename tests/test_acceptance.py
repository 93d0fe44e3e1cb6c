"""Release acceptance battery.

Every numbered criterion below records exactly one PASS/FAIL line (with the
measured quantities) through the shared recorder before asserting, so the
terminal summary shows the status of the whole battery even when individual
criteria are red.  Criteria are driven by the frozen configs in configs/ so
the command-line runs and this suite exercise identical code paths.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tpi.decompose import decompose
from tpi.experiments import load_config, run_experiment
from tpi.probes import star_norm
from tpi.rng import stream
from tpi.tensors import FactoredTensor3, contract_1, densify, random_components

from conftest import record_acceptance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _cfg(name):
    return str(CONFIGS / name)


def _record(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {num:02d} {label}: {status} [{detail}]")
    return ok


# ---------------------------------------------------------------------------
# shared runs (criteria 2 and 3 read one cohort; criterion 10 reruns the
# same configs at a different worker count and compares artifact bytes)


@pytest.fixture(scope="module")
def dynamics_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dyn") / "run"
    cfg = load_config(_cfg("accept2_overcomplete_dynamics.json"), out=str(out))
    report = run_experiment(cfg, threads=4)
    return report, out


@pytest.fixture(scope="module")
def multiview_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mv") / "run"
    cfg = load_config(_cfg("accept5_multiview_learning.json"), out=str(out))
    report = run_experiment(cfg, threads=4)
    return report, out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_orthogonal_recovery(tmp_path):
    rep = run_experiment(load_config(_cfg("accept1_orthogonal_recovery.json"),
                                     out=str(tmp_path / "run")))
    m = rep.per_seed[0]
    ok = (m["n_components"] == 10
          and m["min_matched_correlation"] >= 1.0 - 1e-8
          and m["weight_max_err"] <= 1e-6
          and rep.wall_clock_s < 1.0)
    assert _record(
        1, "orthogonal recovery", ok,
        f"components={m['n_components']}/10, "
        f"min_corr={m['min_matched_correlation']:.12f}, "
        f"weight_err={m['weight_max_err']:.2e}, "
        f"{rep.wall_clock_s:.2f}s/1s")


def test_criterion_02_overcomplete_convergence(dynamics_run):
    rep, _ = dynamics_run
    rate = rep.aggregates["success_rate"]
    med = rep.aggregates["final_correlation"]["median"]
    ok = rate >= 0.95 and rep.wall_clock_s < 30.0
    assert _record(
        2, "overcomplete convergence", ok,
        f"success_rate={rate:.3f}/0.95, median_final={med:.3f}, "
        f"{rep.wall_clock_s:.1f}s/30s")


def test_criterion_03_quadratic_progress(dynamics_run):
    rep, _ = dynamics_run
    rate = rep.aggregates["quadratic_pass_rate"]
    ok = rate >= 0.90 and rep.wall_clock_s < 30.0
    assert _record(
        3, "quadratic progress law", ok,
        f"pass_rate={rate:.3f}/0.90, {rep.wall_clock_s:.1f}s/30s")


def test_criterion_04_noise_tolerance(tmp_path):
    rep = run_experiment(load_config(_cfg("accept4_noise_tolerance.json"),
                                     out=str(tmp_path / "run")), threads=4)
    band = rep.aggregates["by_factor"]["0.02"]
    ok = (band["final_rate"] >= 0.90 and band["max_xi"] <= 0.2
          and rep.wall_clock_s < 60.0)
    assert _record(
        4, "noise tolerance", ok,
        f"final_rate={band['final_rate']:.3f}/0.90, "
        f"max_xi={band['max_xi']:.3g}/0.2, {rep.wall_clock_s:.1f}s/60s")


def test_criterion_05_multiview_learning(multiview_run):
    rep, _ = multiview_run
    m = rep.per_seed[0]
    bound = 0.2 * math.sqrt(100)
    ok = (m["coverage_ok"]
          and m["recovered_fraction"] >= 0.90
          and m["frobenius_error"] <= bound
          and rep.wall_clock_s < 300.0)
    assert _record(
        5, "multiview learning", ok,
        f"coverage={m['init_coverage']}/100, "
        f"recovered={m['recovered_fraction']:.2f}/0.90, "
        f"frob={m['frobenius_error']:.3f}/{bound:.1f}, "
        f"snr={m['snr_empirical']:.3f}, {rep.wall_clock_s:.0f}s/300s")


def test_criterion_06_sample_complexity(tmp_path):
    rep = run_experiment(load_config(_cfg("accept6_sample_complexity.json"),
                                     out=str(tmp_path / "run")), threads=4)
    decay = rep.aggregates["error_decay_ratio"]["median"]
    dec = rep.aggregates["decomposition_ratio"]["median"]
    ok = (1.4 <= decay <= 2.8 and dec <= 2.0 and rep.wall_clock_s < 120.0)
    assert _record(
        6, "sample complexity", ok,
        f"error_decay={decay:.2f} in [1.4,2.8], "
        f"decomposition_ratio={dec:.2f}/2.0, {rep.wall_clock_s:.0f}s/120s")


def test_criterion_07_gmm_moments(tmp_path):
    rep = run_experiment(load_config(_cfg("accept7_gmm_moments.json"),
                                     out=str(tmp_path / "run")))
    chk = rep.per_seed[0]["checks"][0]
    ok = (chk["analytic_max_dev"] <= 1e-12
          and chk["empirical_frobenius_dev"] <= 0.05
          and rep.wall_clock_s < 60.0)
    assert _record(
        7, "gaussian mixture moments", ok,
        f"analytic_dev={chk['analytic_max_dev']:.2e}/1e-12, "
        f"empirical_dev={chk['empirical_frobenius_dev']:.4f}/0.05, "
        f"{rep.wall_clock_s:.1f}s/60s")


def test_criterion_08_conditioning_checks(tmp_path):
    rep = run_experiment(load_config(_cfg("accept8_conditioning.json"),
                                     out=str(tmp_path / "run")))
    single, chain = rep.per_seed[0]["checks"]
    orth = max(single["orthogonality_residual"],
               chain["orthogonality_residual"])
    ok = (single["passed"] and chain["passed"]
          and single["se_band"] == 4.0 and chain["se_band"] == 4.0
          and orth <= 1e-10
          and rep.wall_clock_s < 30.0)
    assert _record(
        8, "conditioning identities", ok,
        f"single z={single['mean_max_z']:.2f}/4SE, "
        f"chain z={chain['mean_max_z']:.2f}/4SE, "
        f"orth={orth:.1e}/1e-10, {rep.wall_clock_s:.1f}s/30s")


def test_criterion_09_property_suites():
    start = time.monotonic()
    n_instances = 100
    for i in range(n_instances):
        rng = stream(909, i)
        d = int(rng.integers(5, 13))
        k = int(rng.integers(2, 2 * d))
        comps = random_components(d, k, seed=10_000 + i)
        weights = rng.uniform(0.5, 2.0, size=k)
        fact = FactoredTensor3(comps, weights)
        dense = densify(fact)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(d)
        y /= np.linalg.norm(y)

        # factored and dense contractions agree
        vf = contract_1(fact, x, y)
        vd = contract_1(dense, x, y)
        assert np.max(np.abs(vf - vd)) <= 1e-10, f"instance {i}"

        # dense entries are symmetric under every index permutation
        ent = dense.entries
        scale = max(1.0, float(np.max(np.abs(ent))))
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            dev = float(np.max(np.abs(ent - ent.transpose(perm))))
            assert dev <= 1e-12 * scale, f"instance {i} perm {perm}"

        # odd-order contraction: flipping both arguments is bit-identical
        assert np.array_equal(contract_1(fact, -x, -x),
                              contract_1(fact, x, x)), f"instance {i}"
        assert np.array_equal(contract_1(dense, -x, -x),
                              contract_1(dense, x, x)), f"instance {i}"

        # max-correlation norm is sandwiched by the l2 projection norm
        s = star_norm(comps, x)
        proj = float(np.linalg.norm(comps.T @ x))
        assert s <= proj + 1e-12, f"instance {i}"
        assert proj <= math.sqrt(k) * s + 1e-12, f"instance {i}"

        # recovered components stay pairwise separated
        kk = int(rng.integers(2, d + 1))
        basis = np.linalg.qr(stream(910, i).standard_normal((d, d)))[0]
        truth = FactoredTensor3(basis[:, :kk], rng.uniform(1.0, 2.0, size=kk))
        inits = truth.components + 0.2 * stream(911, i).standard_normal((d, kk))
        inits /= np.linalg.norm(inits, axis=0)
        result = decompose(truth, inits.T, max_iters=40)
        est = result.estimates
        gram = np.abs(est.T @ est) - np.eye(est.shape[1])
        assert float(np.max(gram)) < 0.25, f"instance {i}"

    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    assert _record(
        9, "property suites", ok,
        f"{n_instances} instances x 5 properties, {elapsed:.1f}s/60s")


def test_criterion_10_thread_count_determinism(dynamics_run, multiview_run,
                                               tmp_path):
    _, dyn_out = dynamics_run
    _, mv_out = multiview_run
    rerun_dyn = run_experiment(
        load_config(_cfg("accept2_overcomplete_dynamics.json"),
                    out=str(tmp_path / "dyn1")), threads=1)
    rerun_mv = run_experiment(
        load_config(_cfg("accept5_multiview_learning.json"),
                    out=str(tmp_path / "mv1")), threads=1)
    dyn_equal = ((dyn_out / "table.csv").read_bytes()
                 == (tmp_path / "dyn1" / "table.csv").read_bytes())
    mv_equal = ((mv_out / "table.csv").read_bytes()
                == (tmp_path / "mv1" / "table.csv").read_bytes())
    ok = dyn_equal and mv_equal
    assert _record(
        10, "thread-count determinism", ok,
        f"dynamics csv identical={dyn_equal}, "
        f"multiview csv identical={mv_equal} (1 vs 4 workers), "
        f"{rerun_dyn.seed_count}+{rerun_mv.seed_count} seeds")
