import csv
import io
import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tpi.errors import InvalidArgumentError
from tpi.experiments import (
    load_config,
    load_run,
    render_report,
    run_experiment,
)
from tpi.rng import stream
from tpi.tensors import (
    PackedSymmetricTensor3,
    _noise_tensor,
    _pair_row_count,
    _symmetric_normal_rows,
    spectral_norm_estimate,
    symmetrize,
)

DYN = {
    "schema": 1,
    "kind": "dynamics",
    "seeds": {"count": 6, "base": 0},
    "d": 40,
    "k": 90,
    "init_correlation": [0.3, 0.4],
    "power": {"max_iters": 8},
    "accept": {"success_correlation": 0.95, "within_iterations": 8,
               "success_rate": 0.95},
}


def test_unknown_field_rejected():
    bad = dict(DYN, extra_knob=1)
    with pytest.raises(InvalidArgumentError):
        load_config(bad)
    bad = dict(DYN, power={"max_iters": 5, "typo": 1})
    with pytest.raises(InvalidArgumentError):
        load_config(bad)
    bad = dict(DYN, accept={"no_such_threshold": 1})
    with pytest.raises(InvalidArgumentError):
        load_config(bad)


def test_schema_and_kind_validation():
    with pytest.raises(InvalidArgumentError):
        load_config(dict(DYN, schema=2))
    with pytest.raises(InvalidArgumentError):
        load_config(dict(DYN, kind="no-such-kind"))
    with pytest.raises(InvalidArgumentError):
        load_config({"schema": 1, "kind": "dynamics"})  # missing required keys
    with pytest.raises(InvalidArgumentError):
        load_config(dict(DYN, init_correlation=[0.5, 0.4]))
    # at d = 1 there is no direction orthogonal to a_1 to build a start from
    with pytest.raises(InvalidArgumentError, match="d >= 2"):
        load_config(dict(DYN, d=1, k=1))
    with pytest.raises(InvalidArgumentError, match="d >= 2"):
        load_config(dict(DYN, kind="noise-sweep", d=1, k=1, noise_norm_factors=[0.1],
                         accept={}))
    assert load_config(dict(DYN, d=2, k=2)).data["d"] == 2


def test_probe_check_validation():
    cfg = {"schema": 1, "kind": "probe", "checks": [{"check": "bogus"}]}
    with pytest.raises(InvalidArgumentError):
        load_config(cfg)
    cfg = {"schema": 1, "kind": "probe",
           "checks": [{"check": "conditioning", "d": 5, "k": 6, "trials": 200,
                       "junk": 0}]}
    with pytest.raises(InvalidArgumentError):
        load_config(cfg)


@pytest.mark.parametrize("check, bad, good", [
    ({"check": "conditioning"}, {"trials": 99}, {"trials": 100}),
    ({"check": "iterative-conditioning", "sigma2": 1.0}, {"trials": 50}, {"trials": 100}),
    ({"check": "fresh-randomness", "trials": 10}, {"t": -1}, {"t": 0}),
    ({"check": "gmm-moment", "sigma": 0.3}, {"n": -5}, {"n": 0}),
    ({"check": "iterative-conditioning", "trials": 100}, {"chain_length": 6},
     {"chain_length": 5}),
    ({"check": "fresh-randomness", "trials": 10}, {"t": 6}, {"t": 5}),
    ({"check": "mixed-norm", "trials": 2}, {"d": 1, "k": 3}, {"d": 2, "k": 3}),
    ({"check": "mixed-norm", "trials": 2}, {"k": 5}, {"k": 6}),
])
def test_probe_counts_are_refused_at_load_time(check, bad, good):
    # at run time each is refused only when its check is reached, after the
    # checks before it in the config have run
    def config(counts):
        return {"schema": 1, "kind": "probe", "checks": [{"d": 5, "k": 6, **check, **counts}]}

    with pytest.raises(InvalidArgumentError):
        load_config(config(bad))
    load_config(config(good))


def test_config_hash_ignores_out_but_not_seed(tmp_path):
    c1 = load_config(DYN, out=str(tmp_path / "a"))
    c2 = load_config(DYN, out=str(tmp_path / "b"))
    assert c1.config_hash == c2.config_hash
    c3 = load_config(DYN, seed=123)
    assert c3.config_hash != c1.config_hash
    assert c3.seed_base == 123


@pytest.mark.parametrize("seed", [1.7, 1.0, True, np.float64(2.0), "1"])
def test_seed_override_refuses_what_is_not_an_integer(seed):
    # int(1.7) and int(True) used to run, and hash, seed 1
    with pytest.raises(InvalidArgumentError):
        load_config(DYN, seed=seed)


def test_seed_override_takes_a_numpy_integer():
    cfg = load_config(DYN, seed=np.int64(3))
    assert cfg.seed_base == 3
    assert cfg.config_hash == load_config(DYN, seed=3).config_hash


def test_multiview_recovery_needs_exactly_one_noise_parameter():
    base = {"schema": 1, "kind": "recovery", "d": 10, "k": 12,
            "source": "multiview", "n": 100}
    with pytest.raises(InvalidArgumentError):
        load_config(dict(base))  # neither zeta nor snr_target
    with pytest.raises(InvalidArgumentError):
        load_config(dict(base, zeta=0.1, snr_target=2.0))  # both
    cfg = load_config(dict(base, zeta=0.1))
    assert cfg.data["tensor_mode"] == "implicit-samples"


@pytest.mark.parametrize("bad, good", [
    ({"components": "orthonormal", "k": 7}, {"components": "orthonormal", "k": 6}),
    ({"weights": 0}, {"weights": -1}),
    ({"weights": [0, 0]}, {"weights": [0, 1]}),
])
def test_tensor_recovery_refuses_at_load_time_what_its_first_seed_would(bad, good):
    base = {"schema": 1, "kind": "recovery", "d": 6, "k": 8}
    with pytest.raises(InvalidArgumentError, match="tensor recovery needs"):
        load_config(dict(base, **bad))
    load_config(dict(base, **good))


def test_dynamics_run_report_shape(tmp_path):
    out = str(tmp_path / "run")
    rep = run_experiment(load_config(DYN, out=out))
    assert rep.seed_count == 6 and len(rep.per_seed) == 6
    assert [m["seed"] for m in rep.per_seed] == list(range(6))
    assert set(rep.aggregates) >= {"final_correlation", "iterations",
                                   "quadratic_pass_fraction"}
    files = sorted(os.listdir(out))
    assert files == ["config.json", "report.json", "table.csv", "traces.jsonl"]
    first = open(os.path.join(out, "table.csv")).readline().strip()
    assert first == f"# config_hash={rep.config_hash}"


def test_regime_flag_reported_not_fatal():
    # k >= d^1.5 must run and be flagged
    cfg = dict(DYN, d=9, k=27, seeds={"count": 2, "base": 0})
    rep = run_experiment(load_config(cfg))
    assert rep.regime_violation
    cfg = dict(DYN, d=40, k=90)
    rep2 = run_experiment(load_config(cfg))
    assert not rep2.regime_violation  # 90 < 40**1.5 = 253


def test_thread_determinism_csv_and_report(tmp_path):
    r1 = run_experiment(load_config(DYN, out=str(tmp_path / "t1")), threads=1)
    r4 = run_experiment(load_config(DYN, out=str(tmp_path / "t4")), threads=4)
    b1 = (tmp_path / "t1" / "table.csv").read_bytes()
    b4 = (tmp_path / "t4" / "table.csv").read_bytes()
    assert b1 == b4
    assert r1.per_seed == r4.per_seed
    assert r1.config_hash == r4.config_hash


def test_load_run_hash_verification(tmp_path):
    out = str(tmp_path / "run")
    rep = run_experiment(load_config(DYN, out=out))
    cfg, stored = load_run(out)
    assert stored["config_hash"] == rep.config_hash
    assert stored["library_version"]
    # tamper with the stored config: the run must be refused
    p = tmp_path / "run" / "config.json"
    doc = json.loads(p.read_text())
    doc["d"] = 41
    p.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    with pytest.raises(InvalidArgumentError):
        load_run(out)


def test_render_report_formats(tmp_path):
    out = str(tmp_path / "run")
    run_experiment(load_config(DYN, out=out))
    _, stored = load_run(out)
    csv_text = render_report(stored, "csv")
    assert csv_text.startswith(f"# config_hash={stored['config_hash']}\n")
    assert "metric,value" in csv_text
    js = json.loads(render_report(stored, "json"))
    assert "final_correlation" in js
    with pytest.raises(InvalidArgumentError):
        render_report(stored, "xml")


def test_render_report_quotes_list_cells_by_csv_rules(tmp_path):
    checks = [{"check": "conditioning", "d": 6, "k": 8, "sigma2": 1.0, "trials": 100},
              {"check": "iterative-conditioning", "d": 6, "k": 8, "chain_length": 2,
               "trials": 100, "sigma2": 1.0}]
    out = str(tmp_path / "probe")
    run_experiment(load_config({"schema": 1, "kind": "probe", "checks": checks}, out=out))
    _, stored = load_run(out)
    rows = list(csv.reader(io.StringIO(render_report(stored, "csv"))))
    assert all(len(row) == 2 for row in rows[1:])
    assert ["checks", '["conditioning", "iterative-conditioning"]'] in rows


def test_recovery_kind_end_to_end(tmp_path):
    cfg = {
        "schema": 1, "kind": "recovery", "out": str(tmp_path / "rec"),
        "seeds": {"count": 2, "base": 0},
        "d": 10, "k": 10, "components": "orthonormal",
        "weights": [1.0, 2.0], "inits": "columns+noise", "init_noise": 0.3,
        "accept": {"require_components": 10, "min_correlation": 0.99999999,
                   "weight_tol": 1e-6},
    }
    rep = run_experiment(cfg)
    m = rep.per_seed[0]
    assert m["n_components"] == 10
    assert m["min_matched_correlation"] >= 1 - 1e-8
    assert m["weight_max_err"] <= 1e-6


def test_sample_complexity_ratio(tmp_path):
    cfg = {
        "schema": 1, "kind": "sample-complexity",
        "seeds": {"count": 3, "base": 0},
        "d": 8, "k": 10, "zeta": 0.05, "sample_sizes": [500, 2000],
        "accept": {"ratio_range": [1.4, 2.8], "ratio_pair": [500, 2000]},
    }
    rep = run_experiment(cfg)
    assert rep.passed
    med = rep.aggregates["error_decay_ratio"]["median"]
    assert 1.4 <= med <= 2.8  # 4x samples ~ 2x error


def test_probe_kind_aggregation(tmp_path):
    cfg = {
        "schema": 1, "kind": "probe", "out": str(tmp_path / "p"),
        "seeds": {"count": 2, "base": 0},
        "checks": [
            {"check": "conditioning", "d": 8, "k": 10, "sigma2": 1.0,
             "trials": 1500},
            {"check": "gmm-moment", "d": 5, "k": 3, "sigma": 0.3, "n": 30000,
             "analytic_tol": 1e-12, "empirical_tol": 0.5},
        ],
    }
    rep = run_experiment(cfg)
    assert rep.passed
    assert len(rep.per_seed) == 2
    assert all(len(entry["checks"]) == 2 for entry in rep.per_seed)


def test_noise_sweep_csv_has_factor_and_xi(tmp_path):
    cfg = {
        "schema": 1, "kind": "noise-sweep", "out": str(tmp_path / "ns"),
        "seeds": {"count": 2, "base": 0},
        "d": 20, "k": 40, "init_correlation": [0.3, 0.4],
        "noise_norm_factors": [0.01, 0.05],
        "power": {"max_iters": 4},
        "accept": {"final_correlation": 0.5, "final_rate": 0.0, "xi_max": 1e9},
    }
    rep = run_experiment(cfg)
    lines = (tmp_path / "ns" / "table.csv").read_text().strip().split("\n")
    assert lines[1] == "factor,seed,iteration,correlation,xi_norm"
    assert set(rep.aggregates["by_factor"]) == {"0.01", "0.05"}


def test_report_json_is_strict_and_renders_null_as_nan(tmp_path):
    cfg = {
        "schema": 1, "kind": "recovery", "out": str(tmp_path / "mv"),
        "seeds": {"count": 2, "base": 0}, "d": 6, "k": 8, "source": "multiview",
        "zeta": 0.05, "n": 300, "inits": 10, "tensor_mode": "implicit-samples",
    }
    run_experiment(cfg)

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    text = (tmp_path / "mv" / "report.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert [s["weight_max_err"] for s in report["per_seed"]] == [None, None]
    _, stored = load_run(str(tmp_path / "mv"))
    stored["aggregates"]["frobenius_error"]["iqr"] = None
    assert "frobenius_error.iqr,nan\n" in render_report(stored, "csv")


def _orbit_loop_oracle(d, seed):
    """The noise before its scaling, one orbit at a time: the normals of
    ``stream(seed, 603)`` as one draw, taken in lexicographic order of the
    sorted index i <= j <= l, times 1/sqrt(|orbit|) at all six permutations."""
    draw = iter(stream(seed, 603).standard_normal(d * (d + 1) * (d + 2) // 6))
    E = np.empty((d, d, d))
    for i in range(d):
        for j in range(i, d):
            for l in range(j, d):
                value = next(draw) * (1.0 / math.sqrt({1: 1, 2: 3, 3: 6}[len({i, j, l})]))
                E[i, j, l] = E[i, l, j] = E[j, i, l] = E[j, l, i] = E[l, i, j] = E[l, j, i] = value
    assert next(draw, None) is None
    return E


def _pair_rows_of(E):
    """The rows a <= b of E's d^2 x d unfolding, zero-padded as the packed
    layout holds them."""
    d = E.shape[0]
    rows = np.zeros((_pair_row_count(d), d))
    rows[:d * (d + 1) // 2] = E[np.triu_indices(d)]
    return rows


@pytest.mark.parametrize("d", [100, 9, 1])
def test_noise_tensor_matches_the_orbit_loop_oracle(d):
    seed, target = 7, 0.02 * np.sqrt(3 * d) / d
    built = _noise_tensor(d, target, seed)
    raw = _pair_rows_of(_orbit_loop_oracle(d, seed))
    current = spectral_norm_estimate(PackedSymmetricTensor3(raw), restarts=4, iters=12, seed=seed)
    assert isinstance(built, PackedSymmetricTensor3)
    assert not built.rows.flags.writeable
    assert np.array_equal(built.rows, raw * (target / current))
    E = built.entries
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(E, E.transpose(perm))


def test_orbit_draw_has_the_class_variances_of_symmetrize():
    # one entry per orbit (i <= j <= l), split by orbit class: i = j = l,
    # two indices equal, all distinct.  An entry of symmetrize(G) averages
    # 1, 3 or 6 independent N(0, 1) values, so its variance is 1, 1/3 or 1/6
    d, seeds = 8, 400
    n_pairs = d * (d + 1) // 2
    I, J = np.triu_indices(d)
    I, J, L = I[:, None], J[:, None], np.arange(d)[None, :]
    sorted_index = J <= L
    distinct = 1 + (I != J) + (J != L)
    classes = [sorted_index & (distinct == c) for c in (1, 2, 3)]
    sq = {"orbit": np.zeros(3), "symmetrize": np.zeros(3)}
    for seed in range(seeds):
        for name, rows in (("orbit", _symmetric_normal_rows(d, stream(seed, 603))[:n_pairs]),
                           ("symmetrize", _pair_rows_of(symmetrize(
                               stream(seed, 60).standard_normal((d, d, d))).entries)[:n_pairs])):
            sq[name] += [np.sum(rows[c] ** 2) for c in classes]
    # n entries of N(0, s^2) give a mean square of relative standard error
    # sqrt(2/n); n = 3,200, 22,400 and 22,400 here, so 5 standard errors are
    # 0.125, 0.047 and 0.047.  Without the per-class scaling the last two
    # classes would read 3 and 6 times their variance
    n = np.array([np.count_nonzero(c) for c in classes]) * seeds
    band = 5 * np.sqrt(2 / n)
    expected = np.array([1, 1 / 3, 1 / 6])
    for name, total in sq.items():
        assert np.all(np.abs(total / n / expected - 1) <= band), (name, total / n)


def test_noise_tensor_holds_its_pair_rows_once():
    d = 100
    _noise_tensor(8, 0.01, 0)  # warm up lazy allocations
    tracemalloc.start()
    try:
        _noise_tensor(d, 0.02 * np.sqrt(3 * d) / d, 3)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the d(d+1)/2 pair rows rounded up to 32, four d x d tables (the
    # build's two outer index arrays, its backward index table and one
    # gathered plane), and the largest draw with its scales, d(d+1)/2
    # values each: 5.5 MB at d = 100, where the d^3 array alone is 8 MB
    n = d * (d + 1) // 2
    assert peak <= -(-n // 32) * 32 * d * 8 + 4 * d * d * 8 + 2 * n * 8 + 2 ** 20


# config_hash of every frozen config: a schema change that inserts or drops a
# default changes what a stored run hashes to, so these stay fixed
FROZEN_HASHES = {
    "accept1_orthogonal_recovery": "a9bbcc4790427cc35a77c60fda67e878d73d59924a617f6eea41eb721be39775",
    "accept2_overcomplete_dynamics": "2e8979eb93451df6bbca8c57eba4699c5e930bffe56c81bf072fa95cda14124a",
    "accept4_noise_tolerance": "db4f1fc8c2ada923ff31cd7bb7c66dcdeda0429a564df046d39d824407b6e1bb",
    "accept5_multiview_learning": "1d728f03b4782ef69b02a39b6b5f1af6998d0117bfb8e23063f336168e43b706",
    "accept6_sample_complexity": "b10aab02165a03a43d133f19c73726cba33704bf834108263bd2604730008b20",
    "accept7_gmm_moments": "fa73448f058be806fbde7fb17db1d9a57a4a49c652266ba0f9ab6ab4ed097a1d",
    "accept8_conditioning": "a4024182a908eb3ebcbb8aec1984227af9f2117ae77feb209778207a3df30f2e",
}


def test_frozen_config_hashes_are_pinned():
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert {p.stem for p in configs.glob("*.json")} == set(FROZEN_HASHES)
    for stem, expected in FROZEN_HASHES.items():
        assert load_config(configs / f"{stem}.json").config_hash == expected, stem


# config_hash of the smallest config of each kind and variant, every default
# filled: the frozen configs set most fields, so a drifting default shows here
MINIMAL_HASHES = [
    pytest.param({"kind": "recovery", "d": 6, "k": 8},
                 "a6c5c45237d3281dca8458f8762dcfcfa41d82c378d537caad7f90122e66ac97",
                 id="recovery-tensor"),
    pytest.param({"kind": "recovery", "d": 6, "k": 8, "source": "multiview", "n": 100,
                  "zeta": 0.1},
                 "77a1a3d2f6bd8eea7f40207de8bae7bdb7891aac9db1ba7581ed1bc1d70dce2d",
                 id="recovery-multiview"),
    pytest.param({"kind": "dynamics", "d": 10, "k": 12, "init_correlation": [0.3, 0.4]},
                 "cf1d4c214787752173468f6b4336ccc3bf87c7ace110fb9b1b76369faa4230e8",
                 id="dynamics"),
    pytest.param({"kind": "noise-sweep", "d": 10, "k": 12, "init_correlation": [0.3, 0.4],
                  "noise_norm_factors": [0.1]},
                 "1520100ee4ac1ddd4964ac6e7580990a697a676318e8cfdc23cdd0e7f738f929",
                 id="noise-sweep"),
    pytest.param({"kind": "sample-complexity", "d": 6, "k": 8, "zeta": 0.05,
                  "sample_sizes": [100, 200]},
                 "207c4c93899015f5aa6059c2a9ad142aa143f87e0f8b4e4e292a2b30c2bc2317",
                 id="sample-complexity"),
    pytest.param({"kind": "probe",
                  "checks": [{"check": "mixed-norm", "d": 5, "k": 6, "trials": 10}]},
                 "53a76c553655682524425f0b7bae607c0ffb143946cf4034bfa6cbc383e2711b",
                 id="probe"),
]


@pytest.mark.parametrize("doc, expected", MINIMAL_HASHES)
def test_default_filled_config_hashes_are_pinned(doc, expected):
    assert load_config(dict(doc, schema=1)).config_hash == expected
