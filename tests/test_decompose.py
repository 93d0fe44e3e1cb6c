import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from tpi.decompose import (
    _optimal_assign,
    decompose,
    learn_multiview,
    match_and_score,
)
from tpi.errors import InvalidArgumentError
from tpi.models import MixtureModel, sample_multiview
from tpi.power import power_step, run_power
from tpi.rng import stream
from tpi.tensors import FactoredTensor3, contract_1, contract_scalar, random_components


def orthonormal(d, k, seed):
    return np.linalg.qr(stream(seed, 50).standard_normal((d, k)))[0]


def column_noise_inits(A, scale, seed):
    rng = stream(seed, 51)
    out = []
    for j in range(A.shape[1]):
        v = A[:, j] + scale * rng.standard_normal(A.shape[0])
        out.append(v / np.linalg.norm(v))
    return out


def test_orthogonal_recovery_small():
    d = 8
    A = orthonormal(d, d, 60)
    lam = np.linspace(1.0, 2.0, d)
    T = FactoredTensor3(A, lam)
    res = decompose(T, column_noise_inits(A, 0.2, 60), max_iters=40)
    assert res.n_components == d
    rep = match_and_score(res.estimates, T)
    assert np.min(rep.per_component_correlations) >= 1 - 1e-8
    for i, j in enumerate(rep.permutation):
        assert abs(res.weights[i] - lam[j]) < 1e-6


def test_estimates_have_unit_columns_and_separation():
    A = random_components(12, 30, seed=61)
    T = FactoredTensor3(A, np.ones(30))
    rng = stream(61, 52)
    inits = [x / np.linalg.norm(x) for x in rng.standard_normal((40, 12))]
    res = decompose(T, inits, max_iters=15, nu=0.5)
    E = res.estimates
    assert np.max(np.abs(np.linalg.norm(E, axis=0) - 1.0)) < 1e-10
    if E.shape[1] > 1:
        G = np.abs(E.T @ E)
        np.fill_diagonal(G, 0.0)
        assert G.max() < 0.25
    assert res.weights.shape == (res.n_components,)
    assert res.cluster_sizes.sum() <= 40 + res.n_components


def sequential_decompose(tensor, inits, n_iters, nu=0.5):
    """Reference emission loop: one leader at a time, refined as a vector.

    Returns (estimates, weights, cluster sizes, selection scores)."""
    X = run_power(tensor, np.asarray(inits).T, n_iters).final_x
    scores = np.abs(np.einsum("ij,ij->j", X, contract_1(tensor, X, X)))
    alive = np.ones(X.shape[1], dtype=bool)
    estimates, weights, sizes, selected = [], [], [], []
    while alive.any():
        idx = int(np.argmax(np.where(alive, scores, -np.inf)))
        x = X[:, idx].copy()
        for _ in range(n_iters):
            x, _ = power_step(tensor, x)
        score = contract_scalar(tensor, x, x, x)
        if score < 0:
            x = -x
        cluster = alive & (np.abs(x @ X) > nu / 2)
        cluster[idx] = True
        if not any(abs(float(x @ e)) > nu / 2 for e in estimates):
            estimates.append(x)
            weights.append(abs(score))
            sizes.append(int(cluster.sum()))
            selected.append(float(scores[idx]))
        alive &= ~cluster
    return np.array(estimates).T, np.array(weights), sizes, selected


def count_refine_steps(monkeypatch):
    """Record the block shape and per-column step counts of each run_power
    call decompose makes: the pool run first, then one per refined batch."""
    module = sys.modules["tpi.decompose"]
    calls = []

    def counted(tensor, x0, max_iters=None):
        trace = run_power(tensor, x0, max_iters)
        calls.append((np.shape(x0), trace.iterations))
        return trace

    monkeypatch.setattr(module, "run_power", counted)
    return calls


def wide_case():
    # 20 orthonormal components, 3 noisy starts each: the pool holds 20
    # well-separated clusters, so the first predicted batch has 20 leaders
    A = orthonormal(30, 20, 63)
    T = FactoredTensor3(A, np.linspace(1.0, 2.0, 20))
    return T, column_noise_inits(np.repeat(A, 3, axis=1), 0.3, 63)


def narrow_case():
    # 3 components: no prediction can hold more than 3 leaders
    A = orthonormal(10, 3, 64)
    T = FactoredTensor3(A, np.array([1.0, 1.5, 2.0]))
    rng = stream(64, 52)
    return T, [x / np.linalg.norm(x) for x in rng.standard_normal((12, 10))]


def test_blocked_refinement_matches_sequential_loop(monkeypatch):
    for case, leaders in ((wide_case, 20), (narrow_case, 3)):
        T, inits = case()
        calls = count_refine_steps(monkeypatch)
        res = decompose(T, inits, max_iters=8)
        E, w, sizes, selected = sequential_decompose(T, inits, 8)
        assert res.n_components == E.shape[1] == leaders
        # the pool run, then every leader in one block
        assert [shape for shape, _ in calls] == [(T.dim, len(inits)), (T.dim, leaders)]
        assert res.cluster_sizes.tolist() == sizes
        assert res.diagnostics["selection_scores"].tolist() == selected
        assert np.max(np.abs(res.estimates - E)) < 1e-12
        assert np.max(np.abs(res.weights - w)) < 1e-12


def test_predicted_leaders_refine_in_one_block(monkeypatch):
    T, inits = wide_case()
    calls = count_refine_steps(monkeypatch)
    res = decompose(T, inits, max_iters=8)
    assert res.n_components == 20
    assert [shape for shape, _ in calls] == [(30, 60), (30, 20)]
    # the orthonormal leaders reach a fixed point inside the budget, so the
    # 1e-12 match to the full-budget sequential loop shows the stop is harmless
    assert calls[1][1].max() < 8


def test_empty_inits_rejected():
    A = random_components(5, 5, seed=62)
    with pytest.raises(InvalidArgumentError):
        decompose(FactoredTensor3(A, np.ones(5)), [])


@pytest.mark.parametrize("nu", [0, 1.5, -0.5, float("nan")])
def test_separation_outside_unit_interval_rejected(nu):
    A = random_components(5, 3, seed=62)
    model = MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1)
    batch = sample_multiview(model, 20, seed=62)
    with pytest.raises(InvalidArgumentError):
        decompose(FactoredTensor3(A, np.ones(3)), A.T, nu=nu)
    with pytest.raises(InvalidArgumentError):
        learn_multiview(batch, "implicit-samples", nu=nu)


def test_match_and_score_permutation_and_signs():
    A = orthonormal(6, 4, 66)
    T = FactoredTensor3(A, np.ones(4))
    # estimates: a permuted, sign-flipped copy of the truth
    perm = [2, 0, 3, 1]
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    E = A[:, perm] * signs
    rep = match_and_score(E, T)
    assert rep.frobenius_error < 1e-12
    assert rep.matched_pairs == 4
    assert list(rep.permutation) == perm
    assert np.array_equal(rep.signs, signs)
    assert rep.missed == []
    assert np.min(rep.per_component_correlations) > 1 - 1e-12


def test_match_and_score_missing_columns():
    A = orthonormal(5, 5, 67)
    T = FactoredTensor3(A, np.ones(5))
    E = A[:, :3]
    rep = match_and_score(E, T)
    assert rep.matched_pairs == 3
    assert rep.missed == [3, 4]


def test_match_and_score_reversed_columns():
    A = orthonormal(6, 6, 68)
    T = FactoredTensor3(A, np.ones(6))
    rep = match_and_score(A[:, ::-1].copy(), T)
    assert list(rep.permutation) == [5, 4, 3, 2, 1, 0]
    assert rep.frobenius_error == 0.0


def test_match_and_score_refuses_mismatched_dims():
    T = FactoredTensor3(orthonormal(6, 4, 66), np.ones(4))
    with pytest.raises(InvalidArgumentError, match="d = 5 .* d = 6"):
        match_and_score(orthonormal(5, 4, 67), T)


@pytest.mark.parametrize("m, k", [(7, 12), (12, 7), (1, 9), (9, 1), (10, 10), (30, 45)])
def test_optimal_assign_equals_scipy(m, k):
    for seed in range(20):
        C = np.abs(stream(seed, 54, m, k).standard_normal((m, k)))
        rows, cols = _optimal_assign(C)
        ref_rows, ref_cols = linear_sum_assignment(-C)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


def test_optimal_assign_equals_scipy_on_near_permutation():
    # 1149 noisy estimates of distinct columns out of 1200, as in a large
    # overcomplete recovery run; and the transpose, with more rows than columns
    d, k, m = 100, 1200, 1149
    rng = stream(0, 55)
    A = rng.standard_normal((d, k))
    A /= np.linalg.norm(A, axis=0)
    E = A[:, rng.permutation(k)[:m]] + 0.1 * rng.standard_normal((d, m))
    E /= np.linalg.norm(E, axis=0)
    C = np.abs(E.T @ A)
    for mat in (C, C.T):
        rows, cols = _optimal_assign(mat)
        ref_rows, ref_cols = linear_sum_assignment(-mat)
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)


def test_optimal_assign_total_is_optimal_with_ties():
    # entries in {0, 1, 2}: many optimal assignments, all of the same total
    for seed in range(200):
        rng = stream(seed, 56)
        m, k = (int(n) for n in rng.integers(1, 9, size=2))
        C = rng.integers(0, 3, size=(m, k)).astype(np.float64)
        rows, cols = _optimal_assign(C)
        ref_rows, ref_cols = linear_sum_assignment(-C)
        assert C[rows, cols].sum() == C[ref_rows, ref_cols].sum()
        assert len(rows) == min(m, k) and np.all(np.diff(rows) > 0)
        assert len(set(cols.tolist())) == len(cols)


def test_learn_multiview_exact_tensor_cohort():
    # fixed-seed regression cohort; thresholds frozen from a measured run
    # (per-seed medians 0.77-0.88 at this scale)
    meds = []
    for seed in range(10):
        d, k = 30, 60
        A = random_components(d, k, seed=seed)
        model = MixtureModel(A, np.full(k, 1.0 / k), noise_scale=0.02)
        batch = sample_multiview(model, 2000, seed=seed)
        res = learn_multiview(batch, "exact-tensor", max_iters=12, model=model,
                              max_inits=300)
        rep = match_and_score(res.estimates, FactoredTensor3(A, np.ones(k)))
        meds.append(float(np.median(rep.per_component_correlations)))
    assert np.median(meds) >= 0.75
    assert min(meds) >= 0.70


def test_learn_multiview_modes_agree_noiselessly():
    # with zero noise and orthonormal components both modes recover all k
    # (the dense moment is checked against the sample tensor in test_models)
    d, k = 20, 8
    A = orthonormal(d, k, 70)
    model = MixtureModel(A, np.full(k, 1.0 / k), noise_scale=0.0)
    batch = sample_multiview(model, 1200, seed=70)
    for mode in ("exact-tensor", "implicit-samples"):
        res = learn_multiview(batch, mode, max_iters=25, model=model, max_inits=80)
        rep = match_and_score(res.estimates, FactoredTensor3(A, np.ones(k)))
        assert rep.matched_pairs == k, mode
        assert np.min(rep.per_component_correlations) > 1 - 1e-10, mode


def test_learn_multiview_requires_model_for_exact():
    A = random_components(5, 3, seed=71)
    model = MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1)
    batch = sample_multiview(model, 20, seed=71)
    with pytest.raises(InvalidArgumentError):
        learn_multiview(batch, "exact-tensor")
    for mode in ("no-such-mode", "empirical-tensor"):
        with pytest.raises(InvalidArgumentError):
            learn_multiview(batch, mode, model=model)


@pytest.mark.parametrize("max_inits", [0, -5])
def test_learn_multiview_rejects_nonpositive_max_inits(max_inits):
    A = random_components(5, 3, seed=73)
    model = MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1)
    batch = sample_multiview(model, 50, seed=73)
    with pytest.raises(InvalidArgumentError):
        learn_multiview(batch, "implicit-samples", max_inits=max_inits)


def test_learn_multiview_takes_only_an_integer_max_inits():
    # refused up front, not run as one start (True) or failed in a slice (2.5)
    A = random_components(5, 3, seed=73)
    batch = sample_multiview(MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1), 50, seed=73)
    for max_inits in (2.5, True, "3"):
        with pytest.raises(InvalidArgumentError):
            learn_multiview(batch, "implicit-samples", max_inits=max_inits)
    assert learn_multiview(batch, "implicit-samples", max_inits=np.int64(3)).estimates.shape[0] == 5


def test_labels_never_consulted():
    # byte-identical results with and without labels in the batch
    d, k = 10, 5
    A = random_components(d, k, seed=72)
    model = MixtureModel(A, np.full(k, 0.2), noise_scale=0.05)
    batch = sample_multiview(model, 200, seed=72)
    stripped = type(batch)([V.copy() for V in batch.views])
    r1 = learn_multiview(batch, "implicit-samples", max_iters=10, max_inits=50)
    r2 = learn_multiview(stripped, "implicit-samples", max_iters=10, max_inits=50)
    assert np.array_equal(r1.estimates, r2.estimates)
    assert np.array_equal(r1.weights, r2.weights)
