import numpy as np
import pytest

from tpi.errors import InvalidArgumentError
from tpi.probes import (
    ConstraintChain,
    check_conditioning_lemma,
    check_fresh_randomness,
    check_iterative_conditioning,
    check_mixed_norm_bound,
    quadratic_progress_ok,
    star_norm,
)
from tpi.rng import stream
from tpi.tensors import random_components


# ---------------------------------------------------------------------------
# star norm and progress predicates


def test_star_norm_duality():
    rng = stream(80, 1)
    for trial in range(10):
        d, k = 20, 35
        A = random_components(d, k, seed=trial)
        u = rng.standard_normal(d)
        s = star_norm(A, u)
        proj = np.linalg.norm(A.T @ u)
        assert s <= proj + 1e-12
        assert proj <= np.sqrt(k) * s + 1e-12


def test_star_norm_of_a_component_is_one():
    A = random_components(15, 25, seed=81)
    for j in (0, 7, 24):
        assert abs(star_norm(A, A[:, j]) - 1.0) < 1e-12


def test_quadratic_progress_predicate():
    d, k = 100, 300
    scale = np.sqrt(k) / d  # r = corr / scale
    # perfect squaring below saturation
    corrs = [0.3 * scale * (0.3 ** (2**t - 1)) for t in range(3)]
    corrs = [2.0 * scale, 2.0 * 2.0 * scale * 0.4]  # r: 2 -> 1.6 >= 0.4*4
    assert quadratic_progress_ok(corrs, d, k)
    # a hard violation below saturation
    bad = [2.0 * scale, 0.4 * (2.0**2) * scale * 0.5]
    assert not quadratic_progress_ok(bad, d, k)
    # saturation: once r exceeds 0.5 d/sqrt(k), later steps are unconstrained
    sat = 0.5 * d / np.sqrt(k)
    seq = [1.2 * sat * scale, 0.01 * scale]
    assert quadratic_progress_ok(seq, d, k)


def test_quadratic_progress_ignores_leading_nan():
    d, k = 100, 300
    scale = np.sqrt(k) / d
    seq = [np.nan, 2.0 * scale, 2.0 * 2.0 * scale]
    assert quadratic_progress_ok(seq, d, k)


def test_quadratic_progress_step_to_saturation_passes():
    # at d / sqrt(k) ~ 23.1, rate * r**2 from r = 0.45 d/sqrt(k) exceeds the
    # largest reachable r = d/sqrt(k); a jump to correlation 1 completes the
    # quadratic phase and must count as progress
    d, k = 1600, 4800
    top = d / np.sqrt(k)
    assert 0.4 * (0.45 * top) ** 2 > top
    # r: 0.45 d/sqrt(k) -> d/sqrt(k)
    assert quadratic_progress_ok([0.45, 1.0], d, k)
    # a step that falls short of both the squared law and saturation fails
    assert not quadratic_progress_ok([0.45, 0.45], d, k)


# ---------------------------------------------------------------------------
# constraint chains and conditioning checks


def test_constraint_chain_exact_satisfaction():
    # targets are residual targets: a later target must avoid directions an
    # earlier constraint already pinned, mirroring how the chained events
    # are only well-posed with orthogonal fresh targets
    d, k, sigma2 = 9, 12, 1.3
    chain = ConstraintChain(d, k, sigma2)
    rng = stream(83, 2)
    v = rng.standard_normal(k)
    u = rng.standard_normal(d)
    chain.add_right(v, u)
    x = rng.standard_normal(d)
    t_res = rng.standard_normal(k) * 0.5
    vh = chain.row_basis[0]
    t_res -= (t_res @ vh) * vh
    mean_before = chain.mean.copy()
    chain.add_left(x, t_res)
    expected_left = t_res + mean_before.T @ x
    samples = chain.sample(stream(83, 3), 64)
    assert samples.shape == (64, d, k)
    for D in samples:
        assert np.max(np.abs(D @ v - u)) < 1e-9
        assert np.max(np.abs(D.T @ x - expected_left)) < 1e-9
    assert chain.length == 2
    qc, qr_ = chain.perp_bases()
    assert qc.shape == (d, d - 1) and qr_.shape == (k, k - 1)
    assert np.max(np.abs(qc.T @ chain.col_basis[0])) < 1e-12


def test_constraint_chain_rejects_overlapping_target():
    d, k = 6, 8
    rng = stream(84, 2)
    # left target overlapping the already-constrained row direction
    chain = ConstraintChain(d, k)
    v1 = rng.standard_normal(k)
    chain.add_right(v1, rng.standard_normal(d))
    with pytest.raises(InvalidArgumentError):
        chain.add_left(rng.standard_normal(d), v1)
    # right target overlapping the already-constrained column direction
    chain2 = ConstraintChain(d, k)
    x1 = rng.standard_normal(d)
    chain2.add_left(x1, rng.standard_normal(k))
    with pytest.raises(InvalidArgumentError):
        chain2.add_right(rng.standard_normal(k), x1)


# the keys of both conditioning checks' dicts, as report.json stores them
_CONDITIONING_KEYS = set("kind sample_count d k sigma2 chain_length se_band mean_max_z "
                         "mean_max_abs_dev mean_ok cov_max_z cov_ok var_ratio "
                         "orthogonality_residual orthogonality_ok passed details".split())


def test_conditioning_lemma_frozen_seed():
    rep = check_conditioning_lemma(20, 30, 1.0, 10000, seed=0)
    assert rep["passed"] is True
    assert rep["kind"] == "single-constraint"
    assert rep["sample_count"] == 10000
    assert rep["orthogonality_residual"] < 1e-10
    assert rep["mean_max_z"] < rep["se_band"]
    assert rep["cov_max_z"] < rep["se_band"]
    assert set(rep) == _CONDITIONING_KEYS


def test_conditioning_lemma_basis_vector_structure():
    # v = e_1: the closed-form mean is u in column one and zero elsewhere
    d, k = 12, 9
    v = np.zeros(k)
    v[0] = 1.0
    rng = stream(85, 2)
    u = rng.standard_normal(d)
    rep = check_conditioning_lemma(d, k, 1.0, 5000, seed=1, u=u, v=v)
    assert rep["passed"]
    closed = np.asarray(rep["details"]["closed_mean"]).reshape(d, k)
    assert np.max(np.abs(closed[:, 0] - u)) < 1e-12
    assert np.max(np.abs(closed[:, 1:])) == 0.0


def test_conditioning_lemma_zero_target():
    d, k = 10, 14
    v = stream(86, 2).standard_normal(k)
    rep = check_conditioning_lemma(d, k, 2.0, 5000, seed=2, u=np.zeros(d), v=v)
    assert rep["passed"]
    assert np.max(np.abs(np.asarray(rep["details"]["closed_mean"]))) == 0.0


def test_conditioning_check_needs_enough_samples():
    with pytest.raises(InvalidArgumentError):
        check_conditioning_lemma(5, 6, 1.0, 50, seed=0)


def test_iterative_conditioning_frozen_seed():
    rep = check_iterative_conditioning(30, 40, 3, 10000, seed=0)
    assert rep["passed"]
    assert rep["kind"] == "iterative-chain"
    assert rep["chain_length"] == 3
    assert rep["orthogonality_residual"] < 1e-10
    assert rep["var_ratio"] is not None and 0.9 <= rep["var_ratio"] <= 1.1
    assert set(rep) == _CONDITIONING_KEYS


def test_iterative_chain_one_matches_single():
    rep = check_iterative_conditioning(10, 12, 1, 4000, seed=3)
    assert rep["passed"]
    assert rep["chain_length"] == 1


def test_iterative_conditioning_chain_bounds():
    with pytest.raises(InvalidArgumentError):
        check_iterative_conditioning(10, 12, 0, 1000, seed=0)
    with pytest.raises(InvalidArgumentError):
        check_iterative_conditioning(10, 12, 6, 1000, seed=0)


# ---------------------------------------------------------------------------
# fresh randomness and the mixed-norm bound


def test_fresh_randomness_anchor_t_zero():
    # with no conditioning, E||z*z|| = sqrt(3k) up to O(1/k) corrections
    rep = check_fresh_randomness(50, 400, 0, 512, seed=0)
    assert rep["passed"]
    assert abs(rep["mean_w_norm"] / np.sqrt(3 * 400) - 1.0) < 0.05
    assert rep["regime_ok"]  # t=0 is inside any regime


def test_fresh_randomness_conditioned_chain():
    rep = check_fresh_randomness(100, 400, 5, 512, seed=0)
    assert rep["passed"]
    assert set(rep) == set("d k t trials bound pass_rates min_ratios mean_w_norm regime_ok "
                           "regime_limit passed details".split())
    assert set(rep["pass_rates"]) == {"zero", "dense", "spiky", "random"}
    for rate in rep["pass_rates"].values():
        assert rate >= 0.99
    for ratio in rep["min_ratios"].values():
        assert ratio >= 1.0
    # t=5 exceeds k / (16 log^2 k) at k=400: flagged, not fatal
    assert not rep["regime_ok"]


def test_mixed_norm_bound_frozen_seed():
    rep = check_mixed_norm_bound(100, 300, 200, seed=0)
    assert rep["passed"]
    assert set(rep) == set("d k trials max_ratio bound fitted_c tiny_max_ratio aligned_min_cos "
                           "passed details".split())
    assert rep["max_ratio"] <= rep["bound"]
    # measured 0.49 at this seed; the bound 10*ln(d) is very loose
    assert rep["max_ratio"] < 1.0
    assert rep["tiny_max_ratio"] < 1e-5
    assert rep["aligned_min_cos"] > 0.8


def test_mixed_norm_needs_overcomplete():
    with pytest.raises(InvalidArgumentError):
        check_mixed_norm_bound(50, 50, 64, seed=0)


def test_mixed_norm_needs_two_dimensions():
    # the envelope 10 ln(d) is 0 at d = 1, and fitted_c divided by it
    with pytest.raises(InvalidArgumentError, match="d >= 2"):
        check_mixed_norm_bound(1, 3, 2, seed=0)
