import json
from pathlib import Path

import numpy as np
import pytest

from tpi.errors import DegenerateIterateError, InvalidArgumentError
from tpi.power import (
    PowerConfig,
    default_max_iters,
    power_step,
    run_power,
    run_power_asymmetric,
    run_power_with_shadow,
)
from tpi.rng import stream
from tpi.tensors import (
    FactoredTensor3,
    PerturbedTensor,
    densify,
    random_components,
    scale_noise_to,
    symmetrize,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def orthonormal(d, k, seed):
    G = stream(seed, 50).standard_normal((d, k))
    return np.linalg.qr(G)[0]


def test_components_are_fixed_points():
    # with orthonormal components each a_j maps exactly to itself
    A = orthonormal(8, 8, 0)
    T = FactoredTensor3(A, np.linspace(1.0, 2.0, 8))
    for j in range(8):
        x, nrm = power_step(T, A[:, j])
        sign = np.sign(x @ A[:, j])
        assert np.max(np.abs(sign * x - A[:, j])) < 1e-12


def test_power_step_matches_dense_contraction():
    A = random_components(6, 10, seed=1)
    T = FactoredTensor3(A, np.ones(10))
    E = densify(T).entries
    x = stream(1, 51).standard_normal(6)
    x /= np.linalg.norm(x)
    xn, nrm = power_step(T, x)
    ref = np.einsum("ijk,j,k->i", E, x, x)
    assert abs(nrm - np.linalg.norm(ref)) < 1e-10
    assert np.max(np.abs(xn - ref / np.linalg.norm(ref))) < 1e-10


def test_power_step_requires_unit_iterate():
    A = random_components(5, 5, seed=2)
    T = FactoredTensor3(A, np.ones(5))
    with pytest.raises(InvalidArgumentError):
        power_step(T, np.ones(5))
    # a NaN norm is not within any tolerance of 1
    nan = np.full(5, np.nan)
    with pytest.raises(InvalidArgumentError):
        power_step(T, nan)
    with pytest.raises(InvalidArgumentError):
        run_power(T, nan, PowerConfig(max_iters=3))
    with pytest.raises(InvalidArgumentError):
        run_power(T, np.column_stack([A[:, 0], nan]), PowerConfig(max_iters=3))


def test_degenerate_contraction_raises():
    # odd tensor: T(I, x, x) = 0 at x = e_2 when the single component is e_1
    a = np.zeros(4)
    a[0] = 1.0
    T = FactoredTensor3(a[:, None], np.ones(1))
    e2 = np.zeros(4)
    e2[1] = 1.0
    with pytest.raises(DegenerateIterateError):
        power_step(T, e2)


def test_default_iteration_budget_grows_slowly():
    assert default_max_iters(100) == default_max_iters(100)
    assert default_max_iters(10000) <= default_max_iters(10**6)
    assert 10 < default_max_iters(100) < 40


def test_orthogonal_convergence_from_warm_start():
    # equal weights: the seeded component's basin contains its 0.3-noise ball
    d = 10
    A = orthonormal(d, d, 3)
    T = FactoredTensor3(A, np.ones(d))
    rng = stream(3, 52)
    for j in range(d):
        x0 = A[:, j] + 0.3 * rng.standard_normal(d)
        x0 /= np.linalg.norm(x0)
        cfg = PowerConfig(max_iters=40, convergence_gamma=1e-9)
        trace = run_power(T, x0, cfg, target=A[:, j])
        assert trace.final_correlation() >= 1 - 1e-8


def test_orthogonal_unequal_weights_reach_some_component():
    # with unequal weights a warm start may hop basins, but the limit is
    # always one of the components
    d = 10
    A = orthonormal(d, d, 3)
    T = FactoredTensor3(A, np.linspace(1.0, 2.0, d))
    rng = stream(3, 56)
    for j in range(d):
        x0 = A[:, j] + 0.3 * rng.standard_normal(d)
        x0 /= np.linalg.norm(x0)
        cfg = PowerConfig(max_iters=60, convergence_gamma=1e-9)
        trace = run_power(T, x0, cfg)
        assert np.max(np.abs(A.T @ trace.final_x)) >= 1 - 1e-8


def test_trace_shape_and_stop_reasons():
    A = orthonormal(6, 6, 4)
    T = FactoredTensor3(A, np.ones(6))
    x0 = A[:, 0]
    cfg = PowerConfig(max_iters=5)
    trace = run_power(T, x0, cfg, target=A[:, 0])
    # starting exactly on a component: stop at step 0
    assert trace.stop_reason == "target-correlation"
    assert len(trace) == 1
    assert np.isnan(trace.unnormalized_norms[0])

    rng = stream(4, 53)
    x0 = rng.standard_normal(6)
    x0 /= np.linalg.norm(x0)
    trace = run_power(T, x0, PowerConfig(max_iters=3, convergence_gamma=1e-12))
    assert trace.stop_reason in ("max-iters", "fixed-point")
    assert len(trace) <= 4  # init + 3 updates
    assert trace.final_x is not None


def test_block_run_matches_per_column_runs():
    # starts at increasing distance from a component converge in more steps;
    # the random starts run out of budget
    d = 10
    A = orthonormal(d, d, 6)
    T = FactoredTensor3(A, np.linspace(1.0, 2.0, d))
    rng = stream(6, 57)
    starts = [A[:, 0]]
    for j, noise in enumerate((1e-4, 1e-2, 0.3), start=1):
        starts.append(A[:, j] + noise * rng.standard_normal(d))
    starts += [rng.standard_normal(d) for _ in range(2)]
    X0 = np.column_stack([x / np.linalg.norm(x) for x in starts])
    cfg = PowerConfig(max_iters=4)

    block = run_power(T, X0, cfg)
    singles = [run_power(T, X0[:, j], cfg) for j in range(X0.shape[1])]
    assert list(block.iterations) == [len(t) - 1 for t in singles]
    assert block.stop_reasons == [t.stop_reason for t in singles]
    assert len(set(block.iterations)) >= 3
    assert {"fixed-point", "max-iters"} <= set(block.stop_reasons)
    assert block.stop_reason == "max-iters"
    assert len(block) == max(block.iterations) + 1
    for j, t in enumerate(singles):
        assert np.max(np.abs(block.final_x[:, j] - t.final_x)) < 1e-12

    converged = run_power(T, X0[:, :3], cfg)
    assert converged.stop_reason == "fixed-point"
    assert np.array_equal(converged.final_x, block.final_x[:, :3])


def test_block_run_checks_its_columns():
    A = orthonormal(4, 4, 7)
    T = FactoredTensor3(A, np.ones(4))
    cfg = PowerConfig(max_iters=3)
    with pytest.raises(InvalidArgumentError):
        run_power(T, np.column_stack([A[:, 0], 2.0 * A[:, 1]]), cfg)
    # odd tensor: T(I, x, x) = 0 at x = e_2 when the single component is e_1
    a = np.zeros(4)
    a[0] = 1.0
    odd = FactoredTensor3(a[:, None], np.ones(1))
    with pytest.raises(DegenerateIterateError):
        run_power(odd, np.eye(4)[:, :2], cfg)


def test_block_run_refuses_a_target():
    # a block records no per-step correlations, so it has nothing to stop on;
    # a vector run takes one target of its own length
    A = orthonormal(4, 4, 7)
    T = FactoredTensor3(A, np.ones(4))
    cfg = PowerConfig(max_iters=3)
    with pytest.raises(InvalidArgumentError):
        run_power(T, A[:, :2], cfg, target=A[:, 0])
    with pytest.raises(InvalidArgumentError):
        run_power(T, A[:, 0], cfg, target=A[:3, 0])
    P = PerturbedTensor(T, symmetrize(np.zeros((4, 4, 4))))
    with pytest.raises(InvalidArgumentError):
        run_power_with_shadow(P, A[:, :2], cfg)


def test_full_trace_records_iterates():
    A = random_components(7, 11, seed=5)
    T = FactoredTensor3(A, np.ones(11))
    x0 = A[:, 0]
    cfg = PowerConfig(max_iters=4, convergence_gamma=1e-12)
    trace = run_power(T, x0, cfg)
    assert len(trace.xs) == len(trace) == len(trace.unnormalized_norms)
    assert np.array_equal(trace.xs[0], x0) and np.array_equal(trace.xs[-1], trace.final_x)
    assert np.all(np.isnan(trace.correlations)) and not np.any(trace.noise_norms)


def test_asymmetric_reduces_to_symmetric():
    A = random_components(9, 14, seed=7)
    T = FactoredTensor3(A, np.ones(14))
    x0 = A[:, 2]
    cfg = PowerConfig(max_iters=6, convergence_gamma=1e-12)
    sym = run_power(T, x0, cfg)
    tra, trb, trc = run_power_asymmetric(T, x0, x0.copy(), x0.copy(), cfg)
    assert np.array_equal(tra.final_x, sym.final_x)
    assert np.array_equal(trb.final_x, sym.final_x)


def test_asymmetric_sweep_matches_dense_contractions():
    # one sweep against einsum on the dense tensor, every mode opened in turn
    d, k = 7, 11
    A, B, C = (random_components(d, k, seed=s) for s in (21, 22, 23))
    T = FactoredTensor3(A, np.linspace(0.5, 2.0, k), B, C)
    E = densify(T).entries
    rng = stream(21, 58)
    x1, x2, x3 = (v / np.linalg.norm(v) for v in rng.standard_normal((3, d)))
    traces = run_power_asymmetric(T, x1, x2, x3, PowerConfig(max_iters=1))
    refs = (np.einsum("ijk,j,k->i", E, x2, x3),
            np.einsum("ijk,i,k->j", E, x1, x3),
            np.einsum("ijk,i,j->k", E, x1, x2))
    for tr, ref in zip(traces, refs):
        assert len(tr) == 2
        assert abs(tr.unnormalized_norms[1] - np.linalg.norm(ref)) < 1e-12
        assert np.max(np.abs(tr.final_x - ref / np.linalg.norm(ref))) < 1e-12


def test_asymmetric_recovers_modes_from_warm_start():
    # fixed-seed cohort; margins measured once and frozen with slack
    mins = []
    for seed in range(30):
        d, k = 40, 25
        A = random_components(d, k, seed=seed)
        B = random_components(d, k, seed=seed + 1000)
        C = random_components(d, k, seed=seed + 2000)
        T = FactoredTensor3(A, np.ones(k), B, C)
        rng = stream(seed, 9)

        def warm(col):
            v = col + 0.25 * rng.standard_normal(d)
            return v / np.linalg.norm(v)

        cfg = PowerConfig(max_iters=30)
        tra, trb, trc = run_power_asymmetric(
            T, warm(A[:, 0]), warm(B[:, 0]), warm(C[:, 0]), cfg, targets=(A[:, 0], B[:, 0], C[:, 0])
        )
        mins.append(
            min(
                abs(tra.final_correlation()),
                abs(trb.final_correlation()),
                abs(trc.final_correlation()),
            )
        )
    mins = np.array(mins)
    assert np.median(mins) >= 0.95
    assert mins.min() >= 0.90


def test_shadow_with_zero_noise_matches_clean_run():
    A = random_components(12, 20, seed=8)
    T = FactoredTensor3(A, np.ones(20))
    zero = symmetrize(np.zeros((12, 12, 12)))
    P = PerturbedTensor(T, zero)
    x0 = A[:, 0]
    cfg = PowerConfig(max_iters=6, convergence_gamma=1e-12)
    clean = run_power(T, x0, cfg, target=A[:, 0])
    noisy = run_power_with_shadow(P, x0, cfg, target=A[:, 0])
    assert np.array_equal(clean.final_x, noisy.final_x)
    assert np.max(noisy.noise_norms) == 0.0


def test_shadow_noise_norm_small_for_small_noise():
    d, k = 30, 60
    A = random_components(d, k, seed=9)
    T = FactoredTensor3(A, np.ones(k))
    raw = symmetrize(stream(9, 54).standard_normal((d, d, d)))
    target = 1e-4 * np.sqrt(k) / d
    noise = scale_noise_to(raw, target, seed=9)
    P = PerturbedTensor(T, noise)
    x0 = A[:, 0] + 0.2 * stream(9, 55).standard_normal(d)
    x0 /= np.linalg.norm(x0)
    cfg = PowerConfig(max_iters=3, convergence_gamma=1e-12)
    trace = run_power_with_shadow(P, x0, cfg, target=A[:, 0])
    assert trace.noise_norms[0] == 0.0
    assert np.max(trace.noise_norms) < 0.01


def test_shadow_split_matches_plain_recursion_at_nonzero_noise():
    # independent of tpi.power: x_hat_t = (T+E)(I, x_hat, x_hat) / nu_t and
    # s_t = T(I, s, s) / nu_t, written out in numpy with the same products
    # tpi.tensors forms, so xi_t = ||x_hat_t - s_t|| must agree bit for bit
    d, k = 8, 16
    A = random_components(d, k, seed=10)
    w = np.linspace(1.0, 1.5, k)
    T = FactoredTensor3(A, w)
    noise = scale_noise_to(symmetrize(stream(10, 54).standard_normal((d, d, d))), 0.05, seed=10)
    P = PerturbedTensor(T, noise)
    x0 = A[:, 0] + 0.5 * stream(10, 55).standard_normal(d)
    x0 /= np.linalg.norm(x0)
    cfg = PowerConfig(max_iters=8, convergence_gamma=1e-12)
    trace = run_power_with_shadow(P, x0, cfg, target=A[:, 0])

    Eflat = noise.entries.reshape(d * d, d)
    Td = densify(T).entries + noise.entries
    x_hat, s = x0, x0
    xis, nus = [0.0], [float("nan")]
    for _ in range(8):
        nu = A @ (w * (A.T @ x_hat) * (A.T @ x_hat)) + (Eflat @ x_hat).reshape(d, d) @ x_hat
        nrm = float(np.linalg.norm(nu))
        dense = np.einsum("ijk,j,k->i", Td, x_hat, x_hat)
        assert np.max(np.abs(nu - dense)) < 1e-12
        x_hat, s = nu / nrm, A @ (w * (A.T @ s) * (A.T @ s)) / nrm
        xis.append(float(np.linalg.norm(x_hat - s)))
        nus.append(nrm)
    assert len(trace) == 9 and trace.stop_reason == "max-iters"
    assert trace.noise_component_norms == xis
    assert trace.unnormalized_norms[1:] == nus[1:]
    assert np.array_equal(trace.final_x, x_hat)
    assert min(xis[1:]) > 1e-3  # the noise is felt from the first step


def _shape(name):
    cfg = json.loads((CONFIGS / name).read_text())
    return cfg["d"], cfg["k"]


def _exact_map_fixed_point_correlations(d, k, seeds=3, cols=40, steps=200):
    # independent of tpi.power: iterate x <- A (A^T x)^2 / ||.|| from the
    # true columns themselves and report where they end up
    out = []
    for seed in range(seeds):
        G = np.random.default_rng(seed).standard_normal((d, k))
        A = G / np.linalg.norm(G, axis=0)
        X = A[:, :cols].copy()
        for _ in range(steps):
            X = A @ (A.T @ X) ** 2
            X /= np.linalg.norm(X, axis=0)
        out.append(np.abs(np.sum(X * A[:, :cols], axis=0)))
    return np.concatenate(out)


def test_dynamics_cohort_components_are_attractors():
    # the dynamics cohort must sit where the true components are (near-)fixed
    # points of the exact map; otherwise no program can converge to them
    d, k = _shape("accept2_overcomplete_dynamics.json")
    assert _exact_map_fixed_point_correlations(d, k).min() >= 0.95
    # the shapes of the noise-tolerance and multiview criteria are outside
    # that regime: most true columns drift away from themselves
    for name in ("accept4_noise_tolerance.json",
                 "accept5_multiview_learning.json"):
        d, k = _shape(name)
        assert np.median(_exact_map_fixed_point_correlations(d, k)) < 0.5
