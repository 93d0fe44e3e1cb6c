import itertools

import numpy as np
import pytest

from tpi.errors import InvalidArgumentError, ResourceBudgetError
from tpi.rng import stream
from tpi.tensors import (
    DenseTensor3,
    FactoredTensor3,
    PerturbedTensor,
    contract_1,
    contract_scalar,
    densify,
    random_components,
    scale_noise_to,
    spectral_norm_estimate,
    symmetrize,
)


def contract_1_loops(entries, v, w):
    """Independent O(d^3) contraction: out_i = sum_jl T_ijl v_j w_l."""
    d = entries.shape[0]
    out = np.zeros(d)
    for i in range(d):
        for j in range(d):
            for l in range(d):
                out[i] += entries[i, j, l] * v[j] * w[l]
    return out


def rank_one_sum_loops(A, lam):
    d, k = A.shape
    T = np.zeros((d, d, d))
    for j in range(k):
        a = A[:, j]
        for i in range(d):
            for p in range(d):
                for q in range(d):
                    T[i, p, q] += lam[j] * a[i] * a[p] * a[q]
    return T


def test_factored_matches_loop_oracle():
    rng = stream(11, 1)
    d, k = 5, 9
    A = random_components(d, k, seed=3)
    lam = rng.uniform(0.5, 2.0, size=k)
    T = FactoredTensor3(A, lam)
    entries = rank_one_sum_loops(A, lam)
    assert np.max(np.abs(densify(T).entries - entries)) < 1e-12
    for _ in range(5):
        v = rng.standard_normal(d)
        w = rng.standard_normal(d)
        assert np.max(np.abs(contract_1(T, v, w) - contract_1_loops(entries, v, w))) < 1e-10
        ref = contract_1_loops(entries, v, w) @ v
        assert abs(contract_scalar(T, v, v, w) - ref) < 1e-10


def test_dense_matches_loop_oracle():
    rng = stream(12, 1)
    d = 6
    T = symmetrize(rng.standard_normal((d, d, d)))
    v = rng.standard_normal(d)
    w = rng.standard_normal(d)
    assert np.max(np.abs(contract_1(T, v, w) - contract_1_loops(T.entries, v, w))) < 1e-10


def test_symmetrize_is_symmetric_and_idempotent():
    rng = stream(13, 1)
    raw = rng.standard_normal((4, 4, 4))
    S = symmetrize(raw).entries
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.array_equal(S, np.transpose(S, perm))
    assert np.allclose(symmetrize(S).entries, S, atol=1e-14)


@pytest.mark.parametrize("d", [4, 7])
def test_symmetrize_averages_each_entry_over_its_six_permutations(d):
    raw = stream(14, d).standard_normal((d, d, d))
    S = symmetrize(raw).entries
    for i, j, l in itertools.product(range(d), repeat=3):
        terms = [raw[p] for p in itertools.permutations((i, j, l))]
        scale = sum(abs(t) for t in terms) / 6.0
        assert abs(S[i, j, l] - sum(terms) / 6.0) <= 1e-15 * scale


@pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4)])
def test_symmetrize_rejects_non_cubic_arrays(shape):
    with pytest.raises(InvalidArgumentError):
        symmetrize(np.zeros(shape))


def test_unit_column_enforcement():
    A = np.ones((4, 2))
    with pytest.raises(InvalidArgumentError):
        FactoredTensor3(A, np.ones(2))


def test_weight_sign_and_shape_checks():
    A = random_components(4, 3, seed=0)
    with pytest.raises(InvalidArgumentError):
        FactoredTensor3(A, np.ones(2))  # wrong length


def test_random_components_unit_norm_and_reproducible():
    A = random_components(20, 35, seed=7)
    B = random_components(20, 35, seed=7)
    assert np.array_equal(A, B)
    assert np.max(np.abs(np.linalg.norm(A, axis=0) - 1.0)) < 1e-12


def sphere_max_d3(entries, n_grid=400):
    """Spectral norm oracle for d=3 via a dense sphere mesh plus local
    power-iteration polish from the best mesh point."""
    best, best_x = 0.0, None
    for theta in np.linspace(0, np.pi, n_grid):
        sin_t = np.sin(theta)
        for phi in np.linspace(0, 2 * np.pi, 2 * n_grid, endpoint=False):
            x = np.array([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])
            val = abs(np.einsum("ijk,i,j,k->", entries, x, x, x))
            if val > best:
                best, best_x = val, x
    x = best_x
    for _ in range(200):
        y = np.einsum("ijk,j,k->i", entries, x, x)
        nrm = np.linalg.norm(y)
        if nrm < 1e-300:
            break
        x = y / nrm
    return max(best, abs(np.einsum("ijk,i,j,k->", entries, x, x, x)))


def test_spectral_norm_against_sphere_mesh_oracle():
    rng = stream(21, 1)
    for trial in range(4):
        T = symmetrize(rng.standard_normal((3, 3, 3)))
        est = spectral_norm_estimate(T, restarts=16, iters=40, seed=trial)
        oracle = sphere_max_d3(T.entries)
        assert est <= oracle * (1 + 1e-6)
        assert est >= oracle * 0.999


def test_spectral_norm_rank_one_exact():
    # ||lam a^(x)3|| = lam for a unit vector: closed form
    a = np.zeros(8)
    a[2] = 1.0
    T = FactoredTensor3(a[:, None], np.array([1.7]))
    assert abs(spectral_norm_estimate(T, seed=0) - 1.7) < 1e-10


def test_scale_noise_to_hits_target():
    rng = stream(22, 1)
    raw = symmetrize(rng.standard_normal((6, 6, 6)))
    target = 0.37
    scaled = scale_noise_to(raw, target, seed=5)
    # same seed/restarts as the scaling call: homogeneity makes this exact
    est = spectral_norm_estimate(scaled, restarts=8, iters=20, seed=5)
    assert abs(est - target) < 1e-10


def test_perturbed_tensor_contract_is_sum():
    rng = stream(23, 1)
    d, k = 7, 12
    A = random_components(d, k, seed=2)
    sig = FactoredTensor3(A, np.ones(k))
    noise = symmetrize(rng.standard_normal((d, d, d)))
    P = PerturbedTensor(sig, noise)
    v = rng.standard_normal(d)
    w = rng.standard_normal(d)
    lhs = contract_1(P, v, w)
    rhs = contract_1(sig, v, w) + contract_1(noise, v, w)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_densify_budget_guard():
    d = 300
    a = np.zeros(d)
    a[0] = 1.0
    T = FactoredTensor3(a[:, None], np.ones(1))
    with pytest.raises(ResourceBudgetError):
        densify(T)


def test_symmetry_flags():
    A = random_components(6, 4, seed=9)
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    T = FactoredTensor3(A, lam)
    assert T.is_symmetric
    B = random_components(6, 4, seed=10)
    T2 = FactoredTensor3(A, lam, B, B)
    assert not T2.is_symmetric


def _block_representations():
    """One tensor of every representation at d = 7; the sample tensor has
    n = 2500 so its contraction crosses two chunk boundaries."""
    from tpi.models import MixtureModel, SampleTensor3, sample_multiview

    d, k = 7, 12
    rng = stream(24, 1)
    A = random_components(d, k, seed=3)
    sym = FactoredTensor3(A, rng.uniform(0.5, 2.0, k))
    asym = FactoredTensor3(A, np.ones(k), random_components(d, k, seed=4),
                           random_components(d, k, seed=5))
    noise = symmetrize(rng.standard_normal((d, d, d)))
    model = MixtureModel(A, np.full(k, 1.0 / k), noise_scale=0.1)
    samples = SampleTensor3(sample_multiview(model, 2500, seed=24))
    return {"factored": sym, "asymmetric": asym, "dense": densify(sym),
            "perturbed": PerturbedTensor(sym, noise),
            "samples": samples}


@pytest.mark.parametrize("m", [1, 5, 40])
def test_block_contraction_matches_per_column(m):
    rng = stream(25, m)
    for name, T in _block_representations().items():
        V = rng.standard_normal((T.dim, m))
        W = rng.standard_normal((T.dim, m))
        block = contract_1(T, V, W)
        assert block.shape == (T.dim, m), name
        cols = np.column_stack([contract_1(T, V[:, j], W[:, j]) for j in range(m)])
        assert np.max(np.abs(block - cols)) < 1e-12, name


def test_block_column_does_not_depend_on_its_neighbours():
    rng = stream(26, 1)
    for name, T in _block_representations().items():
        V = rng.standard_normal((T.dim, 9))
        W = rng.standard_normal((T.dim, 9))
        ref = contract_1(T, V, W)
        others = rng.standard_normal((T.dim, 70))
        for cols in ([4], [2, 4], [8, 0, 3]):
            alone = contract_1(T, V[:, cols], W[:, cols])
            assert np.array_equal(alone, ref[:, cols]), (name, cols)
        mixed = contract_1(T, np.column_stack([others, V[:, 4]]),
                           np.column_stack([others, W[:, 4]]))
        assert np.array_equal(mixed[:, -1], ref[:, 4]), name


def test_vector_contraction_keeps_its_formula():
    rng = stream(27, 1)
    T = _block_representations()["asymmetric"]
    v, w = rng.standard_normal(T.dim), rng.standard_normal(T.dim)
    coeff = T.weights * (T.components_b.T @ v) * (T.components_c.T @ w)
    assert np.array_equal(contract_1(T, v, w), T.components @ coeff)
    # dense: the last mode, then the middle one (the d x d^2 unfolding times
    # vec(v w^T) rounds differently at different BLAS thread counts)
    D = densify(T)
    d = D.dim
    assert np.array_equal(contract_1(D, v, w),
                          (D.entries.reshape(d * d, d) @ w).reshape(d, d) @ v)


def test_block_probe_shapes_checked():
    T = _block_representations()["factored"]
    V = np.ones((T.dim, 3))
    with pytest.raises(InvalidArgumentError):
        contract_1(T, V, V[:, :2])
    with pytest.raises(InvalidArgumentError):
        contract_1(T, V[:-1], V[:-1])
    with pytest.raises(InvalidArgumentError):
        contract_1(T, np.ones((T.dim, 0)), np.ones((T.dim, 0)))
