import tracemalloc

import numpy as np
import pytest

from tpi import models
from tpi.errors import InvalidArgumentError
from tpi.models import (
    MixtureModel,
    SampleBatch,
    SampleTensor3,
    SphericalGmm,
    empirical_third_moment,
    gmm_modified_moment,
    gmm_population_modified_moment,
    population_third_moment,
    sample_gmm,
    sample_multiview,
    snr,
)
from tpi.rng import stream
from tpi.tensors import FactoredTensor3, densify, random_components


def gmm_modified_moment_loops(A, lam, sigma):
    """Entrywise Gaussian-moment oracle for the sigma-corrected third moment.

    E[(a + sg)_i (a + sg)_j (a + sg)_l] expands (odd Gaussian moments vanish)
    to a_i a_j a_l + s^2 (a_i d_jl + a_j d_il + a_l d_ij); subtracting the
    same delta pattern built from the mixture mean leaves sum_h lam_h a^{(x)3}.
    Computed with explicit loops, independent of the library's einsum path.
    """
    d, k = A.shape
    mean = A @ lam
    M = np.zeros((d, d, d))
    s2 = sigma * sigma
    for i in range(d):
        for j in range(d):
            for l in range(d):
                val = 0.0
                for h in range(k):
                    a = A[:, h]
                    val += lam[h] * (
                        a[i] * a[j] * a[l]
                        + s2 * (a[i] * (j == l) + a[j] * (i == l) + a[l] * (i == j))
                    )
                val -= s2 * (mean[i] * (j == l) + mean[j] * (i == l) + mean[l] * (i == j))
                M[i, j, l] = val
    return M


def test_gmm_modified_moment_identity_against_loop_oracle():
    d, k, sigma = 5, 3, 0.45
    A = random_components(d, k, seed=31)
    lam = np.array([0.5, 0.3, 0.2])
    gmm = SphericalGmm(A, lam, sigma)
    oracle = gmm_modified_moment_loops(A, lam, sigma)
    lib = gmm_population_modified_moment(gmm).entries
    assert np.max(np.abs(lib - oracle)) < 1e-13
    # and the sigma terms cancel exactly against the mean correction
    target = densify(FactoredTensor3(A, lam)).entries
    assert np.max(np.abs(lib - target)) < 1e-13


def test_gmm_empirical_moment_converges():
    d, k, sigma = 5, 3, 0.3
    A = random_components(d, k, seed=32)
    lam = np.full(k, 1.0 / k)
    gmm = SphericalGmm(A, lam, sigma)
    target = densify(FactoredTensor3(A, lam)).entries
    Z, labels = sample_gmm(gmm, 200000, seed=32)
    assert Z.shape == (d, 200000) and labels.shape == (200000,)
    emp = gmm_modified_moment(gmm, Z).entries
    assert np.linalg.norm((emp - target).ravel()) < 0.08


def test_multiview_samples_noiseless_are_columns():
    A = random_components(6, 4, seed=33)
    model = MixtureModel(A, np.full(4, 0.25), noise_scale=0.0)
    batch = sample_multiview(model, 50, seed=33)
    assert batch.p == 3 and batch.n == 50 and batch.d == 6
    for V in batch.views:
        assert np.max(np.abs(V - A[:, batch.labels])) == 0.0


def test_multiview_sampling_reproducible():
    A = random_components(5, 3, seed=34)
    model = MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1)
    b1 = sample_multiview(model, 40, seed=77)
    b2 = sample_multiview(model, 40, seed=77)
    assert np.array_equal(b1.views[2], b2.views[2])
    assert np.array_equal(b1.labels, b2.labels)
    b3 = sample_multiview(model, 40, seed=78)
    assert not np.array_equal(b1.views[0], b3.views[0])


def test_population_third_moment_matches_rank_one_sum():
    A = random_components(5, 8, seed=35)
    priors = np.full(8, 0.125)
    model = MixtureModel(A, priors, noise_scale=0.2)
    T = population_third_moment(model)
    target = densify(FactoredTensor3(A, priors)).entries
    assert np.max(np.abs(densify(T).entries - target)) == 0.0


def test_empirical_third_moment_converges_to_population():
    A = random_components(6, 9, seed=36)
    priors = np.full(9, 1.0 / 9)
    model = MixtureModel(A, priors, noise_scale=0.05)
    exact = densify(population_third_moment(model)).entries
    errs = []
    for n in (500, 8000):
        batch = sample_multiview(model, n, seed=36)
        emp = empirical_third_moment(batch).entries
        errs.append(np.linalg.norm((emp - exact).ravel()))
    # 16x the samples: expect about 4x the accuracy, allow 2.5x-6x
    assert errs[0] / errs[1] > 2.5
    assert errs[0] / errs[1] < 6.0


def test_sample_tensor_contraction_matches_dense():
    A = random_components(7, 5, seed=37)
    model = MixtureModel(A, np.full(5, 0.2), noise_scale=0.1)
    batch = sample_multiview(model, 300, seed=37)
    implicit = SampleTensor3(batch)
    dense = empirical_third_moment(batch)
    rng = stream(37, 60)
    for _ in range(4):
        v = rng.standard_normal(7)
        w = rng.standard_normal(7)
        lhs = implicit.contract_1(v, w)
        rhs = np.einsum("ijl,j,l->i", dense.entries, v, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def chunk_loop_contraction(batch, v, w, chunk=1024):
    """T(I, v, w) as a plain loop over 1024-sample slices of the views."""
    Z1, Z2, Z3 = batch.views[:3]
    acc = np.zeros(np.shape(v))
    for lo in range(0, batch.n, chunk):
        s = slice(lo, lo + chunk)
        acc += Z1[:, s] @ ((Z2[:, s].T @ v) * (Z3[:, s].T @ w))
    return acc / batch.n


@pytest.mark.parametrize("n", [500, 2048, 20000])
def test_sample_tensor_stacked_chunks_match_chunk_loop_bitwise(n):
    # n = 500 has no full chunk, 2048 no tail, 20000 a 544-sample tail.
    d = 15
    rng = stream(n, 61)
    batch = SampleBatch([rng.standard_normal((d, n)) for _ in range(3)])
    implicit = SampleTensor3(batch)
    if n >= 1024:
        for view, stack in zip(batch.views, implicit._stacks[0]):
            assert stack.shape == (n // 1024, d, 1024)
            assert np.shares_memory(stack, view)
    for m in (None, 1, 5, 32, 224):
        shape = d if m is None else (d, m)
        v, w = rng.standard_normal(shape), rng.standard_normal(shape)
        out = implicit.contract_1(v, w)
        oracle = chunk_loop_contraction(batch, v, w)
        assert out.shape == oracle.shape
        assert out.tobytes() == oracle.tobytes(), m


def one_shot_multiview(model, n, seed):
    """sample_multiview as one gather and one d x n noise draw per view."""
    rng = stream(seed, 301)
    h = rng.choice(model.rank, size=n, p=model.priors)
    views = []
    for l in range(model.views):
        Z = model.factor_for_view(l)[:, h].copy()
        if model.noise_scale > 0:
            Z += model.noise_scale * rng.standard_normal((model.dim, n))
        views.append(Z)
    return SampleBatch(views, labels=h)


def one_shot_gmm(gmm, n, seed):
    """sample_gmm as one gather and one d x n noise draw."""
    rng = stream(seed, 302)
    h = rng.choice(gmm.priors.size, size=n, p=gmm.priors)
    return gmm.means[:, h] + gmm.sigma * rng.standard_normal((gmm.means.shape[0], n)), h


def one_shot_snr_mean_noise(batch, model):
    """snr's mean residual norm from one view-sized residual."""
    resid = batch.views[0] - model.factor_for_view(0)[:, batch.labels]
    return float(np.mean(np.linalg.norm(resid, axis=0)))


# (d, n, noise): d * n > 2**17 with slabs that start mid-row, n not a multiple
# of the residual slice (8192 columns at d = 16, so 8193 and 16385 end in a
# one-column slice), tiny n, and noise 0
@pytest.mark.parametrize("d, n, noise", [
    (15, 100000, 0.1), (16, 8193, 0.05), (16, 16385, 0.2), (7, 333, 0.2),
    (9, 1, 0.1), (9, 2, 0.1), (5, 10, 0.0), (3, 200000, 0.0),
])
def test_sampling_and_snr_match_one_shot_oracles_bitwise(d, n, noise):
    k = 6
    A = random_components(d, k, seed=d)
    priors = np.arange(1, k + 1) / (k * (k + 1) / 2)
    model = MixtureModel(A, priors, noise_scale=noise)
    batch, oracle = sample_multiview(model, n, seed=n), one_shot_multiview(model, n, seed=n)
    assert np.array_equal(batch.labels, oracle.labels)
    for V, W in zip(batch.views, oracle.views):
        assert V.flags.c_contiguous and V.tobytes() == W.tobytes()
    if noise > 0:
        assert snr(batch, model).empirical == 1.0 / one_shot_snr_mean_noise(batch, model)
    gmm = SphericalGmm(A, priors, noise)
    (Z, h), (Zo, ho) = sample_gmm(gmm, n, seed=n), one_shot_gmm(gmm, n, seed=n)
    assert np.array_equal(h, ho) and Z.tobytes() == Zo.tobytes()


def test_snr_one_column_last_slice_matches_one_shot_oracle():
    # at d = 4096 a residual slice holds 32 columns, so n = 33 leaves one
    # column over; numpy would sum it pairwise, and on some of these seeds
    # that moves the mean in its last bit
    d, k, n = 4096, 6, 33
    for seed in range(20):
        model = MixtureModel(random_components(d, k, seed=seed), np.full(k, 1.0 / k),
                             noise_scale=0.1)
        batch = sample_multiview(model, n, seed=seed)
        assert snr(batch, model).empirical == 1.0 / one_shot_snr_mean_noise(batch, model), seed


def test_sample_draw_and_snr_hold_one_slab_over_the_batch():
    # the one-shot versions peak at 1.33x (draw) and 1.67x (snr) of this batch
    d, k, n = 50, 100, 20000
    model = MixtureModel(random_components(d, k, seed=47), np.full(k, 1.0 / k), noise_scale=0.05)
    bound_over = models._SLAB * 8 + 2 ** 20
    tracemalloc.start()
    try:
        batch = sample_multiview(model, n, seed=47)
        batch_bytes = sum(V.nbytes for V in batch.views) + batch.labels.nbytes
        _current, draw_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        snr(batch, model)
        _current, snr_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draw_peak <= batch_bytes + bound_over
    assert snr_peak <= batch_bytes + bound_over


def test_batch_save_load_round_trip(tmp_path):
    A = random_components(4, 3, seed=38)
    model = MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.2)
    batch = sample_multiview(model, 25, seed=38)
    prefix = str(tmp_path / "batch")
    batch.save(prefix, meta={"origin": "test"})
    back = SampleBatch.load(prefix)
    assert back.p == batch.p
    for V1, V2 in zip(batch.views, back.views):
        assert np.array_equal(V1, V2)
    assert np.array_equal(back.labels, batch.labels)


def test_snr_matches_theory_and_needs_labels():
    d, k, zeta = 40, 10, 0.15
    A = random_components(d, k, seed=39)
    model = MixtureModel(A, np.full(k, 0.1), noise_scale=zeta)
    batch = sample_multiview(model, 4000, seed=39)
    rep = snr(batch, model)
    assert abs(rep.theoretical - 1.0 / (zeta * np.sqrt(d))) < 1e-12
    # ||eta|| concentrates hard at d=40, so empirical ~ theoretical
    assert abs(rep.empirical - rep.theoretical) / rep.theoretical < 0.05
    unlabeled = SampleBatch([V.copy() for V in batch.views])
    with pytest.raises(InvalidArgumentError):
        snr(unlabeled, model)


def test_snr_noiseless_is_infinite():
    A = random_components(5, 4, seed=40)
    model = MixtureModel(A, np.full(4, 0.25), noise_scale=0.0)
    batch = sample_multiview(model, 30, seed=40)
    assert snr(batch, model).empirical == np.inf


def test_asymmetric_mixture_moment():
    d, k = 5, 4
    A = random_components(d, k, seed=41)
    B = random_components(d, k, seed=42)
    C = random_components(d, k, seed=43)
    priors = np.full(k, 0.25)
    model = MixtureModel((A, B, C), priors, noise_scale=0.0)
    assert model.is_asymmetric
    T = population_third_moment(model)
    batch = sample_multiview(model, 100, seed=44)
    emp = empirical_third_moment(batch).entries
    # noiseless: empirical moment is an average of rank-one terms from T's factors
    ref = np.einsum("ih,jh,lh->ijl", A[:, batch.labels], B[:, batch.labels], C[:, batch.labels]) / 100
    assert np.max(np.abs(emp - ref)) < 1e-12
    assert T.components_b is not T.components


def test_priors_validation():
    A = random_components(4, 3, seed=45)
    with pytest.raises(InvalidArgumentError):
        MixtureModel(A, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        MixtureModel(A, np.array([0.7, 0.3, 0.0]))
