import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tpi import models, tensors
from tpi import rng as tpi_rng
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
from tpi.tensors import (
    DenseTensor3, FactoredTensor3, contract_1, densify, random_components, scale_noise_to,
    symmetrize)


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
    assert len(batch.views) == 3 and batch.n == 50 and batch.d == 6
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


@pytest.mark.parametrize("n", [2.5, True, "40", 0])
def test_samplers_take_an_integer_count(n):
    # the package's error, not numpy's TypeError
    A = random_components(5, 3, seed=34)
    with pytest.raises(InvalidArgumentError):
        sample_multiview(MixtureModel(A, np.full(3, 1 / 3), noise_scale=0.1), n, seed=0)
    with pytest.raises(InvalidArgumentError):
        sample_gmm(SphericalGmm(A, np.full(3, 1 / 3), 0.1), n, seed=0)
    assert sample_gmm(SphericalGmm(A, np.full(3, 1 / 3), 0.1), np.int64(4), seed=0)[0].shape == (5, 4)


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
    Z1, Z2, Z3 = batch.views
    rng = stream(37, 60)
    for _ in range(4):
        v = rng.standard_normal(7)
        w = rng.standard_normal(7)
        lhs = implicit.contract_1(v, w)
        rhs = np.einsum("it,jt,lt,j,l->i", Z1, Z2, Z3, v, w) / batch.n
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def chunk_loop_contraction(batch, v, w, chunk=1024):
    """T(I, v, w) as a plain loop over 1024-sample slices of the views, the
    last one zero-padded to a multiple of 32 samples."""
    acc = np.zeros(np.shape(v))
    for lo in range(0, batch.n, chunk):
        width = min(chunk, -(-(batch.n - lo) // 32) * 32)
        Z1, Z2, Z3 = np.zeros((3, batch.d, width))
        for Z, view in zip((Z1, Z2, Z3), batch.views):
            Z[:, : batch.n - lo] = view[:, lo : lo + chunk]
        acc += Z1 @ ((Z2.T @ v) * (Z3.T @ w))
    return acc / batch.n


@pytest.mark.parametrize("n", [500, 2048, 20000])
def test_sample_tensor_chunk_loop_matches_its_oracle_bitwise(n):
    # n = 500 has no full chunk and a padded tail, 2048 no tail, 20000 a
    # 544-sample tail.  The smallest d with d^2 > n keeps contract_1 on the
    # samples.
    d = math.isqrt(n) + 1
    rng = stream(n, 61)
    batch = SampleBatch([rng.standard_normal((d, n)) for _ in range(3)])
    implicit = SampleTensor3(batch)
    for m in (None, 1, 5, 32, 224):
        shape = d if m is None else (d, m)
        v, w = rng.standard_normal(shape), rng.standard_normal(shape)
        tracemalloc.start()
        try:
            out = implicit.contract_1(v, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full chunks are slices of the views, not copies: at n = 20000
        # (d = 142) one view is 22.7 MB, the padded tail 1.9 MB
        assert n < 20000 or peak < batch.views[0].nbytes, (m, peak)
        oracle = chunk_loop_contraction(batch, v, w)
        assert out.shape == oracle.shape
        assert out.tobytes() == oracle.tobytes(), m
    assert implicit._moment is None


def sample_loop_moment(Z1, Z2, Z3):
    """(1/n) sum_t z1_t (x) z2_t (x) z3_t, one sample at a time."""
    acc = np.zeros((Z1.shape[0],) * 3)
    for z1, z2, z3 in zip(Z1.T, Z2.T, Z3.T):
        acc += np.multiply.outer(np.outer(z1, z2), z3)
    return acc / Z1.shape[1]


@pytest.mark.parametrize("n", [40, 64, 300])
def test_sample_moment_matches_a_per_sample_loop(n):
    # n = 40 is one short chunk, 64 one full chunk, 300 four and a tail
    d = 9
    rng = stream(n, 62)
    views = [rng.standard_normal((d, n)) for _ in range(3)]
    rows = models._sample_moment(*views)
    assert rows.shape == (96, d) and not rows[d * d:].any()
    oracle = sample_loop_moment(*views)
    assert np.max(np.abs(rows[: d * d].reshape(d, d, d) - oracle)) < 1e-12


def test_sample_moment_bytes_do_not_depend_on_blas_threads():
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    before = get()
    try:
        for d in (15, 30, 50):
            rng = stream(d, 63)
            views = [rng.standard_normal((d, 1000)) for _ in range(3)]
            built = []
            for threads in (1, 2):
                set_(threads)
                built.append(models._sample_moment(*views).tobytes())
            assert built[0] == built[1], d
    finally:
        set_(before)


def unblocked_sample_moment(Z1, Z2, Z3, chunk=64):
    """The moment rows from one loop over 64-sample chunks, each a product of
    all d^2 Khatri-Rao rows, padded to a multiple of 32, with Z3's chunk."""
    d, n = Z1.shape
    acc = np.zeros((-(-d * d // 32) * 32, d))
    kr, product = np.zeros((len(acc), chunk)), np.empty(acc.shape)
    for lo in range(0, n, chunk):
        s = slice(lo, min(lo + chunk, n))
        K = kr[:, : s.stop - lo]
        np.multiply(Z1[:, None, s], Z2[None, :, s], out=K[: d * d].reshape(d, d, -1))
        acc += np.matmul(K, Z3[:, s].T, out=product)
    acc /= n
    return acc


@pytest.mark.parametrize("d", [6, 9, 15, 45, 46, 47, 50, 51, 64, 101, 150])
def test_sample_moment_is_the_unblocked_one_bitwise(d):
    # built a block of i-rows at a time, each row keeps the bytes of the
    # unblocked build's, at 1 and 2 BLAS threads; n = 40 is one short chunk
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    rng = stream(d, 68)
    batches = [[rng.standard_normal((d, n)) for _ in range(3)] for n in (40, 1000, 2517)]
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            for views in batches:
                built = models._sample_moment(*views)
                oracle = unblocked_sample_moment(*views)
                assert built.tobytes() == oracle.tobytes(), (views[0].shape, threads)
    finally:
        set_(before)


def test_sample_moment_holds_no_d_squared_temporary():
    # the unblocked build's chunk temporaries at d = 100 are 13.1 MB
    rng = stream(100, 69)
    views = [rng.standard_normal((100, 10000)) for _ in range(3)]
    tracemalloc.start()
    try:
        rows = models._sample_moment(*views)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes + (4 << 20), peak


def test_sample_tensor_contracts_its_moment_through_the_module_function(monkeypatch):
    # so that the moment's contractions count as dense ones where
    # tensors.contract_1 is wrapped
    seen = []
    original = tensors.contract_1

    def spy(tensor, v, w):
        seen.append(type(tensor))
        return original(tensor, v, w)

    d = 6
    rng = stream(d, 70)
    implicit = SampleTensor3(SampleBatch([rng.standard_normal((d, 40)) for _ in range(3)]))
    v, w = rng.standard_normal((d, 5)), rng.standard_normal((d, 5))
    before = contract_1(implicit, v, w)
    monkeypatch.setattr(tensors, "contract_1", spy)
    assert contract_1(implicit, v, w).tobytes() == before.tobytes()
    assert seen == [DenseTensor3]


@pytest.mark.parametrize("d", [6, 15, 30])
def test_sample_tensor_moment_agrees_with_the_sample_sum(d):
    rng = stream(d, 64)
    batch = SampleBatch([rng.standard_normal((d, d * d)) for _ in range(3)])
    implicit = SampleTensor3(batch)
    for m in (None, 32, 224):
        shape = d if m is None else (d, m)
        v, w = rng.standard_normal(shape), rng.standard_normal(shape)
        through = contract_1(implicit, v, w)
        summed = implicit._contract_samples(v, w)
        assert np.max(np.abs(through - summed)) <= 1e-12 * np.max(np.abs(summed)), m
    assert implicit._moment is not None


@pytest.mark.parametrize("n", [35, 36, 37])
def test_sample_tensor_builds_the_moment_exactly_when_d_squared_fits_n(n):
    d = 6
    rng = stream(n, 65)
    implicit = SampleTensor3(SampleBatch([rng.standard_normal((d, n)) for _ in range(3)]))
    assert implicit._moment is None
    implicit.contract_1(rng.standard_normal(d), rng.standard_normal(d))
    assert (implicit._moment is not None) == (d * d <= n)


def test_sample_tensor_stays_on_the_samples_beyond_the_dense_limit(monkeypatch):
    # d^2 <= n, but d is past the dense budget of empirical_third_moment
    monkeypatch.setattr(models, "DENSE_DIM_LIMIT", 5)
    d, n = 6, 100
    rng = stream(n, 66)
    implicit = SampleTensor3(SampleBatch([rng.standard_normal((d, n)) for _ in range(3)]))
    v, w = rng.standard_normal(d), rng.standard_normal(d)
    assert implicit.contract_1(v, w).tobytes() == implicit._contract_samples(v, w).tobytes()
    assert implicit._moment is None


def test_sample_sum_bytes_do_not_depend_on_blas_threads():
    # one full chunk and a 976-sample tail, which gave other block bytes at
    # 1 and 2 threads before the tail was padded to a multiple of 32 samples
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    d, n = 50, 2000
    rng = stream(n, 67)
    implicit = SampleTensor3(SampleBatch([rng.standard_normal((d, n)) for _ in range(3)]))
    probes = [(rng.standard_normal(shape), rng.standard_normal(shape))
              for shape in (d, (d, 32), (d, 224))]
    before = get()
    try:
        out = []
        for threads in (1, 2):
            set_(threads)
            out.append([implicit._contract_samples(v, w).tobytes() for v, w in probes])
    finally:
        set_(before)
    assert out[0] == out[1]


def one_shot_multiview(model, n, seed):
    """sample_multiview as one gather and one d x n noise draw per view."""
    rng = stream(seed, 301)
    h = rng.choice(model.rank, size=n, p=model.priors)
    views = []
    for l in range(3):
        Z = model.factor[:, h].copy()
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
    resid = batch.views[0] - model.factor[:, batch.labels]
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


def test_empirical_moment_keeps_the_view_order():
    # noisy views differ, so the cross-view sum is not symmetric and any
    # permutation of the views gives a different tensor
    d, k, n = 5, 4, 300
    model = MixtureModel(random_components(d, k, seed=41), np.full(k, 0.25), noise_scale=0.3)
    batch = sample_multiview(model, n, seed=44)
    emp = empirical_third_moment(batch).entries
    Z = batch.views
    assert np.max(np.abs(emp - np.einsum("it,jt,lt->ijl", *Z) / n)) < 1e-12
    for order in itertools.permutations(range(3)):
        if order != (0, 1, 2):
            permuted = np.einsum("it,jt,lt->ijl", *(Z[l] for l in order)) / n
            assert np.max(np.abs(emp - permuted)) > 1e-3, order


@pytest.mark.parametrize("what", ["noise_scale", "sigma", "target"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_noise_parameters_are_rejected(what, value):
    A = random_components(4, 3, seed=46)
    priors = np.full(3, 1 / 3)
    with pytest.raises(InvalidArgumentError):
        if what == "noise_scale":
            MixtureModel(A, priors, noise_scale=value)
        elif what == "sigma":
            SphericalGmm(A, priors, value)
        else:
            scale_noise_to(symmetrize(stream(46, 1).standard_normal((4, 4, 4))), value)


def test_priors_validation():
    A = random_components(4, 3, seed=45)
    with pytest.raises(InvalidArgumentError):
        MixtureModel(A, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(InvalidArgumentError):
        MixtureModel(A, np.array([0.7, 0.3, 0.0]))


@pytest.mark.parametrize("make", [MixtureModel, SphericalGmm], ids=["mixture", "gmm"])
def test_nan_priors_are_rejected(make):
    # NaN fails both "<= 0" and the sum test; it used to get through to
    # sample_multiview, which ended in numpy's ValueError
    with pytest.raises(InvalidArgumentError):
        make(random_components(4, 3, seed=45), np.array([np.nan, 0.5, 0.5]), 0.1)


@pytest.mark.parametrize("count", [2, 4])
def test_sample_batch_takes_exactly_three_views(count):
    Z = random_components(4, 6, seed=48)
    with pytest.raises(InvalidArgumentError):
        SampleBatch([Z] * count)


def test_sample_batch_refuses_an_empty_batch():
    # an empty batch used to reach SampleTensor3, whose contraction divided by n = 0
    with pytest.raises(InvalidArgumentError):
        SampleBatch([np.zeros((4, 0))] * 3)
