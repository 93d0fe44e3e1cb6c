import itertools
import tracemalloc

import numpy as np
import pytest

from tpi import rng as tpi_rng
from tpi.errors import InvalidArgumentError, ResourceBudgetError
from tpi.rng import stream
from tpi.tensors import (
    DenseTensor3,
    FactoredTensor3,
    PackedSymmetricTensor3,
    PerturbedTensor,
    _symmetric_normal_rows,
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
    S = symmetrize(rng.standard_normal((d, d, d)))
    v = rng.standard_normal(d)
    w = rng.standard_normal(d)
    # symmetrize returns the packed layout; the d^3 one holds the same cube
    for T in (S, DenseTensor3(S.entries)):
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


def _average_orbits(E):
    """Average a cubic float64 array over its six index permutations, in place.

    The entries whose smallest index is i sit in the plane E[i, i:, i:] and
    the slices E[i:, i, i:] and E[i:, i:, i]; with s their sum, entry (j, l)
    of (s + s^T) / 6 is the mean of the orbit of (i, i+j, i+l).  All three
    are read before any is written.  ``symmetrize`` and ``scale_noise_to``
    must give these bits without a d^3 array.
    """
    d = E.shape[0]
    s_buf, u_buf = np.empty(d * d), np.empty(d * d)
    for i in range(d):
        m = d - i
        s, u = s_buf[:m * m].reshape(m, m), u_buf[:m * m].reshape(m, m)
        np.add(E[i, i:, i:], E[i:, i, i:], out=s)
        s += E[i:, i:, i]
        np.add(s, s.T, out=u)
        u /= 6.0
        E[i, i:, i:] = u
        E[i:, i, i:] = u
        E[i:, i:, i] = u
    return E


@pytest.mark.parametrize("d", [1, 7, 40])
def test_symmetrize_and_scale_noise_to_match_the_orbit_average_bitwise(d):
    raw = stream(15, d).standard_normal((d, d, d))
    oracle = _average_orbits(raw.copy())
    S = symmetrize(raw)
    assert isinstance(S, PackedSymmetricTensor3)
    assert np.array_equal(S.entries, oracle)
    # the factor of a d^3 DenseTensor3 holding the oracle: the packed rows
    # give the same vector contractions, so the same estimate
    target, seed = 0.37, 5
    factor = target / spectral_norm_estimate(DenseTensor3(oracle), restarts=8, iters=20, seed=seed)
    scaled = scale_noise_to(S, target, seed=seed)
    assert isinstance(scaled, PackedSymmetricTensor3)
    assert np.array_equal(scaled.entries, oracle * factor)
    assert np.array_equal(S.entries, oracle)  # the input is not scaled


def test_scale_noise_to_keeps_a_dense_layout():
    d = 6
    E = densify(FactoredTensor3(random_components(d, 4, seed=1), np.ones(4)))
    scaled = scale_noise_to(E, 1.0, seed=2)
    assert type(scaled) is DenseTensor3 and not scaled.rows.flags.writeable
    factor = 1.0 / spectral_norm_estimate(E, seed=2)
    assert np.array_equal(scaled.rows, E.rows * factor)


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
    theta = np.linspace(0, np.pi, n_grid)[:, None]
    phi = np.linspace(0, 2 * np.pi, 2 * n_grid, endpoint=False)[None, :]
    mesh = np.stack(np.broadcast_arrays(np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                                        np.cos(theta)), axis=-1).reshape(-1, 3)
    values = np.abs(np.einsum("ijk,ni,nj,nk->n", entries, mesh, mesh, mesh))
    # the first mesh point (theta-major) at the largest value
    x = mesh[np.argmax(values)]
    best = values.max()
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


@pytest.mark.parametrize("counts", [{"restarts": 2.5}, {"restarts": 0}, {"restarts": True},
                                    {"iters": 2.5}, {"iters": -1}])
def test_spectral_norm_estimate_takes_integer_counts(counts):
    # refused up front: 2.5 would fail in range() and iters=-1 would run no step
    T = symmetrize(stream(33, 1).standard_normal((4, 4, 4)))
    with pytest.raises(InvalidArgumentError):
        spectral_norm_estimate(T, **counts)
    assert spectral_norm_estimate(T, restarts=np.int64(2), iters=0) > 0


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


@pytest.mark.parametrize("shape", [(96, 9), (3, 3), (2, 3, 4)])
def test_dense_constructor_takes_only_cubes(shape):
    # (96, 9) is the padded unfolding at d = 9, which only the builders wrap
    with pytest.raises(InvalidArgumentError):
        DenseTensor3(np.zeros(shape))


def test_dense_constructor_copies_the_cube_into_padded_rows():
    E = stream(31, 1).standard_normal((9, 9, 9))
    T = DenseTensor3(E)
    assert T.rows.shape == (96, 9) and not T.rows[81:].any()
    assert np.array_equal(T.entries, E) and not np.shares_memory(T.rows, E)
    assert not T.rows.flags.writeable and not T.entries.flags.writeable


def test_dense_builders_hold_one_copy_of_their_rows():
    # each builder writes straight into its padded rows; a cube built first
    # and copied into them would double the peak
    d = 60
    rng = stream(32, 1)
    sym = FactoredTensor3(random_components(d, 20, seed=4), rng.uniform(0.5, 2.0, 20))
    raw = rng.standard_normal((d, d, d))
    noise, dense = symmetrize(raw), densify(sym)
    for build in (lambda: densify(sym), lambda: symmetrize(raw),
                  lambda: scale_noise_to(noise, 1.0), lambda: scale_noise_to(dense, 1.0)):
        tracemalloc.start()
        try:
            T = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= T.rows.nbytes + (1 << 19), (T, peak)


def _block_representations():
    """One tensor of every representation at d = 7.  The sample tensors have
    n = 2500: "samples" contracts through its moment (d^2 <= n), and
    "summed_samples" is held to the pass over the samples, which crosses two
    chunk boundaries."""
    from tpi.models import MixtureModel, SampleTensor3, sample_multiview

    d, k = 7, 12
    rng = stream(24, 1)
    A = random_components(d, k, seed=3)
    sym = FactoredTensor3(A, rng.uniform(0.5, 2.0, k))
    noise = symmetrize(rng.standard_normal((d, d, d)))
    batch = sample_multiview(MixtureModel(A, np.full(k, 1.0 / k), noise_scale=0.1), 2500, seed=24)
    summed = SampleTensor3(batch)
    summed.contract_1 = summed._contract_samples
    return {"factored": sym, "dense": densify(sym),
            "packed": PackedSymmetricTensor3(_symmetric_normal_rows(d, rng)),
            "perturbed": PerturbedTensor(sym, noise),
            "samples": SampleTensor3(batch), "summed_samples": summed}


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
    # Over the samples (d^2 > n) a column's bytes depend on the block's
    # padded width from d = 15 on: at d = 51, n = 2500, 9 and 40 columns
    # differ.  So the d = 51 tensor mixes a column with 19 others, which
    # keeps the 32-column width of the 9-column block; the rest take 70.
    from tpi.models import SampleBatch, SampleTensor3

    tensors = {name: (T, 70) for name, T in _block_representations().items()}
    views = stream(26, 2).standard_normal((3, 51, 2500))
    tensors["summed_samples_d51"] = (SampleTensor3(SampleBatch(views)), 19)
    api = tpi_rng._openblas_threads()
    get, set_ = api if api is not None else (lambda: None, lambda threads: None)
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            rng = stream(26, 1)
            for name, (T, n_others) in tensors.items():
                V = rng.standard_normal((T.dim, 9))
                W = rng.standard_normal((T.dim, 9))
                ref = contract_1(T, V, W)
                others = rng.standard_normal((T.dim, n_others))
                for cols in ([4], [2, 4], [8, 0, 3]):
                    alone = contract_1(T, V[:, cols], W[:, cols])
                    assert np.array_equal(alone, ref[:, cols]), (name, cols, threads)
                mixed = contract_1(T, np.column_stack([others, V[:, 4]]),
                                   np.column_stack([others, W[:, 4]]))
                assert np.array_equal(mixed[:, -1], ref[:, 4]), (name, threads)
    finally:
        set_(before)


def test_vector_contraction_keeps_its_formula():
    rng = stream(27, 1)
    T = _block_representations()["factored"]
    A = T.components
    v, w = rng.standard_normal(T.dim), rng.standard_normal(T.dim)
    assert np.array_equal(contract_1(T, v, w), A @ (T.weights * (A.T @ v) * (A.T @ w)))
    # dense: the last mode through the padded unfolding, then the middle one
    # (the d x d^2 unfolding times vec(v w^T) rounds differently at
    # different BLAS thread counts)
    D = densify(T)
    d = D.dim
    assert D.rows.shape == (64, d) and not D.rows[d * d:].any()
    assert np.array_equal(D.entries.reshape(d * d, d), D.rows[: d * d])
    assert np.array_equal(contract_1(D, v, w), (D.rows @ w)[: d * d].reshape(d, d) @ v)


@pytest.mark.parametrize("d", [101, 150])
def test_dense_vector_contraction_bytes_do_not_depend_on_blas_threads(d):
    # the unpadded d^2 x d unfolding gave other bytes at 1 and 2 threads
    # for some of these probes at both sizes
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    rng = stream(30, d)
    T = DenseTensor3(rng.standard_normal((d, d, d)))
    probes = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(20)]
    before = get()
    try:
        out = []
        for threads in (1, 2):
            set_(threads)
            out.append([contract_1(T, v, w).tobytes() for v, w in probes])
    finally:
        set_(before)
    assert out[0] == out[1]


def _unfolded_contraction(E, v, w):
    d = E.shape[0]
    return (E.reshape(d * d, d) @ w).reshape(d, d) @ v


def test_packed_vector_contraction_is_the_unfolded_one_at_any_blas_thread_count():
    # the pair rows sum each row of the unfolding as the full d^2 x d
    # product does, and their padding keeps the BLAS thread split on whole
    # row groups, so d = 100 gives the d^3 array's bytes at 1 and 2 threads;
    # both layouts contract a block by one formula, so the packed block is
    # the full layout's, byte for byte
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    d = 100
    T = PackedSymmetricTensor3(_symmetric_normal_rows(d, stream(28, 1)))
    E = T.entries
    full = DenseTensor3(E)
    rng = stream(28, 2)
    probes = [(rng.standard_normal(d), rng.standard_normal(d)) for _ in range(4)]
    blocks = [(rng.standard_normal((d, m)), rng.standard_normal((d, m))) for m in (1, 5, 40)]
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            for v, w in probes:
                assert np.array_equal(contract_1(T, v, w), _unfolded_contraction(E, v, w))
                assert np.array_equal(contract_1(T, v, w), contract_1(full, v, w))
            for V, W in blocks:
                assert np.array_equal(contract_1(T, V, W), contract_1(full, V, W)), V.shape
    finally:
        set_(before)


def whole_product_block_contraction(T, v, w):
    """A block contraction from the whole padded product ``rows @ w``,
    summed over the middle mode by a loop over j."""
    P = T.rows @ w
    d = T.dim
    # the product row of (i, j)
    row = T.pair if isinstance(T, PackedSymmetricTensor3) else np.arange(d * d).reshape(d, d)
    out = np.zeros(v.shape)
    for j in range(d):
        out += P[row[:, j]] * v[j]
    return out


@pytest.mark.parametrize("d", [5, 9, 15, 31, 46, 47, 51, 101, 129])
def test_block_contraction_is_the_whole_product_one_bitwise(d):
    # one block of i-rows at a time: each row of the product, and each sum
    # over j, has the bytes of the whole product's, at 1 and 2 BLAS threads
    api = tpi_rng._openblas_threads()
    if api is None:
        pytest.skip("numpy's bundled OpenBLAS is not available")
    get, set_ = api
    packed = PackedSymmetricTensor3(_symmetric_normal_rows(d, stream(33, d)))
    full = DenseTensor3(packed.entries)
    rng = stream(33, d, 1)
    probes = [(rng.standard_normal((d, m)), rng.standard_normal((d, m))) for m in (32, 224, 1024)]
    before = get()
    try:
        for threads in (1, 2):
            set_(threads)
            for T in (full, packed):
                for v, w in probes:
                    out = contract_1(T, v, w)
                    oracle = whole_product_block_contraction(T, v, w)
                    assert out.tobytes() == oracle.tobytes(), (T, v.shape, threads)
    finally:
        set_(before)


def test_block_contraction_holds_no_whole_product():
    # the whole padded product at d = 100, m = 608 is 48.7 MB
    d, m = 100, 608
    rng = stream(34, 1)
    T = DenseTensor3(rng.standard_normal((d, d, d)))
    v, w = rng.standard_normal((d, m)), rng.standard_normal((d, m))
    tracemalloc.start()
    try:
        contract_1(T, v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("d", [1, 9, 31, 150])
def test_packed_vector_contraction_agrees_with_the_unfolded_one(d):
    T = PackedSymmetricTensor3(_symmetric_normal_rows(d, stream(29, d)))
    assert T.dim == d and T.rows.shape == (-(-d * (d + 1) // 2 // 32) * 32, d)
    rng = stream(29, d, 1)
    v, w = rng.standard_normal(d), rng.standard_normal(d)
    assert np.max(np.abs(contract_1(T, v, w) - _unfolded_contraction(T.entries, v, w))) < 1e-12


@pytest.mark.parametrize("shape", [(45, 9), (96, 9), (9, 9, 9), (32, 0)])
def test_packed_rows_must_be_the_padded_pair_count(shape):
    with pytest.raises(InvalidArgumentError):
        PackedSymmetricTensor3(np.zeros(shape))


@pytest.mark.parametrize("m", [1, 3, 7])
def test_contract_scalar_takes_only_vectors(m):
    # m = 7 = d makes u @ T(I, V, W) a d x d product, 3 a shape mismatch
    T = _block_representations()["factored"]
    x, V = np.ones(T.dim), np.ones((T.dim, m))
    for probes in ((V, V, V), (x, V, V), (V, x, x), (x, x, V)):
        with pytest.raises(InvalidArgumentError):
            contract_scalar(T, *probes)
    with pytest.raises(InvalidArgumentError):
        contract_scalar(T, x[:-1], x, x)
    assert isinstance(contract_scalar(T, x, x, x), float)


def test_block_probe_shapes_checked():
    T = _block_representations()["factored"]
    V = np.ones((T.dim, 3))
    with pytest.raises(InvalidArgumentError):
        contract_1(T, V, V[:, :2])
    with pytest.raises(InvalidArgumentError):
        contract_1(T, V[:-1], V[:-1])
    with pytest.raises(InvalidArgumentError):
        contract_1(T, np.ones((T.dim, 0)), np.ones((T.dim, 0)))
