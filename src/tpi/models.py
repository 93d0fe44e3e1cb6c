"""Generative samplers and moment-tensor estimators for mixture models.

Multiview mixture: a hidden state h ~ Categorical(priors) picks a column a_h
of the factor shared by all views, and each of three views observes
z_l = a_h + eta_l with independent spherical Gaussian noise (per-entry std
zeta).  The cross-view third moment E[z_1 (x) z_2 (x) z_3] equals
sum_j priors_j a_j^{(x)3}, which is what the decomposition pipeline consumes.
Its sample estimate (1/n) sum_i z1_i (x) z2_i (x) z3_i is ``SampleTensor3``:
once d^2 <= n it is built as a d^3 moment on the first contraction, and
below that every contraction sums over the samples.

Spherical Gaussian mixture: z = a_h + sigma * g.  The raw third moment picks
up sigma^2 cross terms; the modified moment subtracts them:

    M3 = E[z (x) z (x) z]
         - sigma^2 * sum_i ( E[z] (x) e_i (x) e_i
                           + e_i (x) E[z] (x) e_i
                           + e_i (x) e_i (x) E[z] )

and its population value is again sum_j priors_j a_j^{(x)3}.
"""

from dataclasses import dataclass

import numpy as np

from . import tensors
from .errors import InvalidArgumentError, ResourceBudgetError, _check_count
from .rng import stream
from .tensors import (
    DENSE_DIM_LIMIT, DenseTensor3, FactoredTensor3, _as_unit_columns, _dense_rows,
    _padded_rows, _row_blocks)

# Sample chunk of a moment build: each chunk is one product of a block's
# r x c Khatri-Rao rows by c x d samples of the third view.
_MOMENT_CHUNK = 64
# Sample chunk of a contraction over the samples.  It keeps each BLAS sum
# short: OpenBLAS splits a 20000-sample vector product across its threads, so
# the bytes depended on their count.
_SAMPLE_CHUNK = 1024
# Sample noise is drawn, and SNR residuals are formed, in slabs of at most this
# many doubles (1 MB), so neither holds a second array the size of a view.
_SLAB = 1 << 17


def _check_simplex(priors, k):
    p = np.ascontiguousarray(priors, dtype=np.float64)
    if p.shape != (k,):
        raise InvalidArgumentError("priors must have length k")
    # a NaN prior fails both comparisons, so it is refused
    if not (np.all(p > 0.0) and abs(float(p.sum()) - 1.0) <= 1e-12):
        raise InvalidArgumentError("priors must be positive and sum to 1 within 1e-12")
    return p


class MixtureModel:
    """Multiview mixture parameters.

    ``factor`` is the d x k matrix shared by the three views, so the cross-view
    third moment is symmetric.  Each view adds spherical Gaussian noise with
    per-entry std ``noise_scale``.
    """

    def __init__(self, factor, priors, noise_scale=0.0):
        self.factor = _as_unit_columns(factor, "factor")
        d, k = self.factor.shape
        self.priors = _check_simplex(priors, k)
        if not 0 <= noise_scale < np.inf:
            raise InvalidArgumentError("noise_scale must be finite and >= 0")
        self.noise_scale = float(noise_scale)
        self.dim = d
        self.rank = k


class SampleBatch:
    """Observations from a multiview draw: three d x n matrices, one per view.

    ``labels`` holds the true hidden states and exists for evaluation only;
    decomposition code never reads it.
    """

    def __init__(self, views, labels=None):
        self.views = [np.ascontiguousarray(V, dtype=np.float64) for V in views]
        if len(self.views) != 3:
            raise InvalidArgumentError(f"need exactly three views, got {len(self.views)}")
        shapes = {V.shape for V in self.views}
        if len(shapes) != 1 or self.views[0].ndim != 2:
            raise InvalidArgumentError("all views must share the same d x n shape")
        if self.views[0].shape[1] < 1:
            raise InvalidArgumentError("a batch needs at least one sample")
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        if self.labels is not None and self.labels.shape != (self.views[0].shape[1],):
            raise InvalidArgumentError("labels must have length n")

    @property
    def d(self):
        return self.views[0].shape[0]

    @property
    def n(self):
        return self.views[0].shape[1]


@dataclass
class SphericalGmm:
    """Mixture of spherical Gaussians with known per-coordinate std sigma."""

    means: np.ndarray
    priors: np.ndarray
    sigma: float

    def __post_init__(self):
        self.means = _as_unit_columns(self.means, "means")
        self.priors = _check_simplex(self.priors, self.means.shape[1])
        if not 0 <= self.sigma < np.inf:
            raise InvalidArgumentError("sigma must be finite and >= 0")


def _add_noise(Z, scale, rng):
    """Z += scale * rng.standard_normal(Z.shape), in place, one slab at a time.

    Z is C-ordered.  Each slab is the next stretch of the C-order draw, taken
    from the stream in order, so the bytes are those of the one-shot draw.
    """
    flat = Z.reshape(-1)
    buf = np.empty(min(_SLAB, flat.size))
    for lo in range(0, flat.size, _SLAB):
        g = buf[: min(_SLAB, flat.size - lo)]
        rng.standard_normal(out=g)
        g *= scale
        flat[lo : lo + g.size] += g


def sample_multiview(model, n, seed):
    """Draw n multiview samples; returns a SampleBatch with labels.

    Each view is built in place: the columns F[:, h] are gathered into a
    C-ordered d x n array and the noise is added to it one slab of at most
    ``_SLAB`` doubles at a time, so the draw holds the batch and one slab.
    """
    _check_count(n, "n")
    rng = stream(seed, 301)
    h = rng.choice(model.rank, size=n, p=model.priors)
    views = []
    for l in range(3):
        Z = np.take(model.factor, h, axis=1)
        if model.noise_scale > 0:
            _add_noise(Z, model.noise_scale, rng)
        views.append(Z)
    return SampleBatch(views, labels=h)


def sample_gmm(gmm, n, seed):
    """Draw n spherical-GMM samples; returns (d x n matrix, labels).

    Built in place like a multiview view: the draw holds the samples and one
    noise slab.
    """
    _check_count(n, "n")
    rng = stream(seed, 302)
    h = rng.choice(gmm.priors.size, size=n, p=gmm.priors)
    Z = np.take(gmm.means, h, axis=1)
    _add_noise(Z, gmm.sigma, rng)
    return Z, h


def population_third_moment(model):
    """The exact cross-view third moment as a FactoredTensor3."""
    return FactoredTensor3(model.factor, model.priors)


def _budget_check(d):
    if d > DENSE_DIM_LIMIT:
        raise ResourceBudgetError(f"dense moment at d={d} exceeds limit {DENSE_DIM_LIMIT}")


def _sample_moment(Z1, Z2, Z3):
    """(1/n) sum_t z1_t (x) z2_t (x) z3_t over the columns of three d x n
    matrices, as ``DenseTensor3`` rows (``tensors._dense_rows``): the
    d^2 x d mode-1 unfolding, zero-padded to a multiple of ``_BLOCK_ALIGN``
    rows.

    It runs a block of whole i-rows at a time (``tensors._row_blocks``), and
    over a block of r rows sums the samples in fixed chunks of
    ``_MOMENT_CHUNK``, in order: a chunk adds the product of its r x c
    Khatri-Rao rows z1_i z2_j, padded to a multiple of ``_BLOCK_ALIGN`` rows
    (81 unpadded rows at d = 9 gave other bytes than 96), with the transpose
    of Z3's chunk, so each row has the bytes of one d^2-row product.  With
    Z3's chunk on the left, its bytes depended on the BLAS thread count.
    """
    d, n = Z1.shape
    acc, _ = _dense_rows(d)
    blocks = _row_blocks(d, max(d, _MOMENT_CHUNK))
    kr = np.zeros((_padded_rows(blocks[0][1] * d), _MOMENT_CHUNK))
    product = np.empty((len(kr), d))
    for i0, i1 in blocks:
        r = (i1 - i0) * d
        # rows past r only pad the product (a short last block's keep stale values)
        K, P = kr[:_padded_rows(r)], product[:_padded_rows(r)]
        Z1_block, acc_block, P_block = Z1[i0:i1, None], acc[i0 * d:i1 * d], P[:r]
        for lo in range(0, n, _MOMENT_CHUNK):
            s = slice(lo, min(lo + _MOMENT_CHUNK, n))
            np.multiply(Z1_block[..., s], Z2[None, :, s],
                        out=K[:r, : s.stop - lo].reshape(i1 - i0, d, -1))
            np.matmul(K[:, : s.stop - lo], Z3[:, s].T, out=P)
            acc_block += P_block
    acc /= n
    return acc


def empirical_third_moment(batch):
    """Cross-view average (1/n) sum_i z1 (x) z2 (x) z3 as a DenseTensor3."""
    _budget_check(batch.d)
    return DenseTensor3._from_rows(_sample_moment(*batch.views))


class SampleTensor3:
    """The cross-view sample moment T = (1/n) sum_i z1_i (x) z2_i (x) z3_i,
    contracted one of two ways, chosen from its shape.

    When d^2 <= n and d is within ``DENSE_DIM_LIMIT``, the first
    contraction builds T with ``_sample_moment`` and every contraction runs
    through it as a ``DenseTensor3``.  There T holds no more entries than one
    view, and a contraction through it costs 2 d^3 m <= 2 d n m flops for m
    columns, under a third of a pass over the samples (6 d n m); the build
    pays for itself after about d^2 / 3 column passes.

    Otherwise every contraction sums over the samples, without the d^3
    moment: T(I, v, w) = (1/n) sum_i <z2_i, v> <z3_i, w> z1_i, in O(dn)
    per column.  The sum runs over fixed chunks of ``_SAMPLE_CHUNK``
    samples, in order, for a vector pair and for a d x m block pair alike;
    each chunk adds Z1 @ ((Z2^T v) * (Z3^T w)).  A full chunk is a slice of
    each view, not a copy.  The last, short chunk is a copy zero-padded to a
    multiple of ``_BLOCK_ALIGN`` samples, made on the first contraction: a
    ragged one gave block bytes that depended on the BLAS thread count (at
    d = 50 with a 976-sample tail, for one).  A block column's bytes do not
    depend on its neighbours' values, but they do depend on the block's
    padded width (``tensors._BLOCK_ALIGN``).

    Either way it satisfies the contraction protocol the power engine uses,
    so the overcomplete pipeline can run straight off samples.
    """

    def __init__(self, batch):
        self._views = batch.views
        self._Z1 = self._views[0]  # perfbench's flop count reads it
        self._n = n = batch.n
        # the same budget as the other moment builders
        self._summed = self.dim ** 2 > n or self.dim > DENSE_DIM_LIMIT
        self._moment = self._chunks = None

    @property
    def dim(self):
        return self._Z1.shape[0]

    def contract_1(self, v, w):
        if self._summed:
            return self._contract_samples(v, w)
        if self._moment is None:
            self._moment = DenseTensor3._from_rows(_sample_moment(*self._views))
        # looked up at the call, so the moment contracts (and is traced) as dense
        return tensors.contract_1(self._moment, v, w)

    def _contract_samples(self, v, w):
        if self._chunks is None:
            d, n = self._Z1.shape
            full = n - n % _SAMPLE_CHUNK
            self._chunks = [[Z[:, lo : lo + _SAMPLE_CHUNK] for Z in self._views]
                            for lo in range(0, full, _SAMPLE_CHUNK)]
            if full < n:
                tail = np.zeros((3, d, _padded_rows(n - full)))
                for t, Z in zip(tail, self._views):
                    t[:, : n - full] = Z[:, full:]
                self._chunks.append(tail)
        # The temporaries are allocated once per call: fresh ones for every
        # chunk made learn_multiview 1.2-1.8 times slower at d = 50 to 150.
        acc, product = np.zeros(np.shape(v)), np.empty(np.shape(v))
        u_buf, t_buf = np.empty((2, _SAMPLE_CHUNK) + np.shape(v)[1:])
        for Z1, Z2, Z3 in self._chunks:
            u, t = u_buf[: Z1.shape[1]], t_buf[: Z1.shape[1]]
            np.matmul(Z2.T, v, out=u)
            u *= np.matmul(Z3.T, w, out=t)
            acc += np.matmul(Z1, u, out=product)
        return acc / self._n


def _sigma_correction(mean_vec, sigma):
    d = mean_vec.size
    eye = np.eye(d)
    corr = (
        np.einsum("i,jl->ijl", mean_vec, eye)
        + np.einsum("j,il->ijl", mean_vec, eye)
        + np.einsum("l,ij->ijl", mean_vec, eye)
    )
    return sigma * sigma * corr


def gmm_modified_moment(gmm, samples):
    """Empirical plug-in of the sigma-corrected third moment M3.

    ``samples`` is a d x n matrix of GMM draws.  Uses the empirical mean in
    the correction term; sigma is taken as known from the model.
    """
    Z = np.asarray(samples, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] != gmm.means.shape[0]:
        raise InvalidArgumentError("samples must be d x n with the model's d")
    d = Z.shape[0]
    _budget_check(d)
    rows = _sample_moment(Z, Z, Z)
    rows[: d * d] -= _sigma_correction(Z.mean(axis=1), gmm.sigma).reshape(d * d, d)
    return DenseTensor3._from_rows(rows)


def gmm_population_modified_moment(gmm):
    """Analytic population M3, computed via the Gaussian moment expansion.

    E[z (x) z (x) z] for one component a with noise sigma*g expands to
    a^(x)3 + sigma^2 (a (x) I + I-permutations); mixing over priors and
    subtracting the correction built from the exact mean cancels every
    sigma^2 term, leaving sum_j priors_j a_j^(x)3 (verified entrywise by the
    test suite's independent monomial oracle).
    """
    A, lam, sig = gmm.means, gmm.priors, gmm.sigma
    _budget_check(A.shape[0])
    raw = np.einsum("j,ij,kj,lj->ikl", lam, A, A, A)
    for j in range(lam.size):
        raw = raw + lam[j] * _sigma_correction(A[:, j], sig)
    mean_vec = A @ lam
    rows, cube = _dense_rows(A.shape[0])
    np.subtract(raw, _sigma_correction(mean_vec, sig), out=cube)
    return DenseTensor3._from_rows(rows)


@dataclass
class SnrReport:
    """Signal-to-noise accounting for a batch (expected ||a|| over expected ||eta||)."""

    empirical: float
    theoretical: float


def snr(batch, model):
    """Measured SNR of view 1: 1 / mean ||z - a_h||, plus the spherical theory value.

    Needs labels (evaluation context).  Returns infinity for a noiseless
    batch, as a distinguished value.  The residual norms are taken one slice
    of at most ``_SLAB`` doubles at a time, so no view-sized residual exists.
    """
    if batch.labels is None:
        raise InvalidArgumentError("snr needs a labeled batch")
    F, Z, labels = model.factor, batch.views[0], batch.labels
    d, n = Z.shape
    norms = np.empty(n)
    step = max(2, _SLAB // d)
    for lo in range(0, n, step):
        # numpy sums a one-column slice pairwise, not row by row as it does a
        # wider one, so a last slice of one column is widened to two
        s = slice(max(0, min(lo, n - 2)), lo + step)
        # the arithmetic of np.linalg.norm(Z - F[:, labels], axis=0), in one buffer
        resid = np.take(F, labels[s], axis=1)
        np.subtract(Z[:, s], resid, out=resid)
        resid *= resid
        norms[s] = np.add.reduce(resid, axis=0)
        del resid  # freed before the next slice is gathered
    mean_noise = float(np.mean(np.sqrt(norms, out=norms)))
    zeta = model.noise_scale
    theo = float("inf") if zeta == 0 else 1.0 / (zeta * np.sqrt(model.dim))
    emp = float("inf") if mean_noise == 0 else 1.0 / mean_noise
    return SnrReport(empirical=emp, theoretical=theo)
