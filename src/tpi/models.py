"""Generative samplers and moment-tensor estimators for mixture models.

Multiview mixture: a hidden state h ~ Categorical(priors) picks a column, and
each of p >= 3 views observes z_l = F_l h + eta_l with independent spherical
Gaussian noise (per-entry std zeta).  The cross-view third moment
E[z_1 (x) z_2 (x) z_3] equals sum_j priors_j a_j^{(x)3}, which is what the
decomposition pipeline consumes.

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

from .container import load_matrix, save_matrix
from .errors import InvalidArgumentError, ResourceBudgetError
from .rng import stream
from .tensors import DENSE_DIM_LIMIT, DenseTensor3, FactoredTensor3, _as_unit_columns

_CHUNK = 65536  # fixed accumulation chunk so summation order never varies
# Sample chunk of SampleTensor3.contract_1.  It keeps each BLAS sum short:
# OpenBLAS splits a 20000-sample vector product across its threads, so the
# bytes depended on their count.
_SAMPLE_CHUNK = 1024
# SampleTensor3.contract_1 walks its chunks in groups whose temporaries hold
# at most this many doubles (1 MB): a vector takes 128 chunks per group, a
# 32-column block 4 and a block of more than 64 columns 1.
_GROUP_DOUBLES = 1 << 17
# Sample noise is drawn, and SNR residuals are formed, in slabs of at most this
# many doubles (1 MB), so neither holds a second array the size of a view.
_SLAB = 1 << 17


def _check_simplex(priors, k):
    p = np.ascontiguousarray(priors, dtype=np.float64)
    if p.shape != (k,):
        raise InvalidArgumentError("priors must have length k")
    if np.any(p <= 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise InvalidArgumentError("priors must be positive and sum to 1 within 1e-12")
    return p


class MixtureModel:
    """Multiview mixture parameters.

    ``factor`` is a single d x k matrix, or a tuple of three matrices for the
    asymmetric variant (one per view; requires views == 3).  Each view adds
    spherical Gaussian noise with per-entry std ``noise_scale``.
    """

    def __init__(self, factor, priors, noise_scale=0.0, views=3):
        if isinstance(factor, (tuple, list)):
            if len(factor) != 3:
                raise InvalidArgumentError("asymmetric variant needs exactly three matrices")
            self.factors = tuple(_as_unit_columns(F, "factor") for F in factor)
            if len({F.shape for F in self.factors}) != 1:
                raise InvalidArgumentError("per-view factors must share shape")
            if views != 3:
                raise InvalidArgumentError("asymmetric variant requires views == 3")
        else:
            self.factors = (_as_unit_columns(factor, "factor"),)
        if views < 3:
            raise InvalidArgumentError("need at least 3 views")
        self.views = int(views)
        d, k = self.factors[0].shape
        self.priors = _check_simplex(priors, k)
        if noise_scale < 0:
            raise InvalidArgumentError("noise_scale must be >= 0")
        self.noise_scale = float(noise_scale)
        self.dim = d
        self.rank = k

    def factor_for_view(self, l):
        return self.factors[l] if len(self.factors) == 3 else self.factors[0]

    @property
    def is_asymmetric(self):
        return len(self.factors) == 3


class SampleBatch:
    """Observations from a multiview draw: one d x n matrix per view.

    ``labels`` holds the true hidden states and exists for evaluation only;
    decomposition code never reads it.
    """

    def __init__(self, views, labels=None):
        self.views = [np.ascontiguousarray(V, dtype=np.float64) for V in views]
        shapes = {V.shape for V in self.views}
        if len(shapes) != 1 or self.views[0].ndim != 2:
            raise InvalidArgumentError("all views must share the same d x n shape")
        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        if self.labels is not None and self.labels.shape != (self.views[0].shape[1],):
            raise InvalidArgumentError("labels must have length n")

    @property
    def d(self):
        return self.views[0].shape[0]

    @property
    def n(self):
        return self.views[0].shape[1]

    @property
    def p(self):
        return len(self.views)

    def save(self, prefix, meta=None):
        base = dict(meta or {})
        base["views"] = self.p
        if self.labels is not None:
            base["labels"] = self.labels.tolist()
        for l, V in enumerate(self.views):
            save_matrix(f"{prefix}.view{l}.tpi3", V, base if l == 0 else None)

    @classmethod
    def load(cls, prefix):
        M0, meta = load_matrix(f"{prefix}.view0.tpi3")
        if meta is None or "views" not in meta:
            raise InvalidArgumentError(f"{prefix}: missing sidecar with view count")
        views = [M0] + [load_matrix(f"{prefix}.view{l}.tpi3")[0] for l in range(1, meta["views"])]
        labels = np.asarray(meta["labels"], dtype=np.int64) if "labels" in meta else None
        return cls(views, labels)


@dataclass
class SphericalGmm:
    """Mixture of spherical Gaussians with known per-coordinate std sigma."""

    means: np.ndarray
    priors: np.ndarray
    sigma: float

    def __post_init__(self):
        self.means = _as_unit_columns(self.means, "means")
        self.priors = _check_simplex(self.priors, self.means.shape[1])
        if self.sigma < 0:
            raise InvalidArgumentError("sigma must be >= 0")


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
    if n < 1:
        raise InvalidArgumentError("need n >= 1")
    rng = stream(seed, 301)
    h = rng.choice(model.rank, size=n, p=model.priors)
    views = []
    for l in range(model.views):
        Z = np.take(model.factor_for_view(l), h, axis=1)
        if model.noise_scale > 0:
            _add_noise(Z, model.noise_scale, rng)
        views.append(Z)
    return SampleBatch(views, labels=h)


def sample_gmm(gmm, n, seed):
    """Draw n spherical-GMM samples; returns (d x n matrix, labels).

    Built in place like a multiview view: the draw holds the samples and one
    noise slab.
    """
    if n < 1:
        raise InvalidArgumentError("need n >= 1")
    rng = stream(seed, 302)
    h = rng.choice(gmm.priors.size, size=n, p=gmm.priors)
    Z = np.take(gmm.means, h, axis=1)
    _add_noise(Z, gmm.sigma, rng)
    return Z, h


def population_third_moment(model):
    """The exact cross-view third moment as a FactoredTensor3."""
    if model.is_asymmetric:
        A, B, C = model.factors
        return FactoredTensor3(A, model.priors, B, C)
    return FactoredTensor3(model.factors[0], model.priors)


def _budget_check(d):
    if d > DENSE_DIM_LIMIT:
        raise ResourceBudgetError(f"dense moment at d={d} exceeds limit {DENSE_DIM_LIMIT}")


def _sample_sum(Z1, Z2, Z3):
    """sum_t z1_t (x) z2_t (x) z3_t over the columns of three d x n matrices,
    accumulated over fixed ``_CHUNK``-sample chunks."""
    d, n = Z1.shape
    acc = np.zeros((d,) * 3)
    for lo in range(0, n, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n))
        acc += np.einsum("it,jt,lt->ijl", Z1[:, sl], Z2[:, sl], Z3[:, sl])
    return acc


def empirical_third_moment(batch):
    """Cross-view average (1/n) sum_i z1 (x) z2 (x) z3 as a DenseTensor3."""
    if batch.p < 3:
        raise InvalidArgumentError("need at least three views")
    _budget_check(batch.d)
    acc = _sample_sum(*batch.views[:3])
    return DenseTensor3(acc / batch.n, symmetric=False, check=False)


class SampleTensor3:
    """Implicit sample-sum tensor: contractions without materializing d**3.

    T(I, v, w) = (1/n) sum_i <z2_i, v> <z3_i, w> z1_i, computed in O(dn).
    Satisfies the same contraction protocol the power engine uses, so the
    overcomplete pipeline can run straight off samples.  The sum runs over
    fixed chunks of ``_SAMPLE_CHUNK`` samples, for a vector pair and for a
    d x m block pair alike.  The full chunks of each view are one strided
    (n_chunks, d, chunk) view of it, so a group of chunks is one stacked
    matmul per operand, made inside numpy without the GIL.  Each chunk is
    still its own BLAS call with the shapes and leading dimensions of a plain
    slice, and the chunk products are added in chunk order, so the bytes are
    those of a per-chunk loop.
    """

    def __init__(self, batch):
        if batch.p < 3:
            raise InvalidArgumentError("need at least three views")
        views = batch.views[:3]
        self._Z1 = views[0]
        self._n = n = batch.n
        d, full = self.dim, n - n % _SAMPLE_CHUNK
        # Each stack is three (chunks, d, samples) views: the full chunks,
        # then the tail as a stack of one.
        self._stacks = []
        if full:
            self._stacks.append(tuple(
                Z[:, :full].reshape(d, full // _SAMPLE_CHUNK, _SAMPLE_CHUNK).transpose(1, 0, 2)
                for Z in views))
        if full < n:
            self._stacks.append(tuple(Z[None, :, full:] for Z in views))

    @property
    def dim(self):
        return self._Z1.shape[0]

    def contract_1(self, v, w):
        d = self.dim
        V = np.reshape(v, (d, -1))
        W = np.reshape(w, (d, -1))
        m = V.shape[1]
        acc = np.zeros(V.shape)
        group = max(1, _GROUP_DOUBLES // (max(_SAMPLE_CHUNK, d) * m))
        # The group temporaries are allocated once per call: allocated per
        # group, the allocator can hand them back to the OS every time.
        u_buf, t_buf = np.empty((2, group * _SAMPLE_CHUNK * m))
        p_buf = np.empty(group * d * m)
        for Z1, Z2, Z3 in self._stacks:
            for lo in range(0, len(Z1), group):
                s = slice(lo, lo + group)
                g, c = min(group, len(Z1) - lo), Z1.shape[2]
                u = np.matmul(Z2[s].mT, V, out=u_buf[: g * c * m].reshape(g, c, m))
                u *= np.matmul(Z3[s].mT, W, out=t_buf[: g * c * m].reshape(g, c, m))
                for product in np.matmul(Z1[s], u, out=p_buf[: g * d * m].reshape(g, d, m)):
                    acc += product
        return (acc / self._n).reshape(np.shape(v))


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
    _budget_check(Z.shape[0])
    raw = _sample_sum(Z, Z, Z) / Z.shape[1]
    return DenseTensor3(raw - _sigma_correction(Z.mean(axis=1), gmm.sigma),
                        symmetric=True, check=False)


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
    return DenseTensor3(raw - _sigma_correction(mean_vec, sig), symmetric=True, check=False)


@dataclass
class SnrReport:
    """Signal-to-noise accounting for a batch (expected ||a|| over expected ||eta||)."""

    empirical: float
    theoretical: float
    noise_scale: float
    expected_noise_norm: float


def snr(batch, model):
    """Measured SNR of view 1: 1 / mean ||z - a_h||, plus the spherical theory value.

    Needs labels (evaluation context).  Returns infinity for a noiseless
    batch, as a distinguished value.  The residual norms are taken one slice
    of at most ``_SLAB`` doubles at a time, so no view-sized residual exists.
    """
    if batch.labels is None:
        raise InvalidArgumentError("snr needs a labeled batch")
    F, Z, labels = model.factor_for_view(0), batch.views[0], batch.labels
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
    return SnrReport(
        empirical=emp,
        theoretical=theo,
        noise_scale=zeta,
        expected_noise_norm=zeta * np.sqrt(model.dim),
    )
