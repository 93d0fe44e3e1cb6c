"""Third-order tensor types and multilinear contractions.

Two representations are used throughout:

* ``FactoredTensor3`` — a rank-k CP form ``T = sum_j w_j a_j (x) b_j (x) c_j``
  with unit-norm columns.  All hot-path contractions run in O(dk) against this
  form.  The symmetric case (a single component matrix) is the default; three
  distinct per-mode matrices give the asymmetric variant.
* ``DenseTensor3`` — an explicit ``d**3`` array, used as a brute-force oracle
  at small d and to carry arbitrary perturbations.

The mode-1 contraction ``T(I, v, w)`` is the workhorse: for the factored form

    T(I, v, w) = sum_j w_j <b_j, v> <c_j, w> a_j

and for the dense form the explicit double sum over the trailing two indices.
Each representation implements it as a ``contract_1(v, w)`` method; the
module-level ``contract_1`` checks the probes and dispatches to it.  Given
d x m blocks V and W it returns the d x m block of T(I, v_j, w_j), one BLAS-3
product instead of m vector products.
"""

import numpy as np

from .errors import InvalidArgumentError, ResourceBudgetError
from .rng import stream

# Densifying a tensor costs d**3 floats; refuse beyond this edge length.
DENSE_DIM_LIMIT = 256

# Block contractions run on C-ordered copies padded to a multiple of this
# width.  OpenBLAS rounds a column differently depending on the block's memory
# order, its width and where the thread split falls; on C-ordered widths that
# are multiples of 32 a column comes out the same in any block and for 1-4
# BLAS threads (OpenBLAS 0.3.31, SkylakeX kernels).
_BLOCK_ALIGN = 32


def _as_unit_columns(M, name, tol=1e-10):
    M = np.ascontiguousarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise InvalidArgumentError(f"{name} must be a 2-d array, got shape {M.shape}")
    norms = np.linalg.norm(M, axis=0)
    if not np.all(np.abs(norms - 1.0) <= tol):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise InvalidArgumentError(
            f"{name} columns must be unit norm within {tol:g} (worst deviation {worst:.3e})"
        )
    return M


class FactoredTensor3:
    """Rank-k CP representation with unit-norm components.

    Parameters
    ----------
    components : (d, k) array
        Column j is the mode-1 (and, for the symmetric case, mode-2/3)
        direction a_j.  Columns must have unit Euclidean norm.
    weights : (k,) array
        Scalar weight per rank-one term; all nonzero.
    components_b, components_c : (d, k) arrays, optional
        Per-mode matrices for the asymmetric variant.  Omit both for a
        symmetric tensor.  Supplying only one is an error.
    """

    def __init__(self, components, weights, components_b=None, components_c=None):
        A = _as_unit_columns(components, "components")
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != A.shape[1]:
            raise InvalidArgumentError("weights must be a vector of length k")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise InvalidArgumentError("need dim >= 1 and rank >= 1")
        if np.any(w == 0.0) or not np.all(np.isfinite(w)):
            raise InvalidArgumentError("weights must be finite and nonzero")
        if (components_b is None) != (components_c is None):
            raise InvalidArgumentError("asymmetric form needs both components_b and components_c")
        self.components = A
        self.weights = w
        if components_b is None:
            self.components_b = A
            self.components_c = A
            self.is_symmetric = True
        else:
            B = _as_unit_columns(components_b, "components_b")
            C = _as_unit_columns(components_c, "components_c")
            if B.shape != A.shape or C.shape != A.shape:
                raise InvalidArgumentError("per-mode component matrices must share shape")
            self.components_b = B
            self.components_c = C
            self.is_symmetric = False
        for arr in (self.components, self.components_b, self.components_c, self.weights):
            arr.flags.writeable = False

    @property
    def dim(self):
        return self.components.shape[0]

    @property
    def rank(self):
        return self.components.shape[1]

    def contract_1(self, v, w):
        pb = self.components_b.T @ v
        pc = self.components_c.T @ w
        weights = self.weights if v.ndim == 1 else self.weights[:, None]
        return self.components @ (weights * pb * pc)

    def __repr__(self):
        kind = "symmetric" if self.is_symmetric else "asymmetric"
        return f"FactoredTensor3(d={self.dim}, k={self.rank}, {kind})"


class DenseTensor3:
    """Explicit d x d x d tensor; entry (i, j, l) lives at offset i*d*d + j*d + l."""

    def __init__(self, entries, symmetric=False, check=True):
        E = np.ascontiguousarray(entries, dtype=np.float64)
        if E.ndim != 3 or len(set(E.shape)) != 1:
            raise InvalidArgumentError(f"entries must be a cubic 3-d array, got {E.shape}")
        self.entries = E
        self.symmetric = bool(symmetric)
        if self.symmetric and check:
            self._check_symmetry()
        self.entries.flags.writeable = False

    def _check_symmetry(self, rtol=1e-9):
        E = self.entries
        scale = max(float(np.max(np.abs(E))), 1e-30)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            if np.max(np.abs(E - E.transpose(perm))) > rtol * scale:
                raise InvalidArgumentError("tensor flagged symmetric fails the symmetry check")

    @property
    def dim(self):
        return self.entries.shape[0]

    def contract_1(self, v, w):
        d = self.dim
        if v.ndim == 1:
            # contract the last mode, then the middle one: two sums of length
            # d, whose bytes do not depend on the BLAS thread count, where
            # the unfolding times vec(v w^T) sums d^2 terms and does
            return (self.entries.reshape(d * d, d) @ w).reshape(d, d) @ v
        # the d x d^2 unfolding times the Khatri-Rao block, summed slab by
        # slab in a fixed order: one d^2-long BLAS sum would round
        # differently for different BLAS thread counts
        out = np.zeros(v.shape)
        for j in range(d):
            out += self.entries[:, j, :] @ (v[j] * w)
        return out

    def __repr__(self):
        return f"DenseTensor3(d={self.dim}, symmetric={self.symmetric})"


class PerturbedTensor:
    """A factored signal plus an arbitrary dense perturbation of the same dim."""

    def __init__(self, signal, noise):
        if not isinstance(signal, FactoredTensor3) or not isinstance(noise, DenseTensor3):
            raise InvalidArgumentError("PerturbedTensor needs (FactoredTensor3, DenseTensor3)")
        if signal.dim != noise.dim:
            raise InvalidArgumentError("signal and noise dims differ")
        self.signal = signal
        self.noise = noise

    @property
    def dim(self):
        return self.signal.dim

    def contract_1(self, v, w):
        # through the module-level function, so each part is dispatched (and
        # can be traced) as a contraction of its own representation
        return contract_1(self.signal, v, w) + contract_1(self.noise, v, w)


def _check_probe(tensor, v, name):
    v = np.asarray(v, dtype=np.float64)
    if v.shape[:1] != (tensor.dim,) or v.ndim > 2 or v.size == 0:
        raise InvalidArgumentError(
            f"{name} must have length {tensor.dim} or be a {tensor.dim} x m block, "
            f"got shape {v.shape}")
    return v


def contract_1(tensor, v, w):
    """Mode-1 contraction T(I, v, w) -> vector of length d.

    Checks the probes and calls ``tensor.contract_1(v, w)``, which every
    representation implements: factored in O(dk), dense as the explicit
    double sum in O(d^3), perturbed as the sum of its two parts.

    With d x m blocks ``v`` and ``w`` it returns the d x m block whose column
    j is T(I, v_j, w_j).  The block runs as a C-ordered copy zero-padded to a
    multiple of ``_BLOCK_ALIGN`` columns, so that a column's bytes do not
    depend on the other columns or on the BLAS thread count.
    """
    v = _check_probe(tensor, v, "v")
    w = _check_probe(tensor, w, "w")
    if v.shape != w.shape:
        raise InvalidArgumentError(f"v and w shapes differ: {v.shape} vs {w.shape}")
    if v.ndim == 1:
        return tensor.contract_1(v, w)
    d, m = v.shape
    width = -(-m // _BLOCK_ALIGN) * _BLOCK_ALIGN
    vp, wp = np.zeros((d, width)), np.zeros((d, width))
    vp[:, :m], wp[:, :m] = v, w
    return tensor.contract_1(vp, wp)[:, :m]


def contract_scalar(tensor, u, v, w):
    """Full contraction T(u, v, w) -> scalar."""
    u = _check_probe(tensor, u, "u")
    return float(u @ contract_1(tensor, v, w))


def densify(tensor, dim_limit=DENSE_DIM_LIMIT):
    """Materialize a FactoredTensor3 as a DenseTensor3 (oracle bridge).

    Refuses d > dim_limit (d**3 floats) with a resource error.
    """
    if not isinstance(tensor, FactoredTensor3):
        raise InvalidArgumentError("densify expects a FactoredTensor3")
    if tensor.dim > dim_limit:
        raise ResourceBudgetError(
            f"refusing to densify d={tensor.dim} > limit {dim_limit} (d**3 entries)"
        )
    E = np.einsum(
        "j,ij,kj,lj->ikl",
        tensor.weights,
        tensor.components,
        tensor.components_b,
        tensor.components_c,
    )
    return DenseTensor3(E, symmetric=tensor.is_symmetric, check=False)


def _average_orbits(E):
    """Average a cubic float64 array over its six index permutations, in place.

    The entries whose smallest index is i sit in the plane E[i, i:, i:] and
    the slices E[i:, i, i:] and E[i:, i:, i]; with s their sum, entry (j, l)
    of (s + s^T) / 6 is the mean of the orbit of (i, i+j, i+l).  All three
    are read before any is written, and every permutation of an entry gets
    the same bits, so the result is exactly symmetric.
    """
    d = E.shape[0]
    s_buf, u_buf = np.empty(d * d), np.empty(d * d)
    for i in range(d):
        m = d - i
        s, u = s_buf[:m * m].reshape(m, m), u_buf[:m * m].reshape(m, m)
        a, b, c = E[i, i:, i:], E[i:, i, i:], E[i:, i:, i]
        np.add(a, b, out=s)
        s += c
        np.add(s, s.T, out=u)
        u /= 6.0
        a[...] = u
        b[...] = u
        c[...] = u
    return E


def symmetrize(entries):
    """Average an arbitrary cubic array over all six index permutations."""
    E = np.array(entries, dtype=np.float64, order="C")
    if E.ndim != 3 or len(set(E.shape)) != 1:
        raise InvalidArgumentError(f"entries must be a cubic 3-d array, got {E.shape}")
    return DenseTensor3(_average_orbits(E), symmetric=True, check=False)


def random_components(d, k, seed):
    """Draw a d x k component matrix whose columns are i.i.d. uniform on the
    unit sphere (exactly unit norm)."""
    if d < 1 or k < 1:
        raise InvalidArgumentError("need d >= 1 and k >= 1")
    G = stream(seed, 101).standard_normal((d, k))
    return G / np.linalg.norm(G, axis=0)


def spectral_norm_estimate(tensor, restarts=8, iters=20, seed=0):
    """Lower-bound estimate of the tensor spectral norm max_x |T(x,x,x)|.

    Runs symmetric power iteration from ``restarts`` random unit starts and
    returns the largest |T(x,x,x)| seen at any visited point.  This is a
    lower bound on the true spectral norm (the estimator can only fail low),
    is monotone nondecreasing in ``restarts`` for a fixed seed, and is exactly
    positively homogeneous: scaling the tensor by c scales the estimate by
    |c| because normalized trajectories are scale-invariant.
    """
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    d = tensor.dim
    best = 0.0
    for r in range(restarts):
        rng = stream(seed, 202, r)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        for _ in range(iters):
            v = contract_1(tensor, x, x)
            score = abs(float(x @ v))
            if score > best:
                best = score
            nrm = float(np.linalg.norm(v))
            if nrm < 1e-300:
                break  # zero tensor (or an exact critical zero): score stays 0
            x = v / nrm
        v = contract_1(tensor, x, x)
        best = max(best, abs(float(x @ v)))
    return best


def scale_noise_to(noise, target_spectral_norm, seed=0, restarts=8, iters=20):
    """Rescale a dense tensor so its spectral-norm estimate hits the target.

    Because the estimator is exactly homogeneous (same seed, same starts, and
    power trajectories ignore scale), the rescaled tensor's fresh estimate
    equals ``target_spectral_norm`` up to floating-point rounding — no
    re-estimation loop is needed.
    """
    if not isinstance(noise, DenseTensor3):
        raise InvalidArgumentError("scale_noise_to expects a DenseTensor3")
    if target_spectral_norm < 0:
        raise InvalidArgumentError("target spectral norm must be >= 0")
    current = spectral_norm_estimate(noise, restarts=restarts, iters=iters, seed=seed)
    if current == 0.0:
        raise InvalidArgumentError("cannot rescale a zero tensor")
    factor = target_spectral_norm / current
    return DenseTensor3(noise.entries * factor, symmetric=noise.symmetric, check=False)
