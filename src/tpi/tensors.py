"""Third-order tensor types and multilinear contractions.

Two representations are used throughout:

* ``FactoredTensor3`` — a symmetric rank-k CP form
  ``T = sum_j w_j a_j (x) a_j (x) a_j`` with unit-norm columns.  All hot-path
  contractions run in O(dk) against this form.
* ``DenseTensor3`` — an explicit ``d**3`` array, used as a brute-force oracle
  at small d and to carry arbitrary perturbations.  Its subclass
  ``PackedSymmetricTensor3`` holds an exactly symmetric tensor once per
  unordered index pair, in half the bytes.

The mode-1 contraction ``T(I, v, w)`` is the workhorse: for the factored form

    T(I, v, w) = sum_j w_j <a_j, v> <a_j, w> a_j

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
# BLAS threads (OpenBLAS 0.3.31, SkylakeX kernels).  The exception is a
# sample tensor contracted over its samples (d^2 > n): there a column's bytes
# depend on the padded width, though not on its neighbours' values (at
# d = 51, n = 2500, 9 and 20 columns agree, 40 and 60 agree, 9 and 40
# differ).  Taking the final Z1 @ u product in 32-column slabs made every
# width agree at d = 15, 31, 51, 64 and 101, but cost 11-24% per 224-column
# call and about 14% on learn_multiview at d = 100 and 150, so it is left
# for a rework of that kernel.
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
    """Symmetric rank-k CP representation with unit-norm components.

    Parameters
    ----------
    components : (d, k) array
        Column j is the direction a_j of every mode.  Columns must have unit
        Euclidean norm.
    weights : (k,) array
        Scalar weight per rank-one term; all nonzero.
    """

    def __init__(self, components, weights):
        A = _as_unit_columns(components, "components")
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != A.shape[1]:
            raise InvalidArgumentError("weights must be a vector of length k")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise InvalidArgumentError("need dim >= 1 and rank >= 1")
        if np.any(w == 0.0) or not np.all(np.isfinite(w)):
            raise InvalidArgumentError("weights must be finite and nonzero")
        self.components = A
        self.weights = w
        for arr in (A, w):
            arr.flags.writeable = False

    @property
    def dim(self):
        return self.components.shape[0]

    @property
    def rank(self):
        return self.components.shape[1]

    def contract_1(self, v, w):
        A = self.components
        weights = self.weights if v.ndim == 1 else self.weights[:, None]
        return A @ (weights * (A.T @ v) * (A.T @ w))

    def __repr__(self):
        return f"FactoredTensor3(d={self.dim}, k={self.rank})"


def _padded_rows(count):
    """``count`` rounded up to a multiple of ``_BLOCK_ALIGN``."""
    return -(-count // _BLOCK_ALIGN) * _BLOCK_ALIGN


def _dense_rows(d):
    """Zeroed ``DenseTensor3`` rows at dim d, and the (d, d, d) view of their
    first d^2 rows, for a builder to write its tensor into."""
    rows = np.zeros((_padded_rows(d * d), d))
    return rows, rows[:d * d].reshape(d, d, d)


class DenseTensor3:
    """Explicit d x d x d tensor; entry (i, j, l) lives at offset i*d*d + j*d + l.

    It is held as ``rows``, its d^2 x d mode-1 unfolding zero-padded to a
    multiple of ``_BLOCK_ALIGN`` rows, so that the BLAS thread split of
    ``rows @ w`` falls on whole row groups.  ``entries`` is a read-only
    (d, d, d) view of its first d^2 rows.  The constructor copies a cube into
    such rows; the builders in this package write into ``_dense_rows`` and
    wrap them with ``_from_rows``, without a copy.
    """

    def __init__(self, entries):
        E = np.asarray(entries, dtype=np.float64)
        if E.ndim != 3 or len(set(E.shape)) != 1:
            raise InvalidArgumentError(f"entries must be a cubic 3-d array, got {E.shape}")
        rows, cube = _dense_rows(E.shape[0])
        cube[...] = E
        self.rows = rows
        self.rows.flags.writeable = False

    @classmethod
    def _from_rows(cls, rows):
        """Hold rows from ``_dense_rows`` as the tensor, without a copy."""
        tensor = cls.__new__(cls)
        tensor.rows = rows
        tensor.rows.flags.writeable = False
        return tensor

    @property
    def dim(self):
        return self.rows.shape[1]

    @property
    def entries(self):
        d = self.dim
        return self.rows[:d * d].reshape(d, d, d)

    def contract_1(self, v, w):
        d = self.dim
        if v.ndim == 1:
            # contract the last mode, then the middle one: two sums of length
            # d, whose bytes do not depend on the BLAS thread count, where
            # the unfolding times vec(v w^T) sums d^2 terms and does
            return (self.rows @ w)[:d * d].reshape(d, d) @ v
        # the d x d^2 unfolding times the Khatri-Rao block, summed slab by
        # slab in a fixed order: one d^2-long BLAS sum would round
        # differently for different BLAS thread counts
        E = self.entries
        out = np.zeros(v.shape)
        for j in range(d):
            out += E[:, j, :] @ (v[j] * w)
        return out

    def __repr__(self):
        return f"DenseTensor3(d={self.dim})"


def _pair_row_count(d):
    """Rows of the packed layout: d(d+1)/2 pairs, padded to ``_BLOCK_ALIGN``."""
    return _padded_rows(d * (d + 1) // 2)


class PackedSymmetricTensor3(DenseTensor3):
    """An exactly symmetric d x d x d tensor held once per unordered index pair.

    Row p of ``rows`` is E[a, b, :] for the p-th pair a <= b in lexicographic
    order, p = a*d - a*(a+1)/2 + b: the rows a <= b of the d^2 x d mode-1
    unfolding, zero-padded to a multiple of ``_BLOCK_ALIGN`` rows so that
    the BLAS thread split of ``rows @ w`` falls on whole row groups.  The
    d x d table ``pair`` maps (a, b) and (b, a) to that row.

    ``entries`` unpacks a read-only d^3 copy, for oracles and for
    ``scale_noise_to``; the contractions read only the rows.
    """

    def __init__(self, rows):
        R = np.ascontiguousarray(rows, dtype=np.float64)
        if R.ndim != 2 or R.shape[1] < 1 or R.shape[0] != _pair_row_count(R.shape[1]):
            raise InvalidArgumentError(
                f"rows must be a d(d+1)/2 x d array padded to {_BLOCK_ALIGN} rows, "
                f"got shape {R.shape}")
        self.rows = R
        self.rows.flags.writeable = False
        d = R.shape[1]
        a = np.arange(d)
        self.pair = (a * d - a * (a + 1) // 2)[np.minimum.outer(a, a)] + np.maximum.outer(a, a)

    @property
    def entries(self):
        E = np.take(self.rows, self.pair, axis=0)
        E.flags.writeable = False
        return E

    def contract_1(self, v, w):
        # row (a, b) of rows @ w sums the same d terms in the same order as
        # row (a, b) of the full unfolding does, and E[a, b] = E[b, a] bit
        # for bit, so the gather is DenseTensor3's d x d intermediate
        if v.ndim == 1:
            return np.take(self.rows @ w, self.pair) @ v
        G = np.take(self.rows @ w, self.pair, axis=0)
        out = np.zeros(v.shape)
        for j in range(self.dim):
            out += G[:, j] * v[j]
        return out

    def __repr__(self):
        return f"PackedSymmetricTensor3(d={self.dim})"


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
    depend on the other columns or on the BLAS thread count (over a sample
    tensor's samples they depend on the padded width; see ``_BLOCK_ALIGN``).
    """
    v = _check_probe(tensor, v, "v")
    w = _check_probe(tensor, w, "w")
    if v.shape != w.shape:
        raise InvalidArgumentError(f"v and w shapes differ: {v.shape} vs {w.shape}")
    if v.ndim == 1:
        return tensor.contract_1(v, w)
    d, m = v.shape
    width = _padded_rows(m)
    vp, wp = np.zeros((d, width)), np.zeros((d, width))
    vp[:, :m], wp[:, :m] = v, w
    return tensor.contract_1(vp, wp)[:, :m]


def contract_scalar(tensor, u, v, w):
    """Full contraction T(u, v, w) -> scalar."""
    u = _check_probe(tensor, u, "u")
    return float(u @ contract_1(tensor, v, w))


def densify(tensor):
    """Materialize a FactoredTensor3 as a DenseTensor3 (oracle bridge).

    Refuses d > ``DENSE_DIM_LIMIT`` (d**3 floats) with a resource error.
    """
    if not isinstance(tensor, FactoredTensor3):
        raise InvalidArgumentError("densify expects a FactoredTensor3")
    if tensor.dim > DENSE_DIM_LIMIT:
        raise ResourceBudgetError(
            f"refusing to densify d={tensor.dim} > limit {DENSE_DIM_LIMIT} (d**3 entries)")
    A = tensor.components
    rows, cube = _dense_rows(tensor.dim)
    np.einsum("j,ij,kj,lj->ikl", tensor.weights, A, A, A, out=cube)
    return DenseTensor3._from_rows(rows)


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
        np.add(E[i, i:, i:], E[i:, i, i:], out=s)
        s += E[i:, i:, i]
        np.add(s, s.T, out=u)
        u /= 6.0
        E[i, i:, i:] = u
        E[i:, i, i:] = u
        E[i:, i:, i] = u
    return E


def _symmetric_normal_rows(d, rng):
    """The ``PackedSymmetricTensor3`` rows of a tensor with the law of
    ``symmetrize`` of an i.i.d. N(0, 1) draw, from one normal per index orbit.

    The average of an orbit's entries is N(0, 1/|orbit|), with |orbit| 1, 3
    or 6 as the sorted index (i, j, l) has three, two or no distinct values
    (i = j = l; two equal; all distinct), and distinct orbits are
    independent.  So each orbit takes one ``rng.standard_normal`` value
    times 1/sqrt(|orbit|): d(d+1)(d+2)/6 normals instead of d^3.

    Draw order: the orbits in lexicographic order of their sorted index
    i <= j <= l, drawn one i at a time (the upper triangle z of the m x m
    plane of i, m = d - i, row by row).  Mirrored, the plane is the rows
    (i, i..d-1) at the columns i..d-1; the triangle past its first row is
    column i of every later row (a, b), i < a <= b, in the same order.
    Every other entry of a row has a smaller index, so an earlier plane
    wrote it.
    """
    n = d * (d + 1) // 2
    rows = np.zeros((_pair_row_count(d), d))
    # entry (r, c) of the plane of i is z[back[i + r, i + c]]: counted from
    # its end, a packed upper triangle is laid out the same for every m
    t = np.arange(d)[::-1]
    hi, lo = np.maximum.outer(t, t), np.minimum.outer(t, t)
    back = -(hi * (hi + 1) // 2 + lo + 1)
    # 1/sqrt(|orbit|) along z: its first row (i, i, i+l), then the rows past
    # it, whose scales are the tail of the largest plane's, 1/sqrt(3) on the
    # diagonal (i, j, j) at s(s+1)/2 from the end (s = d - j)
    first = np.full(d, 1.0 / np.sqrt(3.0))
    first[0] = 1.0
    rest = np.full(n - d, 1.0 / np.sqrt(6.0))
    rest[-(t[:-1] * (t[:-1] + 1) // 2)] = 1.0 / np.sqrt(3.0)
    z_buf = np.empty(n)
    p = 0
    for i in range(d):
        m = d - i
        z = z_buf[:m * (m + 1) // 2]
        rng.standard_normal(out=z)
        z[:m] *= first[:m]
        z[m:] *= rest[rest.size - (z.size - m):]
        rows[p:p + m, i:] = z[back[i:, i:]]
        rows[p + m:n, i] = z[m:]
        p += m
    return rows


def symmetrize(entries):
    """Average an arbitrary cubic array over all six index permutations."""
    E = np.asarray(entries, dtype=np.float64)
    if E.ndim != 3 or len(set(E.shape)) != 1:
        raise InvalidArgumentError(f"entries must be a cubic 3-d array, got {E.shape}")
    rows, cube = _dense_rows(E.shape[0])
    cube[...] = E
    _average_orbits(cube)
    return DenseTensor3._from_rows(rows)


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
    if not 0 <= target_spectral_norm < np.inf:
        raise InvalidArgumentError("target spectral norm must be finite and >= 0")
    current = spectral_norm_estimate(noise, restarts=restarts, iters=iters, seed=seed)
    if current == 0.0:
        raise InvalidArgumentError("cannot rescale a zero tensor")
    factor = target_spectral_norm / current
    rows, cube = _dense_rows(noise.dim)
    np.multiply(noise.entries, factor, out=cube)
    return DenseTensor3._from_rows(rows)
