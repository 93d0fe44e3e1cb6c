"""Empirical checks of the machinery used to analyze overcomplete power
iteration.

Two families live here:

* the dictionary max-correlation norm ``star_norm`` and the quadratic
  progress predicate shared with the dynamics experiments,
* seeded Monte Carlo verification of Gaussian conditioning identities,
  fresh-randomness lower bounds, the mixed-norm contraction bound, and the
  spherical-GMM modified-moment identity.

Everything here measures; nothing proves.  Statistical checks run at a fixed
4-standard-error band and report trial counts, thresholds, and (capped) raw
per-trial statistics so a failure can be audited offline.  All Monte Carlo
loops run over fixed trial blocks, each drawing from its own derived stream;
an experiment's worker pool parallelizes over seeds, not blocks.
"""

import math

import numpy as np

from .errors import InvalidArgumentError
from .models import SphericalGmm, gmm_modified_moment, gmm_population_modified_moment, sample_gmm
from .rng import _one_blas_thread, stream
from .tensors import FactoredTensor3, densify, random_components

_SE_BAND = 4.0
_ORTH_TOL = 1e-10
_TRIAL_BLOCK = 512
_RAW_CAP = 10_000


# ---------------------------------------------------------------------------
# small shared helpers


def _block_sizes(trials, block=_TRIAL_BLOCK):
    sizes = [block] * (trials // block)
    if trials % block:
        sizes.append(trials % block)
    return sizes


def _perp(basis, vec):
    """Component of vec orthogonal to an orthonormal basis list.

    Two modified Gram-Schmidt passes keep the residual orthogonal to the
    basis to ~1e-15 even for nearly dependent inputs.
    """
    w = np.array(vec, dtype=np.float64, copy=True)
    for _ in range(2):
        for q in basis:
            w -= (q @ w) * q
    return w


def _cap(values):
    vals = [float(v) for v in values[:_RAW_CAP]]
    return vals


def _band_test(dev, se):
    """Compare deviations from a closed form with their standard errors.

    Returns the max |dev/se| over the entries with se > 1e-15, and whether
    it is within ``_SE_BAND`` while every other |dev| is within
    ``_ORTH_TOL``.  ``se`` broadcasts against ``dev``.
    """
    se = np.broadcast_to(se, dev.shape)
    live = se > 1e-15
    max_z = float(np.max(np.abs(dev[live] / se[live]), initial=0.0))
    dead_ok = bool(np.all(np.abs(dev[~live]) <= _ORTH_TOL))
    return max_z, max_z <= _SE_BAND and dead_ok


# ---------------------------------------------------------------------------
# dictionary max-correlation norm & quadratic progress predicate


def star_norm(a, u):
    """Max absolute inner product between u and the columns of a.

    Satisfies star_norm(A,u) <= ||A^T u||_2 <= sqrt(k) * star_norm(A,u).
    """
    mat = np.asarray(getattr(a, "components", a), dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if mat.ndim != 2 or u.ndim != 1 or mat.shape[0] != u.shape[0]:
        raise InvalidArgumentError("need a d x k matrix and a length-d vector")
    return float(np.max(np.abs(mat.T @ u)))


def quadratic_progress_ok(correlations, d, k, rate=0.4, saturation_fraction=0.5):
    """Check per-step quadratic growth of the rescaled correlation.

    With r_t = |corr_t| * d / sqrt(k) and the saturation level
    cap = saturation_fraction * d / sqrt(k), require
    r_{t+1} >= min(rate * r_t**2, cap) for every step until r_t first
    exceeds cap; once the sequence saturates the ratio test no longer
    applies.  The min matters because |corr| <= 1 bounds r by d / sqrt(k):
    when rate * r_t**2 is above that, a step that lands at or above the
    saturation level has completed the quadratic phase and satisfies the
    law.
    """
    r = np.abs(np.asarray(correlations, dtype=np.float64)) * d / math.sqrt(k)
    cap = saturation_fraction * d / math.sqrt(k)
    for t in range(len(r) - 1):
        if r[t] > cap:
            break
        if r[t + 1] < min(rate * r[t] ** 2, cap):
            return False
    return True


# ---------------------------------------------------------------------------
# Gaussian conditioning checks


class ConstraintChain:
    """Exact conditioning of an i.i.d. Gaussian matrix on a chain of
    alternating linear constraints.

    The chain tracks the accumulated closed-form conditional mean, the
    orthonormal bases of the constrained column/row directions, and the raw
    linear system on vec(D) used by the generic joint-normality sampler.
    Right constraints pin D v = u (u must be orthogonal to all previously
    constrained column directions, otherwise the event has probability
    zero); left constraints pin D^T x = t (t orthogonal to constrained row
    directions).
    """

    def __init__(self, d, k, sigma2=1.0):
        if d < 1 or k < 1:
            raise InvalidArgumentError("need d, k >= 1")
        if not sigma2 > 0:
            raise InvalidArgumentError("sigma2 must be positive")
        self.d = int(d)
        self.k = int(k)
        self.sigma2 = float(sigma2)
        self.col_basis = []
        self.row_basis = []
        self.mean = np.zeros((self.d, self.k))
        self._rows = []
        self._rhs = []
        self._op = None

    def _invalidate(self):
        self._op = None

    def add_right(self, v, u):
        """Append the constraint (residual of D) @ v = u."""
        v = np.asarray(v, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        if v.shape != (self.k,) or u.shape != (self.d,):
            raise InvalidArgumentError("right constraint needs v in R^k, u in R^d")
        for q in self.col_basis:
            if abs(float(q @ u)) > _ORTH_TOL * max(1.0, float(np.linalg.norm(u))):
                raise InvalidArgumentError(
                    "target u overlaps an already-constrained column "
                    "direction; the conditioning event has probability zero")
        v_eff = _perp(self.row_basis, v)
        n2 = float(v_eff @ v_eff)
        if n2 <= 1e-24:
            raise InvalidArgumentError(
                "constraint direction already fully conditioned")
        self._rows.append(np.kron(np.eye(self.d), v[None, :]))
        self._rhs.append(u + self.mean @ v)
        self.mean = self.mean + np.outer(u, v_eff) / n2
        self.row_basis.append(v_eff / math.sqrt(n2))
        self._invalidate()

    def add_left(self, x, t):
        """Append the constraint (residual of D)^T @ x = t."""
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if x.shape != (self.d,) or t.shape != (self.k,):
            raise InvalidArgumentError("left constraint needs x in R^d, t in R^k")
        for q in self.row_basis:
            if abs(float(q @ t)) > _ORTH_TOL * max(1.0, float(np.linalg.norm(t))):
                raise InvalidArgumentError(
                    "target t overlaps an already-constrained row direction; "
                    "the conditioning event has probability zero")
        x_eff = _perp(self.col_basis, x)
        n2 = float(x_eff @ x_eff)
        if n2 <= 1e-24:
            raise InvalidArgumentError(
                "constraint direction already fully conditioned")
        self._rows.append(np.kron(x[None, :], np.eye(self.k)))
        self._rhs.append(t + self.mean.T @ x)
        self.mean = self.mean + np.outer(x_eff, t) / n2
        self.col_basis.append(x_eff / math.sqrt(n2))
        self._invalidate()

    @property
    def length(self):
        return len(self._rows)

    def _operator(self):
        if self._op is None:
            m = np.vstack(self._rows)
            b = np.concatenate(self._rhs)
            gram = m @ m.T
            kmat = np.linalg.solve(gram, m).T  # (d*k, n_constraints)
            self._op = (m, b, kmat)
        return self._op

    def sample(self, rng, n):
        """Draw n conditional samples via the generic joint-normality
        correction: g minus the minimum-norm update enforcing all
        constraints exactly."""
        m, b, kmat = self._operator()
        g = rng.standard_normal((n, self.d * self.k)) * math.sqrt(self.sigma2)
        corrected = g - (g @ m.T - b) @ kmat.T
        return corrected.reshape(n, self.d, self.k)

    def perp_bases(self):
        """Orthonormal bases of the unconstrained column/row directions."""
        if self.col_basis:
            cmat = np.column_stack(self.col_basis)
            qc = np.linalg.qr(cmat, mode="complete")[0][:, cmat.shape[1]:]
        else:
            qc = np.eye(self.d)
        if self.row_basis:
            rmat = np.column_stack(self.row_basis)
            qr_ = np.linalg.qr(rmat, mode="complete")[0][:, rmat.shape[1]:]
        else:
            qr_ = np.eye(self.k)
        return qc, qr_


# The sampler's and the moment sums' products are long enough for OpenBLAS
# to split across its threads, which moves their last bits; one thread keeps
# the report the same at any BLAS thread count.
@_one_blas_thread()
def check_conditioning_lemma(d, k, sigma2, trials, seed, u=None, v=None):
    """Verify the single-constraint Gaussian conditioning identity.

    Draws ``trials`` samples of a d x k matrix with i.i.d. N(0, sigma2)
    entries conditioned on D v = u via the generic joint-normality sampler,
    then compares the empirical mean against u v^T/||v||^2 and the pooled
    row covariance against sigma2 * (projector orthogonal to v), both at a
    4-standard-error band.  Rows are exactly orthogonal to v after the
    closed-form mean is removed; the worst violation is reported.

    Returns a JSON-ready dict: the verdicts mean_ok, cov_ok,
    orthogonality_ok and passed, the z-scores and residuals behind them,
    and capped raw figures under ``details``.
    """
    if trials < 100:
        raise InvalidArgumentError("need at least 100 trials")
    d, k = int(d), int(k)
    rng0 = stream(seed, 400)
    if v is None:
        v = rng0.standard_normal(k)
    v = np.asarray(v, dtype=np.float64)
    if u is None:
        u = rng0.standard_normal(d) * math.sqrt(sigma2 * k)
    u = np.asarray(u, dtype=np.float64)
    if v.shape != (k,) or u.shape != (d,):
        raise InvalidArgumentError("u must be length d, v length k")
    vnorm2 = float(v @ v)
    if vnorm2 <= 0:
        raise InvalidArgumentError("v must be nonzero")

    chain = ConstraintChain(d, k, sigma2)
    chain.add_right(v, u)
    closed_mean = np.outer(u, v) / vnorm2
    p_perp = np.eye(k) - np.outer(v, v) / vnorm2
    closed_cov = sigma2 * p_perp

    s1 = s2 = 0
    orths, raw_dev = [], []
    for i, size in enumerate(_block_sizes(trials)):
        samp = chain.sample(stream(seed, 401, i), size)
        resid = samp - closed_mean
        rows = resid.reshape(-1, k)
        s1 = s1 + samp.sum(axis=0)
        s2 = s2 + rows.T @ rows
        orths.append(float(np.max(np.abs(samp @ v - u))))
        raw_dev.extend(np.linalg.norm(resid.reshape(size, -1), axis=1).tolist())
    mean_emp = s1 / trials
    cov_emp = s2 / (trials * d)
    orth_res = max(orths)

    # mean: per-entry sd of the conditioned matrix is sigma2 * P_perp[jj]
    dev = mean_emp - closed_mean
    entry_var = sigma2 * np.diag(p_perp)
    mean_max_z, mean_ok = _band_test(dev, np.sqrt(np.maximum(entry_var, 0.0) / trials))

    # covariance: pooled over rows; SE of a Gaussian cross-moment estimate
    n_rows = trials * d
    cov_se = np.sqrt((np.outer(np.diag(closed_cov), np.diag(closed_cov))
                      + closed_cov ** 2) / n_rows)
    cov_max_z, cov_ok = _band_test(cov_emp - closed_cov, cov_se)

    orth_ok = bool(orth_res <= max(_ORTH_TOL, 1e-12 * np.abs(u).max()))
    passed = mean_ok and cov_ok and orth_ok
    return dict(
        kind="single-constraint",
        sample_count=trials, d=d, k=k, sigma2=float(sigma2), chain_length=1,
        se_band=_SE_BAND,
        mean_max_z=mean_max_z,
        mean_max_abs_dev=float(np.max(np.abs(dev))),
        mean_ok=mean_ok,
        cov_max_z=cov_max_z,
        cov_ok=cov_ok,
        var_ratio=None,
        orthogonality_residual=float(orth_res),
        orthogonality_ok=orth_ok,
        passed=passed,
        details={
            "u": _cap(u.tolist()),
            "v": _cap(v.tolist()),
            "closed_mean": closed_mean.ravel().tolist()
            if d * k <= _RAW_CAP else None,
            "empirical_mean": mean_emp.ravel().tolist()
            if d * k <= _RAW_CAP else None,
            "closed_row_cov": closed_cov.ravel().tolist()
            if k * k <= _RAW_CAP else None,
            "empirical_row_cov": cov_emp.ravel().tolist()
            if k * k <= _RAW_CAP else None,
            "per_trial_mean_dev_frob": _cap(raw_dev),
            "thresholds": {"se_band": _SE_BAND, "orthogonality": _ORTH_TOL},
        },
    )


@_one_blas_thread()  # as check_conditioning_lemma
def check_iterative_conditioning(d, k, chain_length, trials, seed, sigma2=1.0):
    """Verify conditioning under a chain of alternating linear constraints.

    Builds a chain of length ``chain_length`` (right, left,
    right, ...) mirroring how power-update conditioning alternates between
    iterate and squared-projection constraints, samples the conditional via
    the generic joint-normality sampler, and checks three things about the
    residual (sample minus accumulated closed-form mean):

    * residual columns/rows are orthogonal to every constrained direction
      to 1e-10,
    * the residual mean is zero at a 4-standard-error band,
    * the residual variance in the unconstrained directions equals sigma2,
      pooled (4 SE) and per position (4 SE), with the pooled ratio reported.

    Returns a dict with the same keys as ``check_conditioning_lemma``'s.
    """
    if not 1 <= chain_length <= 5:
        raise InvalidArgumentError("constraint chain length must be in [1, 5]")
    if trials < 100:
        raise InvalidArgumentError("need at least 100 trials")
    d, k = int(d), int(k)
    rng0 = stream(seed, 410)
    chain = ConstraintChain(d, k, sigma2)
    for step in range(chain_length):
        if step % 2 == 0:
            vvec = rng0.standard_normal(k)
            uvec = _perp(chain.col_basis, rng0.standard_normal(d))
            uvec *= math.sqrt(sigma2 * k) / max(np.linalg.norm(uvec), 1e-30)
            chain.add_right(vvec, uvec)
        else:
            xvec = rng0.standard_normal(d)
            tvec = _perp(chain.row_basis, rng0.standard_normal(k))
            tvec *= math.sqrt(sigma2 * d) / max(np.linalg.norm(tvec), 1e-30)
            chain.add_left(xvec, tvec)

    qc, qr_ = chain.perp_bases()
    cmat = np.column_stack(chain.col_basis) if chain.col_basis else None
    rmat = np.column_stack(chain.row_basis) if chain.row_basis else None
    closed_mean = chain.mean
    n_free = qc.shape[1] * qr_.shape[1]

    s1 = s2 = pooled_sq = 0
    orths, raw_dev = [], []
    for i, size in enumerate(_block_sizes(trials)):
        samp = chain.sample(stream(seed, 411, i), size)
        resid = samp - closed_mean
        orth = 0.0
        if cmat is not None:
            orth = max(orth, float(np.max(np.abs(
                np.tensordot(resid, cmat, axes=([1], [0]))))))
        if rmat is not None:
            orth = max(orth, float(np.max(np.abs(resid @ rmat))))
        orths.append(orth)
        s1 = s1 + resid.sum(axis=0)
        free_sq = ((qc.T @ resid) @ qr_) ** 2  # batched: (a,d)@(n,d,k)@(k,b) -> (n,a,b)
        s2 = s2 + free_sq.sum(axis=0)
        pooled_sq = pooled_sq + float(free_sq.sum())
        raw_dev.extend(np.linalg.norm(resid.reshape(size, -1), axis=1).tolist())
    mean_emp = s1 / trials
    var_pos = s2 / trials
    pooled_var = pooled_sq / (trials * n_free)
    orth_res = max(orths)

    # residual mean: per-entry variance sigma2 * Pc[ii] * Pr[jj]
    pc_diag = np.einsum("ia,ia->i", qc, qc)
    pr_diag = np.einsum("jb,jb->j", qr_, qr_)
    entry_sd = np.sqrt(sigma2 * np.outer(pc_diag, pr_diag))
    mean_max_z, mean_ok = _band_test(mean_emp, entry_sd / math.sqrt(trials))

    # variance per free position and pooled
    var_se_pos = sigma2 * math.sqrt(2.0 / trials)
    pos_z = (var_pos - sigma2) / var_se_pos
    cov_max_z = float(np.max(np.abs(pos_z)))
    pooled_se = sigma2 * math.sqrt(2.0 / (trials * n_free))
    pooled_z = (pooled_var - sigma2) / pooled_se
    var_ratio = pooled_var / sigma2
    cov_ok = bool(cov_max_z <= _SE_BAND and abs(pooled_z) <= _SE_BAND
                  and 0.9 <= var_ratio <= 1.1)

    orth_ok = bool(orth_res <= _ORTH_TOL * max(1.0, math.sqrt(sigma2 * k)))
    passed = mean_ok and cov_ok and orth_ok
    return dict(
        kind="iterative-chain",
        sample_count=trials, d=d, k=k, sigma2=float(sigma2),
        chain_length=chain_length,
        se_band=_SE_BAND,
        mean_max_z=mean_max_z,
        mean_max_abs_dev=float(np.max(np.abs(mean_emp))),
        mean_ok=mean_ok,
        cov_max_z=cov_max_z,
        cov_ok=cov_ok,
        var_ratio=float(var_ratio),
        orthogonality_residual=float(orth_res),
        orthogonality_ok=orth_ok,
        passed=passed,
        details={
            "pooled_variance_z": float(pooled_z),
            "n_free_directions": int(n_free),
            "constrained_columns": len(chain.col_basis),
            "constrained_rows": len(chain.row_basis),
            "per_trial_mean_dev_frob": _cap(raw_dev),
            "thresholds": {"se_band": _SE_BAND, "orthogonality": _ORTH_TOL,
                           "var_ratio_band": [0.9, 1.1]},
        },
    )


# ---------------------------------------------------------------------------
# fresh-randomness lower bound


_SHIFT_KINDS = ("zero", "dense", "spiky", "random")


def check_fresh_randomness(d, k, t, trials, seed):
    """Check that squaring a shifted Gaussian keeps fresh randomness.

    For random t-dimensional subspaces R, R' of R^k, z a standard Gaussian
    projected orthogonal to R, and several adversarial shift vectors p
    (zero, dense, spiky, random; all of norm sqrt(k) except zero), verify
    that w = (p+z)*(p+z) keeps norm at least E||z||^2 / (40 sqrt(k)) after
    projecting off R', in at least 99% of trials per shift kind.

    The asymptotic statement carries the regime t <= k/(16 log^2 k) (natural
    log here), which no desk-scale (k, t) of interest satisfies, so the
    regime is reported as ``regime_ok``, never enforced.  Returns a
    JSON-ready dict of per-kind pass rates and minimum ratios, the regime
    figures and the verdict ``passed``.
    """
    d, k, t = int(d), int(k), int(t)
    if t < 0 or t >= k:
        raise InvalidArgumentError("need 0 <= t < k")
    if trials < 1:
        raise InvalidArgumentError("need at least one trial")
    regime_limit = k / (16.0 * math.log(k) ** 2) if k > 1 else 0.0
    regime_ok = t <= regime_limit

    bound = (k - t) / (40.0 * math.sqrt(k))
    ratios = {kind: [] for kind in _SHIFT_KINDS}
    w_norms = []
    for i, size in enumerate(_block_sizes(trials, block=128)):
        rng = stream(seed, 420, i)
        for _ in range(size):
            if t > 0:
                q_r = np.linalg.qr(rng.standard_normal((k, t)))[0]
                q_rp = np.linalg.qr(rng.standard_normal((k, t)))[0]
            else:
                q_r = q_rp = None
            g = rng.standard_normal(k)
            z = g - q_r @ (q_r.T @ g) if q_r is not None else g
            spike_at = int(rng.integers(k))
            pr = rng.standard_normal(k)
            pr *= math.sqrt(k) / np.linalg.norm(pr)
            shifts = {
                "zero": np.zeros(k),
                "dense": np.ones(k),
                "spiky": math.sqrt(k) * np.eye(k)[spike_at],
                "random": pr,
            }
            for kind, p in shifts.items():
                w = (p + z) ** 2
                if q_rp is not None:
                    w = w - q_rp @ (q_rp.T @ w)
                ratios[kind].append(float(np.linalg.norm(w)) / bound)
            w_norms.append(float(np.linalg.norm((z) ** 2)))
    pass_rates = {kind: float(np.mean(np.asarray(vals) >= 1.0))
                  for kind, vals in ratios.items()}
    min_ratios = {kind: float(np.min(vals)) for kind, vals in ratios.items()}
    passed = all(rate >= 0.99 for rate in pass_rates.values())
    return dict(
        d=d, k=k, t=t, trials=trials, bound=float(bound),
        pass_rates=pass_rates, min_ratios=min_ratios,
        mean_w_norm=float(np.mean(w_norms)),
        regime_ok=bool(regime_ok), regime_limit=float(regime_limit), passed=bool(passed),
        details={
            "raw_ratios": {kind: _cap(vals) for kind, vals in ratios.items()},
            "expected_z_sq_norm": float(k - t),
            "pass_rate_threshold": 0.99,
        },
    )


# ---------------------------------------------------------------------------
# mixed-norm contraction bound


def check_mixed_norm_bound(d, k, trials, seed):
    """Check the two-vector contraction bound under the max-correlation norm.

    Samples dictionaries with N(0, 1/d) columns, pairs (u, v) with the
    dictionary max-correlation of u scaled to one and v unit, excludes the
    first column from the contraction (that column plays the role of the
    recovered direction), and measures

        ratio = || sum_j <a_j,u> <a_j,v> a_j ||  /  sqrt(k/d).

    The report records the max ratio, the envelope 10*ln(d) it is compared
    against, and the fitted constant max_ratio/ln(d).  Two side probes are
    included: u scaled to a 1e-6 max-correlation must give a near-zero
    contraction, and (u, v) aligned with one dictionary column must recover
    that column's direction.  Returns a JSON-ready dict of these figures
    and the verdict ``passed``.
    """
    d, k = int(d), int(k)
    if d < 2:
        # the envelope 10 ln(d) is 0 at d = 1, and fitted_c divides by it
        raise InvalidArgumentError("need d >= 2")
    if k <= d:
        raise InvalidArgumentError("this bound targets the k > d regime")
    if trials < 1:
        raise InvalidArgumentError("need at least one trial")
    rows = []
    for i, size in enumerate(_block_sizes(trials, block=64)):
        rng = stream(seed, 441, i)
        for _ in range(size):
            a = rng.standard_normal((d, k)) / math.sqrt(d)
            b = a[:, 1:]
            g = rng.standard_normal(d)
            s = star_norm(b, g)
            u = g / s
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            val = np.linalg.norm(b @ ((b.T @ u) * (b.T @ v)))
            tiny_val = np.linalg.norm(b @ ((b.T @ (1e-6 * u)) * (b.T @ v)))
            a2 = b[:, 0]
            u_al = a2 / float(a2 @ a2)
            v_al = a2 / np.linalg.norm(a2)
            m = b @ ((b.T @ u_al) * (b.T @ v_al))
            cos = float(m @ a2 / (np.linalg.norm(m) * np.linalg.norm(a2)))
            rows.append((float(val), float(tiny_val), cos))
    scale = math.sqrt(k / d)
    ratios = np.array([r[0] for r in rows]) / scale
    tiny_ratios = np.array([r[1] for r in rows]) / scale
    cosines = np.array([r[2] for r in rows])
    bound = 10.0 * math.log(d)
    max_ratio = float(ratios.max())
    passed = bool(max_ratio <= bound)
    return dict(
        d=d, k=k, trials=trials,
        max_ratio=max_ratio, bound=float(bound),
        fitted_c=float(max_ratio / math.log(d)),
        tiny_max_ratio=float(tiny_ratios.max()),
        aligned_min_cos=float(cosines.min()),
        passed=passed,
        details={
            "raw_ratios": _cap(ratios.tolist()),
            "envelope": "10 * ln(d) * sqrt(k/d)",
        },
    )


# ---------------------------------------------------------------------------
# spherical-GMM modified moment


def check_gmm_moment(d, k, sigma, seed, n=0, analytic_tol=1e-12, empirical_tol=0.05):
    """Check that the spherical-GMM modified moment equals the factored
    tensor sum_j w_j a_j (x)3 of its means: the population form to
    ``analytic_tol`` in max entry, and, for n > 0, the moment of n samples to
    ``empirical_tol`` in Frobenius norm.  Returns a JSON-ready dict.
    """
    sigma = float(sigma)
    comps = random_components(d, k, seed=seed)
    priors = np.full(k, 1.0 / k)
    gmm = SphericalGmm(comps, priors, sigma)
    target = densify(FactoredTensor3(comps, priors)).entries
    analytic = gmm_population_modified_moment(gmm).entries
    analytic_dev = float(np.max(np.abs(analytic - target)))
    analytic_tol = float(analytic_tol)
    out = {
        "check": "gmm-moment",
        "d": d, "k": k, "sigma": sigma,
        "analytic_max_dev": analytic_dev,
        "analytic_tol": analytic_tol,
        "analytic_ok": analytic_dev <= analytic_tol,
    }
    passed = out["analytic_ok"]
    if n:
        samples, _ = sample_gmm(gmm, n, seed=seed)
        emp = gmm_modified_moment(gmm, samples).entries
        frob = float(np.linalg.norm((emp - target).ravel()))
        tol = float(empirical_tol)
        out.update({"n": n, "empirical_frobenius_dev": frob,
                    "empirical_tol": tol, "empirical_ok": frob <= tol})
        passed = passed and out["empirical_ok"]
    out["passed"] = bool(passed)
    return out
