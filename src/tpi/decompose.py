"""Multi-start decomposition pipeline: power runs, clustering, evaluation.

The pipeline runs power iteration from all initializations at once, as one
d x m block (one block contraction per step), then repeatedly
(1) picks the surviving iterate maximizing |T(x, x, x)|, (2) refines it with
as many extra power steps as the iteration budget, (3) emits it
sign-normalized so its cubic form is nonnegative, and (4) removes every
survivor within correlation nu/2 of the emission.  Weights are read off the
cubic form at each estimate.

Refinement is a pure function of the pool column (over a sample tensor's
samples, d^2 > n, its bytes also depend on the padded width of the block
it refines in; see ``tensors._BLOCK_ALIGN``), so step (2) refines leaders
ahead of the loop: at a leader not refined yet it predicts the leaders to
come by running the loop on the unrefined pool (each pick drops the
survivors within nu/2 of its pool column), and refines the predicted
leaders as one d x m block, one block contraction per step, unless there
are ``_NARROW_BATCH`` or fewer: then it refines the leader alone, as a
vector.  A leader the prediction missed starts a new batch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .power import _iteration_budget, power_step, run_power
from .tensors import contract_1, contract_scalar

# A batch of at most this many predicted leaders refines the leader alone:
# contract_1 pads a block to 32 columns.  A 5-column block costs about 4
# vector contractions over the samples (d = 50, n = 2000), but 11-16 through
# a built moment (d = 15, n = 100000 and d = 50, n = 20000), where the
# benchmark's decompositions refine.  The value decides which leaders refine
# as vectors, so changing it changes the output bytes.
_NARROW_BATCH = 4


@dataclass
class DecompositionResult:
    """Recovered components plus per-estimate bookkeeping.

    ``estimates`` is d x m with unit columns, pairwise |<xi, xj>| <= nu/2.
    ``weights`` is the cubic-form readout T(x, x, x) per estimate.
    ``diagnostics`` carries the per-estimate selection scores (each leader's
    |T(x, x, x)| before refinement) and the count of dropped duplicates.
    """

    estimates: np.ndarray
    weights: np.ndarray
    cluster_sizes: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_components(self):
        return self.estimates.shape[1]


def decompose(tensor, inits, max_iters=None, nu=0.5):
    """Run the full multi-start + clustering pipeline.

    Parameters
    ----------
    tensor : any contractable tensor (factored, dense, perturbed, implicit)
    inits : sequence of unit vectors, length >= 1
    max_iters : the budget of the initial runs and of each refinement
        (default ``default_max_iters(d)``)
    nu : the separation threshold in (0, 1]: each emission removes every
        survivor x with |<x, emission>| > nu/2, so no two estimates overlap
        by more than nu/2
    """
    if not (0.0 < nu <= 1.0):
        raise InvalidArgumentError("nu must lie in (0, 1]")
    starts = np.asarray(inits, dtype=np.float64)
    if starts.size == 0:
        raise InvalidArgumentError("need at least one initialization")
    if starts.ndim != 2 or starts.shape[1] != tensor.dim:
        raise InvalidArgumentError(f"inits must be unit vectors of length {tensor.dim}")
    n_iters = _iteration_budget(max_iters, tensor.dim)
    X = run_power(tensor, starts.T, n_iters).final_x

    half_nu = nu / 2.0
    alive = np.ones(len(starts), dtype=bool)
    estimates, weights, sizes = [], [], []
    sel_scores = []
    duplicates_dropped = 0

    # |T(x, x, x)| of every pool member, from one block contraction
    scores = np.abs(_dots(X, contract_1(tensor, X, X)))
    refined = {}  # pool index -> (refined vector, its T(x, x, x))
    while alive.any():
        idx = int(np.argmax(np.where(alive, scores, -np.inf)))
        if idx not in refined:
            batch = [j for j in _predicted_leaders(X, scores, alive, half_nu)
                     if j not in refined]
            if len(batch) > _NARROW_BATCH:
                xs, final = _refine(tensor, X[:, batch], n_iters)
                for j, x, score in zip(batch, xs.T.copy(), final.tolist()):
                    refined[j] = x, score
            else:
                refined[idx] = _refine(tensor, X[:, idx].copy(), n_iters)
        x, score = refined.pop(idx)
        if score < 0:
            x = -x
        # emission cluster: everything the refined estimate would collide with
        cluster = alive & (np.abs(x @ X) > half_nu)
        cluster[idx] = True
        is_dup = any(abs(float(x @ e)) > half_nu for e in estimates)
        if is_dup:
            duplicates_dropped += 1
        else:
            estimates.append(x)
            weights.append(abs(score))  # T(-x, -x, -x) = -T(x, x, x) exactly
            sizes.append(int(cluster.sum()))
            sel_scores.append(float(scores[idx]))
        alive &= ~cluster

    E = np.array(estimates).T if estimates else np.zeros((tensor.dim, 0))
    return DecompositionResult(
        estimates=E,
        weights=np.array(weights),
        cluster_sizes=np.array(sizes, dtype=int),
        diagnostics={
            "selection_scores": np.array(sel_scores),
            "duplicates_dropped": duplicates_dropped,
        },
    )


def _predicted_leaders(X, scores, alive, half_nu):
    """Pool indices the emission loop would pick from ``alive`` if every
    leader kept its pool column: the best survivor by score, then the best
    of those farther than nu/2 from it, and so on."""
    alive = alive.copy()
    picks = []
    while alive.any():
        j = int(np.argmax(np.where(alive, scores, -np.inf)))
        picks.append(j)
        alive &= ~(np.abs(X[:, j] @ X) > half_nu)
        alive[j] = False
    return picks


def _refine(tensor, x, n_iters):
    """n_iters power steps from a vector x, or from each column of a block.

    Returns the refined x and its T(x, x, x), an array of m for a block.
    """
    for _ in range(n_iters):
        x, _ = power_step(tensor, x)
    return x, (contract_scalar(tensor, x, x, x) if x.ndim == 1
               else _dots(x, contract_1(tensor, x, x)))


def _dots(a, b):
    """<a, b> of two vectors, or of each pair of columns of two blocks."""
    return float(a @ b) if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def learn_multiview(batch, mode, max_iters=None, nu=0.5, model=None, max_inits=None):
    """End-to-end learning from a multiview batch.

    Initializations are the normalized view-1 samples (all of them, or the
    first ``max_inits``).  ``mode`` picks the tensor representation:

    * "exact-tensor" — the population tensor from ``model`` (evaluation runs);
    * "implicit-samples" — the cross-view sample moment as a
      ``SampleTensor3``: built once as a d^3 tensor when d^2 <= n, so a step
      costs O(d^3); otherwise contracted against the samples, O(dn) per
      step, without the d^3 moment.

    ``max_iters`` and ``nu`` are ``decompose``'s.  Labels in the batch are
    never read here.
    """
    from .models import SampleTensor3, population_third_moment

    if batch.n < 1:
        raise InvalidArgumentError("empty batch")
    if max_inits is not None and max_inits < 1:
        raise InvalidArgumentError("max_inits must be >= 1")
    if mode == "exact-tensor":
        if model is None:
            raise InvalidArgumentError("exact-tensor mode needs the model")
        tensor = population_third_moment(model)
    elif mode == "implicit-samples":
        tensor = SampleTensor3(batch)
    else:
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    Z1 = batch.views[0]
    m = batch.n if max_inits is None else min(max_inits, batch.n)
    norms = np.linalg.norm(Z1[:, :m], axis=0)
    if np.any(norms < 1e-300):
        raise InvalidArgumentError("zero sample cannot initialize")
    inits = (Z1[:, :m] / norms).T
    return decompose(tensor, inits, max_iters, nu)


@dataclass
class MatchReport:
    """Assignment of estimates to ground-truth components, plus error metrics."""

    frobenius_error: float
    per_component_correlations: np.ndarray
    permutation: np.ndarray  # truth index per estimate, -1 if unmatched
    signs: np.ndarray
    missed: list  # truth indices with no matched estimate
    matched_pairs: int


def _optimal_assign(C):
    """Maximum-weight matching of min(m, k) rows and columns of an m x k C.

    Shortest augmenting paths with row and column potentials (the Hungarian
    method in its Jonker-Volgenant form): each row joins the matching along
    a shortest path in reduced costs, grown one column per step by one
    vectorized pass over the k columns, so a near-permutation C costs about
    O(mk) and an unstructured one O(m^2 k).  Returns (rows, cols) with rows
    ascending.
    """
    transposed = C.shape[0] > C.shape[1]
    cost = -(C.T if transposed else C)
    m, k = cost.shape
    u, v = np.zeros(m), np.zeros(k)
    row_of = np.full(k, -1)  # row matched to each column
    col_of = np.full(m, -1)  # column matched to each row
    for start in range(m):
        dist = np.full(k, np.inf)  # shortest reduced path length to each column
        pred = np.zeros(k, dtype=int)  # row before each column on its path
        reached = np.zeros(k, dtype=bool)
        rows, i, low = [start], start, 0.0
        while True:
            r = low + cost[i] - u[i] - v
            closer = ~reached & (r < dist)
            dist[closer] = r[closer]
            pred[closer] = i
            open_dist = np.where(reached, np.inf, dist)
            j = int(np.argmin(open_dist))
            low = open_dist[j]
            if row_of[j] >= 0:  # of equally near columns, prefer a free one
                free = np.flatnonzero((open_dist == low) & (row_of < 0))
                j = int(free[0]) if free.size else j
            reached[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
            rows.append(i)
        u[start] += low
        seen = np.array(rows[1:], dtype=int)
        u[seen] += low - dist[col_of[seen]]
        v[reached] -= low - dist[reached]
        while True:  # flip the path's matched and unmatched edges
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    if transposed:
        order = np.argsort(col_of)
        return col_of[order], order
    return np.arange(m), col_of


def match_and_score(estimates, ground_truth):
    """Match estimate columns to truth columns, maximizing total |correlation|.

    The assignment is optimal (``_optimal_assign``).  Signs are resolved per
    pair; the Frobenius error is computed over matched pairs only and
    unmatched truth columns are listed in ``missed``.
    """
    E = np.asarray(estimates, dtype=np.float64)
    if E.ndim != 2 or E.shape[1] == 0:
        raise InvalidArgumentError("estimates must be a nonempty d x m matrix")
    A = ground_truth.components
    C = np.abs(E.T @ A)
    rows, cols = _optimal_assign(C)
    signs_matched = np.sign(np.sum(E[:, rows] * A[:, cols], axis=0))
    signs_matched[signs_matched == 0] = 1.0
    diff = E[:, rows] * signs_matched - A[:, cols]
    perm = np.full(E.shape[1], -1, dtype=int)
    perm[rows] = cols
    signs = np.ones(E.shape[1])
    signs[rows] = signs_matched
    return MatchReport(
        frobenius_error=float(np.linalg.norm(diff)),
        per_component_correlations=C[rows, cols],
        permutation=perm,
        signs=signs,
        missed=sorted(set(range(A.shape[1])) - set(cols.tolist())),
        matched_pairs=len(rows),
    )
