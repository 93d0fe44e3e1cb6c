"""Symmetric third-order power iteration with trace capture.

The basic update is

    x <- T(I, x, x) / ||T(I, x, x)||

which, for a factored tensor with component matrix A and unit weights, is the
O(dk) map ``x <- A (A^T x)^{*2} / ||.||`` (elementwise square).  A run from
one start records every step's iterate, norm and correlation with an
optional target vector, so dynamics can be analyzed offline.  ``run_power``
also takes a d x m block of starts and advances them together, one block
contraction per step, and records only where each column ended.

Overcomplete caveat: when k > d the true components are close to, but not
exactly, fixed points of this map.  At small d the iterates typically climb
toward a component and then drift or escape; the trace exists so callers can
see exactly that.  Convergence claims should always be read off the recorded
correlations, not assumed.
"""

import math

import numpy as np

from .errors import DegenerateIterateError, InvalidArgumentError, _check_count
from .tensors import PerturbedTensor, contract_1

# A run given a target halts once |<x, target>| >= 1 - _GAMMA.
_GAMMA = 0.05


def default_max_iters(d):
    """Iteration budget ceil(4*log2(log2(max(d, 4)))) + 10 (log-log growth plus slack)."""
    dd = max(int(d), 4)
    return int(math.ceil(4.0 * math.log2(math.log2(dd)))) + 10


def _iteration_budget(max_iters, d):
    """``max_iters``, or ``default_max_iters(d)`` for None; anything but an
    integer >= 1 raises."""
    return default_max_iters(d) if max_iters is None else _check_count(max_iters, "max_iters")


class IterationTrace:
    """Record of a power run.  Step 0 is the initialization.

    A vector run keeps every step's iterate ``xs``, unnormalized norm (NaN at
    step 0) and target correlation (NaN without a target); a shadow run also
    fills ``noise_component_norms`` with ||xi_t||, which is 0 otherwise.  A
    block run keeps only ``final_x`` and the per-column ``iterations`` and
    ``stop_reasons``.
    """

    def __init__(self):
        self.xs = []
        self.unnormalized_norms = []
        self.target_correlations = []
        self.noise_component_norms = []
        self.final_x = None
        self.stop_reason = "max-iters"

    def _append(self, x, unnorm, target):
        """Record one step; returns |<x, target>|, NaN without a target."""
        self.xs.append(x)
        self.unnormalized_norms.append(unnorm)
        self.target_correlations.append(float(x @ target) if target is not None else float("nan"))
        self.noise_component_norms.append(0.0)
        return abs(self.target_correlations[-1])

    def __len__(self):
        return 1 + int(self.iterations.max())

    @property
    def correlations(self):
        return np.array(self.target_correlations, dtype=float)

    @property
    def noise_norms(self):
        return np.array(self.noise_component_norms, dtype=float)

    def final_correlation(self):
        """|last target correlation|: NaN without a target and on a block run."""
        return abs(self.target_correlations[-1]) if self.target_correlations else float("nan")

    def peak_correlation(self):
        c = self.correlations
        return float(np.nanmax(np.abs(c))) if len(c) else float("nan")


def _norms(v):
    """Euclidean norm of a vector, or the column norms of a d x m block."""
    return float(np.linalg.norm(v)) if v.ndim == 1 else np.linalg.norm(v, axis=0)


def _check_unit(x, tol=1e-8):
    """x as float64; raises unless every column has unit norm (NaN fails)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.abs(_norms(x) - 1.0) <= tol):
        raise InvalidArgumentError("iterate must be unit norm")
    return x


def _normalize(v, what):
    """(v / ||v||, ||v||), per column for a block; a vanishing norm raises."""
    nrm = _norms(v)
    if np.any(nrm < 1e-300):
        raise DegenerateIterateError(f"{what} vanished; caller owns the restart policy")
    return v / nrm, nrm


def _fixed_point(x_next, x_prev):
    """Whether the iterate (each column of a block) is back where it was, up to sign."""
    return np.minimum(_norms(x_next - x_prev), _norms(x_next + x_prev)) < 1e-12


def power_step(tensor, x):
    """One update: returns (T(I,x,x)/||T(I,x,x)||, ||T(I,x,x)||).

    A d x m block x steps every column and returns the m norms as an array.
    """
    x = _check_unit(x)
    return _normalize(contract_1(tensor, x, x), "T(I, x, x)")


def run_power(tensor, x0, max_iters=None, target=None):
    """Iterate power updates from x0, recording a trace.

    Stops early when |<x, target>| reaches 0.95 (given a unit
    ``target``), or when successive iterates agree up to sign (a fixed
    point).  Always runs at most ``max_iters`` updates (default
    ``default_max_iters(d)``).

    A d x m block x0 runs m starts at once: each step is one block
    contraction over the columns still moving, and each column stops on its
    own fixed point or at ``max_iters``.  ``trace.iterations`` and
    ``trace.stop_reasons`` hold the per-column counts and reasons,
    ``trace.final_x`` the d x m block of final iterates, ``len(trace)`` the
    block steps plus one, and ``trace.stop_reason`` is "fixed-point" only
    when every column reached one.  A block takes no target.
    """
    x = _check_unit(x0).copy()
    block = x.ndim == 2
    if block and x.shape[1] == 0:
        raise InvalidArgumentError("a block of starts needs at least one column")
    if target is not None and (block or np.shape(target) != x.shape):
        raise InvalidArgumentError("a target is one vector as long as the start; blocks take none")
    n_iters = _iteration_budget(max_iters, tensor.dim)
    stop = 1.0 - _GAMMA

    trace = IterationTrace()
    m = x.shape[1] if block else 1
    iterations = np.zeros(m, dtype=int)
    reasons = ["max-iters"] * m
    active = np.arange(m)
    if not block and trace._append(x, float("nan"), target) >= stop:
        reasons[0] = "target-correlation"
        active = active[:0]
    for _ in range(n_iters):
        if active.size == 0:
            break
        x_prev = x[:, active] if block else x
        x_next, unnorm = power_step(tensor, x_prev)
        iterations[active] += 1
        if block:
            x[:, active] = x_next
        else:
            x = x_next
            if trace._append(x, unnorm, target) >= stop:
                reasons[0] = "target-correlation"
                break
        fixed = np.atleast_1d(_fixed_point(x_next, x_prev))
        for j in active[fixed]:
            reasons[j] = "fixed-point"
        active = active[~fixed]
    trace.final_x = x
    trace.iterations = iterations
    trace.stop_reasons = reasons
    trace.stop_reason = "max-iters" if "max-iters" in reasons else reasons[0]
    return trace


def run_power_with_shadow(perturbed, x0, max_iters=None, target=None):
    """Noisy power iteration with an exact-tensor shadow decomposition.

    Runs ``run_power`` on T + E from one start, then recomputes the split
    ``x_hat = x + xi`` from its iterates: the shadow starts at x_hat_0 and is
    advanced by the exact-tensor update applied to the current shadow and
    renormalized by the *noisy* update's norm,

        x_t = T(I, x_{t-1}, x_{t-1}) / ||(T + E)(I, x_hat_{t-1}, x_hat_{t-1})||,

    and ``xi = x_hat - x`` is the accumulated noise component.  With E = 0
    the two trajectories coincide bitwise and ||xi|| is exactly 0 at every
    step.

    The recorded iterates and correlations are the noisy run's own;
    ``noise_component_norms`` carries ||xi||.  Once ||xi|| is of order one
    the shadow has decohered from the noisy run and its norm grows or decays
    doubly exponentially — the trace reports this honestly rather than
    clamping it.
    """
    if not isinstance(perturbed, PerturbedTensor) or np.ndim(x0) != 1:
        raise InvalidArgumentError("run_power_with_shadow needs a PerturbedTensor and one start")
    trace = run_power(perturbed, x0, max_iters, target)
    shadow = trace.xs[0]
    for t in range(1, len(trace.xs)):
        shadow = contract_1(perturbed.signal, shadow, shadow) / trace.unnormalized_norms[t]
        trace.noise_component_norms[t] = float(np.linalg.norm(trace.xs[t] - shadow))
    return trace
