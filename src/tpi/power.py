"""Symmetric and asymmetric third-order power iteration with trace capture.

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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIterateError, InvalidArgumentError
from .tensors import FactoredTensor3, PerturbedTensor, contract_1


def default_max_iters(d):
    """Iteration budget ceil(4*log2(log2(max(d, 4)))) + 10 (log-log growth plus slack)."""
    dd = max(int(d), 4)
    return int(math.ceil(4.0 * math.log2(math.log2(dd)))) + 10


@dataclass
class PowerConfig:
    """Knobs for a power-iteration run.

    max_iters of None resolves to ``default_max_iters(d)`` at run time.
    convergence_gamma is the early-stop margin: a run given a target halts
    once |<x, target>| >= 1 - gamma.
    """

    max_iters: int | None = None
    convergence_gamma: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.convergence_gamma < 1.0):
            raise InvalidArgumentError("convergence_gamma must lie in (0, 1)")
        if self.max_iters is not None and self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")


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
        c = self.target_correlations[-1]
        return abs(c) if c == c else float("nan")

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


def run_power(tensor, x0, config=None, target=None):
    """Iterate power updates from x0, recording a trace.

    Stops early when |<x, target>| reaches 1 - gamma (given a unit
    ``target``), or when successive iterates agree up to sign (a fixed
    point).  Always runs at most ``max_iters`` updates.

    A d x m block x0 runs m starts at once: each step is one block
    contraction over the columns still moving, and each column stops on its
    own fixed point or at ``max_iters``.  ``trace.iterations`` and
    ``trace.stop_reasons`` hold the per-column counts and reasons,
    ``trace.final_x`` the d x m block of final iterates, ``len(trace)`` the
    block steps plus one, and ``trace.stop_reason`` is "fixed-point" only
    when every column reached one.  A block takes no target.
    """
    config = config or PowerConfig()
    x = _check_unit(x0).copy()
    block = x.ndim == 2
    if target is not None and (block or np.shape(target) != x.shape):
        raise InvalidArgumentError("a target is one vector as long as the start; blocks take none")
    n_iters = config.max_iters or default_max_iters(tensor.dim)
    stop = 1.0 - config.convergence_gamma

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


def run_power_asymmetric(tensor, x0, y0, z0, config=None, targets=None):
    """Three-vector power iteration for per-mode component matrices.

    Each sweep computes x1 <- T(I, x2, x3), x2 <- T(x1, I, x3),
    x3 <- T(x1, x2, I) simultaneously — every right-hand side uses the
    iterates from the previous sweep, so with identical component matrices
    and identical starts each mode reproduces the symmetric run exactly.
    Modes 2 and 3 are mode-1 contractions of the tensor with its component
    matrices rotated.  ``targets`` is None or one unit vector per mode; the
    run stops early once every mode is within gamma of its target.  Returns
    one trace per mode.
    """
    if not isinstance(tensor, FactoredTensor3):
        raise InvalidArgumentError("asymmetric runs need a FactoredTensor3")
    config = config or PowerConfig()
    n_iters = config.max_iters or default_max_iters(tensor.dim)
    A, B, C, w = tensor.components, tensor.components_b, tensor.components_c, tensor.weights
    modes = (tensor, FactoredTensor3(B, w, A, C), FactoredTensor3(C, w, A, B))
    vecs = [_check_unit(v).copy() for v in (x0, y0, z0)]
    targets = targets or (None, None, None)

    traces = [IterationTrace() for _ in range(3)]
    for tr, v, tg in zip(traces, vecs, targets):
        tr._append(v, float("nan"), tg)
    for sweeps in range(1, n_iters + 1):
        x1, x2, x3 = vecs
        updates = [contract_1(t, v, u) for t, (v, u) in zip(modes, ((x2, x3), (x1, x3), (x1, x2)))]
        prev, vecs = vecs, []
        done_fixed, done_target = True, targets[0] is not None
        for i, (tr, raw, tg) in enumerate(zip(traces, updates, targets)):
            v, nrm = _normalize(raw, f"mode-{i + 1} contraction")
            vecs.append(v)
            reached = tr._append(v, nrm, tg) >= 1.0 - config.convergence_gamma
            done_target = done_target and reached
            done_fixed = done_fixed and _fixed_point(v, prev[i])
        if done_fixed or done_target:
            for tr in traces:
                tr.stop_reason = "fixed-point" if done_fixed else "target-correlation"
            break
    for tr, v in zip(traces, vecs):
        tr.final_x, tr.iterations = v, np.array([sweeps])
    return tuple(traces)


def run_power_with_shadow(perturbed, x0, config=None, target=None):
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
    trace = run_power(perturbed, x0, config, target)
    shadow = trace.xs[0]
    for t in range(1, len(trace.xs)):
        shadow = contract_1(perturbed.signal, shadow, shadow) / trace.unnormalized_norms[t]
        trace.noise_component_norms[t] = float(np.linalg.norm(trace.xs[t] - shadow))
    return trace
