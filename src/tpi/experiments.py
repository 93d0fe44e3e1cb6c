"""Reproducible experiment driver.

Experiments are described by strict JSON configs (versioned schema, unknown
fields are errors), executed across seeds by a shared-nothing worker pool,
and persisted as a report JSON plus CSV tables and JSON-lines traces.  Every
output embeds the config hash; per-seed metrics are merged in seed order, so
results are byte-identical for any worker count.  All acceptance thresholds
live in the config's ``accept`` block: a run "passes" exactly when every
declared threshold holds.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .decompose import ClusterConfig, decompose, learn_multiview, match_and_score
from .errors import InvalidArgumentError
from .models import (
    MixtureModel,
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
from .power import PowerConfig, run_power, run_power_with_shadow
from .probes import (
    check_conditioning_lemma,
    check_fresh_randomness,
    check_iterative_conditioning,
    check_mixed_norm_bound,
    quadratic_progress_ok,
)
from .rng import map_in_order as _map_seeds, stream
# symmetrize and scale_noise_to are no longer called here; they stay importable
# from this module because perfbench's tracer looks them up on it
from .tensors import (
    DenseTensor3,
    FactoredTensor3,
    PerturbedTensor,
    densify,
    random_components,
    scale_noise_to,
    spectral_norm_estimate,
    symmetrize,
)
from .container import save_tensor

_FLOAT_FMT = "%.17g"
SCHEMA_VERSION = 1

# The noise tensor's normal draw arrives in row slabs of at most this many
# doubles (2 MB), so the d^3 buffer is the only large array of its build.
_NOISE_SLAB = 2 ** 18

_SEED_KEYS = {"count", "base"}
_POWER_KEYS = {"max_iters", "convergence_gamma", "trace_level"}
_CLUSTER_KEYS = {"nu", "refine_iters", "max_components"}

_ACCEPT_KEYS = {
    "recovery": {"require_components", "min_correlation", "weight_tol",
                 "recovered_fraction", "correlation_threshold",
                 "frobenius_factor"},
    "dynamics": {"success_correlation", "within_iterations", "success_rate",
                 "quadratic_rate", "quadratic_pass_rate",
                 "saturation_fraction", "final_correlation", "final_rate",
                 "xi_max"},
    "sample-complexity": {"ratio_range", "ratio_pair", "decomposition_factor"},
    "probe": set(),
}
_ACCEPT_KEYS["noise-sweep"] = _ACCEPT_KEYS["dynamics"]

_KIND_KEYS = {
    "recovery": {"schema", "kind", "out", "seeds", "d", "k", "source",
                 "components", "weights", "inits", "init_noise",
                 "tensor_mode", "n", "zeta", "snr_target", "power",
                 "cluster", "accept"},
    "dynamics": {"schema", "kind", "out", "seeds", "d", "k",
                 "init_correlation", "noise_norm_factor", "power", "accept"},
    "noise-sweep": {"schema", "kind", "out", "seeds", "d", "k",
                    "init_correlation", "noise_norm_factors", "power",
                    "accept"},
    "sample-complexity": {"schema", "kind", "out", "seeds", "d", "k", "zeta",
                          "sample_sizes", "compare_decomposition", "power",
                          "cluster", "accept"},
    "probe": {"schema", "kind", "out", "seeds", "checks"},
    "generate": {"schema", "kind", "out", "seeds", "what", "d", "k",
                 "components", "weights", "n", "zeta", "views"},
}

_KIND_REQUIRED = {
    "recovery": {"d", "k"},
    "dynamics": {"d", "k", "init_correlation"},
    "noise-sweep": {"d", "k", "init_correlation", "noise_norm_factors"},
    "sample-complexity": {"d", "k", "zeta", "sample_sizes"},
    "probe": {"checks"},
    "generate": {"what", "d", "k"},
}

_CHECK_KEYS = {
    "conditioning": {"check", "d", "k", "sigma2", "trials"},
    "iterative-conditioning": {"check", "d", "k", "chain_length", "trials",
                               "sigma2"},
    "fresh-randomness": {"check", "d", "k", "t", "trials", "enforce_regime"},
    "mixed-norm": {"check", "d", "k", "trials"},
    "gmm-moment": {"check", "d", "k", "sigma", "n", "analytic_tol",
                   "empirical_tol"},
}

EXPERIMENT_KINDS = ("recovery", "dynamics", "noise-sweep",
                    "sample-complexity", "probe")


def _reject_unknown(mapping, allowed, where):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise InvalidArgumentError(
            f"unknown {where} field(s): {', '.join(unknown)}")


def _validate(raw):
    if not isinstance(raw, dict):
        raise InvalidArgumentError("config must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise InvalidArgumentError(
            f"config schema must be {SCHEMA_VERSION}, got {raw.get('schema')!r}")
    kind = raw.get("kind")
    if kind not in _KIND_KEYS:
        raise InvalidArgumentError(
            f"unknown experiment kind {kind!r}; expected one of "
            f"{sorted(_KIND_KEYS)}")
    _reject_unknown(raw, _KIND_KEYS[kind], f"{kind} config")
    missing = sorted(_KIND_REQUIRED[kind] - set(raw))
    if missing:
        raise InvalidArgumentError(
            f"{kind} config missing required field(s): {', '.join(missing)}")

    cfg = dict(raw)
    seeds = dict(cfg.get("seeds", {}))
    _reject_unknown(seeds, _SEED_KEYS, "seeds")
    seeds.setdefault("count", 1)
    seeds.setdefault("base", 0)
    if not (isinstance(seeds["count"], int) and seeds["count"] >= 1):
        raise InvalidArgumentError("seeds.count must be a positive integer")
    if not isinstance(seeds["base"], int):
        raise InvalidArgumentError("seeds.base must be an integer")
    cfg["seeds"] = seeds

    if "power" in cfg:
        _reject_unknown(cfg["power"], _POWER_KEYS, "power")
    if "cluster" in cfg:
        _reject_unknown(cfg["cluster"], _CLUSTER_KEYS, "cluster")
    if "accept" in cfg:
        _reject_unknown(cfg["accept"], _ACCEPT_KEYS.get(kind, set()), "accept")

    if kind in ("recovery", "dynamics", "noise-sweep", "sample-complexity",
                "generate"):
        if not (int(cfg["d"]) >= 1 and int(cfg["k"]) >= 1):
            raise InvalidArgumentError("need d >= 1 and k >= 1")

    if kind == "recovery":
        cfg.setdefault("source", "tensor")
        if cfg["source"] not in ("tensor", "multiview"):
            raise InvalidArgumentError("recovery source must be tensor|multiview")
        if cfg["source"] == "multiview":
            if ("zeta" in cfg) == ("snr_target" in cfg):
                raise InvalidArgumentError(
                    "multiview recovery needs exactly one of zeta, snr_target")
            if "n" not in cfg:
                raise InvalidArgumentError("multiview recovery needs n samples")
            cfg.setdefault("tensor_mode", "implicit-samples")
            cfg.setdefault("inits", 4 * int(cfg["k"]))
        else:
            cfg.setdefault("components", "unit-sphere")
            cfg.setdefault("weights", 1.0)
            cfg.setdefault("inits", "columns+noise")
            cfg.setdefault("init_noise", 0.3)
    elif kind in ("dynamics", "noise-sweep"):
        if int(cfg["d"]) < 2:
            # a start correlation below 1 needs a direction orthogonal to a_1
            raise InvalidArgumentError(f"{kind} needs d >= 2")
        lohi = cfg["init_correlation"]
        if (not isinstance(lohi, (list, tuple)) or len(lohi) != 2
                or not 0 < lohi[0] <= lohi[1] < 1):
            raise InvalidArgumentError(
                "init_correlation must be [lo, hi] with 0 < lo <= hi < 1")
        if kind == "noise-sweep":
            factors = cfg["noise_norm_factors"]
            if not factors or any(f < 0 for f in factors):
                raise InvalidArgumentError(
                    "noise_norm_factors must be nonnegative and nonempty")
    elif kind == "sample-complexity":
        sizes = cfg["sample_sizes"]
        if not sizes or any(int(n) < 2 for n in sizes):
            raise InvalidArgumentError("sample_sizes must all be >= 2")
        if "compare_decomposition" in cfg:
            _reject_unknown(cfg["compare_decomposition"], {"n", "inits"},
                            "compare_decomposition")
    elif kind == "probe":
        checks = cfg["checks"]
        if not isinstance(checks, list) or not checks:
            raise InvalidArgumentError("probe config needs a nonempty checks list")
        for chk in checks:
            name = chk.get("check")
            if name not in _CHECK_KEYS:
                raise InvalidArgumentError(
                    f"unknown probe check {name!r}; expected one of "
                    f"{sorted(_CHECK_KEYS)}")
            _reject_unknown(chk, _CHECK_KEYS[name], f"{name} check")
    elif kind == "generate":
        if cfg["what"] not in ("tensor", "samples"):
            raise InvalidArgumentError("generate what must be tensor|samples")
        if cfg["what"] == "samples" and "n" not in cfg:
            raise InvalidArgumentError("generate samples needs n")
    return cfg


@dataclass
class ExperimentConfig:
    """A validated, normalized experiment description."""

    data: dict

    @property
    def kind(self):
        return self.data["kind"]

    @property
    def out(self):
        return self.data.get("out")

    @property
    def seed_base(self):
        return self.data["seeds"]["base"]

    @property
    def seed_count(self):
        return self.data["seeds"]["count"]

    def canonical_json(self):
        # the output directory is a storage location, not an experiment
        # parameter: it stays out of the canonical form so the same
        # experiment hashes identically wherever it is written
        doc = {key: val for key, val in self.data.items() if key != "out"}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def power_config(self, **overrides):
        kwargs = dict(self.data.get("power", {}))
        kwargs.update(overrides)
        return PowerConfig(**kwargs)

    def cluster_config(self):
        return ClusterConfig(**self.data.get("cluster", {}))


def load_config(source, seed=None, out=None):
    """Load and validate a config from a path, JSON text, or dict.

    ``seed`` overrides seeds.base and ``out`` the output directory (the CLI
    flags route through here), and both become part of the hashed config.
    """
    if isinstance(source, dict):
        raw = source
    else:
        path = os.fspath(source)
        if not os.path.exists(path):
            raise InvalidArgumentError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(f"config is not valid JSON: {exc}")
    cfg = _validate(raw)
    if seed is not None:
        cfg["seeds"] = dict(cfg["seeds"], base=int(seed))
    if out is not None:
        cfg["out"] = os.fspath(out)
    return ExperimentConfig(cfg)


@dataclass
class RunReport:
    """Result of one experiment run: per-seed metrics plus aggregates."""

    kind: str
    config_hash: str
    seed_base: int
    seed_count: int
    per_seed: list
    aggregates: dict
    passed: bool
    regime_violation: bool
    wall_clock_s: float
    library_version: str = __version__
    out_dir: str | None = None
    artifacts: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.per_seed) != self.seed_count:
            raise InvalidArgumentError(
                "per-seed metrics must match the seed count")

    def to_json(self, path=None):
        doc = dict(self.__dict__)
        if path is None:
            return doc
        with open(path, "w", newline="\n") as fh:
            json.dump(_strict_json(doc), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return doc


def _strict_json(value):
    """Replace NaN and +-inf, which JSON cannot hold, by None (``null``)."""
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _fmt_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path, header, rows, config_hash):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(cell) for cell in row) + "\n")


def _write_jsonl(path, rows):
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _median_iqr(values):
    arr = np.asarray([v for v in values if v == v], dtype=np.float64)
    if arr.size == 0:
        return {"median": float("nan"), "iqr": float("nan")}
    q1, q2, q3 = np.percentile(arr, [25, 50, 75])
    return {"median": float(q2), "iqr": float(q3 - q1)}


def _regime_violated(d, k):
    return bool(k >= d ** 1.5)


# ---------------------------------------------------------------------------
# dynamics / noise-sweep


def _tuned_init(a1, rng, lo, hi):
    """Unit start vector with an exact target correlation drawn in [lo, hi]."""
    c = lo + (hi - lo) * rng.random()
    g = rng.standard_normal(a1.shape[0])
    g -= (g @ a1) * a1
    g /= np.linalg.norm(g)
    return c * a1 + math.sqrt(1.0 - c * c) * g, c


def _noise_tensor(d, target_norm, seed):
    """Symmetrized Gaussian d^3 noise scaled to a spectral-norm estimate of
    ``target_norm``, built in one d^3 buffer.

    The draw arrives in row slabs of at most ``_NOISE_SLAB`` doubles (the
    same numbers as one d^3 draw); each slab's six index permutations are
    added into the buffer, which is then averaged, estimated and scaled in
    place.  It equals ``scale_noise_to(symmetrize(draw), ...)`` up to the
    order of the six-term sums.
    """
    rng = stream(seed, 602)
    out = np.zeros((d, d, d))
    rows = min(d, max(1, _NOISE_SLAB // (d * d)))
    buf = np.empty((rows, d, d))
    for lo in range(0, d, rows):
        hi = min(lo + rows, d)
        slab = rng.standard_normal(out=buf[:hi - lo])
        out[lo:hi] += slab
        out[lo:hi] += slab.transpose(0, 2, 1)
        out[:, lo:hi] += slab.transpose(1, 0, 2)
        out[:, lo:hi] += slab.transpose(2, 0, 1)
        out[:, :, lo:hi] += slab.transpose(1, 2, 0)
        out[:, :, lo:hi] += slab.transpose(2, 1, 0)
    out /= 6.0
    # estimate on a read-only view, so the buffer itself stays writable
    current = spectral_norm_estimate(DenseTensor3(out.view(), symmetric=True, check=False),
                                     restarts=4, iters=12, seed=seed)
    out *= target_norm / current
    return DenseTensor3(out, symmetric=True, check=False)


def _dynamics_seed(cfg, seed_value, factor):
    d, k = int(cfg["d"]), int(cfg["k"])
    comps = random_components(d, k, seed=seed_value)
    tensor = FactoredTensor3(comps, np.ones(k))
    lo, hi = cfg["init_correlation"]
    x0, c0 = _tuned_init(comps[:, 0], stream(seed_value, 601), lo, hi)
    pcfg_kwargs = dict(cfg.get("power", {}))
    pcfg_kwargs.setdefault("max_iters", 15)
    pcfg = PowerConfig(track_target=0, **pcfg_kwargs)
    if factor:
        target = factor * math.sqrt(k) / d
        noisy = PerturbedTensor(tensor, _noise_tensor(d, target, seed_value),
                                noise_spectral_norm=target)
        trace = run_power_with_shadow(noisy, x0, pcfg, ground_truth=tensor)
    else:
        trace = run_power(tensor, x0, pcfg, ground_truth=tensor)
    acc = cfg.get("accept", {})
    corrs = trace.correlations
    metrics = {
        "seed": seed_value,
        "init_correlation": c0,
        "iterations": len(trace) - 1,
        "final_correlation": trace.final_correlation(),
        "peak_correlation": trace.peak_correlation(),
        "quadratic_ok": quadratic_progress_ok(
            corrs, d, k,
            rate=acc.get("quadratic_rate", 0.4),
            saturation_fraction=acc.get("saturation_fraction", 0.5)),
        "stop_reason": trace.stop_reason,
    }
    if factor:
        metrics["noise_norm_factor"] = factor
        metrics["max_xi"] = float(np.max(trace.noise_norms))
    return metrics, trace


def _eval_dynamics_accept(acc, per_seed):
    checks = {}
    if "success_correlation" in acc or "success_rate" in acc:
        thr = acc.get("success_correlation", 0.95)
        window = acc.get("within_iterations", None)
        hits = [
            m["final_correlation"] >= thr
            and (window is None or m["iterations"] <= window)
            for m in per_seed
        ]
        checks["success_rate"] = float(np.mean(hits))
        checks["success_rate_ok"] = (
            checks["success_rate"] >= acc.get("success_rate", 0.95))
    if "quadratic_pass_rate" in acc:
        rate = float(np.mean([m["quadratic_ok"] for m in per_seed]))
        checks["quadratic_pass_rate"] = rate
        checks["quadratic_ok"] = rate >= acc["quadratic_pass_rate"]
    if "final_correlation" in acc:
        hits = [m["final_correlation"] >= acc["final_correlation"]
                for m in per_seed]
        checks["final_rate"] = float(np.mean(hits))
        checks["final_rate_ok"] = (
            checks["final_rate"] >= acc.get("final_rate", 0.9))
    if "xi_max" in acc:
        worst = max(m.get("max_xi", 0.0) for m in per_seed)
        checks["max_xi"] = worst
        checks["xi_ok"] = worst <= acc["xi_max"]
    ok = all(v for name, v in checks.items() if name.endswith("_ok"))
    return checks, ok


def _run_dynamics(config, threads):
    cfg = config.data
    base, count = config.seed_base, config.seed_count
    sweep = cfg["kind"] == "noise-sweep"
    factors = cfg["noise_norm_factors"] if sweep \
        else [cfg.get("noise_norm_factor", 0.0)]

    def worker(i):
        out = []
        for factor in factors:
            out.append(_dynamics_seed(cfg, base + i, factor))
        return out

    results = _map_seeds(worker, count, threads)
    per_seed, csv_rows, trace_rows = [], [], []
    noisy = any(f for f in factors)
    for i, seed_runs in enumerate(results):
        if sweep:
            per_seed.append({
                "seed": base + i,
                "factors": {repr(f): m for f, (m, _) in zip(factors, seed_runs)},
            })
        else:
            per_seed.append(seed_runs[0][0])
        for factor, (metrics, trace) in zip(factors, seed_runs):
            for step in trace.steps():
                row = [base + i, step["iteration"], step["correlation"]]
                if noisy:
                    row = [factor] + row + [step["noise_norm"]]
                csv_rows.append(row)
                trace_rows.append(dict(step, seed=base + i,
                                       noise_norm_factor=factor))
    header = (["factor", "seed", "iteration", "correlation", "xi_norm"]
              if noisy else ["seed", "iteration", "correlation"])

    flat = [m for runs in results for (m, _) in runs]
    acc = cfg.get("accept", {})
    aggregates = {
        "final_correlation": _median_iqr([m["final_correlation"] for m in flat]),
        "iterations": _median_iqr([m["iterations"] for m in flat]),
        "quadratic_pass_fraction": float(np.mean([m["quadratic_ok"]
                                                  for m in flat])),
    }
    if sweep:
        by_factor = {}
        for factor in factors:
            subset = [m for m in flat
                      if m.get("noise_norm_factor", 0.0) == factor]
            checks, ok = _eval_dynamics_accept(acc, subset)
            by_factor[repr(factor)] = dict(checks, passed=ok)
        aggregates["by_factor"] = by_factor
        passed = all(v["passed"] for v in by_factor.values())
    else:
        checks, passed = _eval_dynamics_accept(acc, flat)
        aggregates.update(checks)
    return per_seed, aggregates, passed, header, csv_rows, trace_rows


# ---------------------------------------------------------------------------
# recovery


def _recovery_tensor(cfg, seed_value):
    d, k = int(cfg["d"]), int(cfg["k"])
    kind = cfg["components"]
    if kind == "orthonormal":
        if k > d:
            raise InvalidArgumentError("orthonormal components need k <= d")
        comps = np.linalg.qr(stream(seed_value, 610).standard_normal((d, k)))[0]
    else:
        comps = random_components(d, k, seed=seed_value, distribution=kind)
    w_spec = cfg["weights"]
    if isinstance(w_spec, (list, tuple)):
        lo, hi = w_spec
        weights = stream(seed_value, 611).uniform(lo, hi, size=k)
    else:
        weights = np.full(k, float(w_spec))
    return FactoredTensor3(comps, weights)


def _recovery_inits(cfg, tensor, seed_value):
    d, k = tensor.dim, tensor.rank
    spec = cfg["inits"]
    rng = stream(seed_value, 612)
    if spec == "columns+noise":
        cols = []
        for j in range(k):
            g = rng.standard_normal(d)
            x = tensor.components[:, j] + cfg["init_noise"] * g
            cols.append(x / np.linalg.norm(x))
        return cols
    count = int(spec)
    out = []
    for _ in range(count):
        g = rng.standard_normal(d)
        out.append(g / np.linalg.norm(g))
    return out


def _match_metrics(result, truth, acc):
    k = truth.components.shape[1]
    report = match_and_score(result.estimates, truth)
    matched = report.per_component_correlations
    thr = acc.get("correlation_threshold", 0.95)
    recovered = int(np.sum(matched >= thr))
    n_missed = len(report.missed)
    # unmatched unit truth columns count as all-zero estimate columns
    frob_full = math.sqrt(report.frobenius_error ** 2 + n_missed)
    return report, {
        "n_components": int(result.n_components),
        "min_matched_correlation": float(np.min(matched)) if len(matched) else float("nan"),
        "mean_matched_correlation": float(np.mean(matched)) if len(matched) else float("nan"),
        "recovered_fraction": recovered / k,
        "frobenius_error": float(report.frobenius_error),
        "frobenius_error_full": frob_full,
        "missed": n_missed,
        "duplicates_dropped": int(result.diagnostics.get("duplicates_dropped", 0)),
    }


def _recovery_seed_tensor(cfg, seed_value):
    tensor = _recovery_tensor(cfg, seed_value)
    inits = _recovery_inits(cfg, tensor, seed_value)
    pcfg = PowerConfig(**cfg.get("power", {}))
    result = decompose(tensor, inits, pcfg, ClusterConfig(**cfg.get("cluster", {})))
    acc = cfg.get("accept", {})
    report, metrics = _match_metrics(result, tensor, acc)
    errs = [abs(result.weights[i] - tensor.weights[j])
            for i, j in enumerate(report.permutation) if j >= 0]
    metrics["weight_max_err"] = float(max(errs)) if errs else float("nan")
    metrics["seed"] = seed_value
    return metrics


def _recovery_seed_multiview(cfg, seed_value):
    d, k = int(cfg["d"]), int(cfg["k"])
    if "zeta" in cfg:
        zeta = float(cfg["zeta"])
    else:
        zeta = 1.0 / (float(cfg["snr_target"]) * math.sqrt(d))
    comps = random_components(d, k, seed=seed_value)
    model = MixtureModel(comps, np.full(k, 1.0 / k), noise_scale=zeta)
    batch = sample_multiview(model, int(cfg["n"]), seed=seed_value)
    m_inits = min(int(cfg["inits"]), batch.n)
    coverage = len(set(batch.labels[:m_inits].tolist())) if batch.labels is not None else -1
    pcfg = PowerConfig(**cfg.get("power", {}))
    ccfg = ClusterConfig(**cfg.get("cluster", {}))
    result = learn_multiview(batch, cfg["tensor_mode"], pcfg, ccfg,
                             model=model, max_inits=m_inits)
    acc = cfg.get("accept", {})
    truth = FactoredTensor3(comps, np.full(k, 1.0 / k))
    report, metrics = _match_metrics(result, truth, acc)
    snr_rep = snr(batch, model)
    metrics.update({
        "seed": seed_value,
        "zeta": zeta,
        "snr_empirical": snr_rep.empirical,
        "snr_theoretical": snr_rep.theoretical,
        "init_coverage": coverage,
        "coverage_ok": bool(coverage == k),
        "weight_max_err": float("nan"),
    })
    return metrics


def _eval_recovery_accept(acc, metrics, k):
    ok = True
    if "require_components" in acc:
        ok = ok and metrics["n_components"] == acc["require_components"]
    if "min_correlation" in acc:
        ok = ok and metrics["min_matched_correlation"] >= acc["min_correlation"]
    if "weight_tol" in acc:
        ok = ok and metrics["weight_max_err"] <= acc["weight_tol"]
    if "recovered_fraction" in acc:
        ok = ok and metrics["recovered_fraction"] >= acc["recovered_fraction"]
    if "frobenius_factor" in acc:
        # Frobenius error over matched pairs (missed columns are reported
        # separately via recovered_fraction)
        ok = ok and metrics["frobenius_error"] <= acc["frobenius_factor"] * math.sqrt(k)
    return bool(ok)


def _run_recovery(config, threads):
    # match_and_score imports scipy.optimize on first use.  Import it here,
    # before any sample batch exists: imported after one, its modules were
    # left above the freed batch memory, and a 3-seed multiview run at
    # d=50, n=20000 peaked at 126 MB RSS instead of 121 MB.
    import scipy.optimize  # noqa: F401

    cfg = config.data
    base, count = config.seed_base, config.seed_count
    worker = (_recovery_seed_multiview if cfg["source"] == "multiview"
              else _recovery_seed_tensor)

    per_seed = _map_seeds(lambda i: worker(cfg, base + i), count, threads)
    acc = cfg.get("accept", {})
    k = int(cfg["k"])
    seed_ok = [_eval_recovery_accept(acc, m, k) for m in per_seed]
    passed = all(seed_ok)
    aggregates = {
        "recovered_fraction": _median_iqr([m["recovered_fraction"]
                                           for m in per_seed]),
        "frobenius_error": _median_iqr([m["frobenius_error"]
                                        for m in per_seed]),
        "min_matched_correlation": _median_iqr(
            [m["min_matched_correlation"] for m in per_seed]),
        "success_rate": float(np.mean(seed_ok)),
    }
    header = ["seed", "n_components", "recovered_fraction",
              "min_matched_correlation", "frobenius_error", "weight_max_err"]
    csv_rows = [[m["seed"], m["n_components"], m["recovered_fraction"],
                 m["min_matched_correlation"], m["frobenius_error"],
                 m["weight_max_err"]] for m in per_seed]
    return per_seed, aggregates, passed, header, csv_rows, []


# ---------------------------------------------------------------------------
# sample complexity


def _sample_complexity_seed(cfg, seed_value):
    d, k = int(cfg["d"]), int(cfg["k"])
    zeta = float(cfg["zeta"])
    comps = random_components(d, k, seed=seed_value)
    model = MixtureModel(comps, np.full(k, 1.0 / k), noise_scale=zeta)
    exact = population_third_moment(model)
    exact_entries = densify(exact).entries
    errors = {}
    for n in cfg["sample_sizes"]:
        batch = sample_multiview(model, int(n), seed=seed_value)
        emp = empirical_third_moment(batch)
        errors[int(n)] = float(np.linalg.norm(
            (emp.entries - exact_entries).ravel()))
    metrics = {"seed": seed_value, "frobenius_errors": errors}
    if "compare_decomposition" in cfg:
        comp = cfg["compare_decomposition"]
        n_big = int(comp["n"])
        m = int(comp.get("inits", 3 * k))
        rng = stream(seed_value, 620)
        inits = []
        for _ in range(m):
            g = rng.standard_normal(d)
            inits.append(g / np.linalg.norm(g))
        pcfg = PowerConfig(**cfg.get("power", {}))
        ccfg = ClusterConfig(**cfg.get("cluster", {}))
        res_exact = decompose(exact, inits, pcfg, ccfg)
        big = sample_multiview(model, n_big, seed=seed_value)
        res_emp = decompose(SampleTensor3(big), inits, pcfg, ccfg)
        truth = FactoredTensor3(comps, np.full(k, 1.0 / k))
        frob_exact = match_and_score(res_exact.estimates, truth).frobenius_error
        frob_emp = match_and_score(res_emp.estimates, truth).frobenius_error
        metrics["decomposition_frobenius_exact"] = float(frob_exact)
        metrics["decomposition_frobenius_empirical"] = float(frob_emp)
        metrics["decomposition_ratio"] = float(frob_emp / frob_exact) \
            if frob_exact > 0 else float("inf")
    return metrics


def _run_sample_complexity(config, threads):
    cfg = config.data
    base, count = config.seed_base, config.seed_count
    per_seed = _map_seeds(lambda i: _sample_complexity_seed(cfg, base + i),
                          count, threads)
    acc = cfg.get("accept", {})
    aggregates = {}
    passed = True
    n1, n2 = acc.get("ratio_pair", (cfg["sample_sizes"][0],
                                    cfg["sample_sizes"][-1]))
    ratios = [m["frobenius_errors"][int(n1)] / m["frobenius_errors"][int(n2)]
              for m in per_seed]
    aggregates["error_decay_ratio"] = _median_iqr(ratios)
    if "ratio_range" in acc:
        lo, hi = acc["ratio_range"]
        med = aggregates["error_decay_ratio"]["median"]
        aggregates["error_decay_ok"] = bool(lo <= med <= hi)
        passed = passed and aggregates["error_decay_ok"]
    if "compare_decomposition" in cfg:
        dratios = [m["decomposition_ratio"] for m in per_seed]
        aggregates["decomposition_ratio"] = _median_iqr(dratios)
        if "decomposition_factor" in acc:
            med = aggregates["decomposition_ratio"]["median"]
            aggregates["decomposition_ok"] = bool(
                med <= acc["decomposition_factor"])
            passed = passed and aggregates["decomposition_ok"]
    header = ["seed", "n", "frobenius_error"]
    csv_rows = []
    for m in per_seed:
        for n in cfg["sample_sizes"]:
            csv_rows.append([m["seed"], int(n), m["frobenius_errors"][int(n)]])
    return per_seed, aggregates, bool(passed), header, csv_rows, []


# ---------------------------------------------------------------------------
# probe


def _gmm_moment_check(params, seed):
    d, k = int(params["d"]), int(params["k"])
    sigma = float(params["sigma"])
    n = int(params.get("n", 0))
    comps = random_components(d, k, seed=seed)
    priors = np.full(k, 1.0 / k)
    gmm = SphericalGmm(comps, priors, sigma)
    target = densify(FactoredTensor3(comps, priors)).entries
    analytic = gmm_population_modified_moment(gmm).entries
    analytic_dev = float(np.max(np.abs(analytic - target)))
    analytic_tol = float(params.get("analytic_tol", 1e-12))
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
        tol = float(params.get("empirical_tol", 0.05))
        out.update({"n": n, "empirical_frobenius_dev": frob,
                    "empirical_tol": tol, "empirical_ok": frob <= tol})
        passed = passed and out["empirical_ok"]
    out["passed"] = bool(passed)
    return out


def _run_probe_check(chk, seed, threads):
    name = chk["check"]
    if name == "conditioning":
        rep = check_conditioning_lemma(
            chk["d"], chk["k"], chk.get("sigma2", 1.0), chk["trials"], seed,
            threads=threads)
        return rep.to_json()
    if name == "iterative-conditioning":
        rep = check_iterative_conditioning(
            chk["d"], chk["k"], chk.get("chain_length", 3), chk["trials"],
            seed, sigma2=chk.get("sigma2", 1.0), threads=threads)
        return rep.to_json()
    if name == "fresh-randomness":
        rep = check_fresh_randomness(
            chk["d"], chk["k"], chk["t"], chk["trials"], seed,
            enforce_regime=chk.get("enforce_regime", False), threads=threads)
        return rep.to_json()
    if name == "mixed-norm":
        rep = check_mixed_norm_bound(chk["d"], chk["k"], chk["trials"], seed,
                                     threads=threads)
        return rep.to_json()
    if name == "gmm-moment":
        return _gmm_moment_check(chk, seed)
    raise InvalidArgumentError(f"unknown probe check {name!r}")


def _run_probe(config, threads):
    cfg = config.data
    base, count = config.seed_base, config.seed_count

    def worker(i):
        return {
            "seed": base + i,
            "checks": [_run_probe_check(chk, base + i, threads=1)
                       for chk in cfg["checks"]],
        }

    per_seed = _map_seeds(worker, count, threads)
    passed = all(chk.get("passed", False)
                 for entry in per_seed for chk in entry["checks"])
    aggregates = {
        "checks": [chk["check"] if "check" in chk else chk.get("kind", "?")
                   for chk in cfg["checks"]],
        "all_passed": passed,
    }
    header = ["seed", "index", "check", "passed"]
    csv_rows = []
    for entry in per_seed:
        for idx, chk in enumerate(entry["checks"]):
            name = cfg["checks"][idx]["check"]
            csv_rows.append([entry["seed"], idx, name,
                             bool(chk.get("passed", False))])
    return per_seed, aggregates, passed, header, csv_rows, []


# ---------------------------------------------------------------------------
# orchestration


def run_experiment(config, threads=None):
    """Execute a validated experiment config and persist its artifacts.

    Per-seed work is distributed over a worker pool (size from ``threads``
    or the TPI_THREADS environment variable); workers share nothing and
    results merge in seed order, so every artifact is byte-identical for
    any worker count.
    """
    if isinstance(config, (str, os.PathLike, dict)):
        config = load_config(config)
    cfg = config.data
    if cfg["kind"] not in EXPERIMENT_KINDS:
        raise InvalidArgumentError(
            f"config kind {cfg['kind']!r} is not runnable as an experiment")
    start = time.monotonic()
    runner = {
        "dynamics": _run_dynamics,
        "noise-sweep": _run_dynamics,
        "recovery": _run_recovery,
        "sample-complexity": _run_sample_complexity,
        "probe": _run_probe,
    }[cfg["kind"]]
    per_seed, aggregates, passed, header, csv_rows, trace_rows = runner(
        config, threads)
    wall = time.monotonic() - start

    regime = False
    if "d" in cfg and "k" in cfg:
        regime = _regime_violated(int(cfg["d"]), int(cfg["k"]))
    report = RunReport(
        kind=cfg["kind"],
        config_hash=config.config_hash,
        seed_base=config.seed_base,
        seed_count=config.seed_count,
        per_seed=per_seed,
        aggregates=aggregates,
        passed=bool(passed),
        regime_violation=regime,
        wall_clock_s=wall,
        out_dir=config.out,
    )
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        cfg_path = os.path.join(config.out, "config.json")
        with open(cfg_path, "w", newline="\n") as fh:
            fh.write(config.canonical_json() + "\n")
        table = os.path.join(config.out, "table.csv")
        _write_csv(table, header, csv_rows, config.config_hash)
        report.artifacts = {"config": "config.json", "table": "table.csv",
                            "report": "report.json"}
        if trace_rows:
            _write_jsonl(os.path.join(config.out, "traces.jsonl"), trace_rows)
            report.artifacts["traces"] = "traces.jsonl"
        report.to_json(os.path.join(config.out, "report.json"))
    return report


def run_generate(config):
    """Materialize a tensor or a multiview sample batch described by a
    generate config; returns the artifact manifest."""
    if isinstance(config, (str, os.PathLike, dict)):
        config = load_config(config)
    cfg = config.data
    if cfg["kind"] != "generate":
        raise InvalidArgumentError("run_generate needs a generate config")
    if not config.out:
        raise InvalidArgumentError("generate needs an output directory")
    os.makedirs(config.out, exist_ok=True)
    seed = config.seed_base
    d, k = int(cfg["d"]), int(cfg["k"])
    manifest = {"kind": "generate", "what": cfg["what"],
                "config_hash": config.config_hash, "artifacts": {}}
    if cfg["what"] == "tensor":
        comps = random_components(d, k, seed=seed,
                                  distribution=cfg.get("components",
                                                       "unit-sphere"))
        w_spec = cfg.get("weights", 1.0)
        if isinstance(w_spec, (list, tuple)):
            weights = stream(seed, 611).uniform(w_spec[0], w_spec[1], size=k)
        else:
            weights = np.full(k, float(w_spec))
        tensor = FactoredTensor3(comps, weights)
        path = os.path.join(config.out, "tensor.tpi3")
        save_tensor(path, tensor, meta={"config_hash": config.config_hash})
        manifest["artifacts"]["tensor"] = "tensor.tpi3"
    else:
        comps = random_components(d, k, seed=seed)
        model = MixtureModel(comps, np.full(k, 1.0 / k),
                             noise_scale=float(cfg.get("zeta", 0.0)),
                             views=int(cfg.get("views", 3)))
        batch = sample_multiview(model, int(cfg["n"]), seed=seed)
        prefix = os.path.join(config.out, "samples")
        batch.save(prefix, meta={"config_hash": config.config_hash})
        manifest["artifacts"]["samples"] = "samples"
    with open(os.path.join(config.out, "generate.json"), "w",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_run(run_dir):
    """Load a stored run, refusing mismatched config hashes."""
    cfg_path = os.path.join(run_dir, "config.json")
    rep_path = os.path.join(run_dir, "report.json")
    for path in (cfg_path, rep_path):
        if not os.path.exists(path):
            raise InvalidArgumentError(f"not a stored run: missing {path}")
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    with open(rep_path) as fh:
        report = json.load(fh)
    actual = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    if actual != report.get("config_hash"):
        raise InvalidArgumentError(
            "config hash mismatch: stored config does not match the report")
    return cfg, report


def render_report(report, fmt="csv"):
    """Re-render a stored report's aggregates as a csv or json table."""
    if fmt == "json":
        return json.dumps(report["aggregates"], indent=2, sort_keys=True)
    if fmt != "csv":
        raise InvalidArgumentError("format must be csv or json")
    lines = [f"# config_hash={report['config_hash']}", "metric,value"]

    def emit(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix},{json.dumps(value)}")
        else:
            # report.json stores NaN and +-inf as null
            lines.append(f"{prefix},{_fmt_cell(float('nan') if value is None else value)}")

    emit("", report["aggregates"])
    return "\n".join(lines) + "\n"
