"""Reproducible experiment driver.

Experiments are described by strict JSON configs (versioned schema, unknown
fields are errors), executed across seeds by a shared-nothing worker pool,
and persisted as a report JSON plus CSV tables and JSON-lines traces.  Every
output embeds the config hash; per-seed metrics are merged in seed order, so
results are byte-identical for any worker count.  All acceptance thresholds
live in the config's ``accept`` block: a run "passes" exactly when every
declared threshold holds.

A kind is one entry in ``_KINDS``: a spec, walked by ``_walk`` to check a
config and fill its defaults (only cross-field rules are code); a seed
function, which runs one seed and returns its metrics and its table.csv and
traces.jsonl rows; and a summary, which reduces the per-seed metrics to the
aggregates, the verdict and the table header.  ``run_experiment`` maps the
seed function over the seeds and writes the rows in seed order.
"""

import hashlib
import itertools
import json
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .decompose import decompose, learn_multiview, match_and_score
from .errors import InvalidArgumentError
from .models import (
    MixtureModel,
    SampleTensor3,
    empirical_third_moment,
    population_third_moment,
    sample_multiview,
    snr,
)
from .power import run_power, run_power_with_shadow
from .probes import (
    check_conditioning_lemma,
    check_fresh_randomness,
    check_gmm_moment,
    check_iterative_conditioning,
    check_mixed_norm_bound,
    quadratic_progress_ok,
)
from .rng import map_in_order as _map_seeds, stream
# symmetrize and scale_noise_to are not called here; they stay importable
# from this module because perfbench's tracer looks them up on it
from .tensors import (
    FactoredTensor3,
    PerturbedTensor,
    _noise_tensor,
    densify,
    random_components,
    scale_noise_to,
    symmetrize,
)

_FLOAT_FMT = "%.17g"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config schema.  A spec maps each field name to its type, or to a (type,
# default) pair.  A type is a check(value, where) that returns the value or
# raises, or a nested spec for a JSON object; a selector's type (``_select``)
# also names the fields that each of its values adds.  A default is
# _REQUIRED, a value, or a function of the fields before it.  A field without
# a default, or whose default function returns None, stays out of the config
# when absent.

_REQUIRED = object()


def _type(name, ok):
    def check(value, where):
        if not ok(value):
            raise InvalidArgumentError(f"{where} must be {name}, got {value!r}")
        return value
    check.name, check.ok = name, ok
    return check


INT = _type("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
COUNT = _type("an integer >= 1", lambda v: INT.ok(v) and v >= 1)
NONNEG_INT = _type("an integer >= 0", lambda v: INT.ok(v) and v >= 0)
# finite only: config.json is written back as JSON, which has no NaN or infinity
NUM = _type("a finite number",
            lambda v: INT.ok(v) or (isinstance(v, float) and math.isfinite(v)))
NONNEG = _type("a number >= 0", lambda v: NUM.ok(v) and v >= 0)
POSITIVE = _type("a number > 0", lambda v: NUM.ok(v) and v > 0)
STR = _type("a string", lambda v: isinstance(v, str))
OBJECT = _type("a JSON object", lambda v: isinstance(v, dict))


def _choice(*values):
    return _type(" or ".join(map(repr, values)), lambda v: isinstance(v, str) and v in values)


def _either(*types):
    return _type(" or ".join(t.name for t in types), lambda v: any(t.ok(v) for t in types))


def _list_of(elem, length=None):
    """A nonempty list, or one of exactly ``length`` items, of ``elem`` values."""
    size = f"a list of {length}" if length else "a nonempty list"
    return _type(f"{size}, each {elem.name}", lambda v: (
        isinstance(v, (list, tuple)) and (len(v) == length if length else len(v) > 0)
        and all(elem.ok(x) for x in v)))


def _select(**variants):
    """The type of a selector field: one of the variant names, each mapped to
    the spec of the fields that variant adds."""
    check = _choice(*variants)
    check.variants = variants
    return check


def _fill(out, name, entry, label):
    """Give field ``name`` its default if absent; whether it is in ``out``."""
    if name not in out:
        default = entry[1] if isinstance(entry, tuple) else None
        default = default(out) if callable(default) else default
        if default is _REQUIRED:
            raise InvalidArgumentError(f"{label}: missing required field {name!r}")
        if default is None:
            return False
        out[name] = default
    return True


def _walk(raw, spec, where=""):
    """Check ``raw`` against ``spec`` and return a copy: unknown or missing
    fields and mistyped values raise, and an absent field takes its default.
    A selector's value, once checked, adds its variant's fields right after
    it.  Fields are visited in spec order."""
    label = where or "config"
    OBJECT(raw, label)
    out, fields = dict(raw), {}
    for name, entry in spec.items():
        fields[name] = entry
        kind = entry[0] if isinstance(entry, tuple) else entry
        if hasattr(kind, "variants") and _fill(out, name, entry, label):
            fields.update(kind.variants[kind(out[name], f"{where}.{name}" if where else name)])
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise InvalidArgumentError(f"{label}: unknown field(s): {', '.join(unknown)}")
    for name, entry in fields.items():
        if not _fill(out, name, entry, label):
            continue
        kind = entry[0] if isinstance(entry, tuple) else entry
        at = f"{where}.{name}" if where else name
        out[name] = _walk(out[name], kind, at) if isinstance(kind, dict) else kind(out[name], at)
    return out


# fields: the kind's spec, ``accept`` among them; seed(cfg, seed): one seed's
# metrics, table.csv rows and traces.jsonl rows; summary(cfg, per_seed): the
# aggregates, the verdict and the table.csv header; rules: cross-field
# (test, message) pairs
_Kind = namedtuple("_Kind", "fields seed summary rules", defaults=((),))

_SCHEMA = _type(str(SCHEMA_VERSION), lambda v: INT.ok(v) and v == SCHEMA_VERSION)
_COMMON = {"schema": (_SCHEMA, _REQUIRED), "kind": (STR, _REQUIRED), "out": STR,
           "seeds": ({"count": (COUNT, 1), "base": (NONNEG_INT, 0)}, {})}
_DK = {"d": (COUNT, _REQUIRED), "k": (COUNT, _REQUIRED)}


def _validate(raw):
    OBJECT(raw, "config")
    kind = _KINDS[_choice(*_KINDS)(raw.get("kind"), "kind")]
    cfg = _walk(raw, {**_COMMON, **kind.fields})
    for test, message in kind.rules:
        if not test(cfg):
            raise InvalidArgumentError(f"{cfg['kind']} config: {message}")
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


def _read_json(path, what):
    """The JSON document in the UTF-8 file ``path``.  A missing path, a
    directory, or a file that is not UTF-8 JSON is bad input."""
    if not os.path.isfile(path):
        state = "is not a file" if os.path.exists(path) else "not found"
        raise InvalidArgumentError(f"{what} {state}: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise InvalidArgumentError(f"{path} is not valid UTF-8 JSON: {exc}") from None


def load_config(source, seed=None, out=None):
    """Load and validate a config from a path to a JSON file, or a dict.

    ``seed`` overrides seeds.base and ``out`` the output directory (the CLI
    flags route through here), and both become part of the hashed config.
    """
    raw = source if isinstance(source, dict) else _read_json(os.fspath(source), "config file")
    cfg = _validate(raw)
    if seed is not None:
        # a numpy integer counts; a float or a bool raises rather than truncating
        seed = int(seed) if isinstance(seed, np.integer) else seed
        cfg["seeds"] = dict(cfg["seeds"], base=NONNEG_INT(seed, "seed"))
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


def _csv_field(text):
    """``text`` as one CSV field: in double quotes, with its quotes doubled,
    when it holds a comma, a quote or a line break (a JSON list does)."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path, lines):
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _median_iqr(values):
    arr = np.asarray([v for v in values if v == v], dtype=np.float64)
    if arr.size == 0:
        return {"median": float("nan"), "iqr": float("nan")}
    q1, q2, q3 = np.percentile(arr, [25, 50, 75])
    return {"median": float(q2), "iqr": float(q3 - q1)}


# ---------------------------------------------------------------------------
# problem instances shared by the kinds


def _component_tensor(cfg, seed):
    """The factored tensor of a tensor recovery config: ``components`` drawn
    per seed, ``weights`` a constant or a uniform [lo, hi] draw."""
    d, k = cfg["d"], cfg["k"]
    if cfg["components"] == "orthonormal":
        comps = np.linalg.qr(stream(seed, 610).standard_normal((d, k)))[0]
    else:
        comps = random_components(d, k, seed=seed)
    if isinstance(cfg["weights"], (list, tuple)):
        lo, hi = cfg["weights"]
        weights = stream(seed, 611).uniform(lo, hi, size=k)
    else:
        weights = np.full(k, float(cfg["weights"]))
    return FactoredTensor3(comps, weights)


def _mixture(cfg, seed, zeta):
    """A multiview mixture with uniform priors over per-seed components, and
    its truth tensor."""
    k = cfg["k"]
    comps = random_components(cfg["d"], k, seed=seed)
    model = MixtureModel(comps, np.full(k, 1.0 / k), noise_scale=zeta)
    return model, FactoredTensor3(comps, np.full(k, 1.0 / k))


def _unit_starts(rng, d, count, centers=None, noise=1.0):
    """``count`` unit starts from one ``standard_normal(d)`` draw g each: g
    normalized, or column j of ``centers`` plus ``noise * g``, normalized."""
    out = []
    for j in range(count):
        g = rng.standard_normal(d)
        x = g if centers is None else centers[:, j] + noise * g
        out.append(x / np.linalg.norm(x))
    return out


# ---------------------------------------------------------------------------
# dynamics / noise-sweep


def _tuned_init(a1, rng, lo, hi):
    """Unit start vector with an exact target correlation drawn in [lo, hi]."""
    c = lo + (hi - lo) * rng.random()
    g = rng.standard_normal(a1.shape[0])
    g -= (g @ a1) * a1
    g /= np.linalg.norm(g)
    return c * a1 + math.sqrt(1.0 - c * c) * g, c


def _dynamics_run(cfg, seed_value, factor):
    """One run tracked against a_1: its metrics and its traces.jsonl rows."""
    d, k = cfg["d"], cfg["k"]
    comps = random_components(d, k, seed=seed_value)
    tensor = FactoredTensor3(comps, np.ones(k))
    lo, hi = cfg["init_correlation"]
    x0, c0 = _tuned_init(comps[:, 0], stream(seed_value, 601), lo, hi)
    max_iters = cfg.get("power", {}).get("max_iters", 15)
    if factor:
        noisy = PerturbedTensor(tensor, _noise_tensor(d, factor * math.sqrt(k) / d, seed_value))
        trace = run_power_with_shadow(noisy, x0, max_iters, target=comps[:, 0])
    else:
        trace = run_power(tensor, x0, max_iters, target=comps[:, 0])
    acc = cfg.get("accept", {})
    metrics = {
        "seed": seed_value,
        "init_correlation": c0,
        "iterations": len(trace) - 1,
        "final_correlation": trace.final_correlation(),
        "peak_correlation": trace.peak_correlation(),
        "quadratic_ok": quadratic_progress_ok(
            trace.correlations, d, k,
            rate=acc.get("quadratic_rate", 0.4),
            saturation_fraction=acc.get("saturation_fraction", 0.5)),
        "stop_reason": trace.stop_reason,
    }
    if factor:
        metrics["noise_norm_factor"] = factor
        metrics["max_xi"] = float(np.max(trace.noise_norms))
    steps = zip(trace.target_correlations, trace.unnormalized_norms, trace.noise_component_norms)
    return metrics, [{"iteration": t, "correlation": corr, "unnormalized_norm": unnorm,
                      "noise_norm": xi, "seed": seed_value, "noise_norm_factor": factor}
                     for t, (corr, unnorm, xi) in enumerate(steps)]


def _dynamics_seed(cfg, seed_value):
    """A seed's run at each noise factor; a dynamics config has the one factor
    0.  Its table.csv rows carry the factor and xi when some factor is not 0."""
    factors = cfg.get("noise_norm_factors", [0.0])
    runs = [_dynamics_run(cfg, seed_value, factor) for factor in factors]
    traces = [step for _, steps in runs for step in steps]
    columns = (["noise_norm_factor", "seed", "iteration", "correlation", "noise_norm"]
               if any(factors) else ["seed", "iteration", "correlation"])
    rows = [[step[name] for name in columns] for step in traces]
    if cfg["kind"] == "dynamics":
        return runs[0][0], rows, traces
    return ({"seed": seed_value, "factors": {repr(f): m for f, (m, _) in zip(factors, runs)}},
            rows, traces)


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


def _dynamics_summary(cfg, per_seed):
    factors = cfg.get("noise_norm_factors", [0.0])
    sweep = cfg["kind"] == "noise-sweep"
    flat = [m for entry in per_seed for m in entry["factors"].values()] if sweep else per_seed
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
            checks, ok = _eval_dynamics_accept(
                acc, [entry["factors"][repr(factor)] for entry in per_seed])
            by_factor[repr(factor)] = dict(checks, passed=ok)
        aggregates["by_factor"] = by_factor
        passed = all(v["passed"] for v in by_factor.values())
    else:
        checks, passed = _eval_dynamics_accept(acc, flat)
        aggregates.update(checks)
    header = (["factor", "seed", "iteration", "correlation", "xi_norm"]
              if any(factors) else ["seed", "iteration", "correlation"])
    return aggregates, passed, header


# ---------------------------------------------------------------------------
# recovery


def _match_metrics(result, truth, acc):
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
        "recovered_fraction": recovered / truth.rank,
        "frobenius_error": float(report.frobenius_error),
        "frobenius_error_full": frob_full,
        "missed": n_missed,
        "duplicates_dropped": int(result.diagnostics.get("duplicates_dropped", 0)),
    }


def _decompose_options(cfg):
    """The ``max_iters`` and ``nu`` keywords of ``decompose`` that a
    decomposing config sets in its power and cluster blocks."""
    return {**cfg.get("power", {}), **cfg.get("cluster", {})}


def _tensor_recovery(cfg, seed_value):
    tensor = _component_tensor(cfg, seed_value)
    rng = stream(seed_value, 612)
    if cfg["inits"] == "columns+noise":
        inits = _unit_starts(rng, tensor.dim, tensor.rank, tensor.components, cfg["init_noise"])
    else:
        inits = _unit_starts(rng, tensor.dim, cfg["inits"])
    result = decompose(tensor, inits, **_decompose_options(cfg))
    report, metrics = _match_metrics(result, tensor, cfg.get("accept", {}))
    errs = [abs(result.weights[i] - tensor.weights[j])
            for i, j in enumerate(report.permutation) if j >= 0]
    metrics["weight_max_err"] = float(max(errs)) if errs else float("nan")
    return metrics


def _multiview_recovery(cfg, seed_value):
    if "zeta" in cfg:
        zeta = float(cfg["zeta"])
    else:
        zeta = 1.0 / (float(cfg["snr_target"]) * math.sqrt(cfg["d"]))
    model, truth = _mixture(cfg, seed_value, zeta)
    batch = sample_multiview(model, cfg["n"], seed=seed_value)
    m_inits = min(cfg["inits"], batch.n)
    coverage = len(set(batch.labels[:m_inits].tolist()))
    result = learn_multiview(batch, cfg["tensor_mode"], model=model, max_inits=m_inits,
                             **_decompose_options(cfg))
    report, metrics = _match_metrics(result, truth, cfg.get("accept", {}))
    snr_rep = snr(batch, model)
    metrics.update({
        "zeta": zeta,
        "snr_empirical": snr_rep.empirical,
        "snr_theoretical": snr_rep.theoretical,
        "init_coverage": coverage,
        "coverage_ok": bool(coverage == cfg["k"]),
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


_RECOVERY_HEADER = ["seed", "n_components", "recovered_fraction", "min_matched_correlation",
                    "frobenius_error", "weight_max_err"]


def _recovery_seed(cfg, seed_value):
    run = _multiview_recovery if cfg["source"] == "multiview" else _tensor_recovery
    metrics = dict(run(cfg, seed_value), seed=seed_value)
    return metrics, [[metrics[name] for name in _RECOVERY_HEADER]], []


def _recovery_summary(cfg, per_seed):
    acc = cfg.get("accept", {})
    seed_ok = [_eval_recovery_accept(acc, m, cfg["k"]) for m in per_seed]
    aggregates = {name: _median_iqr([m[name] for m in per_seed])
                  for name in ("recovered_fraction", "frobenius_error", "min_matched_correlation")}
    aggregates["success_rate"] = float(np.mean(seed_ok))
    return aggregates, all(seed_ok), _RECOVERY_HEADER


# ---------------------------------------------------------------------------
# sample complexity


def _sample_complexity_seed(cfg, seed_value):
    model, truth = _mixture(cfg, seed_value, float(cfg["zeta"]))
    exact = population_third_moment(model)
    exact_entries = densify(exact).entries
    errors = {}
    for n in cfg["sample_sizes"]:
        batch = sample_multiview(model, n, seed=seed_value)
        emp = empirical_third_moment(batch)
        errors[n] = float(np.linalg.norm(
            (emp.entries - exact_entries).ravel()))
    metrics = {"seed": seed_value, "frobenius_errors": errors}
    if "compare_decomposition" in cfg:
        comp = cfg["compare_decomposition"]
        inits = _unit_starts(stream(seed_value, 620), cfg["d"],
                             comp.get("inits", 3 * cfg["k"]))
        options = _decompose_options(cfg)
        res_exact = decompose(exact, inits, **options)
        big = sample_multiview(model, comp["n"], seed=seed_value)
        res_emp = decompose(SampleTensor3(big), inits, **options)
        frob_exact = match_and_score(res_exact.estimates, truth).frobenius_error
        frob_emp = match_and_score(res_emp.estimates, truth).frobenius_error
        metrics["decomposition_frobenius_exact"] = float(frob_exact)
        metrics["decomposition_frobenius_empirical"] = float(frob_emp)
        metrics["decomposition_ratio"] = float(frob_emp / frob_exact) \
            if frob_exact > 0 else float("inf")
    return metrics, [[seed_value, n, errors[n]] for n in cfg["sample_sizes"]], []


def _sample_complexity_summary(cfg, per_seed):
    acc = cfg.get("accept", {})
    n1, n2 = acc.get("ratio_pair", (cfg["sample_sizes"][0],
                                    cfg["sample_sizes"][-1]))
    ratios = [m["frobenius_errors"][n1] / m["frobenius_errors"][n2]
              for m in per_seed]
    aggregates = {"error_decay_ratio": _median_iqr(ratios)}
    if "ratio_range" in acc:
        lo, hi = acc["ratio_range"]
        med = aggregates["error_decay_ratio"]["median"]
        aggregates["error_decay_ok"] = bool(lo <= med <= hi)
    if "compare_decomposition" in cfg:
        dratios = [m["decomposition_ratio"] for m in per_seed]
        aggregates["decomposition_ratio"] = _median_iqr(dratios)
        if "decomposition_factor" in acc:
            med = aggregates["decomposition_ratio"]["median"]
            aggregates["decomposition_ok"] = bool(
                med <= acc["decomposition_factor"])
    passed = all(v for name, v in aggregates.items() if name.endswith("_ok"))
    return aggregates, passed, ["seed", "n", "frobenius_error"]


# ---------------------------------------------------------------------------
# probe


_DKT = {**_DK, "trials": (COUNT, _REQUIRED)}
_DK100 = {**_DK, "trials": (_type("an integer >= 100", lambda v: INT.ok(v) and v >= 100),
                            _REQUIRED)}

# check name -> (function, parameter spec).  The function takes the
# parameters by name, plus the seed.  A parameter's default is the
# function's own, or the spec's where the function has none; it is filled in
# at the call and never enters the config.
_PROBE_CHECKS = {
    "conditioning": (check_conditioning_lemma, {**_DK100, "sigma2": (POSITIVE, 1.0)}),
    "iterative-conditioning": (check_iterative_conditioning, {
        **_DK100, "chain_length": (
            _type("an integer in [1, 5]", lambda v: INT.ok(v) and 1 <= v <= 5), 3),
        "sigma2": POSITIVE}),
    "fresh-randomness": (check_fresh_randomness, {
        **_DKT, "t": (NONNEG_INT, _REQUIRED)}),
    "mixed-norm": (check_mixed_norm_bound, _DKT),
    "gmm-moment": (check_gmm_moment, {
        **_DK, "sigma": (POSITIVE, _REQUIRED), "n": NONNEG_INT, "analytic_tol": NONNEG,
        "empirical_tol": NONNEG}),
}


def _probe_checks(value, where):
    """Check a probe ``checks`` list, each entry against its check's
    parameters; the list is kept as given, without defaults."""
    _list_of(OBJECT)(value, where)
    for i, chk in enumerate(value):
        name = _choice(*_PROBE_CHECKS)(chk.get("check"), f"{where}[{i}].check")
        params = _walk(chk, {"check": STR, **_PROBE_CHECKS[name][1]}, f"{where}[{i}]")
        if name == "fresh-randomness" and params["t"] >= params["k"]:
            raise InvalidArgumentError(f"{where}[{i}]: need t < k")
        if name == "mixed-norm" and not 2 <= params["d"] < params["k"]:
            raise InvalidArgumentError(f"{where}[{i}]: need 2 <= d < k")
    return value


def _run_check(chk, seed):
    fn, params = _PROBE_CHECKS[chk["check"]]
    kwargs = _walk({key: val for key, val in chk.items() if key != "check"}, params)
    return fn(seed=seed, **kwargs)


def _probe_seed(cfg, seed_value):
    checks = [_run_check(chk, seed_value) for chk in cfg["checks"]]
    rows = [[seed_value, idx, chk["check"], bool(result.get("passed", False))]
            for idx, (chk, result) in enumerate(zip(cfg["checks"], checks))]
    return {"seed": seed_value, "checks": checks}, rows, []


def _probe_summary(cfg, per_seed):
    passed = all(chk.get("passed", False) for entry in per_seed for chk in entry["checks"])
    return ({"checks": [chk["check"] for chk in cfg["checks"]], "all_passed": passed}, passed,
            ["seed", "index", "check", "passed"])


# ---------------------------------------------------------------------------
# the kinds


# The power and cluster fields a kind's runs read: decompose's max_iters
# (null or absent: its default budget) and nu.  In a dynamics run an absent
# max_iters means 15 steps.
_MAX_ITERS = _either(COUNT, _type("null", lambda v: v is None))
_NU = _type("a number in (0, 1]", lambda v: NUM.ok(v) and 0 < v <= 1)
_DECOMPOSE = {"power": {"max_iters": _MAX_ITERS}, "cluster": {"nu": _NU}}
_RECOVERY_ACCEPT = dict(require_components=INT, min_correlation=NUM, recovered_fraction=NUM,
                        correlation_threshold=NUM, frobenius_factor=NUM)
_DYNAMICS = {
    **_DK, "init_correlation": (_list_of(NUM, 2), _REQUIRED),
    "power": {"max_iters": COUNT},
    "accept": dict(success_correlation=NUM, within_iterations=INT, success_rate=NUM,
                   quadratic_rate=NUM, quadratic_pass_rate=NUM, saturation_fraction=NUM,
                   final_correlation=NUM, final_rate=NUM, xi_max=NUM),
}
_DYNAMICS_RULES = (
    # a start correlation below 1 needs a direction orthogonal to a_1
    (lambda cfg: cfg["d"] >= 2, "needs d >= 2"),
    (lambda cfg: 0 < cfg["init_correlation"][0] <= cfg["init_correlation"][1] < 1,
     "init_correlation must be [lo, hi] with 0 < lo <= hi < 1"),
)

_KINDS = {
    "recovery": _Kind({
        **_DK,
        "source": (_select(
            tensor={
                "components": (_choice("unit-sphere", "orthonormal"), "unit-sphere"),
                "weights": (_either(NUM, _list_of(NUM, 2)), 1.0),
                "inits": (_either(COUNT, _choice("columns+noise")), "columns+noise"),
                "init_noise": (NONNEG, 0.3),
                "accept": {**_RECOVERY_ACCEPT, "weight_tol": NUM},
            },
            # weight_tol bounds weight_max_err, which is NaN without true weights
            multiview={
                "inits": (COUNT, lambda cfg: 4 * cfg["k"]),
                "tensor_mode": (_choice("exact-tensor", "implicit-samples"), "implicit-samples"),
                "n": (COUNT, _REQUIRED), "zeta": NONNEG, "snr_target": POSITIVE,
                "accept": _RECOVERY_ACCEPT,
            }), "tensor"),
        **_DECOMPOSE,
    }, _recovery_seed, _recovery_summary, (
        (lambda cfg: cfg["source"] == "tensor" or ("zeta" in cfg) != ("snr_target" in cfg),
         "multiview recovery needs exactly one of zeta, snr_target"),
        # k orthonormal columns need k <= d, and a factored tensor nonzero weights
        (lambda cfg: cfg["source"] == "multiview" or (
            (cfg["components"] == "unit-sphere" or cfg["k"] <= cfg["d"])
            and np.any(cfg["weights"])),
         "tensor recovery needs k <= d with orthonormal components, and a nonzero weight"),
    )),
    "dynamics": _Kind(_DYNAMICS, _dynamics_seed, _dynamics_summary, _DYNAMICS_RULES),
    "noise-sweep": _Kind({**_DYNAMICS, "noise_norm_factors": (_list_of(NONNEG), _REQUIRED)},
                         _dynamics_seed, _dynamics_summary, _DYNAMICS_RULES + (
        # a repeated factor would run every seed twice and write its rows twice
        (lambda cfg: len(set(cfg["noise_norm_factors"])) == len(cfg["noise_norm_factors"]),
         "noise_norm_factors must not repeat a value"),
    )),
    "sample-complexity": _Kind({
        **_DK, "zeta": (NONNEG, _REQUIRED),
        "sample_sizes": (_list_of(_type("an integer >= 2", lambda v: INT.ok(v) and v >= 2)),
                         _REQUIRED),
        "compare_decomposition": {"n": (COUNT, _REQUIRED), "inits": COUNT},
        **_DECOMPOSE,
        "accept": dict(ratio_range=_list_of(NUM, 2), ratio_pair=_list_of(INT, 2),
                       decomposition_factor=NUM),
    }, _sample_complexity_seed, _sample_complexity_summary, (
        (lambda cfg: all(n in cfg["sample_sizes"]
                         for n in cfg.get("accept", {}).get("ratio_pair", ())),
         "accept.ratio_pair must be two of the sample_sizes"),
        (lambda cfg: "compare_decomposition" in cfg or not {"power", "cluster"} & set(cfg),
         "power and cluster only apply with compare_decomposition"),
    )),
    "probe": _Kind({"checks": (_probe_checks, _REQUIRED)}, _probe_seed, _probe_summary),
}


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
    kind, base = _KINDS[cfg["kind"]], config.seed_base
    start = time.monotonic()
    # per seed, in seed order: its metrics, table.csv rows and traces.jsonl rows
    seeds = _map_seeds(lambda i: kind.seed(cfg, base + i), config.seed_count, threads)
    per_seed = [metrics for metrics, _, _ in seeds]
    aggregates, passed, header = kind.summary(cfg, per_seed)
    wall = time.monotonic() - start

    report = RunReport(
        kind=cfg["kind"],
        config_hash=config.config_hash,
        seed_base=config.seed_base,
        seed_count=config.seed_count,
        per_seed=per_seed,
        aggregates=aggregates,
        passed=bool(passed),
        regime_violation="d" in cfg and cfg["k"] >= cfg["d"] ** 1.5,
        wall_clock_s=wall,
        out_dir=config.out,
    )
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_lines(os.path.join(config.out, "config.json"), [config.canonical_json()])
        _write_lines(os.path.join(config.out, "table.csv"), itertools.chain(
            [f"# config_hash={config.config_hash}", ",".join(header)],
            (",".join(map(_fmt_cell, row)) for _, rows, _ in seeds for row in rows)))
        report.artifacts = {"config": "config.json", "table": "table.csv",
                            "report": "report.json"}
        traces = [row for _, _, rows in seeds for row in rows]
        if traces:
            _write_lines(os.path.join(config.out, "traces.jsonl"),
                         (json.dumps(row, sort_keys=True) for row in traces))
            report.artifacts["traces"] = "traces.jsonl"
        report.to_json(os.path.join(config.out, "report.json"))
    return report


def load_run(run_dir):
    """Load a stored run, refusing mismatched config hashes."""
    cfg = _read_json(os.path.join(run_dir, "config.json"), "stored run file")
    rep_path = os.path.join(run_dir, "report.json")
    report = _read_json(rep_path, "stored run file")
    if not isinstance(report, dict) or not isinstance(report.get("aggregates"), dict):
        raise InvalidArgumentError(f"{rep_path} is not a JSON object with an aggregates object")
    # a stored config.json never holds ``out``, so it hashes as it was run
    if not isinstance(cfg, dict) or ExperimentConfig(cfg).config_hash != report.get("config_hash"):
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
            lines.append(f"{prefix},{_csv_field(json.dumps(value))}")
        else:
            # report.json stores NaN and +-inf as null
            lines.append(f"{prefix},{_fmt_cell(float('nan') if value is None else value)}")

    emit("", report["aggregates"])
    return "\n".join(lines) + "\n"
