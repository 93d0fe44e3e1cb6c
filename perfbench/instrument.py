"""Per-layer tracing of ``tpi`` from outside the package.

``traced(recorder)`` replaces the public functions of ``tpi.tensors``,
``tpi.models``, ``tpi.power``, ``tpi.decompose`` and ``tpi.experiments`` with
span-recording wrappers *at the module where the caller looks them up*, and
puts the originals back on exit.  Nothing under ``src/`` changes.  Modules are
found through ``sys.modules``: ``tpi.decompose`` as an attribute is the
re-exported function, not the module.

Left out on purpose: ``probes`` (no workload spends time there), ``container``
(only ``tpi generate`` reaches it), ``rng`` (its draws count as self time of
the layer that calls it) and ``cli`` (argument parsing; its start-up cost is
part of ``setup_s``).

``experiments._map_seeds`` is wrapped as well: it is the worker-pool
boundary, and wrapping each per-seed task in an ``experiments.seed`` span
whose parent is the submitting span makes spans on pool threads nest under
the run that caused them.
"""

import sys
from contextlib import contextmanager

LAYERS = ("tensors", "models", "power", "decompose", "experiments")
STOP_REASONS = ("fixed-point", "max-iters", "target-correlation")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("tensors.contract_1.factored.calls", "count", "lower"),
    ("tensors.contract_1.factored.self_s", "s", "lower"),
    ("tensors.contract_1.factored.gflops_computed", "Gflop", "lower"),
    ("tensors.contract_1.dense.calls", "count", "lower"),
    ("tensors.contract_1.dense.self_s", "s", "lower"),
    ("tensors.contract_1.perturbed.calls", "count", "lower"),
    ("tensors.contract_scalar.calls", "count", "lower"),
    ("tensors.contract_scalar.s", "s", "lower"),
    ("tensors.symmetrize.s", "s", "lower"),
    ("tensors.scale_noise_to.s", "s", "lower"),
    ("tensors.densify.s", "s", "lower"),
    ("models.SampleTensor3.contract_1.calls", "count", "lower"),
    ("models.SampleTensor3.contract_1.self_s", "s", "lower"),
    ("models.SampleTensor3.contract_1.gflops_computed", "Gflop", "lower"),
    ("models.SampleTensor3.contract_1.gbytes_per_s_computed", "GB/s", "higher"),
    ("models.sample_multiview.s", "s", "lower"),
    ("models.empirical_third_moment.s", "s", "lower"),
    ("power.run_power.calls", "count", "lower"),
    ("power.run_power.s", "s", "lower"),
    ("power.run_power.self_s", "s", "lower"),
    ("power.steps", "count", "lower"),
    ("power.steps_per_run", "steps", "lower"),
    ("power.stop_reason.fixed-point", "count", "lower"),
    ("power.stop_reason.max-iters", "count", "lower"),
    ("power.stop_reason.target-correlation", "count", "lower"),
    ("power.power_step.calls", "count", "lower"),
    ("power.power_step.s", "s", "lower"),
    ("power.run_power_with_shadow.calls", "count", "lower"),
    ("power.run_power_with_shadow.s", "s", "lower"),
    ("power.run_power_with_shadow.self_s", "s", "lower"),
    ("decompose.decompose.s", "s", "lower"),
    ("decompose.decompose.self_s", "s", "lower"),
    ("decompose.init_runs_s", "s", "lower"),
    ("decompose.refine_s", "s", "lower"),
    ("decompose.score_s", "s", "lower"),
    ("decompose.useful_fraction", "ratio", "higher"),
    ("decompose.duplicates_dropped", "count", "lower"),
    ("decompose.match_and_score.s", "s", "lower"),
    ("decompose.learn_multiview.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.pool_speedup", "ratio", "higher"),
    ("experiments.tracing_overhead", "ratio", "lower"),
    ("experiments.nonstrict_reports", "count", "lower"),
    ("bench.reason_confirmed", "bool", "higher"),
)


@contextmanager
def traced(recorder):
    """Install span wrappers on the ``tpi`` layers for the duration."""
    mods = {name: sys.modules[f"tpi.{name}"] for name in LAYERS}
    tensors, models, power = mods["tensors"], mods["models"], mods["power"]
    decompose, experiments = mods["decompose"], mods["experiments"]
    add = recorder.add

    def contraction_name(tensor, *_args):
        if isinstance(tensor, tensors.FactoredTensor3):
            return "tensors.contract_1.factored"
        if isinstance(tensor, tensors.DenseTensor3):
            return "tensors.contract_1.dense"
        if isinstance(tensor, tensors.PerturbedTensor):
            return "tensors.contract_1.perturbed"
        return "tensors.contract_1.implicit"

    def count_contraction(args, _kwargs, _result):
        tensor = args[0]
        if isinstance(tensor, tensors.FactoredTensor3):
            add("factored_flops", 6 * tensor.dim * tensor.rank)

    def count_samples(args, _kwargs, _result):
        z1 = args[0]._Z1
        d, n = z1.shape
        add("sample_flops", 6 * d * n)
        add("sample_bytes", 3 * d * n * 8)

    def count_trace(_args, _kwargs, trace):
        add("power_runs")
        add("power_steps", len(trace) - 1)
        add("stop_reason." + trace.stop_reason)

    def count_decomposition(args, _kwargs, result):
        add("decompose_inits", len(args[1]))
        add("decompose_emitted", result.n_components)
        add("decompose_duplicates", result.diagnostics["duplicates_dropped"])

    originals = []

    def patch(owner, attr, name, on_call=None):
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, recorder.wrap(fn, name, on_call))

    def traced_map(worker, count, threads=None):
        parent = recorder.current()

        def seed_task(i):
            token = recorder.open(parent=parent)
            try:
                return worker(i)
            finally:
                recorder.close(token, "experiments.seed")

        return map_seeds(seed_task, count, threads)

    map_seeds = experiments._map_seeds
    try:
        # contract_1 is looked up in tensors itself (perturbed recursion,
        # contract_scalar, the spectral-norm loop) and in power.
        for owner in (tensors, power):
            patch(owner, "contract_1", contraction_name, count_contraction)
        patch(models.SampleTensor3, "contract_1", "models.SampleTensor3.contract_1",
              count_samples)
        patch(decompose, "contract_scalar", "tensors.contract_scalar")
        patch(decompose, "run_power", "power.run_power", count_trace)
        patch(decompose, "power_step", "power.power_step")
        # learn_multiview calls decompose and imports its tensors from models
        patch(decompose, "decompose", "decompose.decompose", count_decomposition)
        for layer, attrs in (("tensors", ("symmetrize", "scale_noise_to", "densify")),
                             ("models", ("sample_multiview", "empirical_third_moment",
                                         "population_third_moment", "snr")),
                             ("decompose", ("learn_multiview", "match_and_score"))):
            for attr in attrs:
                patch(experiments, attr, f"{layer}.{attr}")
        patch(experiments, "decompose", "decompose.decompose", count_decomposition)
        for attr in ("run_power", "run_power_with_shadow"):
            patch(experiments, attr, f"power.{attr}", count_trace)
        originals.append((experiments, "_map_seeds", map_seeds))
        experiments._map_seeds = traced_map
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def layer_metrics(recorder, traced_wall_s, untraced_wall_s, pool_speedup,
                  nonstrict_reports):
    """Per-layer figures of one traced call, as {name: value}.

    Times sum over threads, so on a pooled workload they are thread-seconds.
    """
    by_name = recorder.summary()
    counts = recorder.counts

    def row(name):
        return by_name.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    names = {span[0]: span[2] for span in recorder.spans}
    stage = {"power.run_power": 0.0, "power.power_step": 0.0, "tensors.contract_scalar": 0.0}
    for _sid, parent, name, _tid, start, end in recorder.spans:
        if name in stage and names.get(parent) == "decompose.decompose":
            stage[name] += end - start

    samples = row("models.SampleTensor3.contract_1")
    out = {}
    for rep in ("factored", "dense", "perturbed"):
        out[f"tensors.contract_1.{rep}.calls"] = row(f"tensors.contract_1.{rep}")["calls"]
        out[f"tensors.contract_1.{rep}.self_s"] = row(f"tensors.contract_1.{rep}")["self_s"]
    out["tensors.contract_1.factored.gflops_computed"] = counts["factored_flops"] / 1e9
    for name in ("tensors.contract_scalar", "power.run_power", "power.power_step",
                 "power.run_power_with_shadow", "decompose.decompose"):
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.s"] = row(name)["s"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in ("tensors.symmetrize", "tensors.scale_noise_to", "tensors.densify",
                 "models.sample_multiview", "models.empirical_third_moment",
                 "decompose.match_and_score", "decompose.learn_multiview"):
        out[f"{name}.s"] = row(name)["s"]
    out["models.SampleTensor3.contract_1.calls"] = samples["calls"]
    out["models.SampleTensor3.contract_1.self_s"] = samples["self_s"]
    out["models.SampleTensor3.contract_1.gflops_computed"] = counts["sample_flops"] / 1e9
    out["models.SampleTensor3.contract_1.gbytes_per_s_computed"] = (
        counts["sample_bytes"] / 1e9 / samples["s"] if samples["s"] > 0 else 0.0)
    out["power.steps"] = counts["power_steps"]
    out["power.steps_per_run"] = (counts["power_steps"] / counts["power_runs"]
                                  if counts["power_runs"] else 0.0)
    for reason in STOP_REASONS:
        out[f"power.stop_reason.{reason}"] = counts["stop_reason." + reason]
    out["decompose.init_runs_s"] = stage["power.run_power"]
    out["decompose.refine_s"] = stage["power.power_step"]
    out["decompose.score_s"] = stage["tensors.contract_scalar"]
    out["decompose.useful_fraction"] = (counts["decompose_emitted"] / counts["decompose_inits"]
                                        if counts["decompose_inits"] else 0.0)
    out["decompose.duplicates_dropped"] = counts["decompose_duplicates"]
    out["experiments.self_s"] = (row("experiments.run_experiment")["self_s"]
                                 + row("experiments.seed")["self_s"])
    out["experiments.pool_speedup"] = pool_speedup
    out["experiments.tracing_overhead"] = traced_wall_s / untraced_wall_s
    out["experiments.nonstrict_reports"] = nonstrict_reports
    return {name: out[name] for name, _unit, _better in PER_LAYER if name in out}

